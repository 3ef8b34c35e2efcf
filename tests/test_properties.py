"""Property-based tests over random networks and requirement sets."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vbereq import (
    AnchorDesignation,
    And,
    Atom,
    AvgOfOthers,
    Comparator,
    CountActors,
    ForAllActors,
    FormatError,
    MetricId,
    NetworkConstraint,
    Not,
    Or,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementSet,
    RequirementSyntaxError,
    SocialNetwork,
    actor_metric,
    evaluate,
    explain,
    network_metric,
    observe_actor_metric,
    observe_network_metric,
    parse_edge_list,
    parse_matrix_csv,
    parse_requirements,
    render_report,
    search_exhaustive,
    serialize_edge_list,
    serialize_matrix_csv,
    serialize_requirements,
    SearchConfig,
    is_defined,
)
from vbereq.metrics import (
    ACTOR_METRICS,
    METRIC_TABLE,
    MODES,
    NETWORK_METRICS,
    UNIT_INTERVAL_METRICS,
    VIEWS,
)

ACTORS = tuple("ABCDEFGHIJ")


@st.composite
def networks(draw, min_size: int = 1, max_size: int = 8):
    n = draw(st.integers(min_size, max_size))
    actors = ACTORS[:n]
    pairs = sorted((a, b) for a in actors for b in actors if a != b)
    ties = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return SocialNetwork(actors, frozenset(ties))


_ACTOR_METRIC_LIST = sorted(ACTOR_METRICS, key=lambda m: m.value)
_COMPARATORS = st.sampled_from(sorted(Comparator, key=lambda c: c.value))


@st.composite
def atoms(draw, allow_parent: bool = False):
    metric = draw(st.sampled_from(_ACTOR_METRIC_LIST))
    if draw(st.booleans()):
        reference = AvgOfOthers(draw(st.sampled_from(_ACTOR_METRIC_LIST)))
    elif metric in UNIT_INTERVAL_METRICS:
        den = draw(st.integers(1, 10))
        reference = Fraction(draw(st.integers(0, den)), den)
    elif metric is MetricId.CLOSENESS:
        reference = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 12)))
    else:
        reference = draw(st.integers(0, 9))
    on_parent = draw(st.booleans()) if allow_parent else False
    return Atom(metric, draw(_COMPARATORS), reference, on_parent=on_parent)


def predicates(allow_parent: bool = False):
    return st.recursive(
        atoms(allow_parent=allow_parent),
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.lists(kids, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
            st.lists(kids, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
        ),
        max_leaves=5,
    )


@st.composite
def network_constraints(draw):
    metric = draw(
        st.sampled_from(
            [
                MetricId.SIZE,
                MetricId.DENSITY,
                MetricId.AVG_PATH_LENGTH,
                MetricId.RECIPROCATED_TIE_RATIO,
            ]
        )
    )
    if metric is MetricId.SIZE:
        threshold = draw(st.integers(0, 10))
    elif metric is MetricId.AVG_PATH_LENGTH:
        threshold = Fraction(draw(st.integers(0, 30)), draw(st.integers(1, 10)))
    else:
        den = draw(st.integers(1, 10))
        threshold = Fraction(draw(st.integers(0, den)), den)
    return NetworkConstraint(metric, draw(_COMPARATORS), threshold)


@st.composite
def requirement_bodies(draw, anchored: bool):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(network_constraints())
    if kind == 1:
        except_anchor = anchored and draw(st.booleans())
        return ForAllActors(draw(predicates()), except_anchor=except_anchor)
    if kind == 2:
        if draw(st.booleans()):
            den = draw(st.integers(1, 6))
            bound = Fraction(draw(st.integers(0, den)), den)
            return CountActors(
                draw(predicates()), draw(_COMPARATORS), bound, fraction_of_size=True
            )
        return CountActors(draw(predicates()), draw(_COMPARATORS), draw(st.integers(0, 10)))
    scopes = [PathScope.ALL_PAIRS]
    if anchored:
        scopes += [PathScope.ANCHOR_TO_OTHERS, PathScope.OTHERS_TO_OTHERS]
    return PairwisePath(
        draw(st.sampled_from(scopes)), draw(_COMPARATORS), draw(st.integers(0, 6))
    )


@st.composite
def requirement_sets(draw):
    anchored = draw(st.booleans())
    reqs = []
    if anchored:
        reqs.append(Requirement("anchor", AnchorDesignation()))
    for _ in range(draw(st.integers(1, 4))):
        body = draw(requirement_bodies(anchored))
        reqs.append(Requirement(f"r{len(reqs) + 1}", body))
    return RequirementSet("prop", tuple(reqs))


class TestMetricInvariants:
    @settings(max_examples=200, deadline=None)
    @given(networks())
    def test_degree_identities(self, net):
        n = net.size
        out_sum = sum(actor_metric(net, MetricId.OUT_DEGREE, a) for a in net.actors)
        in_sum = sum(actor_metric(net, MetricId.IN_DEGREE, a) for a in net.actors)
        assert out_sum == in_sum == net.tie_count
        for a in net.actors:
            din = actor_metric(net, MetricId.IN_DEGREE, a)
            dout = actor_metric(net, MetricId.OUT_DEGREE, a)
            total = actor_metric(net, MetricId.TOTAL_DEGREE, a)
            nbhd = actor_metric(net, MetricId.NEIGHBORHOOD_SIZE, a)
            recip = actor_metric(net, MetricId.RECIPROCATED_PARTNER_COUNT, a)
            assert total == din + dout
            assert recip <= min(din, dout)
            assert max(din, dout) <= nbhd <= din + dout
            assert nbhd <= n - 1

    @settings(max_examples=200, deadline=None)
    @given(networks(min_size=2))
    def test_unit_interval_metrics_stay_in_range(self, net):
        for metric in (MetricId.DENSITY, MetricId.RECIPROCATED_TIE_RATIO):
            value = network_metric(net, metric)
            if is_defined(value):
                assert 0 <= value <= 1
        for a in net.actors:
            for metric in (
                MetricId.IN_DENSITY,
                MetricId.OUT_DENSITY,
                MetricId.RECIPROCATED_DENSITY,
            ):
                value = actor_metric(net, metric, a)
                if is_defined(value):
                    assert 0 <= value <= 1

    @settings(max_examples=150, deadline=None)
    @given(networks(min_size=2))
    def test_undirected_view_never_increases_path_metrics(self, net):
        for a in net.actors:
            ecc_d = actor_metric(net, MetricId.ECCENTRICITY, a)
            ecc_u = actor_metric(net, MetricId.ECCENTRICITY, a, view="undirected")
            if is_defined(ecc_d):
                assert is_defined(ecc_u) and ecc_u <= ecc_d
            clo_d = actor_metric(net, MetricId.CLOSENESS, a)
            clo_u = actor_metric(net, MetricId.CLOSENESS, a, view="undirected")
            if is_defined(clo_d):
                assert is_defined(clo_u) and clo_u >= clo_d

    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_symmetrized_views_coincide(self, net):
        sym = net.symmetrized()
        for a in net.actors:
            assert (
                actor_metric(sym, MetricId.IN_DEGREE, a)
                == actor_metric(sym, MetricId.OUT_DEGREE, a)
                == actor_metric(net, MetricId.NEIGHBORHOOD_SIZE, a)
            )


def _lookups(metric, net, actor):
    """(plain, observe) lookups in ``metric``'s own scope, then in the other."""
    network = [
        lambda **kw: network_metric(net, metric, **kw),
        lambda **kw: observe_network_metric(net, metric, **kw),
    ]
    actor_scope = [
        lambda **kw: actor_metric(net, metric, actor, **kw),
        lambda **kw: observe_actor_metric(net, metric, actor, **kw),
    ]
    if metric in NETWORK_METRICS:
        return network, actor_scope
    return actor_scope, network


class TestMetricTable:
    def test_one_row_per_metric_and_scopes_split_the_ids(self):
        assert sorted(r.metric.value for r in METRIC_TABLE) == sorted(
            m.value for m in MetricId
        )
        assert NETWORK_METRICS | ACTOR_METRICS == set(MetricId)
        assert not NETWORK_METRICS & ACTOR_METRICS

    @settings(max_examples=100, deadline=None)
    @given(
        networks(),
        st.integers(0, len(ACTORS) - 1),
        st.sampled_from(VIEWS),
        st.sampled_from(MODES),
    )
    def test_lookups_agree_in_every_view_and_mode(self, net, pick, view, mode):
        actor = net.actors[pick % net.size]
        for metric in MetricId:
            own, other = _lookups(metric, net, actor)
            value, observed = (lookup(view=view, mode=mode) for lookup in own)
            assert observed.metric is metric
            assert observed.actor == (None if metric in NETWORK_METRICS else actor)
            assert observed.value == value
            if observed.ratio is not None:
                assert Fraction(*observed.ratio) == value
            for lookup in other:
                with pytest.raises(ValueError, match="-scoped, not "):
                    lookup(view=view, mode=mode)
            for lookup in own:
                with pytest.raises(ValueError, match="view"):
                    lookup(view="bogus", mode=mode)
                with pytest.raises(ValueError, match="mode"):
                    lookup(view=view, mode="bogus")


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_matrix(self, net):
        assert parse_matrix_csv(serialize_matrix_csv(net)) == net

    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_edge_list(self, net):
        assert parse_edge_list(serialize_edge_list(net)) == net

    @settings(max_examples=100, deadline=None)
    @given(networks())
    def test_symmetric_edge_list(self, net):
        sym = net.symmetrized()
        text = serialize_edge_list(sym, symmetric=True)
        assert parse_edge_list(text, symmetric=True) == sym

    @settings(max_examples=200, deadline=None)
    @given(requirement_sets())
    def test_grammar(self, reqs):
        text = serialize_requirements(reqs)
        reparsed = parse_requirements(text)
        assert reparsed == reqs
        assert serialize_requirements(reparsed) == text


@st.composite
def edited(draw, valid_texts):
    """A valid text with up to three short stretches replaced by any text."""
    text = draw(valid_texts)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.text(max_size=3)) + text[end:]
    return text


class TestParsersOnArbitraryText:
    """Any text, or a valid file with a few edits, either parses to a value
    that round-trips or fails with the parser's own error type; no other
    exception escapes."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), edited(networks().map(serialize_edge_list))), st.booleans())
    def test_edge_list(self, text, symmetric):
        try:
            net = parse_edge_list(text, symmetric=symmetric)
        except FormatError:
            return
        again = serialize_edge_list(net, symmetric=symmetric)
        assert parse_edge_list(again, symmetric=symmetric) == net

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), edited(networks().map(serialize_matrix_csv))))
    def test_matrix(self, text):
        try:
            net = parse_matrix_csv(text)
        except FormatError:
            return
        assert parse_matrix_csv(serialize_matrix_csv(net)) == net

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(), edited(requirement_sets().map(serialize_requirements))))
    @example("require a : size >= " + "9" * 5000)
    @example("require a : density >= 1/" + "9" * 5000)
    def test_requirements(self, text):
        try:
            reqs = parse_requirements(text)
        except RequirementSyntaxError:
            return
        assert parse_requirements(serialize_requirements(reqs)) == reqs


class TestEvaluationInvariants:
    @settings(max_examples=150, deadline=None)
    @given(networks(min_size=1, max_size=7), requirement_sets())
    def test_reports_are_coherent(self, net, reqs):
        anchor = net.actors[0] if reqs.needs_anchor else None
        report = evaluate(net, reqs, anchor=anchor)
        assert len(report.verdicts) == len(reqs.requirements)
        assert report.overall == all(v.satisfied for v in report.verdicts)
        actor_set = set(net.actors)
        for verdict in report.verdicts:
            assert set(verdict.witnesses) <= actor_set
            assert {a for a, _ in verdict.violators} <= actor_set
            if verdict.satisfied:
                assert not verdict.violators
        for role in ("member", "planner", "broker"):
            assert set(report.role_candidacies[role]) <= actor_set
        lines = explain(report).splitlines()
        assert lines[-1] in ("overall: PASS", "overall: FAIL")
        assert len(lines) == len(report.verdicts) + 4
        json.loads(render_report(report, "json"))

    @settings(max_examples=150, deadline=None)
    @given(networks(min_size=1, max_size=7), requirement_sets())
    def test_evaluation_is_deterministic(self, net, reqs):
        anchor = net.actors[0] if reqs.needs_anchor else None
        first = evaluate(net, reqs, anchor=anchor)
        second = evaluate(net, reqs, anchor=anchor)
        assert render_report(first, "json") == render_report(second, "json")


class TestSearchInvariants:
    @settings(max_examples=60, deadline=None)
    @given(networks(min_size=2, max_size=6), requirement_sets(), st.data())
    def test_exhaustive_solutions_satisfy(self, net, reqs, data):
        lo = data.draw(st.integers(1, net.size), label="min_size")
        hi = data.draw(st.integers(lo, net.size), label="max_size")
        anchor = net.actors[0] if reqs.needs_anchor else None
        cfg = SearchConfig(min_size=lo, max_size=hi)
        solutions = search_exhaustive(net, reqs, cfg, anchor)
        values = []
        for sol in solutions:
            assert lo <= len(sol.actors) <= hi
            assert set(sol.actors) <= set(net.actors)
            if anchor is not None:
                assert anchor in sol.actors
            assert sol.report.overall
            check = evaluate(net.induced(sol.actors), reqs, anchor=anchor, parent=net)
            assert check.overall
            values.append(Fraction(sol.objective_value))
        assert values == sorted(values, reverse=True)
