"""Property-based tests over random networks and requirement sets."""

import itertools
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
    EvaluationError,
    ForAllActors,
    FormatError,
    MetricId,
    NetworkConstraint,
    NetworkError,
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
    role_candidates,
    search_exhaustive,
    search_greedy_peel,
    serialize_edge_list,
    serialize_matrix_csv,
    serialize_requirements,
    SearchConfig,
    SearchError,
    is_defined,
)
from vbereq.evaluator import SubsetJudge
from vbereq.fixtures import load_wholesale, template_wholesaler
from vbereq.metrics import (
    ACTOR_METRICS,
    METRIC_TABLE,
    MODES,
    NETWORK_METRICS,
    UNIT_INTERVAL_METRICS,
    VIEWS,
)
from vbereq.search import OBJECTIVES
from tests.oracles import brute_broker, brute_member, brute_planner, brute_search

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
def requirement_bodies(draw, anchored: bool, allow_parent: bool = False):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(network_constraints())
    pred = predicates(allow_parent=allow_parent)
    if kind == 1:
        except_anchor = anchored and draw(st.booleans())
        return ForAllActors(draw(pred), except_anchor=except_anchor)
    if kind == 2:
        if draw(st.booleans()):
            den = draw(st.integers(1, 6))
            bound = Fraction(draw(st.integers(0, den)), den)
            return CountActors(
                draw(pred), draw(_COMPARATORS), bound, fraction_of_size=True
            )
        return CountActors(draw(pred), draw(_COMPARATORS), draw(st.integers(0, 10)))
    scopes = [PathScope.ALL_PAIRS]
    if anchored:
        scopes += [PathScope.ANCHOR_TO_OTHERS, PathScope.OTHERS_TO_OTHERS]
    return PairwisePath(
        draw(st.sampled_from(scopes)), draw(_COMPARATORS), draw(st.integers(0, 6))
    )


@st.composite
def requirement_sets(draw, allow_parent: bool = False):
    anchored = draw(st.booleans())
    reqs = []
    if anchored:
        reqs.append(Requirement("anchor", AnchorDesignation()))
    for _ in range(draw(st.integers(1, 4))):
        body = draw(requirement_bodies(anchored, allow_parent))
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


@st.composite
def path_rule_sets(draw):
    """One or two path rules alone: they pass often enough that a solution
    lost to pruning would show."""
    anchored = draw(st.booleans())
    reqs = [Requirement("anchor", AnchorDesignation())] if anchored else []
    scopes = [PathScope.ALL_PAIRS]
    if anchored:
        scopes += [PathScope.ANCHOR_TO_OTHERS, PathScope.OTHERS_TO_OTHERS]
    for _ in range(draw(st.integers(1, 2))):
        body = PairwisePath(
            draw(st.sampled_from(scopes)), draw(_COMPARATORS), draw(st.integers(0, 4))
        )
        reqs.append(Requirement(f"r{len(reqs) + 1}", body))
    return RequirementSet("paths", tuple(reqs))


@st.composite
def search_cases(draw, max_size: int = 7):
    """(network, requirement set with @parent atoms, anchor, min, max)."""
    net = draw(networks(max_size=max_size))
    reqs = draw(st.one_of(requirement_sets(allow_parent=True), path_rule_sets()))
    anchor = draw(st.sampled_from(net.actors)) if reqs.needs_anchor else None
    lo = draw(st.integers(1, net.size))
    hi = draw(st.integers(lo, net.size))
    return net, reqs, anchor, lo, hi


# The bundled case: only sizes of 4 and four friends of A are left to decide.
WHOLESALE_CASE = (load_wholesale(), template_wholesaler(), "A", 1, 10)


def search_limits(parent, reqs, anchor=None, *, view="directed", mode="strict"):
    """What a search's judge rules out: ``(sizes, actors, conflicts)``."""
    judge = SubsetJudge(parent, reqs, anchor, view=view, mode=mode)
    return judge.sizes, judge.actors, judge.conflicts


class TestSearchAgainstBruteForce:
    """Pruned exhaustive search finds what deciding every subset finds."""

    @settings(max_examples=150, deadline=None)
    @given(
        search_cases(),
        st.sampled_from(VIEWS),
        st.sampled_from(MODES),
        st.sampled_from(OBJECTIVES),
    )
    @example(WHOLESALE_CASE, "undirected", "strict", "size")
    @example(WHOLESALE_CASE, "directed", "lenient", "first")
    def test_same_solutions_as_brute_force(self, case, view, mode, objective):
        net, reqs, anchor, lo, hi = case
        cfg = SearchConfig(lo, hi, objective=objective)
        found = search_exhaustive(net, reqs, cfg, anchor, view=view, mode=mode)
        assert [(s.actors, s.objective_value) for s in found] == brute_search(
            net, reqs, lo, hi, anchor, objective, view=view, mode=mode
        )

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.sampled_from(VIEWS))
    @example(WHOLESALE_CASE, "undirected")
    def test_cap_counts_exactly_the_subsets_no_rule_excludes(self, case, view):
        net, reqs, anchor, lo, hi = case
        sizes, actors, conflicts = search_limits(net, reqs, anchor, view=view)
        decided = sum(
            1
            for k in range(lo, hi + 1)
            if k in sizes
            for combo in itertools.combinations(actors, k)
            if (anchor is None or anchor in combo)
            and conflicts.isdisjoint(itertools.combinations(combo, 2))
        )
        cfg = SearchConfig(lo, hi, enumeration_cap=max(decided, 1))
        search_exhaustive(net, reqs, cfg, anchor, view=view)
        if decided > 1:
            cfg = SearchConfig(lo, hi, enumeration_cap=decided - 1)
            with pytest.raises(SearchError, match="cap exceeded"):
                search_exhaustive(net, reqs, cfg, anchor, view=view)

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.sampled_from(VIEWS), st.sampled_from(MODES))
    @example(WHOLESALE_CASE, "undirected", "strict")
    def test_limits_exclude_no_satisfying_subset(self, case, view, mode):
        net, reqs, anchor, _, _ = case
        sizes, admissible, conflicts = search_limits(
            net, reqs, anchor, view=view, mode=mode
        )
        satisfying = brute_search(
            net, reqs, 1, net.size, anchor, "size", view=view, mode=mode
        )
        for actors, _ in satisfying:
            assert len(actors) in sizes
            assert set(actors) <= set(admissible)
            assert not conflicts & set(itertools.combinations(actors, 2))


@st.composite
def subnetworks(draw, max_size: int = 8):
    """(parent, net): a random network and the subnetwork it induces on a
    random non-empty subset, built from the parent's internal ties."""
    parent = draw(networks(max_size=max_size))
    chosen = draw(st.lists(st.sampled_from(parent.actors), min_size=1, unique=True))
    actors = tuple(a for a in parent.actors if a in chosen)
    ties = frozenset((a, b) for a, b in parent.ties if a in chosen and b in chosen)
    return parent, SocialNetwork(actors, ties)


def _raised(call) -> str:
    with pytest.raises(EvaluationError) as info:
        call()
    return str(info.value)


class TestSatisfies:
    """A search's judge accepts exactly the subsets ``evaluate`` passes."""

    @settings(max_examples=300, deadline=None)
    @given(
        subnetworks(max_size=7),
        requirement_sets(allow_parent=True),
        st.sampled_from(VIEWS),
        st.sampled_from(MODES),
        st.data(),
    )
    def test_agrees_with_evaluate(self, pair, reqs, view, mode, data):
        parent, net = pair
        anchor = data.draw(st.sampled_from(net.actors)) if reqs.needs_anchor else None
        judge = SubsetJudge(parent, reqs, anchor, view=view, mode=mode)
        induced = parent.induced(net.actors)
        assert induced == net
        report = evaluate(induced, reqs, anchor, parent=parent, view=view, mode=mode)
        assert judge.decide(net.actors) == (induced if report.overall else None)

    @settings(max_examples=100, deadline=None)
    @given(networks(max_size=6), requirement_sets(allow_parent=True), st.booleans())
    def test_raises_what_evaluate_raises(self, parent, reqs, unknown):
        # An anchor that is not an actor of the network or none at all, or
        # an anchor for a set that designates none.
        if reqs.needs_anchor:
            anchor = "Z" if unknown else None
        else:
            anchor = parent.actors[0]
        assert _raised(lambda: SubsetJudge(parent, reqs, anchor)) == _raised(
            lambda: evaluate(parent, reqs, anchor)
        )

    @pytest.mark.parametrize("kwargs", [{"view": "bogus"}, {"mode": "bogus"}])
    def test_unknown_view_or_mode_raises_before_any_rule(self, kwargs):
        net = SocialNetwork(("A",))
        reqs = RequirementSet("anchored", (Requirement("anchor", AnchorDesignation()),))
        assert _raised(lambda: SubsetJudge(net, reqs, "A", **kwargs)) == _raised(
            lambda: evaluate(net, reqs, "A", **kwargs)
        )


_ROLE_ORACLES = {"member": brute_member, "planner": brute_planner, "broker": brute_broker}


class TestRoleScreening:
    """Role screening against scans that recompute every others' mean."""

    @settings(max_examples=200, deadline=None)
    @given(networks(min_size=2))
    # C has no neighbours, so its recip_density and the others' mean that
    # A and B are compared against are UNDEFINED.
    @example(SocialNetwork(tuple("ABC"), frozenset({("A", "B"), ("B", "A")})))
    def test_role_candidates_match_the_oracles(self, net):
        report = evaluate(net, RequirementSet("roles"))
        for role, oracle in _ROLE_ORACLES.items():
            assert role_candidates(net, role) == oracle(net.actors, net.ties)
            assert report.role_candidacies[role] == tuple(role_candidates(net, role))

    @settings(max_examples=60, deadline=None)
    @given(networks(min_size=2, max_size=7), requirement_sets())
    def test_peel_report_screens_the_solution_network(self, net, reqs):
        anchor = net.actors[0] if reqs.needs_anchor else None
        sol = search_greedy_peel(net, reqs, SearchConfig(1, net.size), anchor)
        if sol is None:
            return
        ties = frozenset((a, b) for a, b in net.ties if a in sol.actors and b in sol.actors)
        assert sol.report.role_candidacies == {
            role: tuple(oracle(sol.actors, ties)) for role, oracle in _ROLE_ORACLES.items()
        }


class TestInduced:
    @settings(max_examples=200, deadline=None)
    @given(networks(), st.data())
    def test_matches_the_network_built_from_the_internal_ties(self, net, data):
        chosen = data.draw(st.lists(st.sampled_from(net.actors), min_size=1, unique=True))
        sub = net.induced(chosen)
        ordered = tuple(a for a in net.actors if a in chosen)
        built = SocialNetwork(
            ordered,
            frozenset((a, b) for a, b in net.ties if a in chosen and b in chosen),
        )
        assert sub == built and hash(sub) == hash(built)
        assert (sub.actors, sub.ties) == (built.actors, built.ties)
        for a in ordered:
            assert sub.out_neighbors(a) == built.out_neighbors(a)
            assert sub.in_neighbors(a) == built.in_neighbors(a)
        for undirected in (False, True):
            assert sub.distances(undirected) == built.distances(undirected)
        inner = data.draw(st.lists(st.sampled_from(ordered), min_size=1, unique=True))
        assert sub.induced(inner) == net.induced(inner)

    @settings(max_examples=50, deadline=None)
    @given(networks())
    def test_unknown_actor_and_empty_subset_raise(self, net):
        with pytest.raises(NetworkError, match="unknown actor 'Z'"):
            net.induced([net.actors[0], "Z"])
        with pytest.raises(NetworkError, match="at least one actor"):
            net.induced([])
