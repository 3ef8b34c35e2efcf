"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a visible
one-line PASS/FAIL verdict for it, independent of pytest's own reporting.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from vbereq import (
    AnchorDesignation,
    And,
    Atom,
    Comparator,
    CountActors,
    ForAllActors,
    MetricId,
    NetworkConstraint,
    Not,
    Or,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementSet,
    SearchConfig,
    SocialNetwork,
    actor_metric,
    evaluate,
    is_defined,
    network_metric,
    parse_edge_list,
    parse_matrix_csv,
    parse_requirements,
    render_metrics,
    render_report,
    role_candidates,
    search_exhaustive,
    search_greedy_peel,
    serialize_edge_list,
    serialize_matrix_csv,
    serialize_requirements,
    shortest_path_length,
    reachable_fraction,
)
from vbereq.values import UNREACHABLE

from tests.oracles import (
    brute_avg_path_length,
    brute_closeness,
    brute_density,
    brute_distance,
    brute_eccentricity,
    brute_in_degree,
    brute_mutual_pairs,
    brute_neighborhood,
    brute_out_degree,
    brute_recip_partners,
    brute_recip_ratio,
)

README = Path(__file__).parents[1] / "README.md"

M = MetricId
C = Comparator


@contextmanager
def criterion(capsys, number: int, summary: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} FAIL: {summary}")
        raise
    with capsys.disabled():
        print(f"criterion {number} PASS: {summary}")


def _round2(value: Fraction) -> Fraction:
    """Round half up to two decimal places, exactly."""
    scaled = (value.numerator * 200 + value.denominator) // (2 * value.denominator)
    return Fraction(scaled, 100)


def test_criterion_1_steel10_aggregates(capsys, steel10):
    with criterion(capsys, 1, "steel10 aggregates (size, ties, density) under 1s"):
        start = time.perf_counter()
        assert steel10.size == 10
        assert steel10.tie_count == 51
        density = network_metric(steel10, M.DENSITY)
        assert density == Fraction(51, 90)
        from vbereq import decimal_str, observe_network_metric, percent_str

        observed = observe_network_metric(steel10, M.DENSITY)
        assert observed.ratio == (51, 90)
        assert percent_str(observed.value) == "57%"
        assert decimal_str(observed.value) == "0.5667"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        # published figure is 56%, a truncation of 0.5667; the dataset notes
        # carry that remark
        readme = README.read_text()
        assert "56%" in readme and "57%" in readme


PUBLISHED_OUT_PERCENT = {
    "A": Fraction(44, 100),
    "B": Fraction(78, 100),
    "C": Fraction(67, 100),
    "D": Fraction(44, 100),
    "E": Fraction(89, 100),
    "F": Fraction(33, 100),  # conflicts with the matrix
    "G": Fraction(33, 100),
    "H": Fraction(67, 100),
    "I": Fraction(33, 100),
    "J": Fraction(56, 100),
}

PUBLISHED_IN_PERCENT = {
    "A": Fraction(78, 100),  # conflicts with the matrix
    "B": Fraction(89, 100),
    "C": Fraction(44, 100),
    "D": Fraction(56, 100),  # conflicts with the matrix
    "E": Fraction(89, 100),  # conflicts with the matrix
    "F": Fraction(11, 100),
    "G": Fraction(100, 100),
    "H": Fraction(22, 100),
    "I": Fraction(56, 100),
    "J": Fraction(22, 100),
}

CONFLICT_CELLS = {("F", "out"), ("A", "in"), ("D", "in"), ("E", "in")}

MATRIX_TRUTH = {
    ("F", "out"): Fraction(5, 9),
    ("A", "in"): Fraction(5, 9),
    ("D", "in"): Fraction(6, 9),
    ("E", "in"): Fraction(9, 9),
}


def test_criterion_2_density_cells(capsys, steel10):
    with criterion(capsys, 2, "16/20 published density cells match; 4 conflicts pinned"):
        mismatches = set()
        for actor in steel10.actors:
            computed = {
                "out": actor_metric(steel10, M.OUT_DENSITY, actor),
                "in": actor_metric(steel10, M.IN_DENSITY, actor),
            }
            published = {
                "out": PUBLISHED_OUT_PERCENT[actor],
                "in": PUBLISHED_IN_PERCENT[actor],
            }
            for direction in ("out", "in"):
                if _round2(computed[direction]) != published[direction]:
                    mismatches.add((actor, direction))
        assert mismatches == CONFLICT_CELLS
        for cell, expected in MATRIX_TRUTH.items():
            actor, direction = cell
            metric = M.OUT_DENSITY if direction == "out" else M.IN_DENSITY
            assert actor_metric(steel10, metric, actor) == expected
        readme = README.read_text()
        for token in ("F out-density", "A in-density", "D in-density", "E in-density"):
            assert token in readme, f"docs must list the conflict cell {token}"


RECIP_COUNTS = {
    "A": 2, "B": 7, "C": 4, "D": 3, "E": 8,
    "F": 1, "G": 3, "H": 2, "I": 2, "J": 2,
}


def test_criterion_3_reciprocated_metrics(capsys, steel10):
    with criterion(capsys, 3, "reciprocated counts, agreement cells, 17 vs 19 note"):
        # verify the frozen counts against the independent pair-scan oracle
        for actor, expected in RECIP_COUNTS.items():
            assert len(brute_recip_partners(steel10.ties, actor)) == expected
            assert actor_metric(steel10, M.RECIPROCATED_PARTNER_COUNT, actor) == expected
        from vbereq import observe_actor_metric, percent_str

        agreement = {}
        for actor in ("B", "C", "H", "J"):
            count = actor_metric(steel10, M.RECIPROCATED_PARTNER_COUNT, actor)
            observed = observe_actor_metric(steel10, M.RECIPROCATED_DENSITY, actor)
            agreement[actor] = f"{count} ({percent_str(observed.value)})"
        assert agreement["B"] == "7 (88%)"
        assert agreement["C"] == "4 (67%)"
        assert agreement["H"].endswith("(33%)")
        assert agreement["J"].endswith("(40%)")
        assert brute_mutual_pairs(steel10.actors, steel10.ties) == 17
        ratio = network_metric(steel10, M.RECIPROCATED_TIE_RATIO)
        assert ratio == Fraction(34, 51)
        # R3 (> 50%) holds under the matrix figure and the published one
        assert Fraction(34, 51) > Fraction(1, 2)
        assert Fraction(75, 100) > Fraction(1, 2)
        readme = README.read_text()
        assert "19" in readme and "75%" in readme and "17" in readme


def test_criterion_4_steel_vbe_end_to_end(capsys, steel10, steel_vbe_reqs):
    with criterion(capsys, 4, "steel-vbe PASS, witnesses {B,E,G} / {B,E}, stable bytes"):
        report = evaluate(steel10, steel_vbe_reqs, network_name="steel10")
        assert report.overall
        by_label = {v.label: v for v in report.verdicts}
        assert by_label["broker-exists"].witnesses == ("B", "E", "G")
        assert by_label["planner-exists"].witnesses == ("B", "E")
        text_1 = render_report(report, "text")
        json_1 = render_report(report, "json")
        again = evaluate(steel10, steel_vbe_reqs, network_name="steel10")
        assert render_report(again, "text") == text_1
        assert render_report(again, "json") == json_1


def test_criterion_5_wholesaler_semantics(capsys, wholesale, wholesaler_reqs):
    with criterion(capsys, 5, "wholesale {A,C,E,F} PASS, {A,F,I,J} FAIL on J"):
        good = evaluate(
            wholesale.induced(("A", "F", "C", "E")),
            wholesaler_reqs,
            anchor="A",
            parent=wholesale,
            view="undirected",
        )
        assert good.overall
        bad = evaluate(
            wholesale.induced(("A", "F", "J", "I")),
            wholesaler_reqs,
            anchor="A",
            parent=wholesale,
            view="undirected",
        )
        assert not bad.overall
        failed = [v for v in bad.verdicts if not v.satisfied]
        assert len(failed) == 1
        violators = failed[0].violators
        assert len(violators) == 1
        actor, reason = violators[0]
        assert actor == "J"
        assert reason.startswith("neighborhood_size=1")


def test_criterion_6_member_rule_fidelity(capsys, steel10_f3):
    with criterion(capsys, 6, "member rule rejects synthetic F (1 in, 3 out)"):
        assert actor_metric(steel10_f3, M.IN_DEGREE, "F") == 1
        assert actor_metric(steel10_f3, M.OUT_DEGREE, "F") == 3
        assert actor_metric(steel10_f3, M.IN_DENSITY, "F") <= Fraction(1, 2)
        assert actor_metric(steel10_f3, M.OUT_DENSITY, "F") <= Fraction(1, 2)
        members = role_candidates(steel10_f3, "member")
        assert "F" not in members
        assert set(members) == set(steel10_f3.actors) - {"F"}


ACTORS10 = tuple("ABCDEFGHIJ")


def _random_net(rng: random.Random, max_actors: int, min_actors: int = 1) -> SocialNetwork:
    n = rng.randint(min_actors, max_actors)
    actors = ACTORS10[:n]
    p = rng.random()
    ties = frozenset(
        (a, b) for a in actors for b in actors if a != b and rng.random() < p
    )
    return SocialNetwork(actors, ties)


def _random_atom(rng: random.Random) -> Atom:
    metric = rng.choice(
        [M.IN_DEGREE, M.OUT_DEGREE, M.TOTAL_DEGREE, M.NEIGHBORHOOD_SIZE,
         M.RECIPROCATED_PARTNER_COUNT, M.IN_DENSITY, M.OUT_DENSITY,
         M.RECIPROCATED_DENSITY, M.ECCENTRICITY]
    )
    cmp = rng.choice(list(C))
    if metric in (M.IN_DENSITY, M.OUT_DENSITY, M.RECIPROCATED_DENSITY):
        den = rng.randint(1, 8)
        return Atom(metric, cmp, Fraction(rng.randint(0, den), den))
    return Atom(metric, cmp, rng.randint(0, 6))


def _random_predicate(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return _random_atom(rng)
    if roll < 0.65:
        return Not(_random_atom(rng))
    parts = tuple(_random_atom(rng) for _ in range(2))
    return And(parts) if roll < 0.85 else Or(parts)


def _random_requirements(rng: random.Random) -> RequirementSet:
    anchored = rng.random() < 0.4
    reqs = []
    if anchored:
        reqs.append(Requirement("anchor", AnchorDesignation()))
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3:
            metric = rng.choice([M.SIZE, M.DENSITY, M.RECIPROCATED_TIE_RATIO])
            if metric is M.SIZE:
                body = NetworkConstraint(metric, rng.choice(list(C)), rng.randint(0, 8))
            else:
                den = rng.randint(1, 8)
                body = NetworkConstraint(
                    metric, rng.choice(list(C)), Fraction(rng.randint(0, den), den)
                )
        elif roll < 0.55:
            body = ForAllActors(
                _random_predicate(rng),
                except_anchor=anchored and rng.random() < 0.5,
            )
        elif roll < 0.8:
            body = CountActors(
                _random_predicate(rng), rng.choice([C.GE, C.LE, C.GT]),
                rng.randint(0, 6),
            )
        else:
            scopes = [PathScope.ALL_PAIRS]
            if anchored:
                scopes += [PathScope.ANCHOR_TO_OTHERS, PathScope.OTHERS_TO_OTHERS]
            body = PairwisePath(
                rng.choice(scopes), rng.choice(list(C)), rng.randint(0, 4)
            )
        reqs.append(Requirement(f"r{len(reqs) + 1}", body))
    return RequirementSet("random", tuple(reqs))


def _oracle_search(net, reqs, cfg, anchor):
    """Plain enumerate-evaluate-sort reference for exhaustive search."""
    index = {a: i for i, a in enumerate(net.actors)}
    found = []
    for k in range(cfg.min_size, cfg.max_size + 1):
        for combo in itertools.combinations(net.actors, k):
            if anchor is not None and anchor not in combo:
                continue
            sub = net.induced(combo)
            report = evaluate(
                sub, reqs, anchor if reqs.needs_anchor else None, parent=net
            )
            if report.overall:
                if cfg.objective == "density":
                    value = network_metric(sub, M.DENSITY)
                    objective = value if is_defined(value) else Fraction(0)
                else:
                    objective = len(combo)
                found.append((combo, Fraction(objective)))
    found.sort(key=lambda item: (-item[1], tuple(index[a] for a in item[0])))
    return found


def test_criterion_7_search_soundness(capsys):
    with criterion(capsys, 7, "exhaustive search matches oracle on 50 digraphs, <30s"):
        start = time.perf_counter()
        rng = random.Random(20260818)
        for trial in range(50):
            net = _random_net(rng, max_actors=8, min_actors=2)
            reqs = _random_requirements(rng)
            anchor = net.actors[0] if reqs.needs_anchor else None
            lo = rng.randint(1, net.size)
            hi = rng.randint(lo, net.size)
            objective = rng.choice(["size", "density"])
            cfg = SearchConfig(min_size=lo, max_size=hi, objective=objective)
            got = search_exhaustive(net, reqs, cfg, anchor)
            expected = _oracle_search(net, reqs, cfg, anchor)
            assert [(s.actors, Fraction(s.objective_value)) for s in got] == expected
            peel_cfg = SearchConfig(min_size=lo, max_size=hi)
            solution = search_greedy_peel(net, reqs, peel_cfg, anchor)
            if solution is not None:
                assert lo <= len(solution.actors) <= hi
                recheck = evaluate(
                    net.induced(solution.actors),
                    reqs,
                    anchor if reqs.needs_anchor else None,
                    parent=net,
                )
                assert recheck.overall
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_8_metric_oracle_equivalence(capsys):
    with criterion(capsys, 8, "all metrics match brute-force oracle on 100 digraphs"):
        rng = random.Random(8451)
        for trial in range(100):
            net = _random_net(rng, max_actors=6)
            actors, ties = net.actors, net.ties
            assert network_metric(net, M.DENSITY) == brute_density(actors, ties)
            assert network_metric(net, M.RECIPROCATED_TIE_RATIO) == brute_recip_ratio(
                actors, ties
            )
            for a in actors:
                assert actor_metric(net, M.OUT_DEGREE, a) == brute_out_degree(ties, a)
                assert actor_metric(net, M.IN_DEGREE, a) == brute_in_degree(ties, a)
                assert actor_metric(net, M.TOTAL_DEGREE, a) == brute_out_degree(
                    ties, a
                ) + brute_in_degree(ties, a)
                assert actor_metric(net, M.NEIGHBORHOOD_SIZE, a) == len(
                    brute_neighborhood(ties, a)
                )
                assert actor_metric(net, M.RECIPROCATED_PARTNER_COUNT, a) == len(
                    brute_recip_partners(ties, a)
                )
            for view, undirected in (("directed", False), ("undirected", True)):
                for mode, lenient in (("strict", False), ("lenient", True)):
                    assert network_metric(
                        net, M.AVG_PATH_LENGTH, view=view, mode=mode
                    ) == brute_avg_path_length(actors, ties, undirected, lenient)
                    for a in actors:
                        assert actor_metric(
                            net, M.ECCENTRICITY, a, view=view, mode=mode
                        ) == brute_eccentricity(actors, ties, a, undirected, lenient)
                        assert actor_metric(
                            net, M.CLOSENESS, a, view=view, mode=mode
                        ) == brute_closeness(actors, ties, a, undirected, lenient)
                for a in actors:
                    for b in actors:
                        if a == b:
                            continue
                        hops = brute_distance(actors, ties, a, b, undirected)
                        got = shortest_path_length(net, a, b, view=view)
                        if hops is None:
                            assert got is UNREACHABLE
                        else:
                            assert got == hops
                if net.size > 1:
                    pairs = net.size * (net.size - 1)
                    reach = sum(
                        1
                        for a in actors
                        for b in actors
                        if a != b
                        and brute_distance(actors, ties, a, b, undirected) is not None
                    )
                    assert reachable_fraction(net, view=view) == Fraction(reach, pairs)


def test_criterion_9_property_suite(capsys):
    with criterion(capsys, 9, "invariants and round-trips on 1250 randomized cases"):
        rng = random.Random(9999)
        for trial in range(1000):
            net = _random_net(rng, max_actors=10)
            out_sum = in_sum = 0
            for a in net.actors:
                din = actor_metric(net, M.IN_DEGREE, a)
                dout = actor_metric(net, M.OUT_DEGREE, a)
                nbhd = actor_metric(net, M.NEIGHBORHOOD_SIZE, a)
                recip = actor_metric(net, M.RECIPROCATED_PARTNER_COUNT, a)
                out_sum += dout
                in_sum += din
                assert recip <= min(din, dout)
                assert max(din, dout) <= nbhd <= din + dout
            assert out_sum == in_sum == net.tie_count
            assert parse_matrix_csv(serialize_matrix_csv(net)) == net
            assert parse_edge_list(serialize_edge_list(net)) == net
            sym = net.symmetrized()
            assert (
                parse_edge_list(serialize_edge_list(sym, symmetric=True), symmetric=True)
                == sym
            )
        for trial in range(250):
            reqs = _random_requirements(rng)
            text = serialize_requirements(reqs)
            assert parse_requirements(text) == reqs
