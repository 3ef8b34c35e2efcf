"""Subnetwork search: exhaustive enumeration and the greedy peel."""

from fractions import Fraction
from pathlib import Path

import pytest

from vbereq import (
    AnchorDesignation,
    Atom,
    Comparator,
    CountActors,
    EvaluationError,
    ForAllActors,
    MetricId,
    NetworkConstraint,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementSet,
    SearchConfig,
    SearchError,
    SocialNetwork,
    evaluate,
    role_candidates,
    search_exhaustive,
    search_greedy_peel,
    template_member,
)
from vbereq import evaluator
from vbereq.cli import main
from vbereq.evaluator import SubsetJudge
from vbereq.fixtures import load_steel10
from vbereq.search import EXHAUSTIVE_SIZE_GUARD

FIXTURES = Path(__file__).parents[1] / "src" / "vbereq" / "fixtures"
STEEL_CSV = str(FIXTURES / "steel10.csv")
STEEL_REQ = str(FIXTURES / "steel_vbe.req")


def members_only_reqs():
    return RequirementSet(
        "members-only", (Requirement("all-members", ForAllActors(template_member())),)
    )


class TestConfig:
    def test_validation(self):
        for objective in ("vibes", "maximize-size", "first-found"):
            with pytest.raises(SearchError, match="unknown objective"):
                SearchConfig(1, 2, objective=objective)
        with pytest.raises(SearchError):
            SearchConfig(3, 2)
        with pytest.raises(SearchError):
            SearchConfig(0, 2)
        with pytest.raises(SearchError):
            SearchConfig(1, 2, enumeration_cap=0)

    def test_bounds_checked_against_network(self, wholesale, wholesaler_reqs):
        with pytest.raises(SearchError, match="max_size"):
            search_exhaustive(wholesale, wholesaler_reqs, SearchConfig(4, 11), "A")


class TestExhaustive:
    def test_wholesaler_solutions(self, wholesale, wholesaler_reqs):
        cfg = SearchConfig(4, 4)
        solutions = search_exhaustive(
            wholesale, wholesaler_reqs, cfg, "A", view="undirected"
        )
        assert [s.actors for s in solutions] == [
            ("A", "C", "E", "F"),
            ("A", "C", "E", "I"),
            ("A", "C", "F", "I"),
            ("A", "E", "F", "I"),
        ]
        for sol in solutions:
            assert sol.report.overall
            assert sol.objective_value == 4
            assert sol.report.anchor == "A"

    def test_anchor_always_in_solutions(self, wholesale, wholesaler_reqs):
        solutions = search_exhaustive(
            wholesale, wholesaler_reqs, SearchConfig(4, 4), "A", view="undirected"
        )
        assert all("A" in s.actors for s in solutions)

    def test_objective_size_prefers_larger(self, steel10, steel_vbe_reqs):
        cfg = SearchConfig(5, 10)
        solutions = search_exhaustive(steel10, steel_vbe_reqs, cfg)
        assert solutions[0].actors == tuple("ABCDEFGHIJ")
        assert solutions[0].objective_value == 10
        sizes = [len(s.actors) for s in solutions]
        assert sizes == sorted(sizes, reverse=True)

    def test_objective_density(self, steel10):
        reqs = RequirementSet(
            "dense", (Requirement("d", NetworkConstraint(MetricId.DENSITY, Comparator.GE, Fraction(1, 2))),)
        )
        cfg = SearchConfig(2, 3, objective="density")
        solutions = search_exhaustive(steel10, reqs, cfg)
        values = [Fraction(s.objective_value) for s in solutions]
        assert values == sorted(values, reverse=True)
        assert values[0] == 1  # mutual pairs exist

    def test_objective_first_returns_single_hit(self, steel10, steel_vbe_reqs):
        cfg = SearchConfig(5, 10, objective="first")
        solutions = search_exhaustive(steel10, steel_vbe_reqs, cfg)
        assert len(solutions) == 1
        assert solutions[0].actors == tuple("ABCDEFGHIJ")

    def test_no_solution_returns_empty(self, steel10):
        impossible = RequirementSet(
            "i", (Requirement("x", NetworkConstraint(MetricId.SIZE, Comparator.GE, 11)),)
        )
        assert search_exhaustive(steel10, impossible, SearchConfig(2, 3)) == []

    def test_enumeration_cap(self, steel10, steel_vbe_reqs):
        cfg = SearchConfig(5, 10, enumeration_cap=3)
        with pytest.raises(SearchError, match="cap exceeded"):
            search_exhaustive(steel10, steel_vbe_reqs, cfg)

    def test_cap_counts_decided_subsets(self, wholesale, wholesaler_reqs):
        # The window 1..10 holds 511 subsets with A, but size == 4 and the
        # path and @parent rules leave 4 to decide, all of them solutions.
        uncapped = search_exhaustive(
            wholesale, wholesaler_reqs, SearchConfig(1, 10), "A", view="undirected"
        )
        capped = search_exhaustive(
            wholesale,
            wholesaler_reqs,
            SearchConfig(1, 10, enumeration_cap=20),
            "A",
            view="undirected",
        )
        assert [s.actors for s in capped] == [s.actors for s in uncapped] == [
            ("A", "C", "E", "F"),
            ("A", "C", "E", "I"),
            ("A", "C", "F", "I"),
            ("A", "E", "F", "I"),
        ]
        with pytest.raises(SearchError, match="cap exceeded after 3 subsets"):
            search_exhaustive(
                wholesale,
                wholesaler_reqs,
                SearchConfig(1, 10, enumeration_cap=3),
                "A",
                view="undirected",
            )

    def test_anchor_failing_a_parent_forall_decides_nothing(self, wholesale):
        # J's only partner is A, so J fails the rule on the parent and no
        # subset holding J can pass; the cap of 1 shows none is decided.
        def partnered(except_anchor):
            rule = ForAllActors(
                Atom(MetricId.NEIGHBORHOOD_SIZE, Comparator.GT, 1, on_parent=True),
                except_anchor=except_anchor,
            )
            return RequirementSet(
                "partnered",
                (Requirement("anchor", AnchorDesignation()), Requirement("p", rule)),
            )

        cfg = SearchConfig(1, 10, enumeration_cap=1)
        assert search_exhaustive(wholesale, partnered(False), cfg, "J") == []
        # Exempt, J joins any subset of the five actors with two partners.
        exempt = search_exhaustive(wholesale, partnered(True), SearchConfig(1, 10), "J")
        assert len(exempt) == 2**5
        assert {a for s in exempt for a in s.actors} == set("ACEFIJ")

    def test_size_guard(self):
        reqs = RequirementSet(
            "r", (Requirement("x", NetworkConstraint(MetricId.SIZE, Comparator.GE, 1)),)
        )

        def network(n):
            return SocialNetwork(tuple(f"a{i}" for i in range(n)))

        assert EXHAUSTIVE_SIZE_GUARD == 20
        assert len(search_exhaustive(network(20), reqs, SearchConfig(1, 1))) == 20
        with pytest.raises(SearchError, match="guard is 20"):
            search_exhaustive(network(21), reqs, SearchConfig(1, 1))

    def test_anchor_resolution_errors(
        self, wholesale, wholesaler_reqs, steel10, steel_vbe_reqs
    ):
        for strategy in (search_exhaustive, search_greedy_peel):
            with pytest.raises(EvaluationError, match="supply one"):
                strategy(wholesale, wholesaler_reqs, SearchConfig(4, 4))
            with pytest.raises(EvaluationError, match="not an actor"):
                strategy(wholesale, wholesaler_reqs, SearchConfig(4, 4), "Z")
            with pytest.raises(EvaluationError, match="does not designate"):
                strategy(steel10, steel_vbe_reqs, SearchConfig(5, 10), "A")

    def test_preconditions_checked_once_and_reports_built_on_read(
        self, monkeypatch, capsys, steel10, steel10_f3, steel_vbe_reqs
    ):
        checked, explained = [], []
        check, report = evaluator._checked_scope, evaluator._report

        def counting_check(net, *args):
            checked.append(net)
            return check(net, *args)

        def counting_report(scope, *args):
            explained.append(scope.net)
            return report(scope, *args)

        monkeypatch.setattr(evaluator, "_checked_scope", counting_check)
        monkeypatch.setattr(evaluator, "_report", counting_report)
        # The window holds 56 subsets: the judge checks only the parent and
        # explains none of the 44 that pass until a report is read, once.
        solutions = search_exhaustive(steel10, steel_vbe_reqs, SearchConfig(8, 10))
        assert (checked, explained, len(solutions)) == ([steel10], [], 44)
        assert [s.report.network for s in solutions] == explained
        assert all(s.report is s.report for s in solutions)
        assert (len(checked), len(explained)) == (1, 44)

        # Peel explains the network before each removal and the solution.
        checked.clear()
        explained.clear()
        sol = search_greedy_peel(steel10_f3, members_only_reqs(), SearchConfig(5, 10))
        assert sol.report.peel_trace == ("F", "I")
        assert (checked, len(explained)) == ([steel10_f3], 3)

        # `vbe search` renders the best of the 44 solutions and explains no other.
        argv = ["search", "--network", STEEL_CSV, "--requirements", STEEL_REQ]
        shown = {"text": "43 alternatives", "json": '"alternatives": 43'}
        for out, alternatives in shown.items():
            checked.clear()
            explained.clear()
            assert main([*argv, "--min-size", "8", "--max-size", "10", "--out", out]) == 0
            assert alternatives in capsys.readouterr().out
            assert (len(checked), len(explained)) == (1, 1)


class TestSearchLimits:
    def test_wholesaler_leaves_four_friends_of_the_anchor(
        self, wholesale, wholesaler_reqs
    ):
        # J has no partner but A; B, D, G and H are no friends of A.
        judge = SubsetJudge(wholesale, wholesaler_reqs, "A", view="undirected")
        assert judge.anchor == "A"
        assert (judge.sizes, judge.actors, judge.conflicts) == (
            {4}, ("A", "C", "E", "F", "I"), frozenset()
        )
        acquainted = SocialNetwork(
            wholesale.actors, wholesale.ties | {("C", "E"), ("E", "C")}
        )
        judge = SubsetJudge(acquainted, wholesaler_reqs, "A", view="undirected")
        assert judge.conflicts == {("C", "E")}
        # Of the four subsets left, the two holding C and E are never built.
        cfg = SearchConfig(4, 4, enumeration_cap=2)
        solutions = search_exhaustive(
            acquainted, wholesaler_reqs, cfg, "A", view="undirected"
        )
        assert [s.actors for s in solutions] == [("A", "C", "F", "I"), ("A", "E", "F", "I")]

    @pytest.mark.parametrize(
        "rule, admissible",
        [
            # From A, B is 1 hop away, C 2, D 3, and E cannot be reached.
            ((Comparator.LT, 2), "AB"),
            ((Comparator.LE, 2), "ABC"),
            ((Comparator.EQ, 2), "AC"),
            ((Comparator.GT, 1), "ACD"),
            ((Comparator.GE, 1), "ABCD"),
        ],
    )
    def test_path_lengths_the_parent_already_breaks(self, rule, admissible):
        chain = SocialNetwork(tuple("ABCDE"), frozenset({("A", "B"), ("B", "C"), ("C", "D")}))
        reqs = RequirementSet(
            "reach",
            (
                Requirement("anchor", AnchorDesignation()),
                Requirement("p", PairwisePath(PathScope.ANCHOR_TO_OTHERS, *rule)),
            ),
        )
        judge = SubsetJudge(chain, reqs, "A")
        assert (judge.sizes, judge.actors, judge.conflicts) == (
            set(range(1, 6)), tuple(admissible), frozenset()
        )
        # Among the others, tied pairs and pairs with E break "> 1".
        apart = RequirementSet(
            "apart",
            (
                Requirement("anchor", AnchorDesignation()),
                Requirement(
                    "p", PairwisePath(PathScope.OTHERS_TO_OTHERS, Comparator.GT, 1)
                ),
            ),
        )
        assert SubsetJudge(chain, apart, "A", view="undirected").conflicts == {
            ("B", "C"), ("C", "D"), ("B", "E"), ("C", "E"), ("D", "E")
        }

    def test_distances_are_computed_only_for_path_rules(
        self, monkeypatch, steel_vbe_reqs, wholesale, wholesaler_reqs
    ):
        computed = []
        distances = SocialNetwork.distances

        def counting(net, undirected=False):
            computed.append((net, undirected))
            return distances(net, undirected)

        monkeypatch.setattr(SocialNetwork, "distances", counting)
        fresh = load_steel10()
        for view in ("directed", "undirected"):
            SubsetJudge(fresh, steel_vbe_reqs, view=view)
        assert computed == []
        SubsetJudge(wholesale, wholesaler_reqs, "A", view="undirected")
        assert computed == [(wholesale, True), (wholesale, True)]

    def test_steel_vbe_rules_out_no_actor_and_no_pair(self, steel10, steel_vbe_reqs):
        for view in ("directed", "undirected"):
            judge = SubsetJudge(steel10, steel_vbe_reqs, view=view)
            assert judge.anchor is None
            assert (judge.sizes, judge.actors, judge.conflicts) == (
                set(range(5, 11)), steel10.actors, frozenset()
            )

    def test_raises_what_evaluate_raises(self, wholesale, wholesaler_reqs):
        with pytest.raises(EvaluationError, match="view must be one of"):
            SubsetJudge(wholesale, wholesaler_reqs, "A", view="sideways")
        with pytest.raises(EvaluationError, match="view must be one of"):
            search_exhaustive(
                wholesale, wholesaler_reqs, SearchConfig(4, 4), "A", view="sideways"
            )
        with pytest.raises(EvaluationError, match="supply one"):
            SubsetJudge(wholesale, wholesaler_reqs)


class TestGreedyPeel:
    def test_peels_f_then_i(self, steel10_f3):
        cfg = SearchConfig(5, 10)
        sol = search_greedy_peel(steel10_f3, members_only_reqs(), cfg, network_name="f3")
        assert sol is not None
        assert sol.actors == ("A", "B", "C", "D", "E", "G", "H", "J")
        assert sol.report.peel_trace == ("F", "I")
        assert sol.report.overall
        assert sol.report.network_name == "f3[A,B,C,D,E,G,H,J]"

    def test_report_lists_roles_of_the_solution_network(self, steel10_f3):
        sol = search_greedy_peel(steel10_f3, members_only_reqs(), SearchConfig(5, 10))
        solution_net = steel10_f3.induced(sol.actors)
        assert sol.report.role_candidacies == {
            role: tuple(role_candidates(solution_net, role))
            for role in ("member", "planner", "broker")
        }
        # I is a member of the parent but was peeled off.
        assert "I" in role_candidates(steel10_f3, "member")
        assert sol.report.role_candidacies["member"] == tuple("ABCDEGHJ")

    def test_immediate_success_has_empty_trace(self, steel10, steel_vbe_reqs):
        cfg = SearchConfig(5, 10)
        sol = search_greedy_peel(steel10, steel_vbe_reqs, cfg)
        assert sol.actors == tuple("ABCDEFGHIJ")
        assert sol.report.peel_trace == ()

    def test_respects_min_size(self, steel10):
        impossible = RequirementSet(
            "i", (Requirement("x", NetworkConstraint(MetricId.SIZE, Comparator.GE, 11)),)
        )
        cfg = SearchConfig(8, 10)
        assert search_greedy_peel(steel10, impossible, cfg) is None

    def test_anchor_is_never_peeled(self, wholesale, wholesaler_reqs):
        cfg = SearchConfig(4, 4)
        sol = search_greedy_peel(
            wholesale, wholesaler_reqs, cfg, "A", view="undirected"
        )
        if sol is not None:
            assert "A" in sol.actors
            assert "A" not in sol.report.peel_trace

    def test_shrinks_when_over_max_size(self, steel10, steel_vbe_reqs):
        cfg = SearchConfig(5, 8)
        sol = search_greedy_peel(steel10, steel_vbe_reqs, cfg)
        if sol is not None:
            assert len(sol.actors) <= 8
            assert sol.report.overall

    def test_a_strict_lower_count_bound_peels_a_non_witness(self):
        # A and B are the witnesses, so 2 > 50% of 4 fails and the rule
        # blames C and D. They tie on blame and degree, so the earlier, C,
        # is peeled, and 2 > 50% of 3 holds.
        net = SocialNetwork(tuple("ABCD"), frozenset({("A", "B"), ("B", "A")}))
        body = CountActors(
            Atom(MetricId.OUT_DEGREE, Comparator.GE, 1),
            Comparator.GT,
            Fraction(1, 2),
            fraction_of_size=True,
        )
        reqs = RequirementSet("t", (Requirement("q", body),))
        sol = search_greedy_peel(net, reqs, SearchConfig(1, 4))
        assert sol.actors == ("A", "B", "D")
        assert sol.report.peel_trace == ("C",)

    def test_peel_success_reevaluates_to_pass(self, steel10_f3):
        cfg = SearchConfig(5, 10)
        sol = search_greedy_peel(steel10_f3, members_only_reqs(), cfg)
        fresh = evaluate(
            steel10_f3.induced(sol.actors), members_only_reqs(), parent=steel10_f3
        )
        assert fresh.overall
