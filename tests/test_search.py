"""Subnetwork search: exhaustive enumeration and the greedy peel."""

from fractions import Fraction

import pytest

from vbereq import (
    Atom,
    Comparator,
    ForAllActors,
    MetricId,
    NetworkConstraint,
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

    def test_size_guard(self):
        big = SocialNetwork(tuple(f"a{i}" for i in range(21)))
        reqs = RequirementSet(
            "r", (Requirement("x", NetworkConstraint(MetricId.SIZE, Comparator.GE, 1)),)
        )
        with pytest.raises(SearchError, match="guard"):
            search_exhaustive(big, reqs, SearchConfig(1, 2))
        assert search_exhaustive(big, reqs, SearchConfig(1, 1), size_guard=25)

    def test_anchor_resolution_errors(self, wholesale, wholesaler_reqs):
        with pytest.raises(SearchError, match="supply one"):
            search_exhaustive(wholesale, wholesaler_reqs, SearchConfig(4, 4))
        with pytest.raises(SearchError, match="not an actor"):
            search_exhaustive(wholesale, wholesaler_reqs, SearchConfig(4, 4), "Z")


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

    def test_peel_success_reevaluates_to_pass(self, steel10_f3):
        cfg = SearchConfig(5, 10)
        sol = search_greedy_peel(steel10_f3, members_only_reqs(), cfg)
        fresh = evaluate(
            steel10_f3.induced(sol.actors), members_only_reqs(), parent=steel10_f3
        )
        assert fresh.overall
