"""Evaluation semantics: verdicts, anchors, parents, roles, and explain."""

from fractions import Fraction

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
    Not,
    Or,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementSet,
    SocialNetwork,
    evaluate,
    explain,
    parse_requirements,
    role_candidates,
)
from tests.conftest import make_steel10_f3


GENERIC_VBE = """\
set generic-vbe
require min-size : size >= 3
require density : density >= 50%
require max-eccentricity : forall actor (eccentricity <= 2)
"""


def rs(*bodies, name="t"):
    return RequirementSet(
        name, tuple(Requirement(f"q{i}", b) for i, b in enumerate(bodies, start=1))
    )


class TestSteelEvaluation:
    def test_all_five_pass(self, steel10, steel_vbe_reqs):
        report = evaluate(steel10, steel_vbe_reqs, network_name="steel10")
        assert report.overall
        assert [v.satisfied for v in report.verdicts] == [True] * 5
        assert report.anchor is None

    def test_witness_sets(self, steel10, steel_vbe_reqs):
        report = evaluate(steel10, steel_vbe_reqs)
        by_label = {v.label: v for v in report.verdicts}
        assert by_label["broker-exists"].witnesses == ("B", "E", "G")
        assert by_label["planner-exists"].witnesses == ("B", "E")

    def test_role_candidacies(self, steel10, steel_vbe_reqs):
        report = evaluate(steel10, steel_vbe_reqs)
        assert report.role_candidacies["member"] == tuple("ABCDEFGHIJ")
        assert report.role_candidacies["planner"] == ("B", "E")
        assert report.role_candidacies["broker"] == ("B", "E")

    def test_network_verdict_detail(self, steel10, steel_vbe_reqs):
        report = evaluate(steel10, steel_vbe_reqs)
        density = next(v for v in report.verdicts if v.label == "density")
        assert density.detail == "density = 51/90 (0.5667, 57%); required > 50%"
        assert density.observed[0].ratio == (51, 90)

    def test_generic_vbe_directed_fails_on_eccentricity(self, steel10):
        report = evaluate(steel10, parse_requirements(GENERIC_VBE))
        assert not report.overall
        ecc = report.verdicts[2]
        assert not ecc.satisfied
        assert [a for a, _ in ecc.violators] == ["A", "D", "G", "H", "I"]

    def test_generic_vbe_undirected_passes(self, steel10):
        report = evaluate(steel10, parse_requirements(GENERIC_VBE), view="undirected")
        assert report.overall


class TestWholesalerEvaluation:
    def test_good_group_passes(self, wholesale, wholesaler_reqs):
        sub = wholesale.induced(("A", "F", "C", "E"))
        report = evaluate(
            sub, wholesaler_reqs, anchor="A", parent=wholesale, view="undirected"
        )
        assert report.overall
        assert report.anchor == "A"

    def test_bad_group_blames_exactly_j(self, wholesale, wholesaler_reqs):
        sub = wholesale.induced(("A", "F", "J", "I"))
        report = evaluate(
            sub, wholesaler_reqs, anchor="A", parent=wholesale, view="undirected"
        )
        assert not report.overall
        failed = [v for v in report.verdicts if not v.satisfied]
        assert len(failed) == 1
        assert failed[0].label == "outside-partner"
        assert failed[0].violators == (
            ("J", "neighborhood_size=1, required >1"),
        )
        text = explain(report)
        assert "violators: J (neighborhood_size=1, required >1)" in text

    def test_anchor_must_be_in_subset(self, wholesale, wholesaler_reqs):
        sub = wholesale.induced(("B", "C", "D", "E"))
        with pytest.raises(EvaluationError, match="anchor"):
            evaluate(sub, wholesaler_reqs, anchor="A", parent=wholesale)

    def test_anchor_is_required_by_designation(self, wholesale, wholesaler_reqs):
        sub = wholesale.induced(("A", "C", "E", "F"))
        with pytest.raises(EvaluationError, match="supply one"):
            evaluate(sub, wholesaler_reqs, parent=wholesale)

    def test_pinned_anchor_used_and_overridable(self, wholesale):
        pinned = RequirementSet(
            "p",
            (
                Requirement("anchor", AnchorDesignation("A")),
                Requirement("r", PairwisePath(PathScope.ANCHOR_TO_OTHERS, Comparator.LE, 1)),
            ),
        )
        sub = wholesale.induced(("A", "C", "E"))
        report = evaluate(sub, pinned, parent=wholesale, view="undirected")
        assert report.anchor == "A"
        override = evaluate(sub, pinned, anchor="C", parent=wholesale, view="undirected")
        assert override.anchor == "C"
        assert not override.overall

    def test_anchor_rejected_without_designation(self, steel10, steel_vbe_reqs):
        with pytest.raises(EvaluationError, match="does not designate"):
            evaluate(steel10, steel_vbe_reqs, anchor="A")

    def test_parent_must_contain_network(self, wholesale, wholesaler_reqs):
        other = SocialNetwork(("X", "Y"), frozenset({("X", "Y")}))
        with pytest.raises(EvaluationError, match="parent"):
            evaluate(other, wholesaler_reqs, anchor="X", parent=wholesale)

    def test_parent_must_induce_the_ties(self):
        parent = SocialNetwork(("A", "B", "C"), frozenset({("A", "B"), ("B", "C")}))
        empty = RequirementSet("empty", ())
        for ties in (set(), {("A", "B"), ("B", "A")}):
            with pytest.raises(EvaluationError, match="induces"):
                evaluate(SocialNetwork(("A", "B"), frozenset(ties)), empty, parent=parent)
        assert evaluate(parent.induced(("A", "B")), empty, parent=parent).overall


class TestVerdictShapes:
    def test_empty_set_is_vacuously_true(self, steel10):
        report = evaluate(steel10, RequirementSet("empty", ()))
        assert report.overall and report.verdicts == ()

    def test_forall_collects_all_failing_atoms(self, steel10):
        f3 = make_steel10_f3(steel10)
        report = evaluate(f3, rs(ForAllActors(Or((
            Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(1, 2)),
            Atom(MetricId.OUT_DENSITY, Comparator.GT, Fraction(1, 2)),
        )))))
        verdict = report.verdicts[0]
        assert not verdict.satisfied
        assert verdict.violators == (
            ("F", "in_density=1/9, required >50%"),
            ("F", "out_density=3/9, required >50%"),
        )

    def test_count_upper_bound_blames_witnesses(self, steel10):
        body = CountActors(
            Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(4, 5)),
            Comparator.LE,
            1,
        )
        verdict = evaluate(steel10, rs(body)).verdicts[0]
        assert not verdict.satisfied
        assert verdict.witnesses == ("B", "E", "G")
        assert all(reason == "satisfies (in_density > 80%)" for _, reason in verdict.violators)

    def test_count_without_violators_reports_size(self, steel10):
        body = CountActors(
            Atom(MetricId.IN_DEGREE, Comparator.GE, 0), Comparator.GE, 11
        )
        verdict = evaluate(steel10, rs(body)).verdicts[0]
        assert not verdict.satisfied
        assert verdict.witnesses == tuple("ABCDEFGHIJ")
        assert verdict.violators == ()
        assert verdict.observed[0].metric is MetricId.SIZE

    def test_count_fraction_of_size(self, steel10):
        body = CountActors(
            Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(4, 5)),
            Comparator.GE,
            Fraction(1, 2),
            fraction_of_size=True,
        )
        verdict = evaluate(steel10, rs(body)).verdicts[0]
        assert not verdict.satisfied  # 3 < 5
        assert "of size" in verdict.detail
        ok = CountActors(
            Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(4, 5)),
            Comparator.GE,
            Fraction(3, 10),
            fraction_of_size=True,
        )
        assert evaluate(steel10, rs(ok)).verdicts[0].satisfied

    def test_not_polarity_flips_reason_text(self, steel10):
        report = evaluate(
            steel10,
            rs(ForAllActors(Not(Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(4, 5))))),
        )
        verdict = report.verdicts[0]
        assert not verdict.satisfied
        assert [a for a, _ in verdict.violators] == ["B", "E", "G"]
        assert all("required not >80%" in r for _, r in verdict.violators)

    def test_path_all_pairs(self, steel10):
        report = evaluate(steel10, rs(PairwisePath(PathScope.ALL_PAIRS, Comparator.LE, 3)))
        assert report.overall
        report = evaluate(steel10, rs(PairwisePath(PathScope.ALL_PAIRS, Comparator.LE, 2)))
        verdict = report.verdicts[0]
        assert not verdict.satisfied
        assert ("A", "path A->F=3, required <=2") in verdict.violators

    def test_unreachable_path_fails_any_comparison(self):
        n = SocialNetwork(("A", "B", "C"), frozenset({("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("B", "C")}))
        sub = n.induced(("B", "C"))
        # C -> B is missing, so strict paths are unreachable in one direction
        report = evaluate(sub, rs(PairwisePath(PathScope.ALL_PAIRS, Comparator.GT, 0)), parent=n)
        verdict = report.verdicts[0]
        assert not verdict.satisfied
        assert ("C", "path C->B=unreachable, required >0") in verdict.violators

    def test_avg_others_reference_text(self, steel10):
        from vbereq import AvgOfOthers

        report = evaluate(
            steel10,
            rs(ForAllActors(Atom(MetricId.IN_DEGREE, Comparator.GT, AvgOfOthers(MetricId.IN_DEGREE)))),
        )
        verdict = report.verdicts[0]
        assert not verdict.satisfied
        reasons = dict(verdict.violators)
        assert reasons["A"] == "in_degree=5, required >avg_others(in_degree) = 46/9"


class TestRoles:
    def test_role_screening_matches_candidacies(self, steel10):
        assert role_candidates(steel10, "member") == list("ABCDEFGHIJ")
        assert role_candidates(steel10, "planner") == ["B", "E"]
        assert role_candidates(steel10, "broker") == ["B", "E"]

    def test_member_rule_rejects_f_on_the_synthetic_variant(self, steel10_f3):
        assert role_candidates(steel10_f3, "member") == list("ABCDEGHIJ")

    def test_members_only_screens_inside_member_subnetwork(self, steel10_f3):
        full = role_candidates(steel10_f3, "broker")
        members_only = role_candidates(steel10_f3, "broker", members_only=True)
        assert set(members_only) <= set(role_candidates(steel10_f3, "member"))
        assert full == ["B", "E"]

    def test_an_actor_without_neighbours_leaves_the_others_mean_undefined(self):
        # C's recip_density is UNDEFINED, so is the mean A and B are compared
        # against; they stay brokers but neither is a planner.
        net = SocialNetwork(tuple("ABC"), frozenset({("A", "B"), ("B", "A")}))
        assert role_candidates(net, "broker") == ["A", "B"]
        assert role_candidates(net, "planner") == []

    def test_report_screens_roles_when_read(self, steel10, steel_vbe_reqs):
        report = evaluate(steel10, steel_vbe_reqs)
        assert "role_candidacies" not in vars(report)
        assert report.role_candidacies["broker"] == ("B", "E")
        assert "role_candidacies" in vars(report)

    def test_unknown_role_and_tiny_network(self, steel10):
        with pytest.raises(EvaluationError, match="unknown role"):
            role_candidates(steel10, "boss")
        with pytest.raises(EvaluationError, match="two actors"):
            role_candidates(SocialNetwork(("A",)), "member")


class TestExplain:
    def test_plain_text_has_no_ansi(self, steel10, steel_vbe_reqs, monkeypatch):
        monkeypatch.delenv("VBE_COLOR", raising=False)
        text = explain(evaluate(steel10, steel_vbe_reqs, network_name="steel10"))
        assert "\x1b[" not in text
        assert text.startswith("network: steel10\nrequirements: steel-vbe\n")
        assert text.endswith("overall: PASS\n")

    def test_color_wraps_only_tags(self, steel10, steel_vbe_reqs, monkeypatch):
        report = evaluate(steel10, steel_vbe_reqs)
        text = explain(report, color=True)
        assert "\x1b[32mPASS\x1b[0m" in text
        assert text.replace("\x1b[32m", "").replace("\x1b[0m", "") == explain(report)
        monkeypatch.setenv("VBE_COLOR", "1")
        assert "\x1b[" not in explain(report)

    def test_roles_line(self, steel10, steel_vbe_reqs):
        text = explain(evaluate(steel10, steel_vbe_reqs))
        assert "roles: member: A, B, C, D, E, F, G, H, I, J | planner: B, E | broker: B, E\n" in text

    def test_peel_trace_rendering(self, steel10, steel_vbe_reqs):
        from dataclasses import replace

        report = evaluate(steel10, steel_vbe_reqs)
        assert "peeled:" not in explain(report)
        assert "peeled: F, I\n" in explain(replace(report, peel_trace=("F", "I")))
        assert "peeled: (none)\n" in explain(replace(report, peel_trace=()))
