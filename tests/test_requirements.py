"""Constraint AST validation rules and the built-in templates."""

from fractions import Fraction

import pytest

from vbereq import (
    AnchorDesignation,
    And,
    Atom,
    AvgOfOthers,
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
    RequirementError,
    RequirementSet,
    template_broker,
    template_member,
    template_planner,
    template_steel_vbe,
    template_wholesaler,
)
from vbereq.values import UNDEFINED, UNREACHABLE


def atom(metric=MetricId.IN_DEGREE, cmp=Comparator.GT, ref=1):
    return Atom(metric, cmp, ref)


class TestComparator:
    def test_all_five(self):
        assert Comparator.LT.holds(1, 2)
        assert Comparator.LE.holds(2, 2)
        assert Comparator.EQ.holds(Fraction(1, 2), Fraction(2, 4))
        assert Comparator.GE.holds(2, 2)
        assert Comparator.GT.holds(3, 2)
        assert not Comparator.GT.holds(2, 2)

    @pytest.mark.parametrize("sentinel", [UNDEFINED, UNREACHABLE])
    def test_sentinels_never_compare(self, sentinel):
        for cmp in Comparator:
            assert not cmp.holds(sentinel, 1)
            assert not cmp.holds(1, sentinel)
            assert not cmp.holds(sentinel, sentinel)


class TestAtomValidation:
    def test_network_metric_rejected_in_atom(self):
        with pytest.raises(RequirementError, match="network-scoped"):
            Atom(MetricId.DENSITY, Comparator.GT, Fraction(1, 2))

    def test_unit_interval_threshold_enforced(self):
        with pytest.raises(RequirementError, match=r"\[0,1\]"):
            Atom(MetricId.IN_DENSITY, Comparator.GT, 50)
        Atom(MetricId.IN_DENSITY, Comparator.GT, Fraction(1, 2))
        Atom(MetricId.IN_DEGREE, Comparator.GT, 50)

    def test_negative_threshold_rejected(self):
        with pytest.raises(RequirementError, match="non-negative"):
            Atom(MetricId.IN_DEGREE, Comparator.GT, -1)

    def test_non_rational_rejected(self):
        with pytest.raises(RequirementError, match="rational"):
            Atom(MetricId.IN_DEGREE, Comparator.GT, 0.5)
        with pytest.raises(RequirementError, match="rational"):
            Atom(MetricId.IN_DEGREE, Comparator.GT, True)

    def test_avg_others_requires_actor_metric(self):
        with pytest.raises(RequirementError, match="actor-scoped"):
            AvgOfOthers(MetricId.DENSITY)
        Atom(MetricId.IN_DEGREE, Comparator.GT, AvgOfOthers(MetricId.IN_DEGREE))


class TestCombinators:
    def test_and_or_need_two_parts(self):
        with pytest.raises(RequirementError):
            And((atom(),))
        with pytest.raises(RequirementError):
            Or((atom(),))
        And((atom(), atom(MetricId.OUT_DEGREE)))
        Not(atom())


class TestBodies:
    def test_network_constraint_scope(self):
        with pytest.raises(RequirementError, match="actor-scoped"):
            NetworkConstraint(MetricId.IN_DEGREE, Comparator.GT, 1)
        NetworkConstraint(MetricId.SIZE, Comparator.GE, 3)

    def test_network_constraint_unit_interval(self):
        with pytest.raises(RequirementError, match=r"\[0,1\]"):
            NetworkConstraint(MetricId.DENSITY, Comparator.GT, 50)

    def test_count_bounds(self):
        with pytest.raises(RequirementError, match="integer"):
            CountActors(atom(), Comparator.GE, Fraction(1, 2))
        with pytest.raises(RequirementError, match="non-negative"):
            CountActors(atom(), Comparator.GE, -1)
        with pytest.raises(RequirementError, match="integer"):
            CountActors(atom(), Comparator.GE, True)
        frac = CountActors(atom(), Comparator.GE, Fraction(1, 2), fraction_of_size=True)
        assert frac.bound == Fraction(1, 2)
        with pytest.raises(RequirementError, match=r"\[0,1\]"):
            CountActors(atom(), Comparator.GE, 2, fraction_of_size=True)

    def test_path_thresholds_are_integers(self):
        with pytest.raises(RequirementError, match="integer"):
            PairwisePath(PathScope.ALL_PAIRS, Comparator.LE, Fraction(1, 2))
        with pytest.raises(RequirementError, match="non-negative"):
            PairwisePath(PathScope.ALL_PAIRS, Comparator.LE, -2)

    def test_anchor_designation_id_validated(self):
        with pytest.raises(ValueError):
            AnchorDesignation("bad,id")
        assert AnchorDesignation().anchor is None
        assert AnchorDesignation("A").anchor == "A"


class TestRequirementSet:
    def test_labels_validated(self):
        with pytest.raises(RequirementError, match="label"):
            Requirement("bad label", NetworkConstraint(MetricId.SIZE, Comparator.GE, 1))
        with pytest.raises(RequirementError, match="'anchor'"):
            Requirement("pin", AnchorDesignation("A"))

    def test_duplicate_labels_rejected(self):
        req = Requirement("x", NetworkConstraint(MetricId.SIZE, Comparator.GE, 1))
        with pytest.raises(RequirementError, match="duplicate"):
            RequirementSet("s", (req, req))

    def test_single_designation(self):
        # two designations necessarily share the fixed 'anchor' label, so the
        # duplicate-label rule rejects the set before anything else can
        a = Requirement("anchor", AnchorDesignation("A"))
        with pytest.raises(RequirementError, match="duplicate requirement label"):
            RequirementSet("s", (a, a))

    def test_anchored_bodies_need_designation(self):
        path = Requirement(
            "p", PairwisePath(PathScope.ANCHOR_TO_OTHERS, Comparator.EQ, 1)
        )
        with pytest.raises(RequirementError, match="designation"):
            RequirementSet("s", (path,))
        RequirementSet("s", (Requirement("anchor", AnchorDesignation()), path))
        all_pairs = Requirement(
            "q", PairwisePath(PathScope.ALL_PAIRS, Comparator.LE, 2)
        )
        RequirementSet("s2", (all_pairs,))

    def test_needs_anchor_and_pinned_anchor(self):
        plain = RequirementSet("s", ())
        assert not plain.needs_anchor and plain.anchor is None
        pinned = RequirementSet("t", (Requirement("anchor", AnchorDesignation("B")),))
        assert pinned.needs_anchor and pinned.anchor == "B"
        open_anchor = RequirementSet("u", (Requirement("anchor", AnchorDesignation()),))
        assert open_anchor.needs_anchor and open_anchor.anchor is None

    def test_set_name_validated(self):
        with pytest.raises(RequirementError, match="name"):
            RequirementSet("no good", ())


class TestTemplates:
    def test_member_is_a_density_disjunction(self):
        pred = template_member()
        assert isinstance(pred, Or)
        assert {a.metric for a in pred.parts} == {
            MetricId.IN_DENSITY,
            MetricId.OUT_DENSITY,
        }
        assert all(a.reference == Fraction(1, 2) for a in pred.parts)

    def test_planner_extends_broker(self):
        broker = template_broker()
        planner = template_planner()
        assert isinstance(broker, And) and len(broker.parts) == 2
        assert isinstance(planner, And) and len(planner.parts) == 3
        assert planner.parts[:2] == broker.parts
        assert all(
            isinstance(part.reference, AvgOfOthers)
            and part.reference.metric is part.metric
            for part in planner.parts
        )

    def test_steel_vbe_shape(self):
        reqs = template_steel_vbe()
        assert reqs.name == "steel-vbe"
        assert [r.label for r in reqs.requirements] == [
            "min-size",
            "density",
            "reciprocity",
            "broker-exists",
            "planner-exists",
        ]
        assert not reqs.needs_anchor

    def test_wholesaler_shape(self):
        reqs = template_wholesaler()
        assert reqs.name == "wholesaler"
        assert reqs.needs_anchor and reqs.anchor is None
        bodies = [r.body for r in reqs.requirements]
        assert isinstance(bodies[0], AnchorDesignation)
        assert bodies[2].between is PathScope.ANCHOR_TO_OTHERS
        assert bodies[3].between is PathScope.OTHERS_TO_OTHERS
        assert bodies[4].except_anchor
        assert bodies[4].predicate.on_parent
