"""Declarative social requirements: the constraint AST and built-in templates.

A requirement set is an ordered list of labeled requirements. Each body is
one of five constraint kinds:

* ``NetworkConstraint`` -- a network-scoped metric against a threshold.
* ``ForAllActors`` -- an actor predicate every actor must satisfy,
  optionally exempting the anchor.
* ``CountActors`` -- the number of actors satisfying a predicate against a
  bound, absolute or as a fraction of network size.
* ``PairwisePath`` -- shortest-path lengths over a pair scope (all pairs,
  anchor to the others, or among the non-anchor actors).
* ``AnchorDesignation`` -- declares that evaluation revolves around an
  anchor actor, optionally pinning its id.

Actor predicates are and/or/not combinations of atoms. An atom compares an
actor-scoped metric against either an absolute rational or the average of
that metric over the other actors (``AvgOfOthers``); an atom may also be
flagged to evaluate against the parent network instead of the network
under evaluation, which is how "has a partner outside the candidate group"
is expressed.

Thresholds and comparisons are exact rationals end to end.

The AST is valid by construction: every node checks its children and fields
when it is built and rejects, with ``RequirementError``, a set member that is
not a ``Requirement``, a body that is not one of the five kinds, a predicate
or predicate part that is not an ``Atom``, ``And``, ``Or`` or ``Not``, a
metric that is not a ``MetricId``, a comparator that is not a
``Comparator``, a path scope that is not a ``PathScope``, and an
``AnchorDesignation`` whose pinned id is no valid actor id. The parser, the
serializer and the evaluator trust any AST they are given.
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union, get_args

from .metrics import ACTOR_METRICS, NETWORK_METRICS, UNIT_INTERVAL_METRICS, MetricId
from .network import NetworkError, validate_actor_id
from .values import is_defined


class RequirementError(ValueError):
    """An AST invariant was violated; ``index`` names a set's offending requirement."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class Comparator(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "=="
    GE = ">="
    GT = ">"

    def holds(self, lhs, rhs) -> bool:
        """Exact comparison; false whenever either side is a sentinel."""
        if not (is_defined(lhs) and is_defined(rhs)):
            return False
        return _OPERATORS[self](lhs, rhs)


_OPERATORS = {
    Comparator.LT: operator.lt,
    Comparator.LE: operator.le,
    Comparator.EQ: operator.eq,
    Comparator.GE: operator.ge,
    Comparator.GT: operator.gt,
}


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*\Z")


def _validate_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise RequirementError(
            f"{what} {name!r} must be a word token (letters, digits, _, inner -)"
        )
    return name


def _check_child(child, kinds: tuple, what: str, index: int | None = None) -> None:
    """Reject a child that is not a node of one of ``kinds``."""
    if type(child) not in kinds:
        raise RequirementError(f"not {what}: {child!r}", index)


def _check_parts(node: And | Or, word: str) -> None:
    """Store ``parts`` as a tuple of two or more actor predicates."""
    object.__setattr__(node, "parts", tuple(node.parts))
    if len(node.parts) < 2:
        raise RequirementError(f"'{word}' needs at least two parts")
    for part in node.parts:
        _check_child(part, _PREDICATES, "an actor predicate")


def _validate_threshold(metric: MetricId, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise RequirementError(f"threshold for {metric.value} must be a rational")
    if value < 0:
        raise RequirementError(f"threshold for {metric.value} must be non-negative")
    if metric in UNIT_INTERVAL_METRICS and not 0 <= value <= 1:
        raise RequirementError(
            f"{metric.value} thresholds are fractions in [0,1]; "
            f"write a percentage with an explicit % suffix"
        )


@dataclass(frozen=True)
class AvgOfOthers:
    """Reference meaning: the mean of ``metric`` over all other actors."""

    metric: MetricId

    def __post_init__(self) -> None:
        _check_child(self.metric, (MetricId,), "a metric")
        if self.metric not in ACTOR_METRICS:
            raise RequirementError(
                f"avg_others takes an actor-scoped metric, not {self.metric.value}"
            )


Reference = Union[int, Fraction, AvgOfOthers]


@dataclass(frozen=True)
class Atom:
    """One actor-level comparison, e.g. ``in_density > 80%``.

    ``on_parent`` evaluates the atom against the parent network rather
    than the network under evaluation.
    """

    metric: MetricId
    cmp: Comparator
    reference: Reference
    on_parent: bool = False

    def __post_init__(self) -> None:
        _check_child(self.metric, (MetricId,), "a metric")
        _check_child(self.cmp, (Comparator,), "a comparator")
        if self.metric not in ACTOR_METRICS:
            raise RequirementError(
                f"{self.metric.value} is network-scoped; atoms take actor metrics"
            )
        if not isinstance(self.reference, AvgOfOthers):
            _validate_threshold(self.metric, self.reference)


@dataclass(frozen=True)
class And:
    parts: tuple["ActorPredicate", ...]

    def __post_init__(self) -> None:
        _check_parts(self, "and")


@dataclass(frozen=True)
class Or:
    parts: tuple["ActorPredicate", ...]

    def __post_init__(self) -> None:
        _check_parts(self, "or")


@dataclass(frozen=True)
class Not:
    part: "ActorPredicate"

    def __post_init__(self) -> None:
        _check_child(self.part, _PREDICATES, "an actor predicate")


ActorPredicate = Union[Atom, And, Or, Not]
_PREDICATES = get_args(ActorPredicate)


@dataclass(frozen=True)
class NetworkConstraint:
    """A network-scoped metric compared against a threshold."""

    metric: MetricId
    cmp: Comparator
    threshold: Union[int, Fraction]

    def __post_init__(self) -> None:
        _check_child(self.metric, (MetricId,), "a metric")
        _check_child(self.cmp, (Comparator,), "a comparator")
        if self.metric not in NETWORK_METRICS:
            raise RequirementError(
                f"{self.metric.value} is actor-scoped; wrap it in forall/count"
            )
        _validate_threshold(self.metric, self.threshold)


@dataclass(frozen=True)
class ForAllActors:
    """Every actor (optionally excepting the anchor) satisfies the predicate."""

    predicate: ActorPredicate
    except_anchor: bool = False

    def __post_init__(self) -> None:
        _check_child(self.predicate, _PREDICATES, "an actor predicate")


@dataclass(frozen=True)
class CountActors:
    """The number of actors satisfying the predicate, against a bound.

    With ``fraction_of_size`` the bound is a fraction in [0,1] of network
    size; otherwise it is an absolute actor count.
    """

    predicate: ActorPredicate
    cmp: Comparator
    bound: Union[int, Fraction]
    fraction_of_size: bool = False

    def __post_init__(self) -> None:
        _check_child(self.predicate, _PREDICATES, "an actor predicate")
        _check_child(self.cmp, (Comparator,), "a comparator")
        if self.fraction_of_size:
            if not isinstance(self.bound, (int, Fraction)) or not 0 <= self.bound <= 1:
                raise RequirementError("fraction-of-size bounds must lie in [0,1]")
            object.__setattr__(self, "bound", Fraction(self.bound))
        else:
            if isinstance(self.bound, bool) or not isinstance(self.bound, int):
                raise RequirementError("absolute count bounds must be integers")
            if self.bound < 0:
                raise RequirementError("count bounds must be non-negative")


class PathScope(enum.Enum):
    ALL_PAIRS = "all->all"
    ANCHOR_TO_OTHERS = "anchor->others"
    OTHERS_TO_OTHERS = "others->others"


@dataclass(frozen=True)
class PairwisePath:
    """Shortest-path lengths over a pair scope against an integer threshold."""

    between: PathScope
    cmp: Comparator
    threshold: int

    def __post_init__(self) -> None:
        _check_child(self.between, (PathScope,), "a path scope")
        _check_child(self.cmp, (Comparator,), "a comparator")
        if isinstance(self.threshold, bool) or not isinstance(self.threshold, int):
            raise RequirementError("path thresholds must be integers")
        if self.threshold < 0:
            raise RequirementError("path thresholds must be non-negative")


@dataclass(frozen=True)
class AnchorDesignation:
    """Marks the set as anchored; ``anchor`` may pin the actor id here or
    be left None and supplied at evaluation time."""

    anchor: str | None = None

    def __post_init__(self) -> None:
        if self.anchor is not None:
            try:
                validate_actor_id(self.anchor)
            except NetworkError as exc:
                raise RequirementError(str(exc)) from None


RequirementBody = Union[
    NetworkConstraint, ForAllActors, CountActors, PairwisePath, AnchorDesignation
]
_BODIES = get_args(RequirementBody)


@dataclass(frozen=True)
class Requirement:
    label: str
    body: RequirementBody

    def __post_init__(self) -> None:
        _validate_name(self.label, "requirement label")
        _check_child(self.body, _BODIES, "a requirement body")
        # The text format writes designations as a bare "anchor" line with no
        # label slot, so the label is pinned to keep round-trips exact.
        if isinstance(self.body, AnchorDesignation) and self.label != "anchor":
            raise RequirementError("anchor designations carry the fixed label 'anchor'")


def _needs_anchor(body: RequirementBody) -> bool:
    if isinstance(body, PairwisePath):
        return body.between is not PathScope.ALL_PAIRS
    if isinstance(body, ForAllActors):
        return body.except_anchor
    return False


@dataclass(frozen=True)
class RequirementSet:
    """An ordered, uniquely-labeled list of requirements."""

    name: str
    requirements: tuple[Requirement, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _validate_name(self.name, "requirement set name")
        reqs = tuple(self.requirements)
        object.__setattr__(self, "requirements", reqs)
        for index, req in enumerate(reqs):
            _check_child(req, (Requirement,), "a requirement", index)
        labels = [r.label for r in reqs]
        kinds = [type(r.body) for r in reqs]
        for index, label in enumerate(labels):
            if kinds[index] is AnchorDesignation and AnchorDesignation in kinds[:index]:
                raise RequirementError("at most one anchor designation per set", index)
            if label in labels[:index]:
                raise RequirementError(f"duplicate requirement label {label!r}", index)
        anchored = [i for i, r in enumerate(reqs) if _needs_anchor(r.body)]
        if anchored and AnchorDesignation not in kinds:
            message = "anchored constraints require an anchor designation in the set"
            raise RequirementError(message, anchored[0])

    @property
    def needs_anchor(self) -> bool:
        return any(isinstance(r.body, AnchorDesignation) for r in self.requirements)

    @property
    def anchor(self) -> str | None:
        """The pinned anchor id, if the designation carries one."""
        for r in self.requirements:
            if isinstance(r.body, AnchorDesignation):
                return r.body.anchor
        return None


# -- built-in templates -----------------------------------------------------


def template_member() -> ActorPredicate:
    """A member must not be passive: in- or out-density above 50%."""
    half = Fraction(1, 2)
    return Or(
        (
            Atom(MetricId.IN_DENSITY, Comparator.GT, half),
            Atom(MetricId.OUT_DENSITY, Comparator.GT, half),
        )
    )


def _above_others(metric: MetricId) -> Atom:
    return Atom(metric, Comparator.GT, AvgOfOthers(metric))


def template_broker() -> ActorPredicate:
    """A broker's in- and out-degrees exceed the other actors' averages."""
    return And((_above_others(MetricId.IN_DEGREE), _above_others(MetricId.OUT_DEGREE)))


def template_planner() -> ActorPredicate:
    """A planner is a broker whose reciprocated density is also above average."""
    above = _above_others(MetricId.RECIPROCATED_DENSITY)
    return And((*template_broker().parts, above))
