"""Requirement evaluation: verdicts, reports, and role candidacies.

``evaluate`` checks one requirement set against one network and returns a
structured report: one verdict per requirement (no short-circuiting, so
the full diagnostic picture is always present), the overall conjunction,
and per-role candidate lists. Atoms flagged ``@parent`` are computed on
the parent network (the network a candidate subset was drawn from); all
other constraints see the network under evaluation.

Each requirement kind has one row in ``_KINDS``: its verdict and what it
rules out of a search. A ``SubsetJudge`` serves one search over the
subsets of a parent: built once, it checks view, mode and anchor as
``evaluate`` does and reads what the rows rule out; it decides each
subset it is handed through the same rows, stopping at the first failing
requirement, or explains it as ``evaluate`` would, checking no
precondition again. A report screens its network for role candidacies
when ``role_candidacies`` is first read, so a report that is never
rendered never pays for screening.

Within one call, ``avg_others`` comes from one total per network and
metric minus the actor's own value, so a predicate costs O(atoms) per
actor rather than O(n) per atom; the totals are dropped when the call
returns.

All comparisons are exact; a comparison that touches an UNDEFINED or
UNREACHABLE value is false, so requirements about uncomputable properties
fail rather than passing vacuously, and the rendered value states why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .metrics import (
    MODES,
    UNIT_INTERVAL_METRICS,
    VIEWS,
    MetricId,
    MetricValue,
    actor_metric,
    observe_actor_metric,
    observe_network_metric,
)
from .network import SocialNetwork
from .render import metric_display
from .reqtext import render_literal, render_predicate, render_reference
from .requirements import (
    AnchorDesignation,
    And,
    Atom,
    AvgOfOthers,
    Comparator,
    CountActors,
    ForAllActors,
    NetworkConstraint,
    Not,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementSet,
    template_broker,
    template_member,
    template_planner,
)
from .values import UNDEFINED, UNREACHABLE, MetricResult, fraction_str, is_defined


class EvaluationError(ValueError):
    """Evaluation preconditions were violated (anchor, parent, role)."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one requirement.

    ``witnesses`` lists the actors satisfying a count predicate, in actor
    order. ``violators`` holds one (actor, description) entry per failed
    atom or path, so an actor may appear more than once. ``observed``
    carries the metric values a network-scoped check used.
    """

    label: str
    satisfied: bool
    detail: str
    witnesses: tuple[str, ...] = ()
    violators: tuple[tuple[str, str], ...] = ()
    observed: tuple[MetricValue, ...] = ()


@dataclass(frozen=True)
class EvaluationReport:
    """All verdicts for one (network, requirement set) evaluation.

    ``network`` is the evaluated network; ``role_candidacies`` screens it
    for every role the first time it is read. ``peel_trace`` is None
    except on reports produced by the greedy-peel search, where it lists
    the removed actors in removal order.
    """

    network_name: str
    requirement_set_name: str
    anchor: str | None
    verdicts: tuple[Verdict, ...]
    overall: bool
    network: SocialNetwork = field(compare=False, repr=False)
    peel_trace: tuple[str, ...] | None = None

    @cached_property
    def role_candidacies(self) -> dict[str, tuple[str, ...]]:
        """Actors of ``network`` whose role predicate holds, per role."""
        scope = _Scope(self.network)
        return {
            role: tuple(_screen(template(), scope))
            for role, template in _ROLE_TEMPLATES.items()
        }


_ROLE_TEMPLATES = {
    "member": template_member,
    "planner": template_planner,
    "broker": template_broker,
}
# Every role, in the order reports and listings give them.
ROLES = tuple(_ROLE_TEMPLATES)


# -- predicate machinery ------------------------------------------------------


class _Scope:
    """What the verdicts of one call share: the evaluated network, its
    parent, the anchor, the path semantics, and the totals behind
    ``avg_others``, which are dropped with the scope when the call returns.
    """

    def __init__(
        self,
        net: SocialNetwork,
        parent: SocialNetwork | None = None,
        anchor: str | None = None,
        view: str = "directed",
        mode: str = "strict",
    ) -> None:
        self.net = net
        self.parent = parent if parent is not None else net
        self.anchor = anchor
        self.view = view
        self.mode = mode
        # (on the evaluated network?, metric) -> (value per actor, sum of the
        # defined values, number of undefined values)
        self._totals: dict[
            tuple[bool, MetricId], tuple[dict[str, MetricResult], Fraction, int]
        ] = {}

    def target(self, atom: Atom) -> SocialNetwork:
        return self.parent if atom.on_parent else self.net

    def reference(self, atom: Atom, actor: str):
        """The value ``atom`` compares ``actor``'s metric against."""
        ref = atom.reference
        if not isinstance(ref, AvgOfOthers):
            return ref
        target = self.target(atom)
        key = (target is self.net, ref.metric)
        if key not in self._totals:
            values = {
                a: actor_metric(target, ref.metric, a, view=self.view, mode=self.mode)
                for a in target.actors
            }
            defined = [v for v in values.values() if is_defined(v)]
            self._totals[key] = (
                values, sum(defined, Fraction(0)), len(values) - len(defined)
            )
        values, total, undefined = self._totals[key]
        # The mean over the other actors: the total less the actor's own
        # value, UNDEFINED when there are no others or one is undefined.
        own = values[actor]
        if is_defined(own):
            total -= own
        else:
            undefined -= 1
        if undefined or target.size < 2:
            return UNDEFINED
        return total / (target.size - 1)


def _holds(pred, actor: str, scope: _Scope) -> bool:
    """Whether ``pred`` holds for ``actor``; stops at the first deciding part."""
    if isinstance(pred, Atom):
        value = actor_metric(
            scope.target(pred), pred.metric, actor, view=scope.view, mode=scope.mode
        )
        return pred.cmp.holds(value, scope.reference(pred, actor))
    if isinstance(pred, Not):
        return not _holds(pred.part, actor, scope)
    parts = (_holds(part, actor, scope) for part in pred.parts)
    return all(parts) if isinstance(pred, And) else any(parts)


def _failures(pred, actor: str, scope: _Scope, polarity: bool = True) -> list[str]:
    """Describe the leaf atoms that pull ``pred`` away from ``polarity``.

    Empty exactly when ``pred`` holds for ``actor`` (under ``polarity``);
    an inner node reads that off its parts' lists, so each is decided once.
    """
    if isinstance(pred, Not):
        return _failures(pred.part, actor, scope, not polarity)
    if not isinstance(pred, Atom):
        parts = [_failures(part, actor, scope, polarity) for part in pred.parts]
        # An And needs every part and an Or one; under a Not, the reverse.
        needs_all = isinstance(pred, And) == polarity
        if not (any(parts) if needs_all else all(parts)):
            return []
        return [desc for descs in parts for desc in descs]
    observed = observe_actor_metric(
        scope.target(pred), pred.metric, actor, view=scope.view, mode=scope.mode
    )
    reference = scope.reference(pred, actor)
    if pred.cmp.holds(observed.value, reference) == polarity:
        return []
    ref_text = render_reference(pred)
    if isinstance(pred.reference, AvgOfOthers):
        ref_text += f" = {fraction_str(reference)}"
    negation = "" if polarity else "not "
    value_text = fraction_str(observed.value, observed.ratio)
    return [
        f"{pred.metric.value}={value_text}, "
        f"required {negation}{pred.cmp.value}{ref_text}"
    ]


def _screen(predicate, scope: _Scope) -> list[str]:
    """Actors of the scope's network whose role predicate holds there."""
    return [a for a in scope.net.actors if _holds(predicate, a, scope)]


# -- verdicts ------------------------------------------------------------------
#
# Each verdict function decides first. With ``explain`` false it returns the
# bare decision as soon as it is known, with no detail text, so that
# ``SubsetJudge`` and ``evaluate`` share one copy of every rule.


def _network_verdict(req: Requirement, scope: _Scope, explain: bool) -> Verdict:
    body: NetworkConstraint = req.body
    mv = observe_network_metric(scope.net, body.metric, view=scope.view, mode=scope.mode)
    satisfied = body.cmp.holds(mv.value, body.threshold)
    if not explain:
        return Verdict(req.label, satisfied, "")
    threshold = render_literal(body.threshold, body.metric in UNIT_INTERVAL_METRICS)
    detail = (
        f"{body.metric.value} = {metric_display(mv)}; "
        f"required {body.cmp.value} {threshold}"
    )
    return Verdict(req.label, satisfied, detail, observed=(mv,))


def _forall_verdict(req: Requirement, scope: _Scope, explain: bool) -> Verdict:
    body: ForAllActors = req.body
    actors = [
        a for a in scope.net.actors if not (body.except_anchor and a == scope.anchor)
    ]
    failing = (a for a in actors if not _holds(body.predicate, a, scope))
    if not explain:
        return Verdict(req.label, next(failing, None) is None, "")
    failed = list(failing)
    pred_text = render_predicate(body.predicate)
    scope_text = " except anchor" if body.except_anchor else ""
    if not failed:
        detail = f"all {len(actors)} actors{scope_text} satisfy ({pred_text})"
        return Verdict(req.label, True, detail)
    violators = tuple(
        (actor, desc)
        for actor in failed
        for desc in _failures(body.predicate, actor, scope)
    )
    detail = (
        f"{len(failed)} of {len(actors)} actors{scope_text} violate ({pred_text})"
    )
    return Verdict(req.label, False, detail, violators=violators)


def _count_verdict(req: Requirement, scope: _Scope, explain: bool) -> Verdict:
    body: CountActors = req.body
    net = scope.net
    witnesses = [a for a in net.actors if _holds(body.predicate, a, scope)]
    count = len(witnesses)
    bound_value = body.bound * net.size if body.fraction_of_size else body.bound
    satisfied = body.cmp.holds(count, bound_value)
    if not explain:
        return Verdict(req.label, satisfied, "")
    pred_text = render_predicate(body.predicate)
    bound_text = render_literal(body.bound, body.fraction_of_size)
    if body.fraction_of_size:
        bound_text += " of size"
    detail = (
        f"{count} of {net.size} actors satisfy ({pred_text}); "
        f"required {body.cmp.value} {bound_text}"
    )
    violators: list[tuple[str, str]] = []
    observed: tuple[MetricValue, ...] = ()
    if not satisfied:
        # Below the bound, or at a strict lower bound, the actors missing the
        # predicate are blamed; otherwise the surplus of actors satisfying it.
        too_few = count < bound_value or (
            count == bound_value and body.cmp is Comparator.GT
        )
        if too_few:
            chosen = set(witnesses)
            violators = [
                (actor, desc)
                for actor in net.actors
                if actor not in chosen
                for desc in _failures(body.predicate, actor, scope)
            ]
        else:
            violators = [
                (actor, f"satisfies ({pred_text})") for actor in witnesses
            ]
        if not violators:
            observed = (MetricValue(MetricId.SIZE, None, net.size),)
    return Verdict(
        req.label,
        satisfied,
        detail,
        witnesses=tuple(witnesses),
        violators=tuple(violators),
        observed=observed,
    )


def _path_pairs(
    between: PathScope, actors: tuple[str, ...], anchor: str | None
) -> list[tuple[str, str]]:
    """The ordered (sender, receiver) pairs a path scope covers."""
    if between is PathScope.ALL_PAIRS:
        return [(x, y) for x in actors for y in actors if x != y]
    if between is PathScope.ANCHOR_TO_OTHERS:
        return [(anchor, y) for y in actors if y != anchor]
    others = [a for a in actors if a != anchor]
    return [(x, y) for x in others for y in others if x != y]


def _lengths(
    net: SocialNetwork, pairs: list[tuple[str, str]], view: str
) -> Iterator[tuple[str, str, MetricResult]]:
    """Each pair with its hop count in ``net``'s distance table for ``view``."""
    rows = net.distances(view == "undirected")
    return ((x, y, rows[x].get(y, UNREACHABLE)) for x, y in pairs)


def _path_verdict(req: Requirement, scope: _Scope, explain: bool) -> Verdict:
    body: PairwisePath = req.body
    pairs = _path_pairs(body.between, scope.net.actors, scope.anchor)
    failing = (
        (sender, receiver, length)
        for sender, receiver, length in _lengths(scope.net, pairs, scope.view)
        if not body.cmp.holds(length, body.threshold)
    )
    if not explain:
        return Verdict(req.label, next(failing, None) is None, "")
    violators = tuple(
        (
            sender,
            f"path {sender}->{receiver}={fraction_str(length)}, "
            f"required {body.cmp.value}{body.threshold}",
        )
        for sender, receiver, length in failing
    )
    shape = f"path {body.cmp.value} {body.threshold}"
    if not violators:
        detail = f"all {len(pairs)} {body.between.value} paths satisfy ({shape})"
        return Verdict(req.label, True, detail)
    detail = f"{len(violators)} of {len(pairs)} {body.between.value} paths violate ({shape})"
    return Verdict(req.label, False, detail, violators=violators)


def _anchor_verdict(req: Requirement, scope: _Scope, explain: bool) -> Verdict:
    return Verdict(req.label, True, f"anchor = {scope.anchor}" if explain else "")


def _atoms(pred) -> list[Atom]:
    if isinstance(pred, Atom):
        return [pred]
    if isinstance(pred, Not):
        return _atoms(pred.part)
    return [atom for part in pred.parts for atom in _atoms(part)]


def _size_ruled_out(body: NetworkConstraint, scope: _Scope, sizes, excluded, pairs):
    if body.metric is MetricId.SIZE:
        sizes -= {k for k in sizes if not body.cmp.holds(k, body.threshold)}


def _forall_ruled_out(body: ForAllActors, scope: _Scope, sizes, excluded, pairs):
    """The actors failing a ``forall`` whose atoms all read the parent."""
    if all(atom.on_parent for atom in _atoms(body.predicate)):
        exempt = scope.anchor if body.except_anchor else None
        for a in scope.net.actors:
            if a != exempt and not _holds(body.predicate, a, scope):
                excluded.add(a)


def _length_ruled_out(body: PairwisePath, length: MetricResult) -> bool:
    """Whether a pair at ``length`` in the parent fails ``body`` in every
    subnetwork holding both. An induced subnetwork keeps a direct tie and
    only loses other paths, so there the length is exactly 1, or at least
    the parent's, or UNREACHABLE as in the parent; only an upper bound can
    rule out a length that may still grow."""
    if not is_defined(length):
        return True
    if length == 1:
        return not body.cmp.holds(1, body.threshold)
    most = {
        Comparator.LT: body.threshold - 1,
        Comparator.LE: body.threshold,
        Comparator.EQ: body.threshold,
    }.get(body.cmp)
    return most is not None and length > most


def _path_ruled_out(body: PairwisePath, scope: _Scope, sizes, excluded, pairs):
    anchor = scope.anchor
    found = _path_pairs(body.between, scope.net.actors, anchor)
    for x, y, length in _lengths(scope.net, found, scope.view):
        if not _length_ruled_out(body, length):
            continue
        if anchor in (x, y):
            # Every subset holds the anchor, so only the other actor counts.
            excluded.add(y if x == anchor else x)
        else:
            pairs.add((x, y))


# One row per requirement body kind: its verdict, and its rule-out (None for
# none), which reads only the parent and takes out of ``sizes``, or adds to
# ``excluded`` and ``pairs``, the sizes, actors and pairs of actors that no
# satisfying subset of it has or holds.
_KINDS = {
    NetworkConstraint: (_network_verdict, _size_ruled_out),
    ForAllActors: (_forall_verdict, _forall_ruled_out),
    CountActors: (_count_verdict, None),
    PairwisePath: (_path_verdict, _path_ruled_out),
    AnchorDesignation: (_anchor_verdict, None),
}


def _verdict(req: Requirement, scope: _Scope, explain: bool) -> Verdict:
    verdict, _ = _KINDS[type(req.body)]
    return verdict(req, scope, explain)


def _checked_scope(
    net: SocialNetwork,
    reqs: RequirementSet,
    anchor: str | None,
    parent: SocialNetwork | None,
    view: str,
    mode: str,
) -> _Scope:
    """The scope of one evaluation, after checking its preconditions."""
    if view not in VIEWS:
        raise EvaluationError(f"view must be one of {VIEWS}, got {view!r}")
    if mode not in MODES:
        raise EvaluationError(f"mode must be one of {MODES}, got {mode!r}")
    if parent is not None and parent is not net:
        members = frozenset(net.actors)
        for actor in net.actors:
            if actor not in parent:
                raise EvaluationError(
                    f"actor {actor!r} is not part of the parent network"
                )
            if net.out_neighbors(actor) != parent.out_neighbors(actor) & members:
                raise EvaluationError(
                    f"ties of {actor!r} differ from those the parent network "
                    f"induces on the evaluated actors"
                )
    # A set that designates no anchor pins none either.
    effective = anchor if anchor is not None else reqs.anchor
    if not reqs.needs_anchor and anchor is not None:
        raise EvaluationError(
            f"requirement set {reqs.name!r} does not designate an anchor"
        )
    if reqs.needs_anchor and effective is None:
        raise EvaluationError(
            f"requirement set {reqs.name!r} designates an anchor; "
            f"supply one at evaluation time"
        )
    if effective is not None and effective not in net:
        raise EvaluationError(f"anchor {effective!r} is not an actor of the network")
    return _Scope(net, parent, effective, view, mode)


def evaluate(
    net: SocialNetwork,
    reqs: RequirementSet,
    anchor: str | None = None,
    *,
    parent: SocialNetwork | None = None,
    network_name: str = "network",
    view: str = "directed",
    mode: str = "strict",
) -> EvaluationReport:
    """Evaluate a requirement set against a network.

    ``anchor`` must be given exactly when the set designates one (a pinned
    designation supplies a default; an explicit argument overrides it).
    ``parent`` is the network a candidate subset was drawn from; ``net``
    must be the subnetwork it induces, and ``@parent`` atoms evaluate
    there. ``view``/``mode`` select path-metric semantics.
    """
    scope = _checked_scope(net, reqs, anchor, parent, view, mode)
    return _report(scope, reqs, network_name)


def _report(scope: _Scope, reqs: RequirementSet, network_name: str) -> EvaluationReport:
    """The explained report on the scope's network, assuming its preconditions."""
    verdicts = tuple(_verdict(req, scope, True) for req in reqs.requirements)
    return EvaluationReport(
        network_name,
        reqs.name,
        scope.anchor,
        verdicts,
        all(v.satisfied for v in verdicts),
        scope.net,
    )


# -- subset judge --------------------------------------------------------------


class SubsetJudge:
    """Decides, for one search, which subsets of ``parent`` satisfy ``reqs``, and why.

    Construction raises what :func:`evaluate` raises for ``view``, ``mode``
    and ``anchor``, then keeps the effective ``anchor`` and what the rows
    of ``_KINDS`` rule out: ``sizes``, the sizes every ``size`` constraint
    allows; ``actors``, in parent order, those a satisfying subset may
    hold; and ``conflicts``, pairs (x, y) of them, x first, it cannot hold
    together.
    A ``forall`` whose atoms are all ``@parent`` excludes the actors failing
    it on the parent (the anchor too, unless ``except anchor``). A path
    rule excludes the pairs ``_length_ruled_out`` names, and a pair with
    the anchor excludes the other actor. No other row limits anything. A
    new requirement kind needs a row, besides its ``RequirementBody``
    member, parser reader, and ``render_body`` and ``_needs_anchor`` cases.
    """

    def __init__(
        self,
        parent: SocialNetwork,
        reqs: RequirementSet,
        anchor: str | None = None,
        *,
        view: str = "directed",
        mode: str = "strict",
    ) -> None:
        scope = _checked_scope(parent, reqs, anchor, None, view, mode)
        self.parent = parent
        self.reqs = reqs
        self.anchor = anchor = scope.anchor
        self._scope = lambda sub: _Scope(sub, parent, anchor, view, mode)
        sizes = set(range(1, parent.size + 1))
        excluded: set[str] = set()
        pairs: set[tuple[str, str]] = set()
        for req in reqs.requirements:
            rule_out = _KINDS[type(req.body)][1]
            if rule_out:
                rule_out(req.body, scope, sizes, excluded, pairs)
        order = {a: i for i, a in enumerate(parent.actors)}
        self.sizes = frozenset(sizes)
        self.actors = tuple(a for a in parent.actors if a not in excluded)
        self.conflicts = frozenset(
            (x, y) if order[x] < order[y] else (y, x)
            for x, y in pairs
            if excluded.isdisjoint((x, y))
        )

    def decide(self, actors: Iterable[str]) -> SocialNetwork | None:
        """``parent.induced(actors)`` if it satisfies the set, else None.

        ``actors`` must hold the anchor. Decides ``evaluate(...).overall``
        but stops at the first failing requirement and checks no precondition.
        """
        sub = self.parent.induced(actors)
        scope = self._scope(sub)
        if all(_verdict(req, scope, False).satisfied for req in self.reqs.requirements):
            return sub
        return None

    def report(self, sub: SocialNetwork, network_name: str) -> EvaluationReport:
        """``evaluate(sub, reqs, anchor, parent=parent, ...)`` for a ``sub``
        that ``parent`` induced, holding the anchor; checks no precondition."""
        return _report(self._scope(sub), self.reqs, network_name)


def role_candidates(
    net: SocialNetwork, role: str, *, members_only: bool = False
) -> list[str]:
    """Actors whose role predicate holds, in actor order.

    By default candidacies are screened on the whole network. With
    ``members_only`` the planner/broker predicates are instead evaluated
    on the subnetwork induced by the member candidates.
    """
    if role not in _ROLE_TEMPLATES:
        raise EvaluationError(f"unknown role {role!r}")
    if net.size < 2:
        raise EvaluationError("role screening needs at least two actors")
    scope = _Scope(net)
    if members_only and role != "member":
        members = _screen(template_member(), scope)
        if not members:
            return []
        scope = _Scope(net.induced(members))
    return _screen(_ROLE_TEMPLATES[role](), scope)
