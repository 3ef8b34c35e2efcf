"""Requirement evaluation: verdicts, reports, and role candidacies.

``evaluate`` checks one requirement set against one network and returns a
structured report: one verdict per requirement (no short-circuiting, so
the full diagnostic picture is always present), the overall conjunction,
and per-role candidate lists. Atoms flagged ``@parent`` are computed on
the parent network (the network a candidate subset was drawn from); all
other constraints see the network under evaluation.

All comparisons are exact; a comparison that touches an UNDEFINED or
UNREACHABLE value is false, so requirements about uncomputable properties
fail rather than passing vacuously, and the rendered value states why.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .metrics import (
    UNIT_INTERVAL_METRICS,
    MetricId,
    MetricValue,
    actor_metric,
    observe_actor_metric,
    observe_network_metric,
    shortest_path_length,
)
from .network import SocialNetwork
from .render import metric_display
from .reqtext import render_literal, render_predicate
from .requirements import (
    And,
    Atom,
    AvgOfOthers,
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
from .values import UNDEFINED, fraction_str, is_defined


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

    ``peel_trace`` is None except on reports produced by the greedy-peel
    search, where it lists the removed actors in removal order.
    """

    network_name: str
    requirement_set_name: str
    anchor: str | None
    verdicts: tuple[Verdict, ...]
    overall: bool
    role_candidacies: dict[str, tuple[str, ...]]
    peel_trace: tuple[str, ...] | None = None


Role = Literal["member", "planner", "broker"]

_ROLE_TEMPLATES = {
    "member": template_member,
    "planner": template_planner,
    "broker": template_broker,
}


# -- predicate machinery ------------------------------------------------------


def _avg_of_others(
    net: SocialNetwork, metric: MetricId, actor: str, view: str, mode: str
):
    others = [x for x in net.actors if x != actor]
    if not others:
        return UNDEFINED
    total = Fraction(0)
    for other in others:
        value = actor_metric(net, metric, other, view=view, mode=mode)
        if not is_defined(value):
            return UNDEFINED
        total += value
    return total / len(others)


def _eval_predicate(
    pred,
    actor: str,
    net: SocialNetwork,
    parent: SocialNetwork,
    view: str,
    mode: str,
    polarity: bool = True,
) -> tuple[bool, list[str]]:
    """Evaluate a predicate for one actor.

    Returns (holds, failures) where failures describes the leaf atoms that
    pull the predicate toward false under the given polarity; it is
    non-empty exactly when holds is false.
    """
    if isinstance(pred, Atom):
        target = parent if pred.on_parent else net
        observed = observe_actor_metric(target, pred.metric, actor, view=view, mode=mode)
        ref = pred.reference
        if isinstance(ref, AvgOfOthers):
            ref_value = _avg_of_others(target, ref.metric, actor, view, mode)
            ref_text = f"avg_others({ref.metric.value}) = {fraction_str(ref_value)}"
        else:
            ref_value = ref
            ref_text = render_literal(ref, pred.metric in UNIT_INTERVAL_METRICS)
        holds = pred.cmp.holds(observed.value, ref_value)
        if (holds if polarity else not holds):
            return True, []
        negation = "" if polarity else "not "
        value_text = fraction_str(observed.value, observed.ratio)
        return False, [
            f"{pred.metric.value}={value_text}, "
            f"required {negation}{pred.cmp.value}{ref_text}"
        ]
    if isinstance(pred, Not):
        return _eval_predicate(pred.part, actor, net, parent, view, mode, not polarity)
    results = [
        _eval_predicate(part, actor, net, parent, view, mode, polarity)
        for part in pred.parts
    ]
    conjunctive = isinstance(pred, And) == polarity
    holds = all(r[0] for r in results) if conjunctive else any(r[0] for r in results)
    if holds:
        return True, []
    return False, [desc for ok, descs in results if not ok for desc in descs]


# -- verdicts ------------------------------------------------------------------


def _network_verdict(
    req: Requirement, net: SocialNetwork, view: str, mode: str
) -> Verdict:
    body: NetworkConstraint = req.body
    mv = observe_network_metric(net, body.metric, view=view, mode=mode)
    satisfied = body.cmp.holds(mv.value, body.threshold)
    threshold = render_literal(body.threshold, body.metric in UNIT_INTERVAL_METRICS)
    detail = (
        f"{body.metric.value} = {metric_display(mv)}; "
        f"required {body.cmp.value} {threshold}"
    )
    return Verdict(req.label, satisfied, detail, observed=(mv,))


def _forall_verdict(
    req: Requirement,
    net: SocialNetwork,
    parent: SocialNetwork,
    anchor: str | None,
    view: str,
    mode: str,
) -> Verdict:
    body: ForAllActors = req.body
    scope = [a for a in net.actors if not (body.except_anchor and a == anchor)]
    violators: list[tuple[str, str]] = []
    failed: list[str] = []
    for actor in scope:
        holds, failures = _eval_predicate(body.predicate, actor, net, parent, view, mode)
        if not holds:
            failed.append(actor)
            violators.extend((actor, desc) for desc in failures)
    pred_text = render_predicate(body.predicate)
    scope_text = " except anchor" if body.except_anchor else ""
    if not violators:
        detail = f"all {len(scope)} actors{scope_text} satisfy ({pred_text})"
        return Verdict(req.label, True, detail)
    detail = (
        f"{len(failed)} of {len(scope)} actors{scope_text} violate ({pred_text})"
    )
    return Verdict(req.label, False, detail, violators=tuple(violators))


def _count_verdict(
    req: Requirement,
    net: SocialNetwork,
    parent: SocialNetwork,
    view: str,
    mode: str,
) -> Verdict:
    body: CountActors = req.body
    witnesses: list[str] = []
    failures_by_actor: dict[str, list[str]] = {}
    for actor in net.actors:
        holds, failures = _eval_predicate(body.predicate, actor, net, parent, view, mode)
        if holds:
            witnesses.append(actor)
        else:
            failures_by_actor[actor] = failures
    count = len(witnesses)
    bound_value = body.bound * net.size if body.fraction_of_size else body.bound
    satisfied = body.cmp.holds(count, bound_value)
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
        # Lower bounds blame the actors missing the predicate; upper bounds
        # blame the surplus of actors satisfying it.
        too_few = count < bound_value
        if too_few:
            violators = [
                (actor, desc)
                for actor in net.actors
                if actor in failures_by_actor
                for desc in failures_by_actor[actor]
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


def _path_verdict(
    req: Requirement,
    net: SocialNetwork,
    anchor: str | None,
    view: str,
) -> Verdict:
    body: PairwisePath = req.body
    if body.between is PathScope.ALL_PAIRS:
        pool = list(net.actors)
        pairs = [(x, y) for x in pool for y in pool if x != y]
    elif body.between is PathScope.ANCHOR_TO_OTHERS:
        pairs = [(anchor, y) for y in net.actors if y != anchor]
    else:
        others = [a for a in net.actors if a != anchor]
        pairs = [(x, y) for x in others for y in others if x != y]
    violators: list[tuple[str, str]] = []
    for sender, receiver in pairs:
        length = shortest_path_length(net, sender, receiver, view=view)
        if not body.cmp.holds(length, body.threshold):
            violators.append(
                (
                    sender,
                    f"path {sender}->{receiver}={fraction_str(length)}, "
                    f"required {body.cmp.value}{body.threshold}",
                )
            )
    shape = f"path {body.cmp.value} {body.threshold}"
    if not violators:
        detail = f"all {len(pairs)} {body.between.value} paths satisfy ({shape})"
        return Verdict(req.label, True, detail)
    detail = f"{len(violators)} of {len(pairs)} {body.between.value} paths violate ({shape})"
    return Verdict(req.label, False, detail, violators=tuple(violators))


def _screen(predicate, net: SocialNetwork) -> list[str]:
    """Actors of ``net`` whose role predicate holds, screened on ``net``."""
    return [
        a
        for a in net.actors
        if _eval_predicate(predicate, a, net, net, "directed", "strict")[0]
    ]


def _candidacies(net: SocialNetwork) -> dict[str, tuple[str, ...]]:
    return {
        role: tuple(_screen(template(), net))
        for role, template in _ROLE_TEMPLATES.items()
    }


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
    parent_net = parent if parent is not None else net
    if parent_net is not net:
        members = frozenset(net.actors)
        for actor in net.actors:
            if actor not in parent_net:
                raise EvaluationError(
                    f"actor {actor!r} is not part of the parent network"
                )
            if net.out_neighbors(actor) != parent_net.out_neighbors(actor) & members:
                raise EvaluationError(
                    f"ties of {actor!r} differ from those the parent network "
                    f"induces on the evaluated actors"
                )
    if reqs.needs_anchor:
        effective = anchor if anchor is not None else reqs.anchor
        if effective is None:
            raise EvaluationError(
                f"requirement set {reqs.name!r} designates an anchor; "
                f"supply one at evaluation time"
            )
        if effective not in net:
            raise EvaluationError(f"anchor {effective!r} is not an actor of the network")
    elif anchor is not None:
        raise EvaluationError(
            f"requirement set {reqs.name!r} does not designate an anchor"
        )
    else:
        effective = None

    verdicts: list[Verdict] = []
    for req in reqs.requirements:
        body = req.body
        if isinstance(body, NetworkConstraint):
            verdicts.append(_network_verdict(req, net, view, mode))
        elif isinstance(body, ForAllActors):
            verdicts.append(
                _forall_verdict(req, net, parent_net, effective, view, mode)
            )
        elif isinstance(body, CountActors):
            verdicts.append(_count_verdict(req, net, parent_net, view, mode))
        elif isinstance(body, PairwisePath):
            verdicts.append(_path_verdict(req, net, effective, view))
        else:
            verdicts.append(
                Verdict(req.label, True, f"anchor = {effective}")
            )
    overall = all(v.satisfied for v in verdicts)
    return EvaluationReport(
        network_name,
        reqs.name,
        effective,
        tuple(verdicts),
        overall,
        _candidacies(net),
    )


def role_candidates(
    net: SocialNetwork, role: Role, *, members_only: bool = False
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
    base = net
    if members_only and role != "member":
        members = _screen(template_member(), net)
        if not members:
            return []
        base = net.induced(members)
    return _screen(_ROLE_TEMPLATES[role](), base)

