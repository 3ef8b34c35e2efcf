"""Induced-subnetwork search: exhaustive enumeration and greedy peeling.

Exhaustive mode builds one ``SubsetJudge`` per search, which checks the
anchor, view and mode once and reads what the requirement set already
rules out; it enumerates by backtracking only the subsets that survive, has
the judge decide each (stopping at the first failing requirement, with no
explanation), and builds the full ``evaluate`` report only for the subsets
that pass, which it returns. Every subset of the size window (for anchored
requirement sets, every subset containing the anchor) is either decided or
ruled out by one of these rules, each sound for every induced subnetwork:

* sizes that a ``size`` constraint rejects are skipped, since the size of
  a subset is the number of its actors;
* actors failing a ``forall`` whose atoms are all ``@parent`` are left
  out (the anchor is exempt under ``except anchor``; when it is not exempt
  and fails, nothing is enumerated), since those atoms read only the
  parent;
* path rules leave out actors, and forbid pairs, whose length in the
  parent already fails them in every subnetwork: an induced subnetwork
  keeps a direct tie and only loses other paths, so a length never drops
  below the parent's and an unreachable pair stays unreachable.

Density, reciprocity and counts can rise or fall as actors join, so they
never prune; the judge still decides every surviving subset, which also
catches lengths that grow or become unreachable. A size guard and an
enumeration cap on the decided subsets keep accidental blowups from
running away.

Greedy peel starts from the whole network and repeatedly removes the actor
with the most violated per-actor atoms (ties broken by lowest total
degree, then actor order; the anchor is never removed), re-evaluating
after each removal. It is sound but not complete: a returned solution
always satisfies the requirements, but failure to find one proves
nothing. When nothing points at a specific actor (say a too-low network
density), the peel still removes the current lowest-degree actor.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .evaluator import EvaluationReport, SubsetJudge, evaluate
from .metrics import MetricId, actor_metric, network_metric
from .network import SocialNetwork
from .requirements import RequirementSet

EXHAUSTIVE_SIZE_GUARD = 20
DEFAULT_ENUMERATION_CAP = 1_000_000

OBJECTIVES = ("size", "density", "first")


class SearchError(ValueError):
    """Invalid search configuration or an exceeded safety bound."""


@dataclass(frozen=True)
class SearchConfig:
    """Size window, objective (one of OBJECTIVES), and enumeration cap.

    The cap bounds the subsets exhaustive search decides; subsets its
    requirement rules exclude beforehand do not count.
    """

    min_size: int
    max_size: int
    objective: str = "size"
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise SearchError(f"unknown objective {self.objective!r}")
        if not 1 <= self.min_size <= self.max_size:
            raise SearchError(
                "size bounds invalid: need 1 <= min_size <= max_size"
            )
        if self.enumeration_cap < 1:
            raise SearchError("enumeration cap must be at least 1")


@dataclass(frozen=True)
class SubnetworkSolution:
    """A satisfying actor subset (in parent actor order) with its report."""

    actors: tuple[str, ...]
    report: EvaluationReport
    objective_value: int | Fraction


def _check_bounds(net: SocialNetwork, cfg: SearchConfig) -> None:
    if cfg.max_size > net.size:
        raise SearchError(
            f"size bounds invalid: max_size {cfg.max_size} exceeds "
            f"network size {net.size}"
        )


def _objective_value(cfg: SearchConfig, sub: SocialNetwork) -> int | Fraction:
    if cfg.objective == "density":
        value = network_metric(sub, MetricId.DENSITY)
        return value if isinstance(value, (int, Fraction)) else Fraction(0)
    return sub.size


def _subnet_name(network_name: str, actors: tuple[str, ...]) -> str:
    return f"{network_name}[{','.join(actors)}]"


def _subsets(
    actors: tuple[str, ...],
    k: int,
    conflicts: frozenset[tuple[str, str]],
    anchor: str | None,
):
    """The k-subsets of ``actors`` that hold ``anchor`` (if given) and no
    pair of ``conflicts``, lexicographically by position in ``actors``.

    Backtracking extends a prefix with each candidate in turn and keeps, as
    the next candidates, the later actors that do not conflict with it, so
    no subset holding a conflicting pair is ever built. Once the prefix
    holds the anchor and no two candidates conflict (or one actor is left
    to pick), every choice of the rest completes it. ``conflicts`` pairs
    list the earlier actor first.
    """

    def extend(prefix, candidates, left, has_anchor):
        if has_anchor and (
            left < 2
            or not conflicts
            or conflicts.isdisjoint(itertools.combinations(candidates, 2))
        ):
            yield from map(prefix.__add__, itertools.combinations(candidates, left))
            return
        for i in range(len(candidates) - left + 1):
            actor = candidates[i]
            # The last place is the anchor's until the anchor is chosen.
            if actor == anchor or left > 1:
                rest = [c for c in candidates[i + 1 :] if (actor, c) not in conflicts]
                yield from extend(
                    (*prefix, actor), rest, left - 1, has_anchor or actor == anchor
                )
            if actor == anchor:
                return  # every later subset would leave the anchor out

    return extend((), actors, k, anchor is None)


def search_exhaustive(
    net: SocialNetwork,
    reqs: RequirementSet,
    cfg: SearchConfig,
    anchor: str | None = None,
    *,
    network_name: str = "network",
    view: str = "directed",
    mode: str = "strict",
) -> list[SubnetworkSolution]:
    """All satisfying subsets in the size window, best objective first.

    Subsets are enumerated largest-size first, lexicographically by actor
    order within a size, skipping those that the judge rules out (see the
    module docstring); with objective "first" the first hit is returned
    alone. Results are sorted by descending objective value, then by actor
    order. Raises SearchError if the network exceeds EXHAUSTIVE_SIZE_GUARD
    actors or more subsets than the enumeration cap would have to be
    decided, and what :func:`evaluate` raises for the anchor, view or mode.
    """
    if net.size > EXHAUSTIVE_SIZE_GUARD:
        raise SearchError(
            f"refusing exhaustive enumeration over {net.size} actors "
            f"(guard is {EXHAUSTIVE_SIZE_GUARD})"
        )
    _check_bounds(net, cfg)
    judge = SubsetJudge(net, reqs, anchor, view=view, mode=mode)
    if judge.anchor is not None and judge.anchor not in judge.actors:
        return []
    index = {a: i for i, a in enumerate(net.actors)}

    examined = 0
    solutions: list[SubnetworkSolution] = []
    for k in range(cfg.max_size, cfg.min_size - 1, -1):
        if k not in judge.sizes:
            continue
        for combo in _subsets(judge.actors, k, judge.conflicts, judge.anchor):
            examined += 1
            if examined > cfg.enumeration_cap:
                raise SearchError(
                    f"enumeration cap exceeded after {cfg.enumeration_cap} subsets"
                )
            sub = judge.decide(combo)
            if sub is None:
                continue
            report = evaluate(
                sub,
                reqs,
                judge.anchor,
                parent=net,
                network_name=_subnet_name(network_name, combo),
                view=view,
                mode=mode,
            )
            solution = SubnetworkSolution(combo, report, _objective_value(cfg, sub))
            if cfg.objective == "first":
                return [solution]
            solutions.append(solution)
    solutions.sort(
        key=lambda s: (
            -Fraction(s.objective_value),
            tuple(index[a] for a in s.actors),
        )
    )
    return solutions


def search_greedy_peel(
    net: SocialNetwork,
    reqs: RequirementSet,
    cfg: SearchConfig,
    anchor: str | None = None,
    *,
    network_name: str = "network",
    view: str = "directed",
    mode: str = "strict",
) -> SubnetworkSolution | None:
    """Peel worst-violating actors until the rest satisfies the set.

    Returns the first satisfying network whose size also fits the window,
    with the removal trace recorded in the report; None once peeling
    would cross min_size without success. Raises what :func:`evaluate`
    raises for the anchor, view or mode.
    """
    _check_bounds(net, cfg)

    current = net
    trace: list[str] = []
    while True:
        report = evaluate(
            current,
            reqs,
            anchor,
            parent=net,
            network_name=_subnet_name(network_name, current.actors),
            view=view,
            mode=mode,
        )
        if report.overall and current.size <= cfg.max_size:
            report = replace(report, peel_trace=tuple(trace))
            return SubnetworkSolution(
                current.actors, report, _objective_value(cfg, current)
            )
        if current.size - 1 < cfg.min_size:
            return None
        scores = Counter(
            actor
            for verdict in report.verdicts
            if not verdict.satisfied
            for actor, _ in verdict.violators
        )
        candidates = [(i, a) for i, a in enumerate(current.actors) if a != report.anchor]
        if not candidates:
            return None
        _, victim = max(
            candidates,
            key=lambda candidate: (
                scores.get(candidate[1], 0),
                -actor_metric(current, MetricId.TOTAL_DEGREE, candidate[1]),
                -candidate[0],
            ),
        )
        trace.append(victim)
        current = current.induced(a for a in current.actors if a != victim)
