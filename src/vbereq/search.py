"""Induced-subnetwork search: exhaustive enumeration and greedy peeling.

Both strategies reach the evaluator only through one ``SubsetJudge`` per
search, which checks the anchor, view and mode once. Exhaustive mode
enumerates by backtracking only the subsets the judge does not rule out,
has it decide each (stopping at the first failing requirement), and has it
explain a passing one only when its solution's ``report`` is read. Every
subset of the size window (for anchored requirement sets, every subset
containing the anchor) is either decided or ruled out by one of these
rules, each sound for every induced subnetwork:

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
catches lengths that grow or become unreachable.

Two bounds keep accidental blowups from running away. The enumeration cap
counts decided subsets. The size guard (``EXHAUSTIVE_SIZE_GUARD`` actors)
bounds the enumeration over the judge's candidates, dead ends included,
which the cap never sees: with conflicts splitting 45 candidates into 9
cliques and k = 10, no subset can be completed, and the enumeration ran
9.8 s without deciding one (Python 3.11, shared 2-vCPU machine).

Greedy peel starts from the whole network and repeatedly removes the actor
with the most violated per-actor atoms (ties broken by lowest total
degree, then actor order; the anchor is never removed), and has the judge
report on what is left after each removal. It is sound but not complete:
a returned solution always satisfies the requirements, but failure to find
one proves nothing. When nothing points at a specific actor (say a too-low
network density), the peel still removes the current lowest-degree actor.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from .evaluator import EvaluationReport, SubsetJudge
from .metrics import MetricId, actor_metric, network_metric
from .network import SocialNetwork
from .render import subnetwork_name
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
    """A satisfying actor subset (in parent actor order), its objective
    value, and its ``report``, which is built the first time it is read."""

    actors: tuple[str, ...]
    objective_value: int | Fraction
    _explain: Callable[[], EvaluationReport] = field(compare=False, repr=False)

    @cached_property
    def report(self) -> EvaluationReport:
        return self._explain()


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


def _subsets(actors: tuple[str, ...], k: int, conflicts: frozenset[tuple[str, str]]):
    """The k-subsets of ``actors`` that hold no pair of ``conflicts``,
    lexicographically by position in ``actors``.

    Backtracking extends a prefix with each candidate in turn and keeps, as
    the next candidates, the later actors that do not conflict with it, so
    no subset holding a conflicting pair is ever built. Once no two
    candidates conflict (or one actor is left to pick), every choice of the
    rest completes the prefix. ``conflicts`` pairs list the earlier actor
    first.
    """

    def extend(prefix, candidates, left):
        if (
            left < 2
            or not conflicts
            or conflicts.isdisjoint(itertools.combinations(candidates, 2))
        ):
            yield from map(prefix.__add__, itertools.combinations(candidates, left))
            return
        for i in range(len(candidates) - left + 1):
            actor = candidates[i]
            rest = [c for c in candidates[i + 1 :] if (actor, c) not in conflicts]
            yield from extend((*prefix, actor), rest, left - 1)

    return extend((), actors, k)


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
    # Every subset holds the anchor; the rest are drawn from the others. The
    # anchor is in no conflict pair, since a pair with it excludes the other.
    fixed = () if judge.anchor is None else (judge.anchor,)
    others = tuple(a for a in judge.actors if a not in fixed)

    examined = 0
    solutions: list[SubnetworkSolution] = []
    for k in range(cfg.max_size, cfg.min_size - 1, -1):
        if k not in judge.sizes:
            continue
        for rest in _subsets(others, k - len(fixed), judge.conflicts):
            examined += 1
            if examined > cfg.enumeration_cap:
                raise SearchError(
                    f"enumeration cap exceeded after {cfg.enumeration_cap} subsets"
                )
            sub = judge.decide(fixed + rest)
            if sub is None:
                continue
            name = subnetwork_name(network_name, sub.actors)
            explain = partial(judge.report, sub, name)
            solution = SubnetworkSolution(sub.actors, _objective_value(cfg, sub), explain)
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
    judge = SubsetJudge(net, reqs, anchor, view=view, mode=mode)

    current = net
    trace: list[str] = []
    while True:
        report = judge.report(current, subnetwork_name(network_name, current.actors))
        if report.overall and current.size <= cfg.max_size:
            explain = partial(replace, report, peel_trace=tuple(trace))
            value = _objective_value(cfg, current)
            return SubnetworkSolution(current.actors, value, explain)
        if current.size - 1 < cfg.min_size:
            return None
        scores = Counter(
            actor
            for verdict in report.verdicts
            if not verdict.satisfied
            for actor, _ in verdict.violators
        )
        # At least two actors are left, so one of them is not the anchor.
        candidates = [(i, a) for i, a in enumerate(current.actors) if a != judge.anchor]
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
