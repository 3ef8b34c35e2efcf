"""Independent brute-force oracles for the metric and search tests.

Everything here works from a plain (actors, ties) pair using exhaustive
simple-path enumeration and direct scans, deliberately sharing no code
with the package so that agreement is meaningful evidence. The one
exception, ``brute_search``, decides subsets with ``evaluate`` but shares
no code with the search module: it builds every subnetwork itself and
rules nothing out.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vbereq import SocialNetwork, evaluate
from vbereq.values import UNDEFINED, UNREACHABLE

Ties = frozenset


def brute_distance(
    actors: tuple[str, ...],
    ties: frozenset[tuple[str, str]],
    start: str,
    goal: str,
    undirected: bool = False,
) -> int | None:
    """Minimum hop count over every simple path, None when there is none."""
    if start == goal:
        return 0
    if undirected:
        ties = ties | {(b, a) for a, b in ties}
    best: int | None = None
    stack = [(start, {start})]
    while stack:
        node, seen = stack.pop()
        for a, b in ties:
            if a != node or b in seen:
                continue
            hops = len(seen)
            if best is not None and hops >= best:
                continue
            if b == goal:
                best = hops
            else:
                stack.append((b, seen | {b}))
    return best


def brute_out_degree(ties, actor: str) -> int:
    return sum(1 for a, b in ties if a == actor)


def brute_in_degree(ties, actor: str) -> int:
    return sum(1 for a, b in ties if b == actor)


def brute_neighborhood(ties, actor: str) -> set[str]:
    return {b for a, b in ties if a == actor} | {a for a, b in ties if b == actor}


def brute_recip_partners(ties, actor: str) -> set[str]:
    return {b for a, b in ties if a == actor and (b, a) in ties}


def brute_mutual_pairs(actors, ties) -> int:
    return sum(
        1
        for x, y in itertools.combinations(actors, 2)
        if (x, y) in ties and (y, x) in ties
    )


def brute_density(actors, ties):
    n = len(actors)
    if n < 2:
        return UNDEFINED
    return Fraction(len(ties), n * (n - 1))


def brute_recip_ratio(actors, ties):
    if not ties:
        return UNDEFINED
    return Fraction(2 * brute_mutual_pairs(actors, ties), len(ties))


def brute_eccentricity(actors, ties, actor, undirected, lenient):
    others = [a for a in actors if a != actor]
    if not others:
        return 0
    hops = [brute_distance(actors, ties, actor, o, undirected) for o in others]
    if not lenient:
        if any(h is None for h in hops):
            return UNREACHABLE
        return max(hops)
    reachable = [h for h in hops if h is not None]
    return max(reachable) if reachable else UNDEFINED


def brute_closeness(actors, ties, actor, undirected, lenient):
    others = [a for a in actors if a != actor]
    if not others:
        return UNDEFINED
    hops = [brute_distance(actors, ties, actor, o, undirected) for o in others]
    if not lenient:
        if any(h is None for h in hops):
            return UNDEFINED
        return Fraction(1, sum(hops))
    reachable = [h for h in hops if h is not None]
    if not reachable:
        return UNDEFINED
    return Fraction(1, sum(reachable))


def brute_avg_path_length(actors, ties, undirected, lenient):
    if len(actors) < 2:
        return UNDEFINED
    hops = [
        brute_distance(actors, ties, a, b, undirected)
        for a in actors
        for b in actors
        if a != b
    ]
    if not lenient:
        if any(h is None for h in hops):
            return UNDEFINED
        return Fraction(sum(hops), len(hops))
    reachable = [h for h in hops if h is not None]
    if not reachable:
        return UNDEFINED
    return Fraction(sum(reachable), len(reachable))


# -- role screening ----------------------------------------------------------
#
# ``None`` stands for an undefined value here; a comparison against it is
# false, and a mean over the others is undefined when any of them is.


def _brute_recip_density(ties, actor: str) -> Fraction | None:
    neighborhood = brute_neighborhood(ties, actor)
    if not neighborhood:
        return None
    return Fraction(len(brute_recip_partners(ties, actor)), len(neighborhood))


def _brute_above_others(actors, actor: str, value) -> bool:
    """Whether ``value(actor)`` exceeds the mean over every other actor,
    each scanned afresh."""
    own = value(actor)
    others = [value(x) for x in actors if x != actor]
    if own is None or not others or any(v is None for v in others):
        return False
    return own > Fraction(sum(others), len(others))


def brute_member(actors, ties) -> list[str]:
    """Actors with in- or out-density above one half."""
    if len(actors) < 2:
        return []
    half = Fraction(1, 2)
    return [
        a
        for a in actors
        if Fraction(brute_in_degree(ties, a), len(actors) - 1) > half
        or Fraction(brute_out_degree(ties, a), len(actors) - 1) > half
    ]


def brute_broker(actors, ties) -> list[str]:
    """Actors whose in- and out-degrees both exceed the others' means."""
    return [
        a
        for a in actors
        if _brute_above_others(actors, a, lambda x: brute_in_degree(ties, x))
        and _brute_above_others(actors, a, lambda x: brute_out_degree(ties, x))
    ]


def brute_planner(actors, ties) -> list[str]:
    """Brokers whose reciprocated density also exceeds the others' mean."""
    return [
        a
        for a in brute_broker(actors, ties)
        if _brute_above_others(actors, a, lambda x: _brute_recip_density(ties, x))
    ]


# -- search --------------------------------------------------------------------


def brute_search(
    net, reqs, min_size, max_size, anchor, objective, *, view, mode
) -> list[tuple[tuple[str, ...], int | Fraction]]:
    """(actors, objective value) of every satisfying subset in the window,
    best first, or only the first one search meets for objective "first".

    Every subset is built from the parent's internal ties and evaluated;
    density is the objective value of a subnetwork, 0 when undefined.
    """
    found = []
    for k in range(min_size, max_size + 1):
        for combo in itertools.combinations(net.actors, k):
            if anchor is not None and anchor not in combo:
                continue
            ties = frozenset((a, b) for a, b in net.ties if a in combo and b in combo)
            sub = SocialNetwork(combo, ties)
            if not evaluate(sub, reqs, anchor, parent=net, view=view, mode=mode).overall:
                continue
            value = k
            if objective == "density":
                value = brute_density(combo, ties)
                value = Fraction(0) if value is UNDEFINED else value
            found.append((combo, value))
    position = {a: i for i, a in enumerate(net.actors)}
    if objective == "first":
        # Search meets the largest subsets first, each size in actor order.
        return sorted(found, key=lambda f: (-len(f[0]), [position[a] for a in f[0]]))[:1]
    return sorted(found, key=lambda f: (-f[1], [position[a] for a in f[0]]))
