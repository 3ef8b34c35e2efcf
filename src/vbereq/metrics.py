"""Social-network metrics with exact rational arithmetic.

Network-scoped metrics: size, density, average path length, reciprocated
tie ratio. Actor-scoped metrics: in/out/total degree, in/out density,
neighborhood size, reciprocated partner count, reciprocated density,
closeness, eccentricity, and pairwise shortest path length.

Path-based metrics follow outgoing ties by default. Pass
``view="undirected"`` to compute them on the symmetrized graph instead;
the non-path metrics ignore the view because their definitions already fix
a direction. Unreachability handling is selected by ``mode``:

* ``"strict"`` (default): a metric that touches an unreachable pair comes
  back ``UNREACHABLE`` (eccentricity, shortest path) or ``UNDEFINED``
  (closeness, average path length).
* ``"lenient"``: path aggregates are restricted to the reachable pairs,
  and :func:`reachable_fraction` reports how much of the network that is.

Path metrics read :meth:`SocialNetwork.distances`, which each network
computes once per view and keeps for its own lifetime; this module holds no
state of its own.

Ratios are reduced by ``Fraction``, so alongside each value the observe
helpers keep the natural unreduced counts (51 ties over 90 ordered pairs
stays ``51/90`` in reports, not ``17/30``).

Each :class:`MetricId` has exactly one row in :data:`METRIC_TABLE`, which
holds its scope (network or actor), whether its range is [0, 1], and an
``observe`` function that returns the value and its display ratio from the
same counts. :func:`network_metric`, :func:`actor_metric` and the
``observe_*`` helpers are lookups in that table, ``NETWORK_METRICS``,
``ACTOR_METRICS`` and ``UNIT_INTERVAL_METRICS`` are derived from it, and
its order is the order of the metrics report. They are the only way to a
metric's value; adding a metric takes one ``MetricId`` member and one row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .network import SocialNetwork
from .values import UNDEFINED, UNREACHABLE, MetricResult


class MetricId(enum.Enum):
    """Metric names as they appear in requirement text and reports."""

    SIZE = "size"
    DENSITY = "density"
    AVG_PATH_LENGTH = "avg_path_length"
    RECIPROCATED_TIE_RATIO = "recip_ratio"
    IN_DEGREE = "in_degree"
    OUT_DEGREE = "out_degree"
    TOTAL_DEGREE = "total_degree"
    IN_DENSITY = "in_density"
    OUT_DENSITY = "out_density"
    NEIGHBORHOOD_SIZE = "neighborhood_size"
    RECIPROCATED_PARTNER_COUNT = "recip_count"
    RECIPROCATED_DENSITY = "recip_density"
    CLOSENESS = "closeness"
    ECCENTRICITY = "eccentricity"


VIEWS = ("directed", "undirected")
MODES = ("strict", "lenient")

# A metric value and, for a fraction of two counts, the unreduced ratio.
Observation = tuple[MetricResult, tuple[int, int] | None]


def _check_view(view: str) -> None:
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")


def _ratio(num: int, den: int) -> Observation:
    """``num/den`` with its unreduced form; UNDEFINED over a zero count."""
    if den == 0:
        return UNDEFINED, None
    return Fraction(num, den), (num, den)


# -- counts that need a set operation or a scan ----------------------------


def _reciprocated_partners(net: SocialNetwork, actor: str) -> int:
    """Partners tied with ``actor`` in both directions."""
    return len(net.out_neighbors(actor) & net.in_neighbors(actor))


def _mutual_pairs(net: SocialNetwork) -> int:
    """Unordered actor pairs tied in both directions."""
    return sum(1 for a, b in net.ties if a < b and (b, a) in net.ties)


# -- paths ----------------------------------------------------------------


def shortest_path_length(
    net: SocialNetwork, sender: str, receiver: str, *, view: str = "directed"
) -> MetricResult:
    """Hops on the shortest path, 0 to self; UNREACHABLE when there is none."""
    _check_view(view)
    net.require_actor(sender)
    net.require_actor(receiver)
    found = net.distances(view == "undirected")[sender].get(receiver)
    return UNREACHABLE if found is None else found


def _hops(net: SocialNetwork, actor: str, view: str, mode: str) -> list[int] | None:
    """Hop counts from ``actor`` to each other actor it reaches.

    None in strict mode when some other actor cannot be reached.
    """
    net.require_actor(actor)
    dist = net.distances(view == "undirected")[actor]
    hops = [h for other, h in dist.items() if other != actor]
    if mode == "strict" and len(hops) < net.size - 1:
        return None
    return hops


def _observe_eccentricity(
    net: SocialNetwork, actor: str, view: str, mode: str
) -> Observation:
    """Greatest distance to another actor, 0 when alone; lenient mode maxes
    over the reachable ones and is UNDEFINED when there are none."""
    hops = _hops(net, actor, view, mode)
    if hops is None:
        return UNREACHABLE, None
    return max(hops, default=0 if net.size == 1 else UNDEFINED), None


def _observe_closeness(
    net: SocialNetwork, actor: str, view: str, mode: str
) -> Observation:
    """Reciprocal of the summed distances to the others; UNDEFINED when
    there are none, or in strict mode when any is unreachable."""
    hops = _hops(net, actor, view, mode)
    return (Fraction(1, sum(hops)) if hops else UNDEFINED), None


def _path_sums(net: SocialNetwork, undirected: bool) -> tuple[int, int, int]:
    """(sum over reachable ordered pairs, reachable pair count, pair count)."""
    total = reachable = 0
    for dist in net.distances(undirected).values():
        total += sum(dist.values())
        reachable += len(dist) - 1
    return total, reachable, net.size * (net.size - 1)


def _observe_avg_path_length(
    net: SocialNetwork, actor: None, view: str, mode: str
) -> Observation:
    """Mean distance over the reachable ordered pairs; UNDEFINED when there
    are none, or in strict mode when any pair is unreachable."""
    total, reachable, pairs = _path_sums(net, view == "undirected")
    if mode == "strict" and reachable < pairs:
        return UNDEFINED, None
    return _ratio(total, reachable)


def reachable_fraction(
    net: SocialNetwork, *, view: str = "directed"
) -> MetricResult:
    """Share of ordered pairs connected by a path; UNDEFINED below two actors."""
    _check_view(view)
    _, reachable, pairs = _path_sums(net, view == "undirected")
    return _ratio(reachable, pairs)[0]


# -- the metric table -------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    """One metric's scope, range and computation.

    ``observe(net, actor, view, mode)`` returns the value together with the
    unreduced ratio behind it, or None when the value is not a fraction of
    two counts; ``actor`` is None for network-scoped rows.
    """

    metric: MetricId
    scope: str  # "network" or "actor"
    unit_interval: bool
    observe: Callable[[SocialNetwork, str | None, str, str], Observation]


# The order is the report order: network rows, then the per-actor columns.
METRIC_TABLE = (
    MetricRow(MetricId.SIZE, "network", False,
              lambda net, *_: (net.size, None)),
    MetricRow(MetricId.DENSITY, "network", True,
              lambda net, *_: _ratio(net.tie_count, net.size * (net.size - 1))),
    MetricRow(MetricId.RECIPROCATED_TIE_RATIO, "network", True,
              lambda net, *_: _ratio(2 * _mutual_pairs(net), net.tie_count)),
    MetricRow(MetricId.AVG_PATH_LENGTH, "network", False,
              _observe_avg_path_length),
    MetricRow(MetricId.IN_DEGREE, "actor", False,
              lambda net, a, *_: (len(net.in_neighbors(a)), None)),
    MetricRow(MetricId.OUT_DEGREE, "actor", False,
              lambda net, a, *_: (len(net.out_neighbors(a)), None)),
    MetricRow(MetricId.TOTAL_DEGREE, "actor", False,
              lambda net, a, *_: (
                  len(net.in_neighbors(a)) + len(net.out_neighbors(a)), None)),
    MetricRow(MetricId.IN_DENSITY, "actor", True,
              lambda net, a, *_: _ratio(len(net.in_neighbors(a)), net.size - 1)),
    MetricRow(MetricId.OUT_DENSITY, "actor", True,
              lambda net, a, *_: _ratio(len(net.out_neighbors(a)), net.size - 1)),
    MetricRow(MetricId.NEIGHBORHOOD_SIZE, "actor", False,
              lambda net, a, *_: (len(net.neighbors(a)), None)),
    MetricRow(MetricId.RECIPROCATED_PARTNER_COUNT, "actor", False,
              lambda net, a, *_: (_reciprocated_partners(net, a), None)),
    MetricRow(MetricId.RECIPROCATED_DENSITY, "actor", True,
              lambda net, a, *_: _ratio(
                  _reciprocated_partners(net, a), len(net.neighbors(a)))),
    MetricRow(MetricId.CLOSENESS, "actor", False, _observe_closeness),
    MetricRow(MetricId.ECCENTRICITY, "actor", False, _observe_eccentricity),
)

_ROWS = {row.metric: row for row in METRIC_TABLE}

NETWORK_METRICS = frozenset(r.metric for r in METRIC_TABLE if r.scope == "network")
ACTOR_METRICS = frozenset(r.metric for r in METRIC_TABLE if r.scope == "actor")

# Metrics whose range is [0, 1]; these render with a percent form and their
# requirement thresholds are validated against that range.
UNIT_INTERVAL_METRICS = frozenset(r.metric for r in METRIC_TABLE if r.unit_interval)


def _row(metric: MetricId, scope: str, view: str, mode: str) -> MetricRow:
    """The table row of ``metric``, after the checks every lookup shares."""
    _check_view(view)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    row = _ROWS[metric]
    if row.scope != scope:
        raise ValueError(f"{metric.value} is {row.scope}-scoped, not {scope}-scoped")
    return row


def network_metric(
    net: SocialNetwork,
    metric: MetricId,
    *,
    view: str = "directed",
    mode: str = "strict",
) -> MetricResult:
    """Compute a network-scoped metric by id."""
    return _row(metric, "network", view, mode).observe(net, None, view, mode)[0]


def actor_metric(
    net: SocialNetwork,
    metric: MetricId,
    actor: str,
    *,
    view: str = "directed",
    mode: str = "strict",
) -> MetricResult:
    """Compute an actor-scoped metric by id."""
    return _row(metric, "actor", view, mode).observe(net, actor, view, mode)[0]


@dataclass(frozen=True)
class MetricValue:
    """A computed metric together with its scope and display ratio.

    ``actor`` is None for network-scoped values. ``ratio`` is the natural
    unreduced numerator/denominator behind a fractional value, kept so that
    reports can show figures auditable against raw counts.
    """

    metric: MetricId
    actor: str | None
    value: MetricResult
    ratio: tuple[int, int] | None = None


def observe_network_metric(
    net: SocialNetwork,
    metric: MetricId,
    *,
    view: str = "directed",
    mode: str = "strict",
) -> MetricValue:
    """Like :func:`network_metric`, but keeping the natural display ratio."""
    row = _row(metric, "network", view, mode)
    return MetricValue(metric, None, *row.observe(net, None, view, mode))


def observe_actor_metric(
    net: SocialNetwork,
    metric: MetricId,
    actor: str,
    *,
    view: str = "directed",
    mode: str = "strict",
) -> MetricValue:
    """Like :func:`actor_metric`, but keeping the natural display ratio."""
    row = _row(metric, "actor", view, mode)
    return MetricValue(metric, actor, *row.observe(net, actor, view, mode))
