"""Metric definitions against frozen expected values and edge cases."""

from fractions import Fraction

import pytest

from vbereq import (
    MetricId,
    SocialNetwork,
    actor_metric,
    network_metric,
    observe_actor_metric,
    observe_network_metric,
)
from vbereq.metrics import reachable_fraction, shortest_path_length
from vbereq.values import UNDEFINED, UNREACHABLE, decimal_str

# Frozen from the bundled ten-firm matrix, verified against independent
# scans before freezing.
OUT_DEGREES = {"A": 4, "B": 7, "C": 6, "D": 4, "E": 8, "F": 5, "G": 3, "H": 6, "I": 3, "J": 5}
IN_DEGREES = {"A": 5, "B": 8, "C": 4, "D": 6, "E": 9, "F": 1, "G": 9, "H": 2, "I": 5, "J": 2}
RECIP_COUNTS = {"A": 2, "B": 7, "C": 4, "D": 3, "E": 8, "F": 1, "G": 3, "H": 2, "I": 2, "J": 2}
NEIGHBORHOODS = {"A": 7, "B": 8, "C": 6, "D": 7, "E": 9, "F": 5, "G": 9, "H": 6, "I": 6, "J": 5}
ECCENTRICITIES = {"A": 3, "B": 2, "C": 2, "D": 3, "E": 2, "F": 2, "G": 3, "H": 3, "I": 3, "J": 2}
CLOSENESS_DENOMS = {"A": 15, "B": 11, "C": 12, "D": 15, "E": 10, "F": 13, "G": 16, "H": 13, "I": 16, "J": 13}


class TestSteel10Frozen:
    def test_size_and_tie_count(self, steel10):
        assert steel10.size == 10
        assert steel10.tie_count == 51

    def test_density(self, steel10):
        assert network_metric(steel10, MetricId.DENSITY) == Fraction(51, 90)

    def test_degrees(self, steel10):
        for actor in steel10:
            assert actor_metric(steel10, MetricId.OUT_DEGREE, actor) == OUT_DEGREES[actor]
            assert actor_metric(steel10, MetricId.IN_DEGREE, actor) == IN_DEGREES[actor]
            assert (
                actor_metric(steel10, MetricId.TOTAL_DEGREE, actor)
                == OUT_DEGREES[actor] + IN_DEGREES[actor]
            )

    def test_densities(self, steel10):
        for actor in steel10:
            out_density = actor_metric(steel10, MetricId.OUT_DENSITY, actor)
            in_density = actor_metric(steel10, MetricId.IN_DENSITY, actor)
            assert out_density == Fraction(OUT_DEGREES[actor], 9)
            assert in_density == Fraction(IN_DEGREES[actor], 9)

    def test_neighborhoods(self, steel10):
        for actor in steel10:
            neighborhood = actor_metric(steel10, MetricId.NEIGHBORHOOD_SIZE, actor)
            assert neighborhood == NEIGHBORHOODS[actor]

    def test_reciprocated(self, steel10):
        for actor in steel10:
            partners = actor_metric(steel10, MetricId.RECIPROCATED_PARTNER_COUNT, actor)
            assert partners == RECIP_COUNTS[actor]
            assert actor_metric(steel10, MetricId.RECIPROCATED_DENSITY, actor) == Fraction(
                RECIP_COUNTS[actor], NEIGHBORHOODS[actor]
            )
        # 17 mutual pairs make 34 of the 51 ties reciprocated.
        mv = observe_network_metric(steel10, MetricId.RECIPROCATED_TIE_RATIO)
        assert mv.value == Fraction(34, 51)
        assert mv.ratio == (2 * 17, 51)

    def test_paths_directed(self, steel10):
        assert shortest_path_length(steel10, "A", "F") == 3
        assert shortest_path_length(steel10, "A", "A") == 0
        for actor in steel10:
            assert actor_metric(steel10, MetricId.ECCENTRICITY, actor) == ECCENTRICITIES[actor]
            closeness = actor_metric(steel10, MetricId.CLOSENESS, actor)
            assert closeness == Fraction(1, CLOSENESS_DENOMS[actor])
        assert network_metric(steel10, MetricId.AVG_PATH_LENGTH) == Fraction(134, 90)
        assert reachable_fraction(steel10) == 1

    def test_paths_undirected(self, steel10):
        assert shortest_path_length(steel10, "A", "F", view="undirected") == 2
        for actor in steel10:
            eccentricity = actor_metric(
                steel10, MetricId.ECCENTRICITY, actor, view="undirected"
            )
            assert eccentricity <= 2
        assert actor_metric(steel10, MetricId.ECCENTRICITY, "E", view="undirected") == 1
        assert actor_metric(steel10, MetricId.ECCENTRICITY, "G", view="undirected") == 1
        avg_path_length = network_metric(
            steel10, MetricId.AVG_PATH_LENGTH, view="undirected"
        )
        assert avg_path_length == Fraction(112, 90)


class TestDegenerateValues:
    def test_singleton(self):
        one = SocialNetwork(("A",))
        assert network_metric(one, MetricId.DENSITY) is UNDEFINED
        assert actor_metric(one, MetricId.IN_DENSITY, "A") is UNDEFINED
        assert actor_metric(one, MetricId.OUT_DENSITY, "A") is UNDEFINED
        assert actor_metric(one, MetricId.RECIPROCATED_DENSITY, "A") is UNDEFINED
        assert network_metric(one, MetricId.RECIPROCATED_TIE_RATIO) is UNDEFINED
        assert network_metric(one, MetricId.AVG_PATH_LENGTH) is UNDEFINED
        assert reachable_fraction(one) is UNDEFINED
        assert actor_metric(one, MetricId.ECCENTRICITY, "A") == 0
        assert actor_metric(one, MetricId.CLOSENESS, "A") is UNDEFINED

    def test_no_ties(self):
        n = SocialNetwork(("A", "B"))
        assert network_metric(n, MetricId.DENSITY) == 0
        assert network_metric(n, MetricId.RECIPROCATED_TIE_RATIO) is UNDEFINED
        assert actor_metric(n, MetricId.RECIPROCATED_DENSITY, "A") is UNDEFINED
        assert shortest_path_length(n, "A", "B") is UNREACHABLE
        assert actor_metric(n, MetricId.ECCENTRICITY, "A") is UNREACHABLE
        assert actor_metric(n, MetricId.ECCENTRICITY, "A", mode="lenient") is UNDEFINED
        assert actor_metric(n, MetricId.CLOSENESS, "A") is UNDEFINED
        assert actor_metric(n, MetricId.CLOSENESS, "A", mode="lenient") is UNDEFINED
        assert network_metric(n, MetricId.AVG_PATH_LENGTH) is UNDEFINED
        assert network_metric(n, MetricId.AVG_PATH_LENGTH, mode="lenient") is UNDEFINED
        assert reachable_fraction(n) == 0

    def test_partial_reachability(self):
        n = SocialNetwork(("A", "B", "C"), frozenset({("A", "B")}))
        assert actor_metric(n, MetricId.ECCENTRICITY, "A") is UNREACHABLE
        assert actor_metric(n, MetricId.ECCENTRICITY, "A", mode="lenient") == 1
        assert actor_metric(n, MetricId.CLOSENESS, "A") is UNDEFINED
        assert actor_metric(n, MetricId.CLOSENESS, "A", mode="lenient") == 1
        assert network_metric(n, MetricId.AVG_PATH_LENGTH) is UNDEFINED
        assert network_metric(n, MetricId.AVG_PATH_LENGTH, mode="lenient") == 1
        assert reachable_fraction(n) == Fraction(1, 6)
        assert reachable_fraction(n, view="undirected") == Fraction(2, 6)

    def test_a_decimal_that_rounds_to_zero_has_no_sign(self):
        assert decimal_str(Fraction(-1, 10**5)) == "0.0000"
        assert decimal_str(Fraction(1, 10**5)) == "0.0000"
        assert decimal_str(Fraction(-1, 10**4)) == "-0.0001"

    def test_bad_view_and_mode(self, steel10):
        with pytest.raises(ValueError, match="view"):
            actor_metric(steel10, MetricId.ECCENTRICITY, "A", view="sideways")
        with pytest.raises(ValueError, match="mode"):
            actor_metric(steel10, MetricId.CLOSENESS, "A", mode="forgiving")


class TestObservations:
    def test_network_ratios_are_natural(self, steel10):
        mv = observe_network_metric(steel10, MetricId.DENSITY)
        assert mv.value == Fraction(51, 90)
        assert mv.ratio == (51, 90)
        mv = observe_network_metric(steel10, MetricId.RECIPROCATED_TIE_RATIO)
        assert mv.ratio == (34, 51)
        mv = observe_network_metric(steel10, MetricId.AVG_PATH_LENGTH)
        assert mv.ratio == (134, 90)

    def test_actor_ratios_are_natural(self, steel10):
        mv = observe_actor_metric(steel10, MetricId.OUT_DENSITY, "C")
        assert mv.value == Fraction(2, 3)
        assert mv.ratio == (6, 9)
        mv = observe_actor_metric(steel10, MetricId.RECIPROCATED_DENSITY, "C")
        assert mv.ratio == (4, 6)

    def test_sentinel_observation_has_no_ratio(self):
        n = SocialNetwork(("A", "B"))
        mv = observe_network_metric(n, MetricId.AVG_PATH_LENGTH)
        assert mv.value is UNDEFINED
        assert mv.ratio is None

    def test_scope_dispatch_errors(self, steel10):
        from vbereq import actor_metric, network_metric

        with pytest.raises(ValueError, match="actor-scoped"):
            network_metric(steel10, MetricId.IN_DEGREE)
        with pytest.raises(ValueError, match="network-scoped"):
            actor_metric(steel10, MetricId.DENSITY, "A")
