"""Shared fixtures: bundled datasets, a synthetic variant, random graphs."""

from __future__ import annotations

import random

import pytest

from vbereq import SocialNetwork
from vbereq.fixtures import (
    load_steel10,
    load_wholesale,
    template_steel_vbe,
    template_wholesaler,
)

ACTORS10 = tuple("ABCDEFGHIJ")


@pytest.fixture(scope="session")
def steel10() -> SocialNetwork:
    return load_steel10()


@pytest.fixture(scope="session")
def steel_vbe_reqs():
    return template_steel_vbe()


@pytest.fixture(scope="session")
def wholesale() -> SocialNetwork:
    return load_wholesale()


@pytest.fixture(scope="session")
def wholesaler_reqs():
    return template_wholesaler()


def make_steel10_f3(base: SocialNetwork) -> SocialNetwork:
    """The bundled matrix with F's out-ties replaced by {C, E, I}."""
    ties = {t for t in base.ties if t[0] != "F"}
    ties |= {("F", "C"), ("F", "E"), ("F", "I")}
    return SocialNetwork(base.actors, frozenset(ties))


@pytest.fixture(scope="session")
def steel10_f3(steel10: SocialNetwork) -> SocialNetwork:
    return make_steel10_f3(steel10)


def random_network(rng: random.Random, max_actors: int, min_actors: int = 1) -> SocialNetwork:
    n = rng.randint(min_actors, max_actors)
    actors = tuple(ACTORS10[:n])
    ties = set()
    p = rng.random()
    for a in actors:
        for b in actors:
            if a != b and rng.random() < p:
                ties.add((a, b))
    return SocialNetwork(actors, frozenset(ties))
