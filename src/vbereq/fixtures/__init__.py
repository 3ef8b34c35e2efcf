"""Bundled example networks and requirement sets.

Two small datasets ship with the package so the command line and the test
suite have something real to chew on:

* steel10 -- a directed advice network among ten steel-sector firms,
  stored as an adjacency matrix.
* wholesale -- an undirected acquaintance circle around a wholesaler,
  stored as a symmetric edge list.

Their requirement sets are defined only in requirement text: steel_vbe.req
and wholesaler.req, in canonical serialized form, are what
``template_steel_vbe`` and ``template_wholesaler`` parse.
"""

from __future__ import annotations

from importlib import resources

from ..netio import parse_edge_list, parse_matrix_csv
from ..network import SocialNetwork
from ..reqtext import parse_requirements
from ..requirements import RequirementSet


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def load_steel10() -> SocialNetwork:
    """The ten-firm steel advice network (directed, 51 ties)."""
    return parse_matrix_csv(_read("steel10.csv"))


def load_wholesale() -> SocialNetwork:
    """The wholesaler's acquaintance circle (symmetric, 10 actors)."""
    return parse_edge_list(_read("wholesale.edges"), symmetric=True)


def template_steel_vbe() -> RequirementSet:
    """The five requirements of the steel-manufacturers case: minimum size,
    network density and reciprocity above 50%, at least one broker-grade
    actor, and at least one planner-grade actor."""
    return parse_requirements(_read("steel_vbe.req"))


def template_wholesaler() -> RequirementSet:
    """The wholesaler's distributor-group requirements: a group of four
    around an anchor, each member a direct friend of the anchor, members
    pairwise not directly acquainted, and each member keeping at least one
    partner besides the anchor (measured on the full parent network)."""
    return parse_requirements(_read("wholesaler.req"))
