"""Social requirements over directed organization networks.

The package models an inter-organizational network as a directed binary
graph, computes its social-network metrics with exact rational arithmetic,
and turns the usual analysis direction around: instead of describing a
network, declarative requirements prescribe what a (sub)network must look
like, and the evaluator and search modules find out whether and where the
prescription holds. Role screening for breeding-environment membership and
the broker/planner roles builds on the same predicates.

The typical entry points are :func:`~vbereq.netio.load_network_text` or the
bundled fixtures, :func:`~vbereq.reqtext.parse_requirements` for the
requirements grammar, :func:`~vbereq.evaluator.evaluate` for a verdict, and
:func:`~vbereq.search.search_exhaustive` /
:func:`~vbereq.search.search_greedy_peel` for subnetwork discovery. The
``vbe`` command line wraps all of it.
"""

from __future__ import annotations

from .evaluator import (
    EvaluationError,
    EvaluationReport,
    Verdict,
    evaluate,
    role_candidates,
)
from .metrics import (
    ACTOR_METRICS,
    NETWORK_METRICS,
    UNIT_INTERVAL_METRICS,
    MetricId,
    MetricValue,
    actor_metric,
    network_metric,
    observe_actor_metric,
    observe_network_metric,
    reachable_fraction,
    shortest_path_length,
)
from .netio import (
    FormatError,
    infer_format,
    load_network_text,
    parse_edge_list,
    parse_matrix_csv,
    serialize_edge_list,
    serialize_matrix_csv,
)
from .network import NetworkError, SocialNetwork
from .render import explain, render_metrics, render_report, report_document
from .reqtext import (
    RequirementSyntaxError,
    parse_requirements,
    serialize_requirements,
)
from .requirements import (
    AnchorDesignation,
    Atom,
    AvgOfOthers,
    And,
    Comparator,
    CountActors,
    ForAllActors,
    NetworkConstraint,
    Not,
    Or,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementError,
    RequirementSet,
    template_broker,
    template_generic_vbe,
    template_member,
    template_planner,
    template_steel_vbe,
    template_wholesaler,
)
from .search import (
    SearchConfig,
    SearchError,
    SubnetworkSolution,
    search_exhaustive,
    search_greedy_peel,
)
from .values import (
    UNDEFINED,
    UNREACHABLE,
    decimal_str,
    fraction_str,
    is_defined,
    percent_str,
)

__version__ = "0.1.0"

__all__ = [
    "ACTOR_METRICS",
    "AnchorDesignation",
    "And",
    "Atom",
    "AvgOfOthers",
    "Comparator",
    "CountActors",
    "EvaluationError",
    "EvaluationReport",
    "ForAllActors",
    "FormatError",
    "MetricId",
    "MetricValue",
    "NETWORK_METRICS",
    "NetworkConstraint",
    "NetworkError",
    "Not",
    "Or",
    "PairwisePath",
    "PathScope",
    "Requirement",
    "RequirementError",
    "RequirementSet",
    "RequirementSyntaxError",
    "SearchConfig",
    "SearchError",
    "SocialNetwork",
    "SubnetworkSolution",
    "UNDEFINED",
    "UNIT_INTERVAL_METRICS",
    "UNREACHABLE",
    "Verdict",
    "actor_metric",
    "decimal_str",
    "evaluate",
    "explain",
    "fraction_str",
    "infer_format",
    "is_defined",
    "load_network_text",
    "network_metric",
    "observe_actor_metric",
    "observe_network_metric",
    "parse_edge_list",
    "parse_matrix_csv",
    "parse_requirements",
    "percent_str",
    "reachable_fraction",
    "render_metrics",
    "render_report",
    "report_document",
    "role_candidates",
    "search_exhaustive",
    "search_greedy_peel",
    "serialize_edge_list",
    "serialize_matrix_csv",
    "serialize_requirements",
    "shortest_path_length",
    "template_broker",
    "template_generic_vbe",
    "template_member",
    "template_planner",
    "template_steel_vbe",
    "template_wholesaler",
    "__version__",
]
