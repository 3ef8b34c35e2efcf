"""Every byte ``vbe`` prints: reports, metrics, role candidates and search results.

Each ``render_*`` function returns one result as text or as JSON. Reports
render as text (one line per verdict, see :func:`explain`) or as JSON with
a stable key order, exact fraction strings, and decimal companions, so the
bytes for identical inputs never change between runs. Metrics render as an
aligned text table or as the same values in JSON. One writer emits all
JSON, and an empty actor list reads ``(none)`` in text.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .metrics import (
    METRIC_TABLE,
    UNIT_INTERVAL_METRICS,
    MetricValue,
    observe_actor_metric,
    observe_network_metric,
    reachable_fraction,
)
from .network import SocialNetwork
from .values import decimal_str, fraction_str, is_defined, percent_str

if TYPE_CHECKING:
    # The evaluator imports metric_display from here; a runtime import of
    # the evaluator (or of search, which imports it) would be a cycle.
    from .evaluator import EvaluationReport
    from .search import SubnetworkSolution


def _json(doc: object) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def _listing(items: tuple[str, ...] | list[str]) -> str:
    return ", ".join(items) if items else "(none)"


def _check_format(what: str, format: str) -> None:
    if format not in ("text", "json"):
        raise ValueError(f"unknown {what} format {format!r} (use text or json)")


# -- metric values ------------------------------------------------------------


def metric_display(mv: MetricValue) -> str:
    """Render a metric value with its decimal (and percent) companions."""
    value = mv.value
    if not is_defined(value):
        return fraction_str(value)
    frac = fraction_str(value, mv.ratio)
    if isinstance(value, int) and mv.ratio is None:
        return frac
    extras = [decimal_str(value)]
    if mv.metric in UNIT_INTERVAL_METRICS:
        extras.append(percent_str(value))
    if extras == [frac]:
        return frac
    return f"{frac} ({', '.join(extras)})"


def _short_value(mv: MetricValue) -> str:
    if not is_defined(mv.value):
        return fraction_str(mv.value)
    text = fraction_str(mv.value, mv.ratio)
    if mv.metric in UNIT_INTERVAL_METRICS:
        text += f" ({percent_str(mv.value)})"
    return text


def _metric_value_document(mv: MetricValue) -> dict:
    doc: dict = {
        "metric": mv.metric.value,
        "scope": "network" if mv.actor is None else "actor",
    }
    if mv.actor is not None:
        doc["actor"] = mv.actor
    doc["value"] = fraction_str(mv.value, mv.ratio)
    doc["decimal"] = decimal_str(mv.value)
    if mv.metric in UNIT_INTERVAL_METRICS and is_defined(mv.value):
        doc["percent"] = percent_str(mv.value)
    return doc


def _json_value(mv: MetricValue):
    """A plain integer as itself, anything else as a value document."""
    return mv.value if isinstance(mv.value, int) else _metric_value_document(mv)


# -- reports ------------------------------------------------------------------


def explain(report: EvaluationReport, color: bool = False) -> str:
    """One line per verdict plus roles and the overall outcome.

    Deterministic for identical reports; ``color`` adds ANSI color to the
    PASS/FAIL tags and nothing else.
    """

    def tag(ok: bool) -> str:
        word = "PASS" if ok else "FAIL"
        if not color:
            return word
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"

    lines = [
        f"network: {report.network_name}",
        f"requirements: {report.requirement_set_name}",
    ]
    for verdict in report.verdicts:
        line = f"{tag(verdict.satisfied)}  {verdict.label}: {verdict.detail}"
        if verdict.witnesses:
            line += f"; witnesses: {', '.join(verdict.witnesses)}"
        if verdict.violators:
            rendered = ", ".join(f"{a} ({d})" for a, d in verdict.violators)
            line += f"; violators: {rendered}"
        lines.append(line)
    if report.peel_trace is not None:
        lines.append(f"peeled: {_listing(report.peel_trace)}")
    roles = report.role_candidacies
    listed = [
        f"{role}: {_listing(roles.get(role, ()))}" for role in ("member", "planner", "broker")
    ]
    lines.append("roles: " + " | ".join(listed))
    lines.append(f"overall: {tag(report.overall)}")
    return "\n".join(lines) + "\n"


def report_document(report: EvaluationReport) -> dict:
    """The JSON-ready structure behind render_report(format="json")."""
    doc: dict = {
        "network": report.network_name,
        "requirement_set": report.requirement_set_name,
        "anchor": report.anchor,
        "overall": report.overall,
        "verdicts": [
            {
                "label": v.label,
                "satisfied": v.satisfied,
                "detail": v.detail,
                "witnesses": list(v.witnesses),
                "violators": [
                    {"actor": actor, "reason": reason}
                    for actor, reason in v.violators
                ],
                "observed": [_metric_value_document(mv) for mv in v.observed],
            }
            for v in report.verdicts
        ],
        "role_candidacies": {
            role: list(actors) for role, actors in report.role_candidacies.items()
        },
    }
    if report.peel_trace is not None:
        doc["peel_trace"] = list(report.peel_trace)
    return doc


def render_report(
    report: EvaluationReport, format: str = "text", *, color: bool = False
) -> bytes:
    """Render an evaluation report as deterministic text or JSON bytes.

    ``color`` applies to text only; see :func:`explain`.
    """
    _check_format("report", format)
    if format == "json":
        return _json(report_document(report))
    return explain(report, color).encode()


# -- roles and search results ------------------------------------------------


def render_roles(name: str, candidates: dict[str, list[str]], format: str) -> bytes:
    """Role candidates of network ``name``: one ``role: actors`` line per
    role, in ``candidates`` order, or the same as JSON."""
    _check_format("roles", format)
    if format == "json":
        return _json({"network": name, "roles": candidates})
    lines = [f"{role}: {_listing(actors)}\n" for role, actors in candidates.items()]
    return "".join(lines).encode()


def render_search(
    best: SubnetworkSolution | None,
    objective: str,
    alternatives: int,
    format: str,
    *,
    color: bool = False,
) -> bytes:
    """A search result: the best solution and its report, or that none was found.

    ``color`` applies to the text report only; see :func:`explain`.
    """
    _check_format("search", format)
    if best is None:
        return _json({"solution": None}) if format == "json" else b"no solution found\n"
    value = best.objective_value
    if format == "text":
        head = (
            f"solution: {', '.join(best.actors)} "
            f"({objective}={fraction_str(value)}, {alternatives} alternatives)\n"
        )
        return (head + explain(best.report, color)).encode()
    return _json(
        {
            "solution": list(best.actors),
            "objective": objective,
            "objective_value": value if isinstance(value, int) else fraction_str(value),
            "alternatives": alternatives,
            "report": report_document(best.report),
        }
    )


# -- metrics ------------------------------------------------------------------

def render_metrics(
    net: SocialNetwork,
    name: str,
    *,
    view: str = "directed",
    mode: str = "strict",
    format: str = "text",
) -> bytes:
    """All network and per-actor metrics, as aligned text or JSON.

    The metric table is computed once and then formatted.
    """
    _check_format("metrics", format)
    network_values = [
        observe_network_metric(net, row.metric, view=view, mode=mode)
        for row in METRIC_TABLE
        if row.scope == "network"
    ]
    reachable = reachable_fraction(net, view=view)
    columns = [row.metric for row in METRIC_TABLE if row.scope == "actor"]
    actor_rows = [
        (
            actor,
            [
                observe_actor_metric(net, metric, actor, view=view, mode=mode)
                for metric in columns
            ],
        )
        for actor in net.actors
    ]

    if format == "json":
        doc: dict = {"network": name, "view": view, "mode": mode}
        for mv in network_values:
            doc[mv.metric.value] = _json_value(mv)
        doc["reachable_fraction"] = fraction_str(reachable)
        if is_defined(reachable):
            doc["reachable_fraction_decimal"] = decimal_str(reachable)
        doc["actors"] = []
        for actor, values in actor_rows:
            row: dict = {"id": actor}
            for mv in values:
                row[mv.metric.value] = _json_value(mv)
            doc["actors"].append(row)
        return _json(doc)

    lines = [f"network: {name}", f"view: {view}"]
    for mv in network_values:
        lines.append(f"{mv.metric.value}: {metric_display(mv)}")
    lines.append(f"reachable_fraction: {fraction_str(reachable)}")
    header = ["actor"] + [m.value for m in columns]
    rows = [header]
    for actor, values in actor_rows:
        cells = [actor]
        for mv in values:
            cells.append(
                str(mv.value) if isinstance(mv.value, int) else _short_value(mv)
            )
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return ("\n".join(lines) + "\n").encode()
