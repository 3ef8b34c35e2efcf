"""The benchmark's only contact with vbereq.

Everything else in ``bench/`` goes through this module, and this module
uses nothing but the ``vbe`` argv (run in-process through
``vbereq.cli.main``) and the names in ``vbereq.__all__``. When entry points
move or are renamed, this file and the hook table below are what change.

Hooks name a function where its caller looks it up (``vbereq.search``
calls ``evaluate`` through its own module globals, so the hook target is
``vbereq.search.evaluate``). A target that no longer exists is skipped by
the tracer and listed in its output; the untraced run never uses hooks.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

FIXTURES = Path("src") / "vbereq" / "fixtures"
GOLDEN = Path("tests") / "golden"

# (module, attribute path, layer, kind). "span" records a span with self
# time; "leaf" aggregates calls and time into its parent span.
HOOKS = (
    ("vbereq.cli", "main", "cli", "span"),
    ("vbereq.cli", "load_network_text", "netio.parse", "span"),
    ("vbereq", "load_network_text", "netio.parse", "span"),
    ("vbereq.cli", "render_report", "netio.render", "span"),
    ("vbereq.cli", "render_metrics", "netio.render", "span"),
    ("vbereq.cli", "report_document", "netio.render", "span"),
    ("vbereq", "render_report", "netio.render", "span"),
    ("vbereq.cli", "parse_requirements", "reqtext.parse", "span"),
    ("vbereq", "parse_requirements", "reqtext.parse", "span"),
    ("vbereq.evaluator", "render_literal", "reqtext.render", "leaf"),
    ("vbereq.evaluator", "render_predicate", "reqtext.render", "leaf"),
    ("vbereq.evaluator", "render_count_bound", "reqtext.render", "leaf"),
    ("vbereq", "SocialNetwork.__post_init__", "network.build", "leaf"),
    ("vbereq", "SocialNetwork.induced", "network.induced", "span"),
    ("vbereq.evaluator", "actor_metric", "metrics", "leaf"),
    ("vbereq.evaluator", "observe_actor_metric", "metrics", "leaf"),
    ("vbereq.evaluator", "observe_network_metric", "metrics", "leaf"),
    ("vbereq.evaluator", "shortest_path_length", "metrics", "leaf"),
    ("vbereq.netio", "observe_actor_metric", "metrics", "leaf"),
    ("vbereq.netio", "observe_network_metric", "metrics", "leaf"),
    ("vbereq.netio", "reachable_fraction", "metrics", "leaf"),
    ("vbereq.search", "density", "metrics", "leaf"),
    ("vbereq.search", "total_degree", "metrics", "leaf"),
    ("vbereq.cli", "evaluate", "evaluator.evaluate", "span"),
    ("vbereq.search", "evaluate", "evaluator.evaluate", "span"),
    ("vbereq.cli", "role_candidates", "evaluator.role_candidates", "span"),
    ("vbereq.netio", "explain", "evaluator.explain", "span"),
    ("vbereq.evaluator", "fraction_str", "values.format", "leaf"),
    ("vbereq.evaluator", "decimal_str", "values.format", "leaf"),
    ("vbereq.evaluator", "percent_str", "values.format", "leaf"),
    ("vbereq.netio", "fraction_str", "values.format", "leaf"),
    ("vbereq.netio", "decimal_str", "values.format", "leaf"),
    ("vbereq.netio", "percent_str", "values.format", "leaf"),
    ("vbereq.cli", "fraction_str", "values.format", "leaf"),
    ("vbereq.cli", "search_exhaustive", "search.exhaustive", "span"),
    ("vbereq.cli", "search_greedy_peel", "search.peel", "span"),
    ("vbereq", "search_exhaustive", "search.exhaustive", "span"),
)

# The four requests behind tests/golden/, as vbe argv relative to the root,
# with the exit code each must return.
GOLDEN_REQUESTS = (
    (
        ("metrics", "--network", str(FIXTURES / "steel10.csv")),
        "steel10_metrics.txt",
        0,
    ),
    (
        (
            "check", "--network", str(FIXTURES / "steel10.csv"),
            "--requirements", str(FIXTURES / "steel_vbe.req"),
        ),
        "steel10_steel_vbe.txt",
        0,
    ),
    (
        (
            "check", "--network", str(FIXTURES / "steel10.csv"),
            "--requirements", str(FIXTURES / "steel_vbe.req"), "--out", "json",
        ),
        "steel10_steel_vbe.json",
        0,
    ),
    (
        (
            "check", "--network", str(FIXTURES / "wholesale.edges"), "--undirected",
            "--requirements", str(FIXTURES / "wholesaler.req"),
            "--anchor", "A", "--actors", "A,F,I,J",
        ),
        "wholesale_afij.txt",
        1,
    ),
)

REQUIREMENT_SETS = {"steel-vbe": "steel_vbe.req", "wholesaler": "wholesaler.req"}


class SourceTreeMissing(RuntimeError):
    """The checkout holds no vbereq source tree to benchmark."""


class Vbereq:
    """vbereq imported from ``<root>/src``, with the calls the benchmark makes."""

    def __init__(self, root: Path) -> None:
        # Report text must not depend on the caller's terminal settings.
        os.environ.pop("VBE_COLOR", None)
        src = (root / "src").resolve()
        if not (src / "vbereq" / "__init__.py").is_file():
            raise SourceTreeMissing(f"no vbereq package under {src}")
        sys.path.insert(0, str(src))
        import vbereq
        import vbereq.cli

        if not Path(vbereq.__file__).resolve().is_relative_to(src):
            raise SourceTreeMissing(
                f"imported vbereq from {vbereq.__file__}, not from {src}"
            )
        self.pkg = vbereq
        self.root = root

    def vbe(self, argv: list[str]) -> tuple[int, bytes, str]:
        """Run one ``vbe`` request in-process: exit code, stdout, stderr."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue().encode(), err.getvalue()

    def golden_requests(self):
        """(argv, golden bytes, exit code) for each fixture request."""
        for argv, golden, code in GOLDEN_REQUESTS:
            absolute = [
                str(self.root / arg) if arg.startswith(str(FIXTURES)) else arg
                for arg in argv
            ]
            yield absolute, (self.root / GOLDEN / golden).read_bytes(), code

    def requirement_text(self, name: str) -> str:
        return (self.root / FIXTURES / REQUIREMENT_SETS[name]).read_text()

    def search(self, op, requirements_text: str):
        """One exhaustive search as ``vbe search`` would run it: the parsed
        network and requirement set, every solution as (actors, objective)
        and the rendered report of the best one."""
        v = self.pkg
        net = v.load_network_text(op.network_text, op.fmt, symmetric=op.symmetric)
        reqs = v.parse_requirements(requirements_text)
        cfg = v.SearchConfig(
            min_size=op.min_size, max_size=op.max_size, objective="size"
        )
        found = v.search_exhaustive(
            net, reqs, cfg, op.anchor, network_name=op.stem, view=op.view
        )
        rendered = v.render_report(found[0].report, "json") if found else b""
        return net, reqs, [(s.actors, s.objective_value) for s in found], rendered

    def passes(self, net, reqs, actors, anchor, view: str) -> bool:
        """Re-evaluate the subnetwork on ``actors`` against its parent."""
        sub = net.induced(actors)
        return self.pkg.evaluate(sub, reqs, anchor, parent=net, view=view).overall

    def load_network(self, text: str, fmt: str, symmetric: bool):
        return self.pkg.load_network_text(text, fmt, symmetric=symmetric)

    def parse_requirements(self, text: str):
        return self.pkg.parse_requirements(text)


def observe(layer: str, args: tuple, kwargs: dict, result) -> dict:
    """Counters read from one traced call's arguments and result."""
    if layer == "netio.parse":
        return {"netio.parse_bytes": len(args[0].encode())}
    if layer == "netio.render" and isinstance(result, bytes):
        return {"netio.render_bytes": len(result)}
    if layer == "evaluator.evaluate":
        verdicts = result.verdicts
        return {
            "evaluator.verdicts": len(verdicts),
            "evaluator.failed_verdicts": sum(not v.satisfied for v in verdicts),
            "evaluator.violators": sum(len(v.violators) for v in verdicts),
        }
    if layer == "search.exhaustive":
        return {"search.solutions": len(result)}
    if layer == "search.peel":
        if result is None:
            return {}
        return {
            "search.solutions": 1,
            "search.peel_solutions": 1,
            "search.peel_steps": len(result.report.peel_trace),
        }
    return {}
