"""Seeded benchmark of vbereq: ``vbe`` requests and exhaustive search.

Run from anywhere; the checkout is the directory above this file:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0

Workloads (closed loop, one client, one process, no threads):

* ``cli-mix``: one ``vbe metrics|check|roles|search --mode peel`` request
  per op through ``vbereq.cli.main``, on networks of 10 to 150 actors.
* ``search-anchored``: one exhaustive search with the bundled wholesaler
  set per op, on undirected graphs of 12 to 14 actors with an anchor,
  window 3..5.
* ``search-open``: one exhaustive search with the bundled steel-vbe set
  per op, on dense digraphs of 9 to 11 actors, window 5..6. Nothing in the
  set is hereditary, so a sound pruner must skip nothing here. It is not
  in BENCHMARK.json: on a shared machine two timed workloads with longer
  runs fit the run budget with steadier figures than three. Run it by hand
  to show that a search change costs nothing where pruning cannot help.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs every op twice, untraced and traced, and reports the per-layer
metrics together with the tracing overhead. ``--smoke`` shrinks every input
for a quick check that every metric is emitted. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
from adapter import HOOKS, SourceTreeMissing, Vbereq, observe
from tracer import Tracer
from workloads import FULL, PLAIN_TAG, SMOKE, TRACED_TAG, WORKLOADS, CliOp, make_op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up probes per untraced run, spread evenly over its timed window.
SETUP_PROBES = 21
# Peak RSS is read after this many ops, so that a faster program, which
# completes more ops (and caches more distance tables) in the same window,
# does not read as one that needs more memory.
RSS_AFTER_OPS = {"cli-mix": 200, "search-open": 8, "search-anchored": 8}
ROADMAP_MS_PER_SUBSET = 1.7

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYERS = (
    "cli", "netio", "reqtext", "network", "metrics", "evaluator", "values", "search"
)
PER_LAYER = {
    "cli.self_ms": "ms/op",
    "netio.parse_ms": "ms/op",
    "netio.parse_bytes": "bytes/op",
    "netio.render_ms": "ms/op",
    "netio.render_bytes": "bytes/op",
    "reqtext.parse_ms": "ms/op",
    "reqtext.render_calls": "calls/op",
    "reqtext.render_ms": "ms/op",
    "network.build_calls": "calls/op",
    "network.build_ms": "ms/op",
    "network.induced_calls": "calls/op",
    "network.induced_ms": "ms/op",
    "metrics.calls": "calls/op",
    "metrics.ms": "ms/op",
    "evaluator.evaluate_calls": "calls/op",
    "evaluator.evaluate_ms": "ms/op",
    "evaluator.self_ms": "ms/op",
    "evaluator.role_candidates_ms": "ms/op",
    "evaluator.explain_ms": "ms/op",
    "evaluator.failed_verdict_share": "ratio",
    "evaluator.violators_per_evaluate": "violators/eval",
    "values.format_calls": "calls/op",
    "values.format_ms": "ms/op",
    "search.calls": "calls/op",
    "search.self_ms": "ms/op",
    "search.evaluated": "evals/search",
    "search.window_subsets": "subsets/search",
    "search.evaluated_per_window": "ratio",
    "search.ms_per_evaluated": "ms",
    "search.solutions": "solutions/search",
    "search.solutions_per_evaluated": "ratio",
    "search.peel_steps": "steps/peel",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_ms": "ms/op",
    "trace.overhead_share": "ratio",
    "trace.hooks_skipped": "count",
    "trace.ops": "count",
}

_clock = time.perf_counter


@dataclass
class Record:
    """One timed op: its index, input sizes and wall time(s) in ms."""

    index: int
    kind: str
    actors: int
    ties: int
    window: tuple[int, int] | None
    window_subsets: int
    ms: float
    traced_ms: float = 0.0


class Executor:
    """Stages an op's input files, times the call into vbereq, and hands
    back the output payload with a deferred check of it."""

    def __init__(self, vb: Vbereq, work: Path) -> None:
        self.vb = vb
        self.work = work
        self.requirement_texts: dict[str, str] = {}

    def run(self, op):
        if isinstance(op, CliOp):
            return self._cli(op)
        return self._search(op)

    def _cli(self, op: CliOp):
        net = self.work / f"{op.stem}{op.network_suffix}"
        net.write_text(op.network_text)
        staged = {"{net}": str(net)}
        if op.requirements_text is not None:
            req = self.work / f"{op.stem}.req"
            req.write_text(op.requirements_text)
            staged["{req}"] = str(req)
        argv = [staged.get(arg, arg) for arg in op.argv]
        start = _clock()
        try:
            code, out, err = self.vb.vbe(argv)
        except Exception as exc:  # a crash inside vbereq fails this op only
            return _failed(start, exc)
        elapsed = (_clock() - start) * 1e3
        return (
            elapsed,
            checks.cli_payload(code, out),
            lambda: checks.check_cli(self.vb, op, code, out, err),
        )

    def _search(self, op):
        name = op.requirement_set
        if name not in self.requirement_texts:
            self.requirement_texts[name] = self.vb.requirement_text(name)
        start = _clock()
        try:
            net, reqs, solutions, rendered = self.vb.search(
                op, self.requirement_texts[name]
            )
        except Exception as exc:  # a crash inside vbereq fails this op only
            return _failed(start, exc)
        elapsed = (_clock() - start) * 1e3
        return (
            elapsed,
            checks.search_payload(solutions, rendered),
            lambda: checks.check_search(self.vb, op, net, reqs, solutions, rendered),
        )


def _problems(check) -> list[str]:
    """Run an output check; output too malformed to inspect fails the op."""
    try:
        return check()
    except (LookupError, TypeError, ValueError, StopIteration) as exc:
        return [f"malformed output: {exc!r}"]


def _failed(start: float, exc: Exception):
    elapsed = (_clock() - start) * 1e3
    reason = "".join(traceback.format_exception_only(exc)).strip()
    return elapsed, b"", lambda: [f"raised {reason}"]


class Tally:
    """Ops attempted and failed, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)[:500]}")


def probe_setup() -> float:
    """Seconds from before ``import vbereq`` to the first op, in a fresh
    interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def replay_goldens(vb: Vbereq, tally: Tally) -> None:
    """The four fixture requests must reproduce tests/golden/ byte for byte."""
    for argv, golden, want in vb.golden_requests():
        code, out, err = vb.vbe(argv)
        problems = []
        if code != want or err:
            problems.append(f"exit code {code} (want {want}) {err.strip()}")
        if out != golden:
            problems.append("output differs from its golden file")
        tally.add(f"golden {' '.join(argv[:1] + argv[-2:])}", problems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _record(op, ms: float) -> Record:
    if isinstance(op, CliOp):
        return Record(
            op.index, op.kind, op.expect["n"], op.expect["ties"],
            op.expect.get("window"), 0, ms,
        )
    return Record(
        op.index, "search", op.graph_size, op.graph.directed_tie_count(),
        (op.min_size, op.max_size), op.window_subsets(), ms,
    )


def run_untraced(
    args, ex: Executor, tally: Tally, sizing, probes: int
) -> tuple[list[Record], float, list[float]]:
    """The timed ops, peak RSS and set-up samples. The set-up probes run
    between ops, spread evenly over the window, so that they see the
    machine as the ops do rather than as it was in one instant."""
    expected = checks.load_digests(args.workload, args.seed, args.smoke)
    rss_after = RSS_AFTER_OPS[args.workload]
    records: list[Record] = []
    rss = None
    setup: list[float] = []
    window = args.seconds * 1e3
    timed = 0.0
    while timed < window:
        while len(setup) < probes and timed >= len(setup) * window / probes:
            setup.append(probe_setup())
        i = len(records)
        op = make_op(args.workload, args.seed, i, PLAIN_TAG, sizing)
        ms, payload, check = ex.run(op)
        timed += ms
        problems = _problems(check)
        if i < len(expected) and checks.digest(payload) != expected[i]:
            problems.append("output differs from the committed digest")
        tally.add(f"op {i}", problems)
        records.append(_record(op, ms))
        if len(records) == rss_after:
            rss = peak_rss_mb()
    while len(setup) < probes:
        setup.append(probe_setup())
    return records, rss if rss is not None else peak_rss_mb(), setup


def _renamed(payload: bytes, tag: str, index: int) -> bytes:
    """Output of a traced copy with its actor ids renamed to the plain tag."""
    return payload.replace(f"{tag}{index}n".encode(), f"{PLAIN_TAG}{index}n".encode())


def run_traced(
    args, ex: Executor, tally: Tally, sizing, tracer: Tracer
) -> list[Record]:
    """Each op runs untraced (tag p) and traced (tag q), alternating which
    goes first; the traced output must equal the untraced one up to ids."""
    expected = checks.load_digests(args.workload, args.seed, args.smoke)
    records: list[Record] = []

    def execute(op, op_id):
        tracer.op = op_id
        try:
            return ex.run(op)
        finally:
            tracer.op = None

    timed = 0.0
    while timed < args.seconds * 1e3:
        i = len(records)
        plain = make_op(args.workload, args.seed, i, PLAIN_TAG, sizing)
        traced = make_op(args.workload, args.seed, i, TRACED_TAG, sizing)
        if i % 2 == 0:
            plain_ms, plain_payload, check = execute(plain, None)
            traced_ms, traced_payload, _ = execute(traced, i)
        else:
            traced_ms, traced_payload, _ = execute(traced, i)
            plain_ms, plain_payload, check = execute(plain, None)
        problems = _problems(check)
        if i < len(expected) and checks.digest(plain_payload) != expected[i]:
            problems.append("output differs from the committed digest")
        tally.add(f"op {i}", problems)
        same = _renamed(traced_payload, TRACED_TAG, i) == plain_payload
        tally.add(
            f"traced op {i}", [] if same else ["traced output differs from untraced"]
        )
        record = _record(plain, plain_ms)
        record.traced_ms = traced_ms
        records.append(record)
        timed += plain_ms + traced_ms
    return records


def _five(values) -> list[float]:
    """min, quartiles and max."""
    if len(values) < 2:
        return [values[0]] * 5 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [min(values), q1, q2, q3, max(values)]


def provenance(args, records: list[Record]) -> dict:
    inputs = {
        "ops": len(records),
        "actors_min_q1_median_q3_max": _five([r.actors for r in records]),
        "ties_min_q1_median_q3_max": _five([r.ties for r in records]),
        "kinds": dict(sorted(Counter(r.kind for r in records).items())),
    }
    windows = Counter(f"{r.window[0]}..{r.window[1]}" for r in records if r.window)
    if windows:
        inputs["most_common_windows"] = dict(windows.most_common(3))
        inputs["window_widths_min_q1_median_q3_max"] = _five(
            [r.window[1] - r.window[0] + 1 for r in records if r.window]
        )
    if any(r.window_subsets for r in records):
        inputs["window_subsets_min_q1_median_q3_max"] = _five(
            [r.window_subsets for r in records]
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "inputs": inputs,
    }


def end_to_end(setup: list[float], records: list[Record], rss: float) -> dict:
    op_ms = [r.ms for r in records]
    p90 = op_ms[0]
    if len(op_ms) > 1:
        p90 = statistics.quantiles(op_ms, n=10, method="inclusive")[8]
    return {
        "setup_s": statistics.median(setup),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "peak_rss_mb": rss,
    }


def _per(total: float, base: float) -> float:
    return total / base if base else 0.0


def per_layer(tracer: Tracer, records: list[Record]) -> dict:
    ops = len(records)
    layer_of = {span[0]: span[3] for span in tracer.spans}
    inclusive: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    evaluated: Counter = Counter()  # by search layer
    evaluated_by_op: Counter = Counter()
    for _, parent, op, layer, start, end, self_time in tracer.spans:
        inclusive[layer] += end - start
        own[layer] += self_time
        calls[layer] += 1
        if layer == "evaluator.evaluate" and parent is not None:
            parent_layer = layer_of[parent]
            if parent_layer.startswith("search."):
                evaluated[parent_layer] += 1
                evaluated_by_op[op] += 1
    leaf_calls = {layer: agg[0] for layer, agg in tracer.leaves.items()}
    leaf_time = {layer: agg[1] for layer, agg in tracer.leaves.items()}
    c = tracer.counters
    searches = calls["search.exhaustive"] + calls["search.peel"]
    all_evaluated = sum(evaluated.values())
    window = sum(r.window_subsets for r in records)
    searched = [r for r in records if evaluated_by_op[r.index]]
    overhead = [r.traced_ms - r.ms for r in records]

    def ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    values = {
        "cli.self_ms": ms(own["cli"]),
        "netio.parse_ms": ms(inclusive["netio.parse"]),
        "netio.parse_bytes": _per(c["netio.parse_bytes"], ops),
        "netio.render_ms": ms(inclusive["netio.render"]),
        "netio.render_bytes": _per(c["netio.render_bytes"], ops),
        "reqtext.parse_ms": ms(inclusive["reqtext.parse"]),
        "reqtext.render_calls": _per(leaf_calls.get("reqtext.render", 0), ops),
        "reqtext.render_ms": ms(leaf_time.get("reqtext.render", 0.0)),
        "network.build_calls": _per(leaf_calls.get("network.build", 0), ops),
        "network.build_ms": ms(leaf_time.get("network.build", 0.0)),
        "network.induced_calls": _per(calls["network.induced"], ops),
        "network.induced_ms": ms(inclusive["network.induced"]),
        "metrics.calls": _per(leaf_calls.get("metrics", 0), ops),
        "metrics.ms": ms(leaf_time.get("metrics", 0.0)),
        "evaluator.evaluate_calls": _per(calls["evaluator.evaluate"], ops),
        "evaluator.evaluate_ms": ms(inclusive["evaluator.evaluate"]),
        "evaluator.self_ms": ms(own["evaluator.evaluate"]),
        "evaluator.role_candidates_ms": ms(inclusive["evaluator.role_candidates"]),
        "evaluator.explain_ms": ms(inclusive["evaluator.explain"]),
        "evaluator.failed_verdict_share": _per(
            c["evaluator.failed_verdicts"], c["evaluator.verdicts"]
        ),
        "evaluator.violators_per_evaluate": _per(
            c["evaluator.violators"], calls["evaluator.evaluate"]
        ),
        "values.format_calls": _per(leaf_calls.get("values.format", 0), ops),
        "values.format_ms": ms(leaf_time.get("values.format", 0.0)),
        "search.calls": _per(searches, ops),
        "search.self_ms": ms(own["search.exhaustive"] + own["search.peel"]),
        "search.evaluated": _per(all_evaluated, searches),
        "search.window_subsets": _per(window, calls["search.exhaustive"]),
        "search.evaluated_per_window": _per(evaluated["search.exhaustive"], window),
        "search.ms_per_evaluated": _per(
            sum(r.ms for r in searched), sum(evaluated_by_op[r.index] for r in searched)
        ),
        "search.solutions": _per(c["search.solutions"], searches),
        "search.solutions_per_evaluated": _per(c["search.solutions"], all_evaluated),
        "search.peel_steps": _per(c["search.peel_steps"], c["search.peel_solutions"]),
        **{f"{layer}.errors": tracer.errors[layer] for layer in LAYERS},
        "trace.overhead_ms": statistics.median(overhead) if overhead else 0.0,
        "trace.overhead_share": _per(
            sum(r.traced_ms for r in records), sum(r.ms for r in records)
        )
        - 1,
        "trace.hooks_skipped": len(tracer.skipped),
        "trace.ops": ops,
    }
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        vb = Vbereq(ROOT)
    except SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "golden").is_dir():
        print(
            "error: tests/golden/ is missing; outputs cannot be checked",
            file=sys.stderr,
        )
        return 2
    sizing = SMOKE if args.smoke else FULL
    setup: list[float] = []
    tracer = None
    if args.trace:
        tracer = Tracer(observe)
        tracer.install(HOOKS)
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        ex = Executor(vb, Path(work))
        replay_goldens(vb, tally)
        if tracer is None:
            records, rss, setup = run_untraced(
                args, ex, tally, sizing, 3 if args.smoke else SETUP_PROBES
            )
            values = end_to_end(setup, records, rss)
            units = END_TO_END
        else:
            records = run_traced(args, ex, tally, sizing, tracer)
            tracer.uninstall()
            values = per_layer(tracer, records)
            units = PER_LAYER

    prov = provenance(args, records)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        tag += "-smoke"
    print(
        f"bench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={prov['python']} nproc={prov['nproc']}"
    )
    print("inputs: " + json.dumps(prov["inputs"]))
    beyond = sum(1 for r in records if r.ms > values.get("op_ms_p90", float("inf")))
    print(
        f"op samples: {len(records)}"
        + (f"; {beyond} beyond op_ms_p90" if tracer is None else "")
        + ("; fewer than 100 ops, so p90 has under ten samples beyond it"
           if tracer is None and len(records) < 100 else "")
    )
    failed_ratio = tally.failed / tally.attempted
    print(f"failed_ratio: {tally.failed}/{tally.attempted} = {failed_ratio:.4f}")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if tracer is not None:
        print("skipped hooks: " + (", ".join(tracer.skipped) or "none"))
        print(
            "search.ms_per_evaluated: "
            f"{values['search.ms_per_evaluated']:.3f} ms untraced "
            f"(ROADMAP baseline about {ROADMAP_MS_PER_SUBSET} ms per subset)"
        )
        print(
            f"tracing overhead: {values['trace.overhead_ms']:.3f} ms/op median, "
            f"{values['trace.overhead_share']:.1%} of untraced op time"
        )
        tracer.write_spans(OUT / f"spans-{tag}.jsonl")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    detail = {
        "result": result,
        "provenance": prov,
        "setup_samples_s": setup,
        "failed_ratio": failed_ratio,
        "problems": tally.problems,
        "skipped_hooks": tracer.skipped if tracer else [],
        "ops": [vars(r) for r in records],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
