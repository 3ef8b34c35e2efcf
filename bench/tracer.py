"""In-memory spans and leaf counters around calls into each layer.

A span records (id, parent id, op id, layer, start, end, self time); self
time is the span's duration minus the durations of the spans and leaf
calls directly inside it. Hot leaf calls (metric functions, value
formatters, requirement text renderers, network construction) would
outnumber everything else by orders of magnitude, so they are aggregated
into a call count and summed time per layer and charged to their parent
span as child time instead of getting a span each. A leaf call inside
another leaf call counts in its own layer's aggregate but is charged to
the parent span only through the outer call.

Hooks record only while an op is current (``tracer.op`` is set); calls the
benchmark makes to check outputs pass straight through.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

_clock = time.perf_counter


def _layer_root(layer: str) -> str:
    return layer.split(".", 1)[0]


class Tracer:
    def __init__(self, observe: Callable[[str, tuple, dict, object], dict]) -> None:
        """``observe(layer, args, kwargs, result)`` returns counters to add
        for a completed span, such as bytes parsed or verdicts failed."""
        self.observe = observe
        self.op: int | None = None
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.skipped: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- hooks -------------------------------------------------------------

    def _span(self, layer: str, fn: Callable) -> Callable:
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, _clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[_layer_root(layer)] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (span_id, parent, op, layer, frame[1], end, duration - frame[2])
                )
            self.counters.update(self.observe(layer, args, kwargs, result))
            return result

        return traced

    def _leaf(self, layer: str, fn: Callable) -> Callable:
        stack, aggregate = self._stack, self.leaves[layer]

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            # Leaf calls and spans nested in this one charge the parent
            # too; restoring its child time first counts them only once.
            parent_child_time = stack[-1][2] if stack else 0.0
            start = _clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[_layer_root(layer)] += 1
                raise
            finally:
                duration = _clock() - start
                aggregate[0] += 1
                aggregate[1] += duration
                if stack:
                    stack[-1][2] = parent_child_time + duration

        return traced

    def install(self, hooks) -> None:
        """Wrap each (module, attribute path, layer, kind) target; targets
        that no longer exist are listed in ``skipped``."""
        for module_name, path, layer, kind in hooks:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for name in owners:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}.{path}")
                continue
            wrap = self._span if kind == "span" else self._leaf
            setattr(owner, attr, wrap(layer, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, op, layer, start, end, self_time in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "layer": layer,
                            "start_us": round(start * 1e6, 1),
                            "end_us": round(end * 1e6, 1),
                            "self_us": round(self_time * 1e6, 1),
                        }
                    )
                    + "\n"
                )
