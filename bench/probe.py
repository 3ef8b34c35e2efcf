"""One set-up sample: run in a fresh interpreter, it prints the seconds from
just before ``import vbereq`` to where the benchmark's first timed op
would start. ``run.py`` starts several and reports their median."""

import time
from pathlib import Path

import adapter

start = time.perf_counter()
adapter.Vbereq(Path(__file__).resolve().parent.parent)
print(f"{time.perf_counter() - start:.9f}")
