"""Record digests.json: the output digest of each op of the default seed.

    python3 bench/record_digests.py [WORKLOAD ...]

With workload names, only their entries are recorded again and the
others are kept.

Run it only on code whose outputs are known to be right (they were
recorded from the seed code); every later run of the default seed then
fails any op whose output bytes differ. It covers several times the ops
a run completes today, so a faster program is still checked op by op.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
from adapter import Vbereq
from run import OUT, ROOT, Executor
from workloads import PLAIN_TAG, WORKLOADS, make_op

OPS = {"cli-mix": 2500, "search-open": 80, "search-anchored": 200}


def main(names: list[str]) -> None:
    vb = Vbereq(ROOT)
    OUT.mkdir(exist_ok=True)
    table = json.loads(checks.DIGESTS.read_text()) if names else {}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        ex = Executor(vb, Path(work))
        for workload in names or WORKLOADS:
            digests = []
            for i in range(OPS[workload]):
                op = make_op(workload, checks.DEFAULT_SEED, i, PLAIN_TAG)
                _, payload, check = ex.run(op)
                problems = check()
                if problems:
                    raise SystemExit(f"{workload} op {i}: {'; '.join(problems)}")
                digests.append(checks.digest(payload))
            table[workload] = digests
    checks.DIGESTS.write_text(json.dumps(table, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
