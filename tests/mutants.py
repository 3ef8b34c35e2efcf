"""Mutation check: each known mutant of the source must fail a named test.

Usage: ``python tests/mutants.py`` from any directory (pytest and hypothesis
installed). For each row of ``MUTANTS`` the script copies ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` to a temporary directory,
replaces the row's ``old`` text (which must occur exactly once) with ``new``,
and runs only the row's tests there with a fixed hypothesis seed. A mutant is
killed when those tests fail. The same tests first run on an unmutated copy
and must pass there. The exit status is 0 only if every mutant is killed.

Background: DeMillo, Lipton & Sayward, "Hints on test data selection: help
for the practicing programmer", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST_ARGS = ("-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0")
TIMEOUT_S = 600  # seconds per pytest run; a run that never ends fails the check


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "'or' joined into And",
        "src/vbereq/reqtext.py",
        'self.joined("or", Or, self.conjunction)',
        'self.joined("or", And, self.conjunction)',
        ("tests/test_reqtext.py::TestBodies",),
    ),
    Mutant(
        "node check accepts any child",
        "src/vbereq/requirements.py",
        "if type(child) not in kinds:",
        "if False:",
        ("tests/test_requirements.py::TestRequirementSet",),
    ),
    Mutant(
        "build locates a path threshold at the scope",
        "src/vbereq/reqtext.py",
        "self.build(PairwisePath, token, scope, cmp, value)",
        "self.build(PairwisePath, scope_token, scope, cmp, value)",
        ("tests/test_reqtext.py::TestErrors",),
    ),
    Mutant(
        "Comparator.LE mapped to operator.lt",
        "src/vbereq/requirements.py",
        "Comparator.LE: operator.le,",
        "Comparator.LE: operator.lt,",
        ("tests/test_requirements.py::TestComparator",),
    ),
    Mutant(
        "_length_ruled_out rules out a length at the bound",
        "src/vbereq/evaluator.py",
        "return most is not None and length > most",
        "return most is not None and length >= most",
        ("tests/test_search.py::TestSearchLimits",),
    ),
    Mutant(
        "forall's except anchor ignored when ruling out actors",
        "src/vbereq/evaluator.py",
        "exempt = scope.anchor if body.except_anchor else None",
        "exempt = None",
        ("tests/test_search.py::TestExhaustive",),
    ),
    Mutant(
        "size rule off by one",
        "src/vbereq/evaluator.py",
        "if not body.cmp.holds(k, body.threshold)}",
        "if not body.cmp.holds(k - 1, body.threshold)}",
        ("tests/test_search.py::TestExhaustive",),
    ),
    Mutant(
        "conflict pairs reversed",
        "src/vbereq/evaluator.py",
        "(x, y) if order[x] < order[y] else (y, x)",
        "(y, x) if order[x] < order[y] else (x, y)",
        ("tests/test_search.py::TestSearchLimits",),
    ),
    Mutant(
        "conflict filter skipped",
        "src/vbereq/search.py",
        "if (actor, c) not in conflicts]",
        "]",
        ("tests/test_search.py::TestSearchLimits",),
    ),
    Mutant(
        "judge ignores the view",
        "src/vbereq/evaluator.py",
        "_Scope(sub, parent, anchor, view, mode)",
        '_Scope(sub, parent, anchor, "directed", mode)',
        (
            "tests/test_properties.py::TestSearchAgainstBruteForce"
            "::test_same_solutions_as_brute_force",
        ),
    ),
    Mutant(
        "judge ignores the mode",
        "src/vbereq/evaluator.py",
        "_Scope(sub, parent, anchor, view, mode)",
        '_Scope(sub, parent, anchor, view, "strict")',
        (
            "tests/test_properties.py::TestSearchInvariants"
            "::test_exhaustive_solutions_satisfy",
        ),
    ),
    Mutant(
        "judge reads @parent atoms on the subset",
        "src/vbereq/evaluator.py",
        "_Scope(sub, parent, anchor, view, mode)",
        "_Scope(sub, sub, anchor, view, mode)",
        ("tests/test_search.py::TestExhaustive",),
    ),
    Mutant(
        "peel tie-break reversed",
        "src/vbereq/search.py",
        "                -candidate[0],\n",
        "                candidate[0],\n",
        (
            "tests/test_properties.py::TestSearchInvariants"
            "::test_peel_matches_peeling_by_evaluate",
        ),
    ),
    Mutant(
        "enumerator drops the fixed anchor",
        "src/vbereq/search.py",
        "k - len(fixed)",
        "k",
        ("tests/test_search.py::TestExhaustive",),
    ),
    Mutant(
        "--undirected reads an edge list one way",
        "src/vbereq/cli.py",
        'symmetric = args.undirected and fmt == "edges"',
        'symmetric = args.undirected and fmt != "edges"',
        ("tests/test_cli.py::TestMetricsCommand",),
    ),
    Mutant(
        "--actors evaluates without its parent",
        "src/vbereq/cli.py",
        "parent, net = net, net.induced(",
        "parent, net = None, net.induced(",
        ("tests/test_cli.py::TestCheckCommand",),
    ),
    Mutant(
        "a subnetwork named after the typed ids",
        "src/vbereq/cli.py",
        "name = subnetwork_name(name, net.actors)",
        'name = subnetwork_name(name, tuple(args.actors.split(",")))',
        ("tests/test_cli.py::TestCheckCommand",),
    ),
    Mutant(
        "undirected distances follow out-ties only",
        "src/vbereq/network.py",
        "both = {a: self._out[a] | self._in[a] for a in self.actors}",
        "both = {a: self._out[a] for a in self.actors}",
        ("tests/test_properties.py::TestInduced",),
    ),
    Mutant(
        "_failures treats an Or like an And",
        "src/vbereq/evaluator.py",
        "needs_all = isinstance(pred, And) == polarity",
        "needs_all = isinstance(pred, (And, Or)) == polarity",
        ("tests/test_properties.py::TestFailures",),
    ),
    Mutant(
        "count blame treats > as an upper bound",
        "src/vbereq/evaluator.py",
        "count == bound_value and body.cmp is Comparator.GT",
        "count == bound_value and body.cmp is Comparator.GE",
        ("tests/test_evaluator.py::TestVerdictShapes",),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int | None:
    """Exit status of pytest on ``tests`` in ``tree`` (1 means a test
    failed), or None if it ran out of time."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST_ARGS, *tests],
            cwd=tree,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(
            f"mutant {mutant.name!r}: {mutant.old!r} occurs {count} times "
            f"in {mutant.file}, not once"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="vbereq-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        tests = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        status = _pytest(clean, tests)
        if status != 0:
            print(f"the unmutated tree fails its tests (pytest exit {status})")
            return 1
        for index, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant-{index}"
            _copy_tree(tree)
            _apply(tree, mutant)
            status = _pytest(tree, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed", None: "ERROR (timed out)"}.get(
                status, f"ERROR (pytest exit {status})"
            )
            print(f"{verdict}: {mutant.name} ({mutant.file})")
            survivors += status != 1
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
