"""Module boundaries of the package, checked on its source with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "vbereq"
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _imports(tree: ast.Module, runtime_only: bool = False) -> list[tuple[str, str]]:
    """(package module, imported name) pairs; name is "" for a module import.

    ``runtime_only`` leaves out imports under ``if TYPE_CHECKING:``.
    """
    skipped: set[int] = set()
    if runtime_only:
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
                skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or id(node) in skipped:
            continue
        names = [alias.name for alias in node.names]
        if node.level == 1 and node.module is None:
            found.extend((name, "") for name in names)
        elif node.level == 1:
            found.extend((node.module.split(".")[0], name) for name in names)
        elif node.level == 0 and (node.module or "").startswith("vbereq."):
            found.extend((node.module.split(".")[1], name) for name in names)
    return found


def test_no_module_imports_another_modules_private_names():
    private = [
        f"{name}: {module}.{imported}"
        for name, tree in MODULES.items()
        for module, imported in _imports(tree)
        if imported.startswith("_") and not imported.startswith("__")
    ]
    assert private == []


def test_only_the_cli_reads_the_environment():
    touches = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        if name != "cli"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and {a.name for a in node.names} & {"environ", "getenv"}
        )
    ]
    assert touches == []


def test_file_formats_import_neither_evaluation_nor_rendering():
    imported = {module for module, _ in _imports(MODULES["netio"])}
    assert not imported & {"evaluator", "render"}


def test_search_reaches_the_evaluator_only_through_its_judge():
    imported = {name for module, name in _imports(MODULES["search"]) if module == "evaluator"}
    assert imported <= {"SubsetJudge", "EvaluationReport"}


def test_metric_ids_are_dispatched_only_through_the_metric_table():
    def names_member(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "MetricId"

    compared = [
        node.lineno
        for node in ast.walk(MODULES["metrics"])
        if (
            isinstance(node, ast.Compare)
            and any(names_member(n) for n in (node.left, *node.comparators))
        )
        or (isinstance(node, ast.MatchValue) and names_member(node.value))
    ]
    assert compared == []
    # The report order is the table's order, so render names no member.
    assert [n.lineno for n in ast.walk(MODULES["render"]) if names_member(n)] == []


def test_no_function_caches_process_wide_state():
    cached = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and {a.name for a in node.names} & {"cache", "lru_cache"}
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr in ("cache", "lru_cache")
            and getattr(node.value, "id", "") == "functools"
        )
    ]
    assert cached == []


def test_metrics_are_reached_only_through_the_table_lookups():
    public = {
        node.name
        for node in MODULES["metrics"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == {
        "network_metric",
        "actor_metric",
        "observe_network_metric",
        "observe_actor_metric",
        "shortest_path_length",
        "reachable_fraction",
    }


def test_no_import_cycles():
    graph = {
        name: {module for module, _ in _imports(tree, runtime_only=True)}
        for name, tree in MODULES.items()
    }

    def reaches(start: str, target: str, seen: set[str]) -> bool:
        return any(
            nxt == target or (nxt not in seen and reaches(nxt, target, seen | {nxt}))
            for nxt in graph.get(start, ())
        )

    assert [name for name in graph if reaches(name, name, {name})] == []


def test_the_cli_formats_nothing_itself():
    cli = MODULES["cli"]
    modules = {node.module for node in ast.walk(cli) if isinstance(node, ast.ImportFrom)}
    modules.update(
        alias.name
        for node in ast.walk(cli)
        if isinstance(node, ast.Import)
        for alias in node.names
    )
    assert "json" not in modules
    assert "values" not in {module for module, _ in _imports(cli)}


def test_one_json_writer():
    writers = [
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "dumps"
        and getattr(node.value, "id", "") == "json"
    ]
    assert writers == ["render"]
