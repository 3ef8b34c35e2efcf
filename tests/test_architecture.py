"""Module boundaries of the package, checked on its source with ``ast``."""

import ast
from pathlib import Path
from typing import get_args

import inspect

from vbereq import evaluator, search
from vbereq.requirements import RequirementBody

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


def test_one_builder_fills_every_network():
    network = MODULES["network"]
    setters = {
        function.name
        for function in ast.walk(network)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
    }
    assert setters == {"_fill"}
    # Derivations skip the checks by building through it, not the constructor.
    constructed = [
        node.lineno
        for node in ast.walk(network)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "SocialNetwork"
    ]
    assert constructed == []


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


def test_requirement_kinds_are_dispatched_only_through_the_evaluator_table():
    kinds = {kind.__name__ for kind in get_args(RequirementBody)}
    checked = [
        node.lineno
        for node in ast.walk(MODULES["evaluator"])
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "isinstance"
        and {getattr(n, "id", "") for n in ast.walk(node.args[1])} & kinds
    ]
    assert checked == []
    # One row per kind, so a new kind without a row fails here.
    assert set(evaluator._KINDS) == set(get_args(RequirementBody))


def test_the_parser_trusts_the_ast_to_check_itself():
    reqtext = MODULES["reqtext"]
    # A node's own check becomes a located syntax error in one place per
    # level: ``build`` for a node, ``parse_requirements`` for the set.
    catching = {}
    for function in ast.walk(reqtext):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = {getattr(n, "id", "") for n in ast.walk(node.type)}
                    if "RequirementError" in names:
                        catching[node.lineno] = function.name
    assert sorted(catching.values()) == ["build", "parse_requirements"]
    # The serializer meets only nodes that passed their checks.
    raised = [
        node.lineno
        for node in ast.walk(reqtext)
        if isinstance(node, ast.Raise)
        and "TypeError" in {getattr(n, "id", "") for n in ast.walk(node)}
    ]
    assert raised == []


def _calls(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == name
    ]


def test_each_decision_has_one_home():
    # Only the search driver puts the anchor into a subset.
    assert "anchor" not in inspect.signature(search._subsets).parameters
    # A malformed designated id is the AST's own RequirementError, located
    # through ``build``; the parser catches no id check of its own.
    parse = next(
        node
        for node in MODULES["reqtext"].body
        if isinstance(node, ast.FunctionDef) and node.name == "parse_requirements"
    )
    caught = {
        getattr(n, "id", "")
        for node in ast.walk(parse)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for n in ast.walk(node.type)
    }
    assert not caught & {"ValueError", "NetworkError"}
    assert "NetworkError" not in {
        getattr(node, "id", "") for node in ast.walk(MODULES["reqtext"])
    }
    # The evaluator names the roles; everything else reads them from it.
    naming = sorted(
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("planner", "broker")
    )
    assert set(naming) == {"evaluator"}
    # One place turns a bad actor id in a network file into a FormatError.
    assert len(_calls(MODULES["netio"], "validate_actor_id")) == 1
