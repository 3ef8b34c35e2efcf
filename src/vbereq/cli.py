"""Command-line interface.

Four subcommands under a single ``vbe`` entry point:

* ``vbe metrics``  -- print every network and per-actor metric.
* ``vbe check``    -- evaluate a requirement set, exit 0 on PASS, 1 on FAIL.
* ``vbe roles``    -- list member, planner, and broker candidates.
* ``vbe search``   -- find induced subnetworks satisfying a requirement set.

Exit codes are uniform: 0 for satisfied/success, 1 for requirements
violated or no solution found, 2 for any input or usage error. Text
reports honor ``VBE_COLOR=1`` for ANSI color; ``--out json`` emits a
machine-readable document instead.

This module only parses arguments, loads the input files, calls the
library and writes out the bytes a ``render_*`` function returns; every
output format lives in :mod:`vbereq.render`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .evaluator import EvaluationError, evaluate, role_candidates
from .metrics import MODES
from .netio import FormatError, infer_format, load_network_text
from .network import NetworkError, SocialNetwork
from .render import render_metrics, render_report, render_roles, render_search
from .reqtext import RequirementSyntaxError, parse_requirements
from .requirements import RequirementError, RequirementSet
from .search import (
    OBJECTIVES,
    SearchConfig,
    SearchError,
    search_exhaustive,
    search_greedy_peel,
)

_USER_ERRORS = (
    NetworkError,
    FormatError,
    RequirementError,
    RequirementSyntaxError,
    EvaluationError,
    SearchError,
    OSError,
)


def _add_network_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--network", required=True, metavar="FILE", help="network file to load"
    )
    sub.add_argument(
        "--format",
        choices=("matrix", "edges"),
        help="network file format (default: inferred from the suffix)",
    )
    sub.add_argument(
        "--undirected",
        action="store_true",
        help="treat ties as mutual: edge lists gain both directions and "
        "path metrics use the undirected view",
    )


def _add_out_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--out", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbe",
        description="Social requirements over directed organization networks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    metrics = commands.add_parser(
        "metrics", help="print all network and per-actor metrics"
    )
    _add_network_options(metrics)
    _add_out_option(metrics)
    metrics.add_argument(
        "--mode",
        choices=MODES,
        default="strict",
        help="path-metric handling of unreachable pairs",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    check = commands.add_parser(
        "check", help="evaluate a requirement set against the network"
    )
    _add_network_options(check)
    check.add_argument(
        "--requirements", required=True, metavar="FILE", help="requirement set file"
    )
    check.add_argument("--anchor", metavar="ID", help="anchor actor id")
    check.add_argument(
        "--parent",
        metavar="FILE",
        help="parent network file for @parent atoms (default: the network itself)",
    )
    check.add_argument(
        "--actors",
        metavar="IDS",
        help="comma-separated subset to evaluate; the loaded network becomes "
        "the parent and the induced subnetwork is checked",
    )
    check.add_argument(
        "--mode",
        choices=MODES,
        default="strict",
        help="path-metric handling of unreachable pairs",
    )
    _add_out_option(check)
    check.set_defaults(handler=_cmd_check)

    roles = commands.add_parser(
        "roles", help="list role candidates (member, planner, broker)"
    )
    _add_network_options(roles)
    roles.add_argument(
        "--role",
        choices=("member", "planner", "broker", "all"),
        default="all",
        help="which role to screen for",
    )
    roles.add_argument(
        "--members-only",
        action="store_true",
        help="screen planner/broker candidates among member candidates only",
    )
    _add_out_option(roles)
    roles.set_defaults(handler=_cmd_roles)

    search = commands.add_parser(
        "search", help="find induced subnetworks satisfying a requirement set"
    )
    _add_network_options(search)
    search.add_argument(
        "--requirements", required=True, metavar="FILE", help="requirement set file"
    )
    search.add_argument(
        "--min-size", required=True, type=int, metavar="K", help="smallest subset"
    )
    search.add_argument(
        "--max-size", required=True, type=int, metavar="K", help="largest subset"
    )
    search.add_argument(
        "--mode",
        choices=("exhaustive", "peel"),
        default="exhaustive",
        help="search strategy",
    )
    search.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="size",
        help="what makes one solution better than another",
    )
    search.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="N",
        help="fail once exhaustive search would decide more than N subsets",
    )
    search.add_argument("--anchor", metavar="ID", help="anchor actor id")
    _add_out_option(search)
    search.set_defaults(handler=_cmd_search)

    return parser


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")


def _load_network(args: argparse.Namespace) -> tuple[SocialNetwork, str, str]:
    """The loaded network, its display name, and the evaluation view."""
    fmt = args.format or infer_format(args.network)
    text = _read_text(args.network)
    symmetric = args.undirected and fmt == "edges"
    net = load_network_text(text, fmt, symmetric=symmetric)
    view = "undirected" if args.undirected else "directed"
    return net, Path(args.network).stem, view


def _load_requirements(path: str) -> RequirementSet:
    return parse_requirements(_read_text(path))


def _emit(data: bytes) -> None:
    sys.stdout.write(data.decode())


def _cmd_metrics(args: argparse.Namespace) -> int:
    net, name, view = _load_network(args)
    _emit(render_metrics(net, name, view=view, mode=args.mode, format=args.out))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    net, name, view = _load_network(args)
    reqs = _load_requirements(args.requirements)
    parent = None
    if args.parent is not None:
        parent_fmt = args.format
        try:
            parent_fmt = infer_format(args.parent)
        except FormatError:
            if parent_fmt is None:
                raise
        parent = load_network_text(
            _read_text(args.parent),
            parent_fmt,
            symmetric=args.undirected and parent_fmt == "edges",
        )
    if args.actors is not None:
        subset = tuple(a.strip() for a in args.actors.split(","))
        if parent is None:
            parent = net
        net = parent.induced(subset)
        name = f"{name}[{','.join(subset)}]"
    report = evaluate(
        net,
        reqs,
        anchor=args.anchor,
        parent=parent,
        network_name=name,
        view=view,
        mode=args.mode,
    )
    _emit(render_report(report, args.out, color=args.color))
    return 0 if report.overall else 1


def _cmd_roles(args: argparse.Namespace) -> int:
    net, name, view = _load_network(args)
    wanted = ("member", "planner", "broker") if args.role == "all" else (args.role,)
    candidates = {
        role: role_candidates(net, role, members_only=args.members_only)
        for role in wanted
    }
    _emit(render_roles(name, candidates, args.out))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    net, name, view = _load_network(args)
    reqs = _load_requirements(args.requirements)
    cap = {} if args.cap is None else {"enumeration_cap": args.cap}
    cfg = SearchConfig(
        min_size=args.min_size,
        max_size=args.max_size,
        objective=args.objective,
        **cap,
    )
    if args.mode == "peel":
        best = search_greedy_peel(
            net, reqs, cfg, args.anchor, network_name=name, view=view
        )
        alternatives = 0
    else:
        solutions = search_exhaustive(
            net, reqs, cfg, args.anchor, network_name=name, view=view
        )
        best = solutions[0] if solutions else None
        alternatives = max(len(solutions) - 1, 0)
    _emit(render_search(best, cfg.objective, alternatives, args.out, color=args.color))
    return 0 if best is not None else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.color = os.environ.get("VBE_COLOR") == "1"
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
