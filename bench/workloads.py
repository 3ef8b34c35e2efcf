"""Seeded inputs for the three benchmark workloads.

Op ``i`` of a workload is a pure function of (workload, seed, i, tag), so a
run that completes more ops in its window sees exactly the same first ops
as one that completes fewer, and the committed digests of the default seed
stay valid for any run length. Every op gets actor ids unique to it
(``<tag><i>n<j>``): no op can reuse another op's distance tables through
the library's process-wide cache, just as separate ``vbe`` processes could
not. The traced run executes each op twice, under tags ``p`` and ``q``,
with identical structure and disjoint ids.

Sizes, densities, reciprocity and request variants follow Weyl sequences
with a seeded offset rather than independent draws, and file formats and
strongly connected versus open graphs follow fixed patterns. Any prefix of
the op stream then covers the input space evenly, so runs with different
seeds hold the same mix of small and large requests. The seed still
decides every network's ties and every requirement's thresholds.

This module knows nothing about vbereq: it writes network and requirement
text the way a user would, and records what each op's output must show.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("cli-mix", "search-open", "search-anchored")
PLAIN_TAG = "p"
TRACED_TAG = "q"

_PHI = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2) - 1
_SQRT3 = math.sqrt(3) - 1
_SQRT5 = math.sqrt(5) - 2

# One block of the cli-mix request stream; kinds repeat in this order. No
# source gives how often users make each kind of request, so the mix is a
# synthetic assumption: the kinds are equally frequent, and so are the
# variants within a kind. Sizes then decide where an op falls: small
# requests of every kind sit at p50, and only large check, roles and peel
# requests lie beyond p90 (bench/README.md gives the measured split).
CLI_PATTERN = ("metrics", "check", "roles", "peel")
METRICS_VARIANTS = tuple(
    (out, mode, undirected)
    for out in ("text", "json")
    for mode in ("strict", "lenient")
    for undirected in (False, True)
)
OUT_VIEW_VARIANTS = tuple(
    (out, undirected) for out in ("text", "json") for undirected in (False, True)
)


@dataclass(frozen=True)
class Sizing:
    """Actor-count ranges; the smoke mode shrinks every one of them."""

    cli_sizes: tuple[int, int]
    peel_sizes: tuple[int, int]
    open_sizes: tuple[int, ...]
    open_window: tuple[int, int]
    anchored_sizes: tuple[int, ...]
    anchored_window: tuple[int, int]


FULL = Sizing(
    cli_sizes=(10, 150),
    peel_sizes=(10, 40),
    open_sizes=(9, 10, 11),
    open_window=(5, 6),
    anchored_sizes=(12, 13, 14),
    anchored_window=(3, 5),
)
SMOKE = Sizing(
    cli_sizes=(5, 12),
    peel_sizes=(5, 8),
    open_sizes=(6, 7),
    open_window=(5, 6),
    anchored_sizes=(5, 6),
    anchored_window=(3, 4),
)


@dataclass(frozen=True)
class Graph:
    """Actors in order and ties in generation order; ``undirected`` ties
    are listed once per pair and mean both directions."""

    actors: tuple[str, ...]
    ties: tuple[tuple[str, str], ...]
    undirected: bool = False

    def directed_tie_count(self) -> int:
        return 2 * len(self.ties) if self.undirected else len(self.ties)

    def symmetric_tie_count(self) -> int:
        pairs = {frozenset(t) for t in self.ties}
        return 2 * len(pairs)

    def matrix_text(self) -> str:
        present = set(self.ties)
        lines = ["," + ",".join(self.actors)]
        for row in self.actors:
            cells = (
                "X" if row == col else ("1" if (row, col) in present else "0")
                for col in self.actors
            )
            lines.append(row + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def edges_text(self) -> str:
        lines = ["actors: " + ",".join(self.actors)]
        lines.extend(f"{a},{b}" for a, b in self.ties)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CliOp:
    """One ``vbe`` request. ``argv`` holds ``{net}`` and ``{req}`` where the
    staged file paths go; ``expect`` records what the output must show."""

    index: int
    kind: str
    argv: tuple[str, ...]
    stem: str
    network_suffix: str
    network_text: str
    requirements_text: str | None
    graph: Graph
    expect: dict


@dataclass(frozen=True)
class SearchOp:
    """One exhaustive search through the library."""

    index: int
    stem: str
    network_text: str
    fmt: str
    symmetric: bool
    view: str
    requirement_set: str
    min_size: int
    max_size: int
    anchor: str | None
    graph: Graph

    def window_subsets(self) -> int:
        """Subsets the size window holds, anchored ones containing the anchor."""
        n = self.graph_size
        if self.anchor is None:
            return sum(math.comb(n, k) for k in range(self.min_size, self.max_size + 1))
        return sum(
            math.comb(n - 1, k - 1) for k in range(self.min_size, self.max_size + 1)
        )

    @property
    def graph_size(self) -> int:
        return len(self.graph.actors)


def _weyl(offset: float, count: int, step: float = _PHI) -> float:
    return (offset + count * step) % 1.0


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _offsets(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _actors(tag: str, index: int, n: int) -> tuple[str, ...]:
    return tuple(f"{tag}{index}n{j}" for j in range(n))


def sparse_digraph(
    rng: random.Random,
    actors: tuple[str, ...],
    out_degree: float,
    reciprocity: float,
    cyclic: bool,
) -> Graph:
    """A cycle through every actor (when ``cyclic``) plus random ties."""
    n = len(actors)
    ties: dict[tuple[str, str], None] = {}
    if cyclic:
        order = list(actors)
        rng.shuffle(order)
        ties.update(dict.fromkeys(zip(order, order[1:] + order[:1])))
    target = min(n * (n - 1), len(ties) + round(out_degree * n))
    while len(ties) < target:
        a, b = rng.sample(actors, 2)
        ties[(a, b)] = None
        if len(ties) < target and rng.random() < reciprocity:
            ties[(b, a)] = None
    return Graph(actors, tuple(ties))


def pair_digraph(
    rng: random.Random, actors: tuple[str, ...], p: float, reciprocity: float
) -> Graph:
    """Each pair is tied with probability ``p``; a tie is mutual with
    probability ``reciprocity``, else one-way in a random direction."""
    ties: list[tuple[str, str]] = []
    for i, a in enumerate(actors):
        for b in actors[i + 1 :]:
            if rng.random() >= p:
                continue
            if rng.random() < reciprocity:
                ties += [(a, b), (b, a)]
            elif rng.random() < 0.5:
                ties.append((a, b))
            else:
                ties.append((b, a))
    return Graph(actors, tuple(ties))


def anchored_graph(
    rng: random.Random,
    actors: tuple[str, ...],
    anchor: str,
    p_anchor: float,
    p_other: float,
) -> Graph:
    """An undirected graph where the anchor is tied more often than others."""
    ties: list[tuple[str, str]] = []
    for i, a in enumerate(actors):
        for b in actors[i + 1 :]:
            p = p_anchor if anchor in (a, b) else p_other
            if rng.random() < p:
                ties.append((a, b))
    return Graph(actors, tuple(ties), undirected=True)


# -- cli-mix ----------------------------------------------------------------


def _check_requirements(rng: random.Random, name: str) -> tuple[str, int]:
    """Every body kind: network constraints (avg_path_length among them),
    forall with not, count with avg_others and with an @parent atom, and
    path all->all. Returns the text and its number of requirements."""
    lines = [
        f"set {name}",
        f"require r-size : size >= {rng.randint(2, 12)}",
        "require r-apl : avg_path_length <= "
        f"{rng.choice(('5/2', '3', '3.5', '4', '6'))}",
        f"require r-dens : density <= {rng.randint(3, 60)}%",
        f"require r-recip : recip_ratio >= {rng.randint(10, 60)}%",
        "require r-out : forall actor (out_degree >= 1 or not "
        f"(in_degree < {rng.randint(1, 3)}))",
        "require r-hub : count actor (total_degree >= avg_others(total_degree)) "
        f">= {rng.randint(1, 5)}",
        f"require r-close : count actor (closeness >= 1/{rng.randint(50, 400)} @parent "
        f"and in_density >= {rng.randint(1, 20)}%) >= {rng.randint(10, 50)}%",
        f"require r-reach : path all->all <= {rng.randint(3, 12)}",
    ]
    return "\n".join(lines) + "\n", len(lines) - 1


def _peel_requirements(rng: random.Random, name: str) -> str:
    lines = [
        f"set {name}",
        f"require p-dens : density >= {rng.randint(25, 60)}%",
        f"require p-deg : forall actor (total_degree >= {rng.randint(2, 4)})",
        "require p-hub : count actor (in_degree >= avg_others(in_degree)) >= 1",
    ]
    return "\n".join(lines) + "\n"


def cli_op(seed: int, index: int, tag: str, sizing: Sizing = FULL) -> CliOp:
    count, slot = divmod(index, len(CLI_PATTERN))
    kind = CLI_PATTERN[slot]
    base = _offsets("cli-mix", seed)
    offsets = {k: [base.random() for _ in range(4)] for k in sorted(CLI_PATTERN)}
    size_off, variant_off, degree_off, recip_off = offsets[kind]
    rng = random.Random(f"cli-mix/{seed}/{index}")

    lo, hi = sizing.peel_sizes if kind == "peel" else sizing.cli_sizes
    n = _log_uniform(_weyl(size_off, count), lo, hi)
    out_degree = 5.0 ** _weyl(degree_off, count, _SQRT3)
    graph = sparse_digraph(
        rng,
        _actors(tag, index, n),
        out_degree,
        reciprocity=0.2 + 0.6 * _weyl(recip_off, count, _SQRT5),
        cyclic=kind == "check" or count % 4 != 3,
    )
    stem = f"net{index}"
    fmt_matrix = (count + count // 4) % 2 == 0
    suffix = ".csv" if fmt_matrix else ".edges"
    network_text = graph.matrix_text() if fmt_matrix else graph.edges_text()
    variant = _weyl(variant_off, count, _SQRT2)
    net_args = ("--network", "{net}")
    requirements_text = None
    expect: dict = {"n": n, "stem": stem}

    if kind == "metrics":
        out, mode, undirected = METRICS_VARIANTS[int(variant * len(METRICS_VARIANTS))]
        argv = ("metrics", *net_args, "--mode", mode, "--out", out)
        expect["mode"] = mode
    elif kind == "check":
        out, undirected = OUT_VIEW_VARIANTS[int(variant * len(OUT_VIEW_VARIANTS))]
        requirements_text, count_reqs = _check_requirements(rng, f"gen{index}")
        argv = ("check", *net_args, "--requirements", "{req}", "--out", out)
        expect["requirements"] = count_reqs
        expect["set"] = f"gen{index}"
    elif kind == "roles":
        out, undirected = ("text", "json")[int(variant * 2)], False
        argv = ("roles", *net_args, "--role", "all", "--out", out)
    else:
        out, undirected = OUT_VIEW_VARIANTS[int(variant * len(OUT_VIEW_VARIANTS))]
        requirements_text = _peel_requirements(rng, f"peel{index}")
        min_size = rng.randint(2, 4)
        max_size = rng.randint(max(min_size, n // 2), n)
        argv = (
            "search", *net_args, "--requirements", "{req}",
            "--min-size", str(min_size), "--max-size", str(max_size),
            "--mode", "peel", "--out", out,
        )
        expect["window"] = (min_size, max_size)
    if undirected:
        argv += ("--undirected",)
    symmetric = undirected and not fmt_matrix
    expect.update(
        out=out,
        view="undirected" if undirected else "directed",
        fmt="matrix" if fmt_matrix else "edges",
        symmetric=symmetric,
        ties=graph.symmetric_tie_count() if symmetric else graph.directed_tie_count(),
    )
    return CliOp(
        index, kind, argv, stem, suffix, network_text, requirements_text, graph, expect
    )


# -- search workloads -----------------------------------------------------------


def open_search_op(seed: int, index: int, tag: str, sizing: Sizing = FULL) -> SearchOp:
    base = _offsets("search-open", seed)
    size_off, p_off, r_off = base.random(), base.random(), base.random()
    rng = random.Random(f"search-open/{seed}/{index}")
    sizes = sizing.open_sizes
    n = sizes[(index + int(size_off * len(sizes))) % len(sizes)]
    graph = pair_digraph(
        rng,
        _actors(tag, index, n),
        p=0.55 + 0.35 * _weyl(p_off, index),
        reciprocity=0.5 + 0.4 * _weyl(r_off, index, _SQRT2),
    )
    lo, hi = sizing.open_window
    return SearchOp(
        index, f"net{index}", graph.matrix_text(), "matrix", False, "directed",
        "steel-vbe", lo, hi, None, graph,
    )


def anchored_search_op(
    seed: int, index: int, tag: str, sizing: Sizing = FULL
) -> SearchOp:
    base = _offsets("search-anchored", seed)
    size_off, pa_off, po_off = base.random(), base.random(), base.random()
    rng = random.Random(f"search-anchored/{seed}/{index}")
    sizes = sizing.anchored_sizes
    n = sizes[(index + int(size_off * len(sizes))) % len(sizes)]
    actors = _actors(tag, index, n)
    anchor = actors[rng.randrange(n)]
    graph = anchored_graph(
        rng,
        actors,
        anchor,
        p_anchor=0.5 + 0.35 * _weyl(pa_off, index),
        p_other=0.1 + 0.2 * _weyl(po_off, index, _SQRT2),
    )
    lo, hi = sizing.anchored_window
    return SearchOp(
        index, f"net{index}", graph.edges_text(), "edges", True, "undirected",
        "wholesaler", lo, hi, anchor, graph,
    )


GENERATORS = {
    "cli-mix": cli_op,
    "search-open": open_search_op,
    "search-anchored": anchored_search_op,
}


def make_op(workload: str, seed: int, index: int, tag: str, sizing: Sizing = FULL):
    return GENERATORS[workload](seed, index, tag, sizing)
