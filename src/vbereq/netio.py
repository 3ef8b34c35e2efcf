"""Network file formats.

Two network formats round-trip through parse/serialize:

* matrix-csv -- first row is a header of actor ids (with an optional empty
  leading cell); each following row is an actor id and one cell per column
  out of 0, 1, or X. Row order may differ from the header. A 1 in row r,
  column c is the tie r -> c. X is permitted only on the diagonal and the
  diagonal is ignored either way.
* edge-list -- one "from,to" line per tie, an optional first line
  "actors: id,id,..." declaring actor order and isolated actors, blank
  lines and #-comment lines ignored. Symmetric mode inserts both
  directions of every listed edge.
"""

from __future__ import annotations

from .network import NetworkError, SocialNetwork, validate_actor_id

_CELL_VALUES = {"0", "1", "X", "x"}


class FormatError(ValueError):
    """Malformed network file content."""


def _actor_id(actor: str, line_no: int) -> str:
    """``actor``, or a FormatError at ``line_no`` if it is no valid actor id."""
    try:
        return validate_actor_id(actor)
    except NetworkError as exc:
        raise FormatError(f"line {line_no}: {exc}") from None


def _split_csv_row(line: str) -> list[str]:
    return [cell.strip() for cell in line.split(",")]


def parse_matrix_csv(text: str) -> SocialNetwork:
    """Parse an adjacency matrix with an id header and an X diagonal."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise FormatError("empty matrix file")
    header = _split_csv_row(rows[0])
    # The row is not blank, so an empty first cell has at least one after it.
    if header[0] == "":
        header = header[1:]
    seen: set[str] = set()
    for actor in header:
        if _actor_id(actor, 1) in seen:
            raise FormatError(f"line 1: duplicate actor id {actor!r}")
        seen.add(actor)
    n = len(header)
    if len(rows) - 1 != n:
        raise FormatError(
            f"expected {n} matrix rows after the header, found {len(rows) - 1}"
        )
    column_of = {actor: i for i, actor in enumerate(header)}
    ties: set[tuple[str, str]] = set()
    seen_rows: set[str] = set()
    for line_no, line in enumerate(rows[1:], start=2):
        cells = _split_csv_row(line)
        if len(cells) != n + 1:
            raise FormatError(
                f"line {line_no}: expected {n + 1} cells, found {len(cells)}"
            )
        row_actor = cells[0]
        if row_actor not in column_of:
            raise FormatError(f"line {line_no}: unknown row actor {row_actor!r}")
        if row_actor in seen_rows:
            raise FormatError(f"line {line_no}: duplicate row for {row_actor!r}")
        seen_rows.add(row_actor)
        for col, cell in enumerate(cells[1:]):
            diagonal = column_of[row_actor] == col
            if cell not in _CELL_VALUES:
                raise FormatError(
                    f"line {line_no}: non-binary cell {cell!r} (use 0, 1, or X)"
                )
            if cell in ("X", "x") and not diagonal:
                raise FormatError(
                    f"line {line_no}: X is only permitted on the diagonal"
                )
            if diagonal:
                continue
            if cell == "1":
                ties.add((row_actor, header[col]))
    return SocialNetwork(tuple(header), frozenset(ties))


def serialize_matrix_csv(net: SocialNetwork) -> str:
    lines = ["," + ",".join(net.actors)]
    for row in net.actors:
        cells = [
            "X" if row == col else ("1" if net.has_tie(row, col) else "0")
            for col in net.actors
        ]
        lines.append(row + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, symmetric: bool = False) -> SocialNetwork:
    """Parse "from,to" lines; symmetric mode inserts both directions."""
    actors: list[str] = []
    known: set[str] = set()
    ties: set[tuple[str, str]] = set()
    saw_edges = False

    def admit(actor: str, line_no: int) -> None:
        if _actor_id(actor, line_no) not in known:
            known.add(actor)
            actors.append(actor)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("actors:"):
            if saw_edges or actors:
                raise FormatError(
                    f"line {line_no}: 'actors:' preamble must come first"
                )
            for actor in line[len("actors:") :].split(","):
                actor = actor.strip()
                if not actor:
                    raise FormatError(f"line {line_no}: empty actor id in preamble")
                if actor in known:
                    raise FormatError(
                        f"line {line_no}: duplicate actor id {actor!r}"
                    )
                admit(actor, line_no)
            continue
        saw_edges = True
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not all(parts):
            raise FormatError(
                f"line {line_no}: malformed edge line {line!r} (expected from,to)"
            )
        sender, receiver = parts
        if sender == receiver:
            raise FormatError(f"line {line_no}: self-loop on {sender!r}")
        admit(sender, line_no)
        admit(receiver, line_no)
        ties.add((sender, receiver))
        if symmetric:
            ties.add((receiver, sender))
    if not actors:
        raise FormatError("empty edge-list file")
    return SocialNetwork(tuple(actors), frozenset(ties))


def serialize_edge_list(net: SocialNetwork, symmetric: bool = False) -> str:
    """Emit an actors preamble plus one line per tie (per pair if symmetric).

    Symmetric output requires every tie to be reciprocated.
    """
    index = {a: i for i, a in enumerate(net.actors)}
    lines = ["actors: " + ",".join(net.actors)]
    if symmetric:
        pairs: set[tuple[str, str]] = set()
        for a, b in net.ties:
            if not net.has_tie(b, a):
                raise FormatError(
                    f"tie {a!r} -> {b!r} is not reciprocated; "
                    f"cannot serialize as symmetric"
                )
            pairs.add((a, b) if index[a] < index[b] else (b, a))
        edges = sorted(pairs, key=lambda p: (index[p[0]], index[p[1]]))
    else:
        edges = sorted(net.ties, key=lambda p: (index[p[0]], index[p[1]]))
    lines.extend(f"{a},{b}" for a, b in edges)
    return "\n".join(lines) + "\n"


def load_network_text(
    text: str, fmt: str, *, symmetric: bool = False
) -> SocialNetwork:
    if fmt == "matrix":
        return parse_matrix_csv(text)
    if fmt == "edges":
        return parse_edge_list(text, symmetric=symmetric)
    raise FormatError(f"unknown network format {fmt!r} (use matrix or edges)")


def infer_format(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith(".csv"):
        return "matrix"
    if lowered.endswith((".edges", ".edgelist", ".txt")):
        return "edges"
    raise FormatError(
        f"cannot infer the format of {path!r}; pass --format matrix|edges"
    )

