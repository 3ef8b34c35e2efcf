"""Output checks for every op; a failed check counts the op as failed.

Each check returns a list of problems, empty when the output is right.
They test what must hold for any seed: exit codes agree with the reported
verdict, JSON parses, counts match the generated network, and every search
solution lies in the window, follows the documented order and re-evaluates
to PASS. For the default seed, ``digests.json`` additionally pins each op's
output bytes as the seed code produced them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def load_digests(workload: str, seed: int, smoke: bool) -> list[str]:
    """Committed per-op digests for the default seed, else none."""
    if smoke or seed != DEFAULT_SEED:
        return []
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, [])


def cli_payload(code: int, out: bytes) -> bytes:
    return b"%d\n" % code + out


def search_payload(solutions, rendered: bytes) -> bytes:
    listing = "".join(",".join(actors) + "\n" for actors, _ in solutions)
    return listing.encode() + b"--\n" + rendered


def _json(out: bytes, problems: list[str]):
    try:
        return json.loads(out)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _listed(text: str) -> list[str]:
    return [] if text == "(none)" else text.split(", ")


def check_cli(vb, op, code: int, out: bytes, err: str) -> list[str]:
    problems: list[str] = []
    if err:
        problems.append(f"stderr: {err.strip()[:200]}")
    allowed = (0,) if op.kind in ("metrics", "roles") else (0, 1)
    if code not in allowed:
        problems.append(f"exit code {code}")
        return problems
    expect = op.expect
    as_json = expect["out"] == "json"
    doc = _json(out, problems) if as_json else None
    if as_json and doc is None:
        return problems
    text = out.decode()
    lines = text.splitlines()
    actors = list(op.graph.actors)
    n = expect["n"]
    density = f"{expect['ties']}/{n * (n - 1)}"

    if op.kind == "metrics":
        if as_json:
            got = (doc["network"], doc["view"], doc["mode"], doc["size"])
            want = (op.stem, expect["view"], expect["mode"], n)
            if got != want:
                problems.append(f"metrics header {got} != {want}")
            if doc["density"]["value"] != density:
                problems.append(f"density {doc['density']['value']} != {density}")
            if [row["id"] for row in doc["actors"]] != actors:
                problems.append("actor rows differ from the network's actors")
        else:
            head = [f"network: {op.stem}", f"view: {expect['view']}", f"size: {n}"]
            if lines[:3] != head:
                problems.append(f"metrics header {lines[:3]} != {head}")
            if not lines[3].startswith(f"density: {density} "):
                problems.append(f"density line {lines[3]!r}, want {density}")
            if [line.split(" ", 1)[0] for line in lines[8:]] != actors:
                problems.append("actor rows differ from the network's actors")
    elif op.kind == "check":
        passed = code == 0
        if as_json:
            if (doc["network"], doc["requirement_set"]) != (op.stem, expect["set"]):
                problems.append("report names the wrong network or set")
            verdicts = [v["satisfied"] for v in doc["verdicts"]]
            if doc["overall"] is not passed or all(verdicts) is not passed:
                problems.append(f"exit code {code} disagrees with the report")
        else:
            head = [f"network: {op.stem}", f"requirements: {expect['set']}"]
            if lines[:2] != head:
                problems.append(f"report header {lines[:2]} != {head}")
            verdicts = [line.startswith("PASS") for line in lines[2:-2]]
            if lines[-1] != f"overall: {'PASS' if passed else 'FAIL'}" or all(
                verdicts
            ) is not passed:
                problems.append(f"exit code {code} disagrees with the report")
        if len(verdicts) != expect["requirements"]:
            problems.append(f"{len(verdicts)} verdicts for {expect['requirements']}")
    elif op.kind == "roles":
        if as_json:
            roles = doc["roles"]
        else:
            roles = {}
            for line in lines:
                role, _, listing = line.partition(": ")
                roles[role] = _listed(listing)
        if list(roles) != ["member", "planner", "broker"]:
            problems.append(f"roles listed: {list(roles)}")
        for role, listed in roles.items():
            if listed != [a for a in actors if a in set(listed)]:
                problems.append(f"{role} candidates are not actors in order")
    else:
        problems += _check_peel(vb, op, code, doc, lines)
    return problems


def _check_peel(vb, op, code: int, doc, lines: list[str]) -> list[str]:
    """A peel solution fits the window, together with the peeled actors it
    is the whole network, and it re-evaluates to PASS."""
    if code == 1:
        output = doc if doc is not None else lines
        if output in ({"solution": None}, ["no solution found"]):
            return []
        return ["exit code 1 without 'no solution'"]
    if doc is not None:
        solution, peeled = doc["solution"], doc["report"]["peel_trace"]
        overall = doc["report"]["overall"]
    else:
        head = lines[0].removeprefix("solution: ")
        solution = head.rsplit(" (", 1)[0].split(", ")
        peeled_line = next(x for x in lines if x.startswith("peeled: "))
        peeled = _listed(peeled_line.removeprefix("peeled: "))
        overall = lines[-1] == "overall: PASS"
    problems = []
    lo, hi = op.expect["window"]
    if not (overall and lo <= len(solution) <= hi):
        problems.append(f"peel solution of {len(solution)} outside {lo}..{hi}")
    if sorted(solution + peeled) != sorted(op.graph.actors):
        problems.append("solution and peeled actors do not make up the network")
    net = vb.load_network(op.network_text, op.expect["fmt"], op.expect["symmetric"])
    reqs = vb.parse_requirements(op.requirements_text)
    if not vb.passes(net, reqs, tuple(solution), None, op.expect["view"]):
        problems.append("peel solution does not re-evaluate to PASS")
    return problems


def check_search(vb, op, net, reqs, solutions, rendered: bytes) -> list[str]:
    """Window, anchor, actor order, sort order and PASS of every solution."""
    problems: list[str] = []
    index = {a: i for i, a in enumerate(op.graph.actors)}
    previous = None
    for actors, objective in solutions:
        if not op.min_size <= len(actors) <= op.max_size:
            problems.append(f"{actors} outside the window")
        if op.anchor is not None and op.anchor not in actors:
            problems.append(f"{actors} misses the anchor")
        if objective != len(actors):
            problems.append(f"{actors} has objective {objective}")
        try:
            positions = tuple(index[a] for a in actors)
        except KeyError as exc:
            problems.append(f"unknown actor {exc}")
            continue
        if list(positions) != sorted(set(positions)):
            problems.append(f"{actors} is not in actor order")
        key = (-len(actors), positions)
        if previous is not None and key <= previous:
            problems.append(f"{actors} breaks the documented sort order")
        previous = key
        if not vb.passes(net, reqs, actors, op.anchor, op.view):
            problems.append(f"{actors} does not re-evaluate to PASS")
    if len(solutions) > op.window_subsets():
        problems.append("more solutions than subsets in the window")
    if solutions:
        doc = _json(rendered, problems)
        best = solutions[0][0]
        if doc is not None and (
            doc["overall"] is not True
            or doc["network"] != f"{op.stem}[{','.join(best)}]"
        ):
            problems.append("rendered best report is not the first solution")
    elif rendered:
        problems.append("report rendered without a solution")
    return problems
