"""Directed binary social networks over named actors.

A network is a set of actors plus a set of ordered ties; a tie ``(a, b)``
reads "a sends information to b". There are no tie weights, no self-ties,
and no parallel ties. Networks are immutable: derivations return a new
network, so instances are safe to hash. Each network memoizes its own
all-pairs distance tables, which live and die with it.

Actor order is the insertion order and every derived network preserves it,
so reports over the same data render identically from run to run.

One private builder fills every instance: the constructor calls it after
checking ids and ties, the derivations with neighbour sets cut or mirrored
from a network already checked, so they check nothing again.
"""

from __future__ import annotations

import unicodedata
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class NetworkError(ValueError):
    """A network invariant or operation precondition was violated."""


def validate_actor_id(actor_id: str) -> str:
    """Check that an actor id is usable in every serialization format."""
    if not isinstance(actor_id, str) or not actor_id:
        raise NetworkError("actor id must be a non-empty string")
    if "," in actor_id or ":" in actor_id:
        raise NetworkError(f"actor id {actor_id!r} must not contain ',' or ':'")
    if actor_id != actor_id.strip():
        raise NetworkError(
            f"actor id {actor_id!r} must not have leading or trailing whitespace"
        )
    if actor_id.startswith("#"):
        raise NetworkError(f"actor id {actor_id!r} must not start with '#'")
    # Categories Cc and Cf: control and format characters. Format characters
    # such as a byte order mark are invisible, so an id carrying one would
    # print like another actor's id.
    if any(unicodedata.category(ch) in ("Cc", "Cf") for ch in actor_id):
        raise NetworkError(
            f"actor id {actor_id!r} must not contain control or format characters"
        )
    return actor_id


@dataclass(frozen=True)
class SocialNetwork:
    """An immutable directed binary graph.

    ``actors`` keeps insertion order; ``ties`` is an unordered set of
    ``(sender, receiver)`` pairs over those actors.
    """

    actors: tuple[str, ...]
    ties: frozenset[tuple[str, str]] = frozenset()
    _out: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _in: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _distances: dict[bool, dict[str, dict[str, int]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        actors = tuple(self.actors)
        if not actors:
            raise NetworkError("a network needs at least one actor")
        seen: set[str] = set()
        for actor in actors:
            validate_actor_id(actor)
            if actor in seen:
                raise NetworkError(f"duplicate actor id {actor!r}")
            seen.add(actor)
        ties = frozenset((a, b) for a, b in self.ties)
        out: dict[str, set[str]] = {a: set() for a in actors}
        inc: dict[str, set[str]] = {a: set() for a in actors}
        for a, b in ties:
            if a not in seen or b not in seen:
                raise NetworkError(f"tie {a!r} -> {b!r} references an unknown actor")
            if a == b:
                raise NetworkError(f"self-tie on {a!r} is not allowed")
            out[a].add(b)
            inc[b].add(a)
        self._fill(
            actors,
            ties,
            {a: frozenset(out[a]) for a in actors},
            {a: frozenset(inc[a]) for a in actors},
        )

    def _fill(self, actors, ties, out, inc) -> "SocialNetwork":
        """Set every field from checked parts: the one network builder."""
        fields = ("actors", "ties", "_out", "_in", "_distances")
        for name, value in zip(fields, (actors, ties, out, inc, {})):
            object.__setattr__(self, name, value)
        return self

    # -- queries ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.actors)

    @property
    def tie_count(self) -> int:
        return len(self.ties)

    def __contains__(self, actor_id: object) -> bool:
        return actor_id in self._out

    def __iter__(self) -> Iterator[str]:
        return iter(self.actors)

    def require_actor(self, actor_id: str) -> str:
        if actor_id not in self._out:
            raise NetworkError(f"unknown actor {actor_id!r}")
        return actor_id

    def has_tie(self, sender: str, receiver: str) -> bool:
        return (sender, receiver) in self.ties

    def out_neighbors(self, actor_id: str) -> frozenset[str]:
        """Actors that ``actor_id`` sends to."""
        return self._out[self.require_actor(actor_id)]

    def in_neighbors(self, actor_id: str) -> frozenset[str]:
        """Actors that send to ``actor_id``."""
        return self._in[self.require_actor(actor_id)]

    def neighbors(self, actor_id: str) -> frozenset[str]:
        """Actors tied with ``actor_id`` in either direction."""
        self.require_actor(actor_id)
        return self._out[actor_id] | self._in[actor_id]

    def distances(self, undirected: bool = False) -> dict[str, dict[str, int]]:
        """All-pairs BFS hop counts, ``table[sender][receiver]``.

        A receiver absent from ``table[sender]`` is unreachable from it. With
        ``undirected`` the hops are counted on :meth:`symmetrized`. The table
        is computed once per network and view; treat it as read-only.
        """
        table = self._distances.get(undirected)
        if table is None:
            source = self.symmetrized() if undirected else self
            table = {}
            for start in source.actors:
                dist = {start: 0}
                queue = deque([start])
                while queue:
                    node = queue.popleft()
                    for nxt in source._out[node]:
                        if nxt not in dist:
                            dist[nxt] = dist[node] + 1
                            queue.append(nxt)
                table[start] = dist
            self._distances[undirected] = table
        return table

    # -- derivations -----------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "SocialNetwork":
        """The subnetwork on ``subset``, keeping only internal ties.

        Actor order follows this network, not the order of ``subset``. The
        ids and ties were validated when this network was built, so the
        subnetwork is cut from its neighbour sets without checking them
        again.
        """
        wanted = frozenset(subset)
        for actor in wanted:
            self.require_actor(actor)
        if not wanted:
            raise NetworkError("an induced subnetwork needs at least one actor")
        actors = tuple(a for a in self.actors if a in wanted)
        out = {a: self._out[a] & wanted for a in actors}
        inc = {a: self._in[a] & wanted for a in actors}
        ties = frozenset((a, b) for a in actors for b in out[a])
        return object.__new__(SocialNetwork)._fill(actors, ties, out, inc)

    def symmetrized(self) -> "SocialNetwork":
        """The undirected view: every tie is made mutual."""
        mirrored = self.ties | {(b, a) for a, b in self.ties}
        if mirrored == self.ties:
            return self
        both = {a: self._out[a] | self._in[a] for a in self.actors}
        return object.__new__(SocialNetwork)._fill(self.actors, mirrored, both, both)
