"""Line-oriented text format for requirement sets.

One statement per line. Blank lines and lines starting with ``#`` are
ignored. Statements::

    set <name>                      requirement-set name (optional, first)
    anchor [<actor-id>]             anchor designation; id may be left for
                                    evaluation time (rest of line is the id)
    require [<label> :] <body>      one requirement; omitted labels are
                                    auto-assigned r1, r2, ...

Bodies::

    <network-metric> <cmp> <value>
    forall actor [except anchor] ( <predicate> )
    count actor ( <predicate> ) <cmp> <bound>
    exists <cmp> <bound> actor ( <predicate> )      # sugar for count
    path all->all|anchor->others|others->others <cmp> <integer>

A predicate combines atoms with ``and`` / ``or`` / ``not`` and parentheses
(``or`` binds loosest, then ``and``, then ``not``). An atom is
``<actor-metric> <cmp> <reference>`` with an optional trailing ``@parent``,
which evaluates it against the parent network. A reference is a literal or
``avg_others(<actor-metric>)``.

Literals: integers (``5``), fractions (``4/5``), decimals (``0.8``), and
percentages (``80%`` means 80/100). Thresholds for the metrics that range
over [0, 1] (density, in_density, out_density, recip_density, recip_ratio)
must land in [0, 1]; the percent form is the idiomatic spelling. A count
bound written as a bare integer is an absolute count; a percentage or any
non-integer literal is a fraction of network size.

Comparators: ``<  <=  ==  >=  >`` (a single ``=`` is accepted for ``==``).

``serialize_requirements`` emits a canonical form of all of this, and
parse -> serialize -> parse is the identity on the AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .metrics import ACTOR_METRICS, NETWORK_METRICS, UNIT_INTERVAL_METRICS, MetricId
from .requirements import (
    AnchorDesignation,
    And,
    Atom,
    AvgOfOthers,
    Comparator,
    CountActors,
    ForAllActors,
    NetworkConstraint,
    Not,
    Or,
    PairwisePath,
    PathScope,
    Requirement,
    RequirementError,
    RequirementSet,
)
from .values import fraction_str


class RequirementSyntaxError(ValueError):
    """A requirements file failed to parse; carries line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<arrow>->)
    | (?P<cmp><=|>=|==|<|>|=)
    | (?P<number>\d+/\d+|\d+(?:\.\d+)?%?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]+)*)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<colon>:)
    | (?P<at>@)
    """,
    re.VERBOSE,
)

_CMP_BY_TEXT = {c.value: c for c in Comparator} | {"=": Comparator.EQ}

_METRIC_BY_NAME = {m.value: m for m in MetricId} | {
    "reciprocated_tie_ratio": MetricId.RECIPROCATED_TIE_RATIO,
    "reciprocated_partner_count": MetricId.RECIPROCATED_PARTNER_COUNT,
    "reciprocated_density": MetricId.RECIPROCATED_DENSITY,
}

_PATH_SCOPES = {scope.value: scope for scope in PathScope}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    col: int  # 1-based


def _tokenize(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise RequirementSyntaxError(
                f"unexpected character {text[pos]!r}", line_no, pos + 1
            )
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), pos + 1))
        pos = match.end()
    return tokens


def _parse_number(text: str) -> int | Fraction:
    """Integer literals come back as int, every other literal as a Fraction."""
    if text.endswith("%"):
        return Fraction(text[:-1]) / 100
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ZeroDivisionError
        return Fraction(int(num), int(den))
    if "." in text:
        return Fraction(text)
    return int(text)


class _LineParser:
    """Recursive-descent parser over one statement's tokens."""

    def __init__(self, tokens: list[_Token], line_no: int, line_len: int) -> None:
        self.tokens = tokens
        self.line_no = line_no
        self.line_len = line_len
        self.pos = 0

    def error(self, message: str, token: _Token | None = None) -> RequirementSyntaxError:
        col = token.col if token is not None else self.line_len + 1
        return RequirementSyntaxError(message, self.line_no, col)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str, what: str = "") -> _Token:
        token = self.peek()
        if token is None:
            raise self.error(f"unexpected end of line; expected {what or expect}")
        if token.kind != expect:
            raise self.error(
                f"expected {what or expect}, got {token.text!r}", token
            )
        self.pos += 1
        return token

    def at(self, text: str) -> bool:
        """Consume the next token if it reads ``text``."""
        token = self.peek()
        if token is None or token.text != text:
            return False
        self.pos += 1
        return True

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(f"unexpected trailing {token.text!r}", token)

    def build(self, node, token: _Token, *args):
        """``node(*args)``, reporting the node's own check as an error at ``token``."""
        try:
            return node(*args)
        except RequirementError as exc:
            raise self.error(str(exc), token) from None

    # -- pieces ----------------------------------------------------------

    def comparator(self) -> Comparator:
        token = self.next("cmp", "a comparator")
        return _CMP_BY_TEXT[token.text]

    def literal(self) -> tuple[int | Fraction, _Token]:
        token = self.next("number", "a number")
        try:
            value = _parse_number(token.text)
            str(value)  # rendering must be able to write the value back
        except ZeroDivisionError:
            raise self.error("zero denominator", token) from None
        except ValueError:
            # Python refuses int <-> str conversions past a digit limit.
            raise self.error("number has too many digits", token) from None
        return value, token

    def metric(self, scope: frozenset[MetricId], scope_word: str) -> MetricId:
        token = self.next("name", "a metric name")
        metric = _METRIC_BY_NAME.get(token.text)
        if metric is None:
            raise self.error(f"unknown metric {token.text!r}", token)
        if metric not in scope:
            other = "actor" if scope_word == "network" else "network"
            raise self.error(
                f"{metric.value} is {other}-scoped; expected a {scope_word} metric",
                token,
            )
        return metric

    def keyword(self, word: str) -> None:
        token = self.next("name", f"'{word}'")
        if token.text != word:
            raise self.error(f"expected '{word}', got {token.text!r}", token)

    # -- bodies ------------------------------------------------------------

    def body(self) -> NetworkConstraint | ForAllActors | CountActors | PairwisePath:
        token = self.peek()
        if token is None:
            raise self.error("missing requirement body")
        read = self.KEYWORD_BODIES.get(token.text)
        if read is None:
            return self.network_body()
        self.pos += 1
        return read(self)

    def network_body(self) -> NetworkConstraint:
        metric = self.metric(NETWORK_METRICS, "network")
        cmp = self.comparator()
        value, token = self.literal()
        return self.build(NetworkConstraint, token, metric, cmp, value)

    def forall_body(self) -> ForAllActors:
        self.keyword("actor")
        except_anchor = self.at("except")
        if except_anchor:
            self.keyword("anchor")
        return ForAllActors(self.parenthesized(), except_anchor)

    def count_body(self) -> CountActors:
        self.keyword("actor")
        predicate = self.parenthesized()
        cmp = self.comparator()
        bound, token = self.literal()
        return self.count(predicate, cmp, bound, token)

    def exists_body(self) -> CountActors:
        cmp = self.comparator()
        bound, token = self.literal()
        self.keyword("actor")
        return self.count(self.parenthesized(), cmp, bound, token)

    def count(self, predicate, cmp: Comparator, bound, token: _Token) -> CountActors:
        # Any literal but a bare integer is a fraction of network size.
        fraction_of_size = not isinstance(bound, int)
        return self.build(CountActors, token, predicate, cmp, bound, fraction_of_size)

    def path_body(self) -> PairwisePath:
        scope_token = self.next("name", "a path scope")
        arrow = self.next("arrow", "'->'")
        target = self.next("name", "a path scope target")
        spelled = f"{scope_token.text}{arrow.text}{target.text}"
        scope = _PATH_SCOPES.get(spelled)
        if scope is None:
            raise self.error(
                f"unknown path scope {spelled!r}; use all->all, "
                f"anchor->others, or others->others",
                scope_token,
            )
        cmp = self.comparator()
        value, token = self.literal()
        return self.build(PairwisePath, token, scope, cmp, value)

    # The keyword that opens a body, read by ``body``; any other body is a
    # network constraint.
    KEYWORD_BODIES = {
        "forall": forall_body,
        "count": count_body,
        "exists": exists_body,
        "path": path_body,
    }

    # -- predicates --------------------------------------------------------

    def parenthesized(self):
        self.next("lparen", "'('")
        predicate = self.joined("or", Or, self.conjunction)
        self.next("rparen", "')'")
        return predicate

    def conjunction(self):
        return self.joined("and", And, self.unary)

    def joined(self, word: str, node, part):
        """``part`` once, or two or more times joined by ``word`` into ``node``."""
        parts = [part()]
        while self.at(word):
            parts.append(part())
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def unary(self):
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of predicate")
        if self.at("not"):
            return Not(self.unary())
        if token.kind == "lparen":
            return self.parenthesized()
        return self.atom()

    def atom(self) -> Atom:
        metric = self.metric(ACTOR_METRICS, "actor")
        cmp = self.comparator()
        reference, token = self.reference()
        on_parent = self.at("@")
        if on_parent:
            self.keyword("parent")
        return self.build(Atom, token, metric, cmp, reference, on_parent)

    def reference(self) -> tuple[object, _Token]:
        token = self.peek()
        if self.at("avg_others"):
            self.next("lparen", "'('")
            metric = self.metric(ACTOR_METRICS, "actor")
            self.next("rparen", "')'")
            return AvgOfOthers(metric), token
        return self.literal()


def parse_requirements(text: str) -> RequirementSet:
    """Parse requirements-file content into a :class:`RequirementSet`."""
    name: str | None = None
    requirements: list[Requirement] = []
    positions: list[tuple[int, int]] = []  # (line, column) per requirement
    saw_statement = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = _tokenize(raw, line_no)
        parser = _LineParser(tokens, line_no, len(raw))
        head = parser.next("name", "a statement (set / anchor / require)")
        if head.text == "set":
            if name is not None:
                raise parser.error("duplicate 'set' statement", head)
            if saw_statement:
                raise parser.error("'set' must come before any requirement", head)
            name_token = parser.next("name", "a set name")
            parser.expect_end()
            name = name_token.text
            continue
        saw_statement = True
        if head.text == "anchor":
            rest = raw[raw.index("anchor", head.col - 1) + len("anchor") :].strip()
            body: object = parser.build(AnchorDesignation, head, rest or None)
            label = "anchor"
        elif head.text == "require":
            label = f"r{len(requirements) + 1}"
            if [token.kind for token in tokens[1:3]] == ["name", "colon"]:
                label, parser.pos = tokens[1].text, 3
            body = parser.body()
            parser.expect_end()
        else:
            raise parser.error(
                f"unknown statement {head.text!r}; expected set, anchor, or require",
                head,
            )
        requirements.append(Requirement(label, body))
        positions.append((line_no, head.col))
    try:
        return RequirementSet(name or "requirements", tuple(requirements))
    except RequirementError as exc:
        line, col = (1, 1) if exc.index is None else positions[exc.index]
        raise RequirementSyntaxError(str(exc), line, col) from None


# -- serialization -----------------------------------------------------------


def render_literal(value: int | Fraction, percent: bool) -> str:
    """Canonical literal: a whole percent for a non-int unit-range value
    that has one, else the value as :func:`fraction_str` writes it."""
    if percent and not isinstance(value, int):
        scaled = Fraction(value) * 100
        if scaled.denominator == 1:
            return f"{scaled.numerator}%"
    return fraction_str(value)


def render_reference(atom: Atom) -> str:
    ref = atom.reference
    if isinstance(ref, AvgOfOthers):
        return f"avg_others({ref.metric.value})"
    return render_literal(ref, atom.metric in UNIT_INTERVAL_METRICS)


def render_atom(atom: Atom) -> str:
    suffix = " @parent" if atom.on_parent else ""
    return f"{atom.metric.value} {atom.cmp.value} {render_reference(atom)}{suffix}"


def render_predicate(pred) -> str:
    if isinstance(pred, Atom):
        return render_atom(pred)
    if isinstance(pred, Not):
        return f"not ({render_predicate(pred.part)})"

    def wrap(part) -> str:
        text = render_predicate(part)
        return text if isinstance(part, Atom) else f"({text})"

    joiner = " and " if isinstance(pred, And) else " or "
    return joiner.join(wrap(p) for p in pred.parts)


def render_body(body) -> str:
    """Text of any body but a designation, which ``serialize_requirements``
    writes as its own ``anchor`` line; the rest is a ``PairwisePath``."""
    if isinstance(body, NetworkConstraint):
        literal = render_literal(
            body.threshold, body.metric in UNIT_INTERVAL_METRICS
        )
        return f"{body.metric.value} {body.cmp.value} {literal}"
    if isinstance(body, ForAllActors):
        scope = "actor except anchor" if body.except_anchor else "actor"
        return f"forall {scope} ({render_predicate(body.predicate)})"
    if isinstance(body, CountActors):
        return (
            f"count actor ({render_predicate(body.predicate)}) "
            f"{body.cmp.value} {render_literal(body.bound, body.fraction_of_size)}"
        )
    return f"path {body.between.value} {body.cmp.value} {body.threshold}"


def serialize_requirements(reqs: RequirementSet) -> str:
    """Canonical text for a requirement set; reparses to an equal AST."""
    lines = [f"set {reqs.name}"]
    for req in reqs.requirements:
        if isinstance(req.body, AnchorDesignation):
            if req.body.anchor is None:
                lines.append("anchor")
            else:
                lines.append(f"anchor {req.body.anchor}")
        else:
            lines.append(f"require {req.label} : {render_body(req.body)}")
    return "\n".join(lines) + "\n"
