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


def _parse_number(text: str) -> tuple[int | Fraction, bool]:
    """Return (value, was_percent). Integer literals come back as int."""
    if text.endswith("%"):
        return Fraction(text[:-1]) / 100, True
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ZeroDivisionError
        return Fraction(int(num), int(den)), False
    if "." in text:
        return Fraction(text), False
    return int(text), False


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

    def next(self, expect: str | None = None, what: str = "") -> _Token:
        token = self.peek()
        if token is None:
            raise self.error(f"unexpected end of line; expected {what or expect}")
        if expect is not None and token.kind != expect:
            raise self.error(
                f"expected {what or expect}, got {token.text!r}", token
            )
        self.pos += 1
        return token

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise self.error(f"unexpected trailing {token.text!r}", token)

    # -- pieces ----------------------------------------------------------

    def comparator(self) -> Comparator:
        token = self.next("cmp", "a comparator")
        return _CMP_BY_TEXT[token.text]

    def literal(self) -> tuple[int | Fraction, bool, _Token]:
        token = self.next("number", "a number")
        try:
            value, was_percent = _parse_number(token.text)
            str(value)  # rendering must be able to write the value back
        except ZeroDivisionError:
            raise self.error("zero denominator", token) from None
        except ValueError:
            # Python refuses int <-> str conversions past a digit limit.
            raise self.error("number has too many digits", token) from None
        return value, was_percent, token

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

    def body(self) -> NetworkConstraint | ForAllActors | CountActors | PairwisePath:
        token = self.peek()
        if token is None:
            raise self.error("missing requirement body")
        if token.kind == "name" and token.text == "forall":
            return self.forall_body()
        if token.kind == "name" and token.text == "count":
            return self.count_body()
        if token.kind == "name" and token.text == "exists":
            return self.exists_body()
        if token.kind == "name" and token.text == "path":
            return self.path_body()
        return self.network_body()

    def network_body(self) -> NetworkConstraint:
        metric = self.metric(NETWORK_METRICS, "network")
        cmp = self.comparator()
        value, _, value_token = self.literal()
        try:
            return NetworkConstraint(metric, cmp, value)
        except RequirementError as exc:
            raise self.error(str(exc), value_token) from None

    def forall_body(self) -> ForAllActors:
        self.next("name")  # forall
        self.keyword("actor")
        except_anchor = False
        token = self.peek()
        if token is not None and token.kind == "name" and token.text == "except":
            self.next("name")
            self.keyword("anchor")
            except_anchor = True
        self.next("lparen", "'('")
        predicate = self.predicate()
        self.next("rparen", "')'")
        return ForAllActors(predicate, except_anchor)

    def count_body(self) -> CountActors:
        self.next("name")  # count
        self.keyword("actor")
        self.next("lparen", "'('")
        predicate = self.predicate()
        self.next("rparen", "')'")
        cmp = self.comparator()
        return self.finish_count(predicate, cmp)

    def exists_body(self) -> CountActors:
        self.next("name")  # exists
        cmp = self.comparator()
        bound, bound_was_percent, bound_token = self.literal()
        self.keyword("actor")
        self.next("lparen", "'('")
        predicate = self.predicate()
        self.next("rparen", "')'")
        return self.build_count(predicate, cmp, bound, bound_was_percent, bound_token)

    def finish_count(self, predicate, cmp: Comparator) -> CountActors:
        bound, was_percent, token = self.literal()
        return self.build_count(predicate, cmp, bound, was_percent, token)

    def build_count(
        self, predicate, cmp: Comparator, bound, was_percent: bool, token: _Token
    ) -> CountActors:
        fraction_of_size = was_percent or not isinstance(bound, int)
        try:
            return CountActors(predicate, cmp, bound, fraction_of_size)
        except RequirementError as exc:
            raise self.error(str(exc), token) from None

    def path_body(self) -> PairwisePath:
        self.next("name")  # path
        scope_token = self.next("name", "a path scope")
        parts = [scope_token.text]
        arrow = self.next("arrow", "'->'")
        target = self.next("name", "a path scope target")
        spelled = f"{parts[0]}{arrow.text}{target.text}"
        scope = _PATH_SCOPES.get(spelled)
        if scope is None:
            raise self.error(
                f"unknown path scope {spelled!r}; use all->all, "
                f"anchor->others, or others->others",
                scope_token,
            )
        cmp = self.comparator()
        value, was_percent, token = self.literal()
        if was_percent or not isinstance(value, int):
            raise self.error("path thresholds must be integers", token)
        return PairwisePath(scope, cmp, value)

    def keyword(self, word: str) -> None:
        token = self.next("name", f"'{word}'")
        if token.text != word:
            raise self.error(f"expected '{word}', got {token.text!r}", token)

    # -- predicates --------------------------------------------------------

    def predicate(self):
        return self.or_expr()

    def or_expr(self):
        parts = [self.and_expr()]
        while True:
            token = self.peek()
            if token is None or token.kind != "name" or token.text != "or":
                break
            self.next("name")
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self):
        parts = [self.unary_expr()]
        while True:
            token = self.peek()
            if token is None or token.kind != "name" or token.text != "and":
                break
            self.next("name")
            parts.append(self.unary_expr())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary_expr(self):
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of predicate")
        if token.kind == "name" and token.text == "not":
            self.next("name")
            return Not(self.unary_expr())
        if token.kind == "lparen":
            self.next("lparen")
            inner = self.predicate()
            self.next("rparen", "')'")
            return inner
        return self.atom()

    def atom(self) -> Atom:
        metric_token = self.peek()
        metric = self.metric(ACTOR_METRICS, "actor")
        cmp = self.comparator()
        reference, ref_token = self.reference()
        on_parent = False
        token = self.peek()
        if token is not None and token.kind == "at":
            self.next("at")
            self.keyword("parent")
            on_parent = True
        try:
            return Atom(metric, cmp, reference, on_parent)
        except RequirementError as exc:
            raise self.error(str(exc), ref_token or metric_token) from None

    def reference(self) -> tuple[object, _Token | None]:
        token = self.peek()
        if token is not None and token.kind == "name" and token.text == "avg_others":
            self.next("name")
            self.next("lparen", "'('")
            metric = self.metric(ACTOR_METRICS, "actor")
            self.next("rparen", "')'")
            return AvgOfOthers(metric), token
        value, _, value_token = self.literal()
        return value, value_token


def parse_requirements(text: str) -> RequirementSet:
    """Parse requirements-file content into a :class:`RequirementSet`."""
    name: str | None = None
    requirements: list[Requirement] = []
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
            anchor_id = rest or None
            try:
                body: object = AnchorDesignation(anchor_id)
            except ValueError as exc:
                raise RequirementSyntaxError(str(exc), line_no, head.col) from None
            requirements.append(Requirement("anchor", body))
            continue
        if head.text == "require":
            label = None
            token = parser.peek()
            if (
                token is not None
                and token.kind == "name"
                and parser.pos + 1 < len(tokens)
                and tokens[parser.pos + 1].kind == "colon"
            ):
                label = parser.next("name").text
                parser.next("colon")
            body = parser.body()
            parser.expect_end()
            if label is None:
                label = f"r{len(requirements) + 1}"
            requirements.append(Requirement(label, body))
            continue
        raise parser.error(
            f"unknown statement {head.text!r}; expected set, anchor, or require",
            head,
        )
    try:
        return RequirementSet(name or "requirements", tuple(requirements))
    except RequirementError as exc:
        raise RequirementSyntaxError(str(exc), 1, 1) from None


# -- serialization -----------------------------------------------------------


def render_literal(value: int | Fraction, percent: bool) -> str:
    """Canonical literal: whole percents for unit-range values, else n/d."""
    if isinstance(value, int):
        return str(value)
    frac = Fraction(value)
    if frac.denominator == 1 and not percent:
        return str(frac.numerator)
    if percent:
        scaled = frac * 100
        if scaled.denominator == 1:
            return f"{scaled.numerator}%"
    return f"{frac.numerator}/{frac.denominator}"


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

    if isinstance(pred, And):
        return " and ".join(wrap(p) for p in pred.parts)
    if isinstance(pred, Or):
        return " or ".join(wrap(p) for p in pred.parts)
    raise TypeError(f"not a predicate: {pred!r}")


def render_body(body) -> str:
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
    if isinstance(body, PairwisePath):
        return f"path {body.between.value} {body.cmp.value} {body.threshold}"
    raise TypeError(f"not a requirement body: {body!r}")


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
