"""Formula AST, concrete-syntax parser, and printer for the permission language.

The core grammar has propositions, negation, disjunction, and four unary
modalities indexed by an agent:

    WA[a] f   some permitted action of a admits f (f possible afterwards)
    WE[a] f   some permitted action of a ensures f (f guaranteed afterwards)
    SE[a] f   every action of a that ensures f is permitted
    SA[a] f   every action of a that admits f is permitted

Conjunction, implication, and the boolean constants are surface sugar and are
desugared on construction; the AST only ever contains Prop/Neg/Or/Modal nodes.
``true`` is represented as ``__top | !__top`` over a reserved proposition that
user valuations must not define.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .errors import ParseError

TOP_PROP = "__top"


class Modality(Enum):
    WA = "WA"
    WE = "WE"
    SE = "SE"
    SA = "SA"

    def __str__(self) -> str:
        return self.value


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __invert__(self) -> "Formula":
        return Neg(self)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __and__(self, other: "Formula") -> "Formula":
        return and_(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return implies(self, other)

    def __str__(self) -> str:
        return format_formula(self)


# Each node caches its hash at construction. Children are built first, so the
# computation is O(1) per node and never recurses, keeping memoized model
# checking linear in formula size and deep trees clear of the recursion limit.


def _cached_hash(self) -> int:
    return self._hash


def cache_hash(node: type) -> type:
    """Class decorator for a frozen dataclass node: hash instances by the
    ``_hash`` field that its ``__post_init__`` computes."""
    node.__hash__ = _cached_hash  # type: ignore[assignment]
    return node


@cache_hash
@dataclass(frozen=True, slots=True)
class Prop(Formula):
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("Prop", self.name)))


@cache_hash
@dataclass(frozen=True, slots=True)
class Neg(Formula):
    child: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("Neg", self.child._hash)))


@cache_hash
@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("Or", self.left._hash, self.right._hash)))


@cache_hash
@dataclass(frozen=True, slots=True)
class Modal(Formula):
    kind: Modality
    agent: str
    child: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash(("Modal", self.kind, self.agent, self.child._hash))
        )


TOP: Formula = Or(Prop(TOP_PROP), Neg(Prop(TOP_PROP)))
BOT: Formula = Neg(TOP)


def top() -> Formula:
    return TOP


def bot() -> Formula:
    return BOT


def and_(left: Formula, right: Formula) -> Formula:
    return Neg(Or(Neg(left), Neg(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Neg(left), right)


def conj(items: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; the empty conjunction is ``true``."""
    items = list(items)
    if not items:
        return TOP
    out = items[-1]
    for f in reversed(items[:-1]):
        out = and_(f, out)
    return out


def disj(items: Iterable[Formula]) -> Formula:
    """Right-nested disjunction; the empty disjunction is ``false``."""
    items = list(items)
    if not items:
        return BOT
    out = items[-1]
    for f in reversed(items[:-1]):
        out = Or(f, out)
    return out


def match_and(f: Formula) -> tuple[Formula, Formula] | None:
    """Recognize the desugared shape of a conjunction, if ``f`` has it."""
    if (
        isinstance(f, Neg)
        and isinstance(f.child, Or)
        and isinstance(f.child.left, Neg)
        and isinstance(f.child.right, Neg)
    ):
        return f.child.left.child, f.child.right.child
    return None


def match_implies(f: Formula) -> tuple[Formula, Formula] | None:
    """Read ``f`` as an implication ``x -> y`` when it has the shape ``!x | y``."""
    if isinstance(f, Or) and isinstance(f.left, Neg):
        return f.left.child, f.right
    return None


def size(f: Formula) -> int:
    """Node count of the (desugared) tree."""
    stack, n = [f], 0
    while stack:
        g = stack.pop()
        n += 1
        if isinstance(g, Neg):
            stack.append(g.child)
        elif isinstance(g, Or):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Modal):
            stack.append(g.child)
    return n


def modal_depth(f: Formula) -> int:
    """Greatest number of modalities on one root-to-leaf path."""
    stack, depth = [(f, 0)], 0
    while stack:
        g, d = stack.pop()
        depth = max(depth, d)
        if isinstance(g, Or):
            stack += ((g.left, d), (g.right, d))
        elif isinstance(g, Neg):
            stack.append((g.child, d))
        elif isinstance(g, Modal):
            stack.append((g.child, d + 1))
        elif not isinstance(g, Prop):
            raise TypeError(f"not a formula node: {g!r}")
    return depth


def subformulas(f: Formula) -> Iterator[Formula]:
    """All nodes of the tree, parents before children."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, Neg) or isinstance(g, Modal):
            stack.append(g.child)
        elif isinstance(g, Or):
            stack.append(g.left)
            stack.append(g.right)


def propositions(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Prop)}


# --- parsing ---------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"->|[!&|()\[\]]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self, k: int = 0) -> str | None:
        j = self.i + k
        return self.tokens[j][0] if j < len(self.tokens) else None

    def _pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def _take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def _expect(self, tok: str) -> None:
        if self._peek() != tok:
            raise ParseError(f"found {self._peek()!r}", self._pos(), (repr(tok),))
        self.i += 1

    def formula(self) -> Formula:
        left = self.disjunction()
        if self._peek() == "->":
            self.i += 1
            return implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self._peek() == "|":
            self.i += 1
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self._peek() == "&":
            self.i += 1
            left = and_(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self._peek()
        if tok == "!":
            self.i += 1
            return Neg(self.unary())
        if tok is not None and self._peek(1) == "[" and _IDENT_RE.fullmatch(tok):
            if tok not in Modality.__members__:
                raise ParseError(
                    f"unknown modality keyword {tok!r}",
                    self._pos(),
                    tuple(sorted(Modality.__members__)),
                )
            kind = Modality[self._take()]
            self._expect("[")
            agent = self._peek()
            if agent is None or not _IDENT_RE.fullmatch(agent):
                raise ParseError(f"found {agent!r}", self._pos(), ("agent name",))
            self.i += 1
            self._expect("]")
            return Modal(kind, agent, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self._peek()
        if tok == "true":
            self.i += 1
            return TOP
        if tok == "false":
            self.i += 1
            return BOT
        if tok == "(":
            self.i += 1
            f = self.formula()
            self._expect(")")
            return f
        if tok is not None and _IDENT_RE.fullmatch(tok):
            self.i += 1
            return Prop(tok)
        raise ParseError(
            f"found {tok!r}",
            self._pos(),
            ("proposition", "'true'", "'false'", "'!'", "'('", "modality"),
        )


def parse(text: str) -> Formula:
    """Parse concrete syntax into a desugared AST.

    Precedence, tightest first: modal prefix and ``!``, then ``&``, ``|``,
    and right-associative ``->``.
    """
    p = _Parser(text)
    f = p.formula()
    if p.i < len(p.tokens):
        raise ParseError(f"trailing input {p._peek()!r}", p._pos(), ("end of input",))
    return f


# --- printing ---------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse(format_formula(f)) == f``."""
    if f == TOP:
        return "true"
    if f == BOT:
        return "false"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Neg):
        return "!" + _unary_operand(f.child)
    if isinstance(f, Modal):
        return f"{f.kind.value}[{f.agent}] " + _unary_operand(f.child)
    if isinstance(f, Or):
        # Left-nested chains print without parentheses (| parses left-associative).
        right = format_formula(f.right)
        if isinstance(f.right, Or) and f.right != TOP:
            right = "(" + right + ")"
        return format_formula(f.left) + " | " + right
    raise TypeError(f"not a formula node: {f!r}")


def _unary_operand(f: Formula) -> str:
    s = format_formula(f)
    if isinstance(f, Or) and f != TOP:
        return "(" + s + ")"
    return s
