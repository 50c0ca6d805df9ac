"""Formula nodes, concrete-syntax parser, and printer for the permission language.

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

Nodes are interned: every constructor goes through one weak-value table keyed
by (class, fields), so equal formulas are one object, equality is identity
and the hash is the default identity hash. Each node lists its subformulas in
``children``, and ``postorder`` is the one walk: an explicit stack, children
before parents, each distinct node once. On it ``fold`` labels ``Neg`` and
``Or`` nodes with two given operations and any other node with a given
``leaf``; the checker, the game, the tautology check and the rewriters are
folds. The parser is an operator-precedence loop with explicit stacks, and
the printer keeps its pending text on a stack, so no Python recursion
follows formula depth: depth is bounded by memory only.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from enum import Enum
from functools import partial
from typing import Any, Callable, Container, Iterable, Iterator

from .errors import ParseError

TOP_PROP = "__top"
# an agent or proposition name, as the tokenizer reads it
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Modality(Enum):
    WA = "WA"
    WE = "WE"
    SE = "SE"
    SA = "SA"

    __hash__ = object.__hash__  # members are singletons; keeps node keys hashing in C

    def __str__(self) -> str:
        return self.value


# (class, *fields) -> weak reference to the one live node with those fields
_nodes: dict[tuple, _Ref] = {}


class _Ref(weakref.ref):
    """A weak reference to a node that remembers the node's table key."""

    __slots__ = ("key",)


def _forget(ref: _Ref, table: dict = _nodes, remove: Callable = _remove_dead_weakref) -> None:
    """Drop a dead node's table entry, unless a live node has taken the key.
    The defaults keep the callback working while the module is torn down."""
    remove(table, ref.key)


def _immutable(self: Formula, *args: Any) -> None:
    raise AttributeError(f"{type(self).__name__} nodes are immutable")


class Formula:
    """Base class for formula nodes: immutable, interned, compared by identity.

    A subclass names its constructor arguments in ``__slots__``; the last
    ``_arity`` of them are its children. ``_text`` formats a leaf, or the
    prefix of a unary node, for the printer."""

    __slots__ = ("children", "__weakref__")
    children: tuple[Formula, ...]
    _arity = 0

    def __new__(cls, *args: Any) -> Any:
        key = (cls, *args)
        ref = _nodes.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        setters = cls._setters
        if len(args) != len(setters):
            raise TypeError(f"{cls.__name__} takes {len(setters)} arguments, got {len(args)}")
        children = args[len(args) - cls._arity :]
        for c in children:
            if not isinstance(c, Formula):
                raise TypeError(f"the children of {cls.__name__} must be formula nodes")
        node = object.__new__(cls)
        for set_field, value in zip(setters, args):
            set_field(node, value)
        _set_children(node, children)
        # One atomic setdefault decides which of several concurrent builders
        # wins; a dead entry whose removal is still pending is cleared first.
        mine = _Ref(node, _forget)
        mine.key = key
        while (ref := _nodes.setdefault(key, mine)) is not mine:
            other = ref()
            if other is not None:
                return other
            _remove_dead_weakref(_nodes, key)
        return node

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {format_formula(self)}>"

    def __str__(self) -> str:
        return format_formula(self)


class Prop(Formula):
    __slots__ = ("name",)
    name: str
    _text = "{0.name}"


class Neg(Formula):
    __slots__ = ("child",)
    child: Formula
    _arity = 1
    _text = "!"


class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula
    _arity = 2


class Modal(Formula):
    __slots__ = ("kind", "agent", "child")
    kind: Modality
    agent: str
    child: Formula
    _arity = 1
    _text = "{0.kind.value}[{0.agent}] "


_set_children = Formula.children.__set__

TOP: Formula = Or(Prop(TOP_PROP), Neg(Prop(TOP_PROP)))
BOT: Formula = Neg(TOP)


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


def postorder(
    f: Formula, done: Container[Formula], leaves: type | tuple[type, ...] = ()
) -> Iterator[Formula]:
    """Each distinct node of ``f`` not in ``done``, children before parents,
    left to right, from an explicit stack.

    The caller adds every node it is given to ``done`` (typically a dict of
    per-node results) before asking for the next one; nodes already in
    ``done`` are neither entered nor given. The children of nodes of the
    ``leaves`` classes are not entered."""
    stack: list[Formula | None] = [f]
    while stack:
        g = stack.pop()
        if g is None:  # the children of the node below it are done
            yield stack.pop()  # type: ignore[misc]
        elif g not in done:
            stack += (g, None)
            if not isinstance(g, leaves):
                stack += g.children[::-1]


def fold(f: Formula, memo: dict, neg: Callable, or_: Callable, leaf: Callable) -> Any:
    """The label of ``f`` in ``memo``, after labelling each node of ``f`` not
    yet in ``memo``, children first: an ``Or`` node with ``or_`` of its
    sides' labels, a ``Neg`` node with ``neg`` of its child's, and any other
    node with ``leaf(node)``, which reads its children's labels in ``memo``."""
    for g in postorder(f, memo):
        if isinstance(g, Or):
            memo[g] = or_(memo[g.left], memo[g.right])
        elif isinstance(g, Neg):
            memo[g] = neg(memo[g.child])
        else:
            memo[g] = leaf(g)
    return memo[f]


def size(f: Formula) -> int:
    """Node count of the (desugared) tree; a shared subformula counts once
    per occurrence."""
    sizes: dict[Formula, int] = {}
    for g in postorder(f, sizes):
        sizes[g] = 1 + sum(sizes[c] for c in g.children)
    return sizes[f]


def modal_depth(f: Formula) -> int:
    """Greatest number of modalities on one root-to-leaf path."""
    depths: dict[Formula, int] = {}
    for g in postorder(f, depths):
        depths[g] = max([depths[c] for c in g.children], default=0) + isinstance(g, Modal)
    return depths[f]


def subformulas(f: Formula, leaves: type | tuple[type, ...] = ()) -> Iterator[Formula]:
    """Each distinct node of ``f`` once, children before parents, left to
    right; the children of nodes of the ``leaves`` classes are not entered."""
    seen: set[Formula] = set()
    for g in postorder(f, seen, leaves):
        seen.add(g)
        yield g


# --- parsing ---------------------------------------------------------------

# optional whitespace, then a token or, in group 2, a character no token starts with
_TOKEN_RE = re.compile(rf"\s*(?:(->|[!&|()\[\]]|{IDENTIFIER.pattern})|(\S))")
# the tokens that are not identifiers, and the end of input
_SYMBOLS = frozenset(("->", "!", "&", "|", "(", ")", "[", "]", None))
_KINDS = Modality.__members__


def _tokenize(text: str) -> list[tuple[str | None, int]]:
    """The tokens with their positions, then ``(None, len(text))`` for the end."""
    tokens: list[tuple[str | None, int]] = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m.group(2)!r}", m.start(2))
        tokens.append((m.group(1), m.start(1)))
    tokens.append((None, len(text)))
    return tokens


def _found(tok: str | None) -> str:
    """The error message for an unexpected token, or for the end of input."""
    return "found end of input" if tok is None else f"found {tok!r}"


_OPERAND = ("proposition", "'true'", "'false'", "'!'", "'('", "modality")
_PREFIX = 4  # binding power of ! and of a modal prefix; an open parenthesis has 0
# binary operator -> (binding power, constructor); -> is right-associative
_BINARY = {"&": (3, and_), "|": (2, Or), "->": (1, implies)}


def parse(text: str) -> Formula:
    """Parse concrete syntax into a desugared AST.

    Precedence, tightest first: modal prefix and ``!``, then ``&``, ``|``,
    and right-associative ``->``. One operator-precedence loop over the
    tokens, with explicit operand and operator stacks.
    """
    tokens = _tokenize(text)
    operands: list[Formula] = []
    ops: list[tuple[int, Callable[..., Formula] | None]] = []  # (binding power, constructor)
    depth = 0  # open parentheses
    i = 0

    def reduce(bound: int) -> None:
        """Apply the pending operators that bind at least as tightly as ``bound``."""
        while ops and ops[-1][0] >= bound:
            power, build = ops.pop()
            if power == _PREFIX:
                operands[-1] = build(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = build(operands[-1], right)

    while True:
        # Operand position: prefix operators and open parentheses, then an atom.
        tok, pos = tokens[i]
        i += 1
        ident = tok not in _SYMBOLS
        if tok == "!":
            ops.append((_PREFIX, Neg))
            continue
        if tok == "(":
            ops.append((0, None))
            depth += 1
            continue
        if ident and tokens[i][0] == "[":
            kind = _KINDS.get(tok)
            if kind is None:
                raise ParseError(f"unknown modality keyword {tok!r}", pos, tuple(sorted(_KINDS)))
            agent, agent_pos = tokens[i + 1]
            if agent in _SYMBOLS:
                raise ParseError(_found(agent), agent_pos, ("agent name",))
            close, close_pos = tokens[i + 2]
            if close != "]":
                raise ParseError(_found(close), close_pos, ("']'",))
            ops.append((_PREFIX, partial(Modal, kind, agent)))
            i += 3
            continue
        if tok == "true":
            operands.append(TOP)
        elif tok == "false":
            operands.append(BOT)
        elif ident:
            operands.append(Prop(tok))
        else:
            raise ParseError(_found(tok), pos, _OPERAND)
        # Operator position: close groups, then a binary operator or the end.
        tok, pos = tokens[i]
        while tok == ")" and depth:
            reduce(1)
            ops.pop()
            depth -= 1
            i += 1
            tok, pos = tokens[i]
        if tok in _BINARY:
            power, build = _BINARY[tok]
            reduce(power + (tok == "->"))
            ops.append((power, build))
            i += 1
        elif depth:
            raise ParseError(_found(tok), pos, ("')'",))
        elif tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos, ("end of input",))
        else:
            reduce(1)
            return operands[0]


# --- printing ---------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse(format_formula(f)) is f``.

    The text repeats a shared subformula at each occurrence, so the printer
    walks the tree itself: a stack of pending nodes and text, left to right.
    """
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif g is TOP:
            out.append("true")
        elif g is BOT:
            out.append("false")
        elif isinstance(g, Or):
            # Left-nested chains print without parentheses (| parses left-associative).
            stack += (*_unary_operand(g.right), " | ", g.left)
        else:
            out.append(g._text.format(g))
            if g.children:
                stack += _unary_operand(g.children[0])
    return "".join(out)


def _unary_operand(f: Formula) -> tuple[Formula | str, ...]:
    """``f`` as the operand of a prefix or the right side of ``|``, in stack
    order: parenthesized when it is a disjunction other than ``true``."""
    return (")", f, "(") if isinstance(f, Or) and f is not TOP else (f,)
