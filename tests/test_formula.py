import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given

from permitmc.errors import ParseError
from permitmc.formula import (
    BOT,
    TOP,
    Modal,
    Modality,
    Neg,
    Or,
    Prop,
    and_,
    conj,
    disj,
    fold,
    format_formula,
    implies,
    modal_depth,
    parse,
    size,
)

from strategies import deep_chain, formulas

p, q = Prop("p"), Prop("q")


def test_parse_modal_base_case():
    assert parse("WA[a] p") == Modal(Modality.WA, "a", p)


def test_parse_precedence_example():
    expected = implies(
        Modal(Modality.WE, "a", Or(p, Neg(q))),
        Modal(Modality.SA, "b", BOT),
    )
    assert parse("WE[a] (p | !q) -> SA[b] false") == expected


def test_parse_distribution_shape():
    got = parse("WA[a](p | q) -> WA[a]p | WA[a]q")
    expected = implies(
        Modal(Modality.WA, "a", Or(p, q)),
        Or(Modal(Modality.WA, "a", p), Modal(Modality.WA, "a", q)),
    )
    assert got == expected


def test_parse_sugar_desugars():
    assert parse("p & q") == and_(p, q)
    assert parse("p -> q") == implies(p, q)
    assert parse("true") == TOP
    assert parse("false") == BOT


def test_implication_is_right_associative():
    assert parse("p -> q -> p") == implies(p, implies(q, p))


def test_and_binds_tighter_than_or():
    assert parse("p & q | p") == Or(and_(p, q), p)


def test_modal_binds_tighter_than_or():
    assert parse("WA[a] p | q") == Or(Modal(Modality.WA, "a", p), q)


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse("p | | q")
    assert exc.value.position == 4
    assert exc.value.expected


def test_parse_unknown_modality_keyword():
    with pytest.raises(ParseError, match="unknown modality keyword"):
        parse("WX[a] p")


def test_parse_unexpected_character():
    with pytest.raises(ParseError):
        parse("p @ q")


def test_parse_trailing_input():
    with pytest.raises(ParseError):
        parse("p q")


_OPERAND = ("proposition", "'true'", "'false'", "'!'", "'('", "modality")
_MODALITIES = ("SA", "SE", "WA", "WE")

# (text, message, position, expected) of each malformed input. Positions and
# expected tokens are those the recursive-descent parser reported, and any
# parser must keep them; a message names the end as "end of input".
PARSE_ERRORS = [
    ("p | | q", "found '|'", 4, _OPERAND),
    ("p q", "trailing input 'q'", 2, ("end of input",)),
    ("(p q", "found 'q'", 3, ("')'",)),
    ("WX[a] p", "unknown modality keyword 'WX'", 0, _MODALITIES),
    ("WA[ ] p", "found ']'", 4, ("agent name",)),
    ("WA[a p", "found 'p'", 5, ("']'",)),
    ("true[a] p", "unknown modality keyword 'true'", 0, _MODALITIES),
    ("p ->", "found end of input", 4, _OPERAND),
    (")", "found ')'", 0, _OPERAND),
    ("", "found end of input", 0, _OPERAND),
    ("@", "unexpected character '@'", 0, ()),
    ("p @ q", "unexpected character '@'", 2, ()),
    ("(", "found end of input", 1, _OPERAND),
    ("()", "found ')'", 1, _OPERAND),
    ("p &", "found end of input", 3, _OPERAND),
    ("!", "found end of input", 1, _OPERAND),
    ("WA[", "found end of input", 3, ("agent name",)),
    ("WA[a", "found end of input", 4, ("']'",)),
    ("WA[a]", "found end of input", 5, _OPERAND),
    ("false[b] q", "unknown modality keyword 'false'", 0, _MODALITIES),
    ("p | q)", "trailing input ')'", 5, ("end of input",)),
    ("((p)", "found end of input", 4, ("')'",)),
    ("p -> -> q", "found '->'", 5, _OPERAND),
    ("WE[a] (p | q", "found end of input", 12, ("')'",)),
    ("& p", "found '&'", 0, _OPERAND),
    ("p [a]", "unknown modality keyword 'p'", 0, _MODALITIES),
    ("SA[a] ]", "found ']'", 6, _OPERAND),
    ("!(p -> q) r", "trailing input 'r'", 10, ("end of input",)),
    ("p ! q", "trailing input '!'", 2, ("end of input",)),
    ("p q \t", "trailing input 'q'", 2, ("end of input",)),
    (" \n", "found end of input", 2, _OPERAND),
    ("(p \n", "found end of input", 4, ("')'",)),
    ("p -", "unexpected character '-'", 2, ()),
]


def _parse_error_case_id(value):
    # The end-of-input rows keep the case ids they had when the message read
    # "found None", so each case keeps its name; other values take pytest's ids.
    return "found None" if value == "found end of input" else None


@pytest.mark.parametrize(
    ("text", "message", "position", "expected"), PARSE_ERRORS, ids=_parse_error_case_id
)
def test_parse_error_is_pinned(text, message, position, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.position, exc.value.expected) == (
        str(ParseError(message, position, expected)),
        position,
        expected,
    )


def test_print_examples():
    assert format_formula(Modal(Modality.WA, "a", p)) == "WA[a] p"
    assert format_formula(Or(Neg(p), q)) == "!p | q"
    assert format_formula(Modal(Modality.SE, "b", Modal(Modality.WA, "a", p))) == "SE[b] WA[a] p"
    assert format_formula(TOP) == "true"
    assert format_formula(BOT) == "false"


def test_node_arity_is_checked_and_str_prints_the_formula():
    with pytest.raises(TypeError, match="^Neg takes 1 arguments, got 2$"):
        Neg(p, q)
    with pytest.raises(TypeError, match="^Prop takes 1 arguments, got 0$"):
        Prop()
    assert str(Modal(Modality.SE, "b", Or(Neg(p), q))) == "SE[b] (!p | q)"


def test_print_parenthesizes_structurally():
    assert format_formula(Or(Or(p, q), p)) == "p | q | p"
    assert format_formula(Or(p, Or(q, p))) == "p | (q | p)"
    assert format_formula(Neg(Or(p, q))) == "!(p | q)"
    assert format_formula(Modal(Modality.WA, "a", Or(p, q))) == "WA[a] (p | q)"


def test_size_examples():
    assert size(p) == 1
    assert size(Neg(p)) == 2
    assert size(Or(p, q)) == 3
    child = Or(p, q)
    assert size(Modal(Modality.SE, "a", child)) == 1 + size(child)
    assert size(TOP) == 4


def test_modal_depth():
    assert modal_depth(p) == 0
    assert modal_depth(Modal(Modality.WA, "a", Modal(Modality.WE, "b", p))) == 2
    assert modal_depth(Or(p, Modal(Modality.SA, "a", p))) == 1


def test_modal_depth_of_deep_chain():
    # Built node by node, not parsed: 10^4 levels alternating Neg and Modal,
    # far past the interpreter's recursion limit.
    f = p
    for i in range(10**4):
        f = Neg(f) if i % 2 else Modal(Modality.WE, "a", f)
    assert modal_depth(Or(q, f)) == 5000


def _fold_size(f, memo, seen, fail=None):
    """Fold ``f`` to its tree size, recording each node given to the leaf
    labeller in ``seen``; the labeller raises on the node ``fail``."""

    def leaf(g):
        seen.append(g)
        if g is fail:
            raise ValueError(g)
        return 1 + sum(memo[c] for c in g.children)

    return fold(f, memo, lambda x: x + 1, lambda x, y: x + y + 1, leaf)


def test_fold_labels_each_distinct_node_once_and_leaves_only_other_nodes():
    shared = Modal(Modality.WA, "a", p)
    f = Or(Neg(shared), Or(shared, q))
    seen = []
    assert _fold_size(f, {}, seen) == size(f) == 8
    # The shared modal node and the p under it reach the leaf once; no Or or
    # Neg node ever does.
    assert seen == [p, shared, q]


def test_fold_neither_enters_nor_relabels_a_node_already_in_memo():
    shared = Modal(Modality.WA, "a", p)
    memo, seen = {shared: 10}, []
    assert _fold_size(Or(shared, Neg(q)), memo, seen) == 10 + 2 + 1
    assert seen == [q]
    assert p not in memo and memo[shared] == 10


def test_fold_stores_nothing_for_a_node_whose_leaf_raises():
    bad = Modal(Modality.SE, "b", q)
    f = Or(p, Neg(bad))
    memo, seen = {}, []
    with pytest.raises(ValueError):
        _fold_size(f, memo, seen, fail=bad)
    assert seen == [p, q, bad]
    assert set(memo) == {p, q}
    # A later fold over the same memo labels the rest, and only the rest.
    seen.clear()
    assert _fold_size(f, memo, seen) == size(f) == 5
    assert seen == [bad]


@given(formulas())
def test_roundtrip(f):
    assert parse(format_formula(f)) == f


@given(formulas(max_leaves=6))
def test_printed_form_is_stable(f):
    assert format_formula(parse(format_formula(f))) == format_formula(f)


@pytest.mark.parametrize(
    ("kinds", "nodes", "depth"),
    [
        (("neg",), 1 + 10**5, 0),
        (("modal",), 1 + 10**5, 10**5),
        (("left", "right"), 1 + 2 * 10**5, 0),
    ],
)
def test_deep_chain_round_trips(kinds, nodes, depth):
    # 10^5 levels: parser, printer, identity and the measures never recurse.
    f = deep_chain(7, kinds=kinds)
    assert parse(format_formula(f)) is f
    assert (size(f), modal_depth(f)) == (nodes, depth)


def test_deep_mixed_chain_round_trips(deep_formula):
    assert parse(format_formula(deep_formula)) is deep_formula


@pytest.mark.parametrize("join", [conj, disj])
def test_long_junctions_round_trip(join):
    f = join(Prop(f"p{i}") for i in range(10**4))
    assert parse(format_formula(f)) is f


def test_surrounding_whitespace_is_ignored():
    assert parse(" \tp |\nq \n") is Or(p, q)


def test_deep_parentheses_parse():
    assert parse("(" * 50_000 + "p" + ")" * 50_000) is p


def test_equal_formulas_are_one_node():
    assert Or(Neg(p), q) is parse("!p | q")
    assert and_(p, q) is parse("p & q")
    assert type(p).__eq__ is object.__eq__ and type(p).__hash__ is object.__hash__
    assert Modal(Modality.WA, "a", p) is not Modal(Modality.WA, "b", p)
    f = parse("WE[a] (p | !q) -> SA[b] false")
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(TypeError):
        Neg("p")


def test_concurrent_builders_share_one_node():
    # Each thread builds the same fresh chain; interning must hand all of
    # them the one node, whatever the interleaving.
    threads, results = 8, []
    start = threading.Barrier(threads)

    def build():
        start.wait(timeout=60)
        results.append(deep_chain(11, depth=3000, props=("fresh_thread_prop",)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == threads and all(r is results[0] for r in results)
