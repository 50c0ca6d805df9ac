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
    format_formula,
    implies,
    modal_depth,
    parse,
    size,
)

from strategies import formulas

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


def test_print_examples():
    assert format_formula(Modal(Modality.WA, "a", p)) == "WA[a] p"
    assert format_formula(Or(Neg(p), q)) == "!p | q"
    assert format_formula(Modal(Modality.SE, "b", Modal(Modality.WA, "a", p))) == "SE[b] WA[a] p"
    assert format_formula(TOP) == "true"
    assert format_formula(BOT) == "false"


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


@given(formulas())
def test_roundtrip(f):
    assert parse(format_formula(f)) == f


@given(formulas(max_leaves=6))
def test_printed_form_is_stable(f):
    assert format_formula(parse(format_formula(f))) == format_formula(f)
