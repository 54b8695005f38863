"""Tests for the operator-precedence parser."""

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog import OperatorTable, parse_term, read_terms
from repro.prolog.parser import parse_term_with_vars, read_terms_with_positions
from repro.prolog.terms import (
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Var,
    is_proper_list,
    list_elements,
)


def s(name, *args):
    return Struct(name, tuple(args))


class TestPrimary:
    def test_atom(self):
        assert parse_term("foo") == Atom("foo")

    def test_integer(self):
        assert parse_term("42") == Int(42)

    def test_float(self):
        assert parse_term("1.5") == Float(1.5)

    def test_variable(self):
        term = parse_term("X")
        assert isinstance(term, Var) and term.name == "X"

    def test_functor(self):
        assert parse_term("f(a, 1)") == s("f", Atom("a"), Int(1))

    def test_nested_functor(self):
        assert parse_term("f(g(h(a)))") == s("f", s("g", s("h", Atom("a"))))

    def test_parenthesized(self):
        assert parse_term("(a)") == Atom("a")

    def test_string_becomes_codes(self):
        term = parse_term('"ab"')
        elements, tail = list_elements(term)
        assert [e.value for e in elements] == [97, 98]
        assert tail == NIL

    def test_curly(self):
        assert parse_term("{}") == Atom("{}")
        assert parse_term("{a}") == s("{}", Atom("a"))

    def test_negative_literal(self):
        assert parse_term("-5") == Int(-5)
        assert parse_term("-2.5") == Float(-2.5)

    def test_negation_of_expression(self):
        assert parse_term("-(5)") == Int(5) or parse_term("- (5)") == s(
            "-", Int(5)
        )


class TestVariables:
    def test_shared_names(self):
        term = parse_term("f(X, X)")
        assert term.args[0] is term.args[1]

    def test_anonymous_distinct(self):
        term = parse_term("f(_, _)")
        assert term.args[0] is not term.args[1]

    def test_var_map(self):
        _, mapping = parse_term_with_vars("f(X, Y)")
        assert set(mapping) == {"X", "Y"}


class TestLists:
    def test_empty(self):
        assert parse_term("[]") == NIL

    def test_simple(self):
        elements, tail = list_elements(parse_term("[1, 2, 3]"))
        assert [e.value for e in elements] == [1, 2, 3]
        assert tail == NIL

    def test_with_tail(self):
        elements, tail = list_elements(parse_term("[a | T]"))
        assert elements == [Atom("a")]
        assert isinstance(tail, Var)

    def test_nested(self):
        term = parse_term("[[1], []]")
        assert is_proper_list(term)

    def test_comma_terms_inside(self):
        elements, _ = list_elements(parse_term("[a, (b, c)]"))
        assert elements[1] == s(",", Atom("b"), Atom("c"))


class TestOperators:
    def test_precedence_mul_over_add(self):
        assert parse_term("a + b * c") == s(
            "+", Atom("a"), s("*", Atom("b"), Atom("c"))
        )

    def test_left_associative(self):
        assert parse_term("a - b - c") == s(
            "-", s("-", Atom("a"), Atom("b")), Atom("c")
        )

    def test_right_associative_comma(self):
        assert parse_term("(a, b, c)") == s(
            ",", Atom("a"), s(",", Atom("b"), Atom("c"))
        )

    def test_xfx_clause(self):
        term = parse_term("h :- b")
        assert term.indicator == (":-", 2)

    def test_prefix_minus(self):
        assert parse_term("- a") == s("-", Atom("a"))

    def test_prefix_negation(self):
        assert parse_term("\\+ a") == s("\\+", Atom("a"))

    def test_is_operator(self):
        term = parse_term("X is Y + 1")
        assert term.name == "is"

    def test_comparison_non_associative(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("a = b = c")

    def test_parens_override(self):
        assert parse_term("(a + b) * c") == s(
            "*", s("+", Atom("a"), Atom("b")), Atom("c")
        )

    def test_if_then_else(self):
        term = parse_term("(c -> t ; e)")
        assert term.name == ";"
        assert term.args[0].name == "->"

    def test_univ(self):
        assert parse_term("X =.. L").name == "=.."

    def test_operator_as_argument(self):
        term = parse_term("f(-, +)")
        assert term == s("f", Atom("-"), Atom("+"))

    def test_power_right_assoc(self):
        assert parse_term("2 ^ 3 ^ 4") == s(
            "^", Int(2), s("^", Int(3), Int(4))
        )

    def test_bar_as_disjunction(self):
        term = parse_term("(a | b)")
        assert term == s(";", Atom("a"), Atom("b"))


class TestReadTerms:
    def test_multiple_clauses(self):
        terms = read_terms("a. b. c.")
        assert terms == [Atom("a"), Atom("b"), Atom("c")]

    def test_missing_dot(self):
        with pytest.raises(PrologSyntaxError):
            read_terms("a b")

    def test_op_directive_applied(self):
        terms = read_terms(":- op(700, xfx, ===). a === b.")
        assert terms == [s("===", Atom("a"), Atom("b"))]

    def test_op_directive_list(self):
        terms = read_terms(":- op(700, xfx, [<<<, >>>]). a <<< b.")
        assert terms[0].name == "<<<"

    def test_other_directive_kept(self):
        terms = read_terms(":- dynamic(foo/1).")
        assert terms[0].indicator == (":-", 1)

    def test_custom_table_persists(self):
        table = OperatorTable()
        read_terms(":- op(700, xfx, ~~).", table)
        assert parse_term("a ~~ b", table).name == "~~"

    def test_op_directive_does_not_leak_into_parse_term(self):
        # parse_term without a table shares the standard one; a
        # program's op/3 directive must not reach it.
        from repro.prolog.program import Program

        Program.from_text(
            ":- op(700, xfx, ~~).\n:- op(700, xfy, =).\np(a ~~ b).\np(c = d = e)."
        )
        for parse in (parse_term, parse_term_with_vars):
            with pytest.raises(PrologSyntaxError):
                parse("a ~~ b")
            with pytest.raises(PrologSyntaxError):
                parse("a = b = c")


class TestReadTermsWithPositions:
    def test_positions_track_first_token(self):
        pairs = read_terms_with_positions("a.\n  b(X).\nc :- a.")
        assert [position for _, position in pairs] == [(1, 1), (2, 3), (3, 1)]
        assert pairs[0][0] == Atom("a")

    def test_directives_consume_no_position(self):
        pairs = read_terms_with_positions(":- op(700, xfx, ===).\na === b.")
        assert len(pairs) == 1
        assert pairs[0][1] == (2, 1)

    def test_agrees_with_read_terms(self):
        text = "p(a).  q(b).\nr(c)."
        assert read_terms(text) == [term for term, _ in read_terms_with_positions(text)]


class TestErrors:
    def test_unbalanced_paren(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("f(a")

    def test_unbalanced_bracket(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("[a, b")

    def test_trailing_input(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("a b")

    def test_empty_input(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("")
