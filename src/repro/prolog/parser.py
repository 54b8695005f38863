"""Operator-precedence parser for Prolog.

:class:`Parser` turns a token stream into terms using the priority-climbing
algorithm from the ISO standard: a *primary* is read first (constant,
variable, functor application, bracketed term, list, curly term, string, or
prefix operator application), then infix operators of admissible priority
are folded in a loop.

Entry points:

* :func:`parse_term` — read a single term from text;
* :func:`read_terms` — read a whole program: a list of clause terms, with
  ``:- op/3`` directives applied to the operator table on the fly.

Variables with the same name within one term read denote the same
:class:`~repro.prolog.terms.Var`; ``_`` is always fresh.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import PrologSyntaxError
from .operators import MAX_PRIORITY, OperatorTable
from .terms import (
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
    make_list,
)
from .tokenizer import Token, tokenize

#: Maximum priority of a term appearing as an argument (inside ``f(...)``
#: or a list), where a bare ``,`` separates arguments.
ARG_PRIORITY = 999

#: The standard table a parser given none reads.  A parser never writes
#: its table; only ``op/3`` directives do, through the table the reader
#: functions below create per program text.
_STANDARD_OPERATORS = OperatorTable()


class Parser:
    """Parses one token stream against an operator table."""

    def __init__(self, tokens: List[Token], operators: Optional[OperatorTable] = None):
        self.tokens = tokens
        self.index = 0
        self.operators = (
            operators if operators is not None else _STANDARD_OPERATORS
        )
        self.var_map: Dict[str, Var] = {}
        #: (line, column) of the first token of the last clause read.
        self.clause_position: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Token stream helpers.

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self.index += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> PrologSyntaxError:
        token = token if token is not None else self._peek()
        return PrologSyntaxError(message, token.line, token.column)

    def _expect_punct(self, value: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.value != value:
            raise self._error(f"expected {value!r}, got {token}", token)

    def at_end(self) -> bool:
        return self._peek().kind == "eof"

    def skip_to_clause_end(self) -> None:
        """Error recovery: skip tokens up to and past the next clause
        terminator (``.``), or to end of input.

        After a syntax error this resynchronizes the stream at the start
        of the next clause so reading can continue.  If the offending
        token just consumed *was* the terminator (e.g. ``foo(.``, where
        ``.`` arrives as an unexpected primary), the stream is already
        at a clause boundary and nothing is skipped — this keeps the
        following well-formed clause.  Always makes progress relative to
        the erroring read: either a token was consumed raising the
        error, or at least one is skipped here.
        """
        if self.index > 0 and self.tokens[self.index - 1].kind == "end":
            return
        start = self.index
        while True:
            token = self._peek()
            if token.kind == "eof":
                break
            self.index += 1
            if token.kind == "end":
                break
        if self.index == start and not self.at_end():
            self.index += 1

    # ------------------------------------------------------------------
    # Term reading.

    def read_clause_term(self) -> Optional[Term]:
        """Read one term terminated by the end token; None at end of input.

        The (line, column) of the clause's first token is recorded in
        :attr:`clause_position` so callers can attach source locations to
        the parsed clause.
        """
        if self.at_end():
            return None
        self.var_map = {}
        start = self._peek()
        self.clause_position = (start.line, start.column)
        term = self.parse(MAX_PRIORITY)
        token = self._next()
        if token.kind != "end":
            raise self._error(f"expected '.' to end clause, got {token}", token)
        return term

    def parse(self, max_priority: int) -> Term:
        term, _ = self._parse_with_priority(max_priority)
        return term

    def _parse_with_priority(self, max_priority: int) -> Tuple[Term, int]:
        left, left_priority = self._parse_primary(max_priority)
        return self._parse_infix_loop(left, left_priority, max_priority)

    # ------------------------------------------------------------------
    # Primary terms.

    def _parse_primary(self, max_priority: int) -> Tuple[Term, int]:
        token = self._next()
        if token.kind == "int":
            return Int(token.value), 0
        if token.kind == "float":
            return Float(token.value), 0
        if token.kind == "var":
            return self._variable(token.value), 0
        if token.kind == "string":
            codes = [Int(ord(ch)) for ch in str(token.value)]
            return make_list(codes), 0
        if token.kind == "punct":
            return self._parse_punct_primary(token)
        if token.kind == "atom":
            return self._parse_atom_primary(token, max_priority)
        raise self._error(f"unexpected {token}", token)

    def _variable(self, name: str) -> Var:
        if name == "_":
            return Var("_")
        existing = self.var_map.get(name)
        if existing is None:
            existing = Var(name)
            self.var_map[name] = existing
        return existing

    def _parse_punct_primary(self, token: Token) -> Tuple[Term, int]:
        if token.value == "(":
            term = self.parse(MAX_PRIORITY)
            self._expect_punct(")")
            return term, 0
        if token.value == "[":
            return self._parse_list(), 0
        if token.value == "{":
            if self._punct_ahead("}"):
                self._next()
                return Atom("{}"), 0
            inner = self.parse(MAX_PRIORITY)
            self._expect_punct("}")
            return Struct("{}", (inner,)), 0
        raise self._error(f"unexpected {token}", token)

    def _punct_ahead(self, value: str) -> bool:
        token = self._peek()
        return token.kind == "punct" and token.value == value

    def _parse_list(self) -> Term:
        if self._punct_ahead("]"):
            self._next()
            return NIL
        elements = [self.parse(ARG_PRIORITY)]
        while self._punct_ahead(","):
            self._next()
            elements.append(self.parse(ARG_PRIORITY))
        tail: Term = NIL
        if self._punct_ahead("|"):
            self._next()
            tail = self.parse(ARG_PRIORITY)
        self._expect_punct("]")
        return make_list(elements, tail)

    def _parse_atom_primary(self, token: Token, max_priority: int) -> Tuple[Term, int]:
        name = str(token.value)
        if token.functor:
            self._expect_punct("(")
            args = [self.parse(ARG_PRIORITY)]
            while self._punct_ahead(","):
                self._next()
                args.append(self.parse(ARG_PRIORITY))
            self._expect_punct(")")
            return Struct(name, tuple(args)), 0
        # Negative numeric literals: ``- 1`` with no intervening functor.
        if name == "-" and self._peek().kind in ("int", "float"):
            number = self._next()
            if number.kind == "int":
                return Int(-int(number.value)), 0
            return Float(-float(number.value)), 0
        prefix = self.operators.prefix(name)
        if prefix is not None and prefix.priority <= max_priority:
            if self._starts_term():
                (arg_max,) = prefix.argument_priorities()
                operand = self.parse(arg_max)
                return Struct(name, (operand,)), prefix.priority
        # A bare atom; if it names an operator it still parses as an
        # operand here (e.g. ``X = (-)`` after bracketing, or ``f(-, 1)``).
        priority = 0
        if self.operators.is_operator(name):
            priority = max_priority if max_priority < MAX_PRIORITY else 0
        return Atom(name), priority

    def _starts_term(self) -> bool:
        """Can the upcoming token begin an operand for a prefix operator?"""
        token = self._peek()
        if token.kind in ("int", "float", "var", "string"):
            return True
        if token.kind == "punct":
            return token.value in "([{"
        if token.kind == "atom":
            name = str(token.value)
            if token.functor:
                return True
            # An infix-only operator cannot begin a term (e.g. ``- = x``).
            if (
                self.operators.infix(name) is not None
                and self.operators.prefix(name) is None
            ):
                return False
            return True
        return False

    # ------------------------------------------------------------------
    # Infix folding.

    def _infix_token(self) -> Optional[Tuple[str, int]]:
        """If the next token can act as an infix operator, (name, priority)."""
        token = self._peek()
        if token.kind == "punct" and token.value == ",":
            return (",", 1000)
        if token.kind == "punct" and token.value == "|":
            # DEC-10 style: ``|`` as an alternative to ``;`` in bodies.
            return (";", 1100)
        if token.kind == "atom":
            name = str(token.value)
            definition = self.operators.infix(name)
            if definition is not None:
                return (name, definition.priority)
        return None

    def _parse_infix_loop(
        self, left: Term, left_priority: int, max_priority: int
    ) -> Tuple[Term, int]:
        while True:
            ahead = self._infix_token()
            if ahead is None:
                return left, left_priority
            name, priority = ahead
            if name == ",":
                definition = self.operators.infix(",")
            elif name == ";" and self._peek().kind == "punct":
                definition = self.operators.infix(";")
            else:
                definition = self.operators.infix(name)
            assert definition is not None
            if definition.priority > max_priority:
                return left, left_priority
            left_max, right_max = definition.argument_priorities()
            if left_priority > left_max:
                return left, left_priority
            self._next()
            right = self.parse(right_max)
            left = Struct(name, (left, right))
            left_priority = definition.priority


def parse_term(
    text: str, operators: Optional[OperatorTable] = None
) -> Term:
    """Parse a single term from ``text`` (with or without a trailing dot)."""
    parser = Parser(tokenize(text), operators)
    term = parser.parse(MAX_PRIORITY)
    token = parser._next()
    if token.kind not in ("end", "eof"):
        raise PrologSyntaxError(
            f"trailing input after term: {token}", token.line, token.column
        )
    return term


def parse_term_with_vars(
    text: str, operators: Optional[OperatorTable] = None
) -> Tuple[Term, Dict[str, Var]]:
    """Like :func:`parse_term` but also return the name → variable map."""
    parser = Parser(tokenize(text), operators)
    term = parser.parse(MAX_PRIORITY)
    token = parser._next()
    if token.kind not in ("end", "eof"):
        raise PrologSyntaxError(
            f"trailing input after term: {token}", token.line, token.column
        )
    return term, dict(parser.var_map)


def _apply_directive(term: Term, operators: OperatorTable) -> bool:
    """Apply ``:- op/3`` directives; True if one was applied."""
    if not (isinstance(term, Struct) and term.name == ":-" and term.arity == 1):
        return False
    body = term.args[0]
    if not (isinstance(body, Struct) and body.name == "op" and body.arity == 3):
        return False
    from .terms import is_proper_list, list_elements

    priority, kind, names = body.args
    if not isinstance(priority, Int) or not isinstance(kind, Atom):
        raise PrologSyntaxError("malformed op/3 directive")
    if is_proper_list(names):
        name_terms, _ = list_elements(names)
    else:
        name_terms = [names]
    for name_term in name_terms:
        if not isinstance(name_term, Atom):
            raise PrologSyntaxError("op/3 name must be an atom")
        operators.add(priority.value, kind.name, name_term.name)
    return True


def read_terms(
    text: str, operators: Optional[OperatorTable] = None
) -> List[Term]:
    """Read all clause terms from a program text.

    ``:- op/3`` directives take effect immediately and are *not* returned;
    other directives are returned as ``:-/1`` terms for the caller.
    """
    return [term for term, _ in read_terms_with_positions(text, operators)]


def read_terms_with_positions(
    text: str, operators: Optional[OperatorTable] = None
) -> List[Tuple[Term, Tuple[int, int]]]:
    """Like :func:`read_terms`, pairing each term with its (line, column).

    The position is that of the first token of the clause, which is what
    diagnostics want to point at.
    """
    table = operators if operators is not None else OperatorTable()
    parser = Parser(tokenize(text), table)
    result: List[Tuple[Term, Tuple[int, int]]] = []
    while True:
        term = parser.read_clause_term()
        if term is None:
            return result
        if not _apply_directive(term, table):
            assert parser.clause_position is not None
            result.append((term, parser.clause_position))


def read_terms_with_recovery(
    text: str, operators: Optional[OperatorTable] = None
) -> Tuple[List[Tuple[Term, Tuple[int, int]]], List[PrologSyntaxError]]:
    """Fault-tolerant :func:`read_terms_with_positions`.

    On a syntax error the parser resynchronizes at the next clause
    terminator (``.``) and keeps reading, so *all* malformed clauses are
    diagnosed in one pass instead of stopping at the first.  Returns the
    well-formed ``(term, (line, column))`` pairs plus every collected
    error, in source order.

    Lexical errors (unterminated quotes/comments, bad escapes) abort
    tokenization itself, so they cannot be resynchronized: the single
    error is returned with no terms.
    """
    table = operators if operators is not None else OperatorTable()
    errors: List[PrologSyntaxError] = []
    try:
        tokens = tokenize(text)
    except PrologSyntaxError as exc:
        return [], [exc]
    parser = Parser(tokens, table)
    result: List[Tuple[Term, Tuple[int, int]]] = []
    while True:
        try:
            term = parser.read_clause_term()
            if term is None:
                return result, errors
            if not _apply_directive(term, table):
                assert parser.clause_position is not None
                result.append((term, parser.clause_position))
        except PrologSyntaxError as exc:
            errors.append(exc)
            parser.skip_to_clause_end()
