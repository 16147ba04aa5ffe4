"""Boolean field-query language: syntax tree, parser, printer, evaluator.

The surface syntax is the classic bibliographic search-statement style::

    PY=2007 AND CU=USA AND (SO=A* OR SO=B*)
    PY=2007 AND CU=USA AND SO=J* NOT AD=CA
    (#1 AND #2) OR (#1 AND #3)

Grammar (parentheses bind tightest, then AND/NOT at equal precedence and
left-associative, then OR)::

    expr    := and (OR and)*
    and     := primary ((AND | NOT) primary)*
    primary := '(' expr ')' | FIELD '=' value-or-group | '#' digits

``NOT`` is binary set difference, not unary negation. ``FIELD=(a OR b)``
is sugar for ``FIELD=a OR FIELD=b`` and is expanded during parsing.
Values may span several words (``CU=NORTH IRELAND``) and may end in a
``*`` truncation marker that turns equality into prefix matching.

No code here recurses, since an overlap statement over 64 sections nests
2,016 pairs deep (``tests/test_package.py`` checks this). A query tree is
walked in one place, ``postorder``, with an explicit stack. The engine,
``Oracle.evaluate`` and ``print_normalized`` are each a ``fold`` over it,
and equality compares two post-order sequences. The printer's time grows
with the text length times a log factor, not with its square. ``parse``
scans the text with one token pattern, then reads the grammar in one loop
with an operand stack and an operator stack, so it reads back any tree
the printer writes.

Field semantics over a corpus, stated once by ``field_strings``: a term
matches a record when its pattern matches a string the record is found
through in that field. PY is found through the year's decimal digits, CU
through each country, SO through each source title (a record with two
titles is found through either one), AD through each whitespace-separated
token of each address. The engine's index and the scan here both read
``field_strings``; the scan is the reference semantics the indexed engine
must agree with. It matches a term's pattern once per distinct string of
the field, then makes one pass over the field's column of value numbers.
``Oracle`` evaluates over one corpus and keeps the id set of each distinct
term it has scanned, so repeated direct counts scan each term once;
``evaluate`` is a one-shot ``Oracle`` that keeps nothing. Neither holds an
index, and this module imports nothing from the engine, planner or
reconciliation (``tests/test_package.py`` checks this).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import compress, zip_longest
from typing import Callable, Collection, Iterator, Mapping, Sequence, Set, TypeVar, Union

from .corpus import Column, Corpus, _PATTERN_RESERVED, _ascii_int, normalize_text


class QueryError(ValueError):
    """Query syntax or binding error; carries the character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (offset {position})"
        super().__init__(message)


class FieldKind(Enum):
    PY = "PY"
    CU = "CU"
    SO = "SO"
    AD = "AD"


@dataclass(frozen=True)
class Pattern:
    """A normalized match value; ``truncated`` means trailing-``*`` prefix match.

    AND, OR and NOT may not be whole words of the text, since a printed
    statement would read them as operators. The last word of a truncated
    pattern is the one exception: it prints with ``*`` attached, as a value.
    """

    text: str
    truncated: bool = False

    def __post_init__(self) -> None:
        text = normalize_text(self.text)
        if not text:
            raise QueryError("empty pattern")
        bad = _PATTERN_RESERVED.intersection(text)
        if bad:
            raise QueryError(f"pattern {text!r} contains reserved character {sorted(bad)[0]!r}")
        words = text.split(" ")
        for word in words[:-1] if self.truncated else words:
            if word in _KEYWORDS:
                raise QueryError(f"pattern {text!r} has the keyword {word} as a whole word")
        object.__setattr__(self, "text", text)

    def matches(self, value: str) -> bool:
        if self.truncated:
            return value.startswith(self.text)
        return value == self.text


@dataclass(frozen=True)
class Term:
    field: FieldKind
    pattern: Pattern


class _Binary:
    def __eq__(self, other: object) -> bool:
        # Every node's arity is fixed, so its post-order sequence determines the tree.
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return all(
            type(a) is type(b) and (isinstance(a, _Binary) or a == b)
            for a, b in zip_longest(postorder(self), postorder(other))
        )


@dataclass(frozen=True, eq=False)
class And(_Binary):
    left: "Query"
    right: "Query"


@dataclass(frozen=True, eq=False)
class Or(_Binary):
    left: "Query"
    right: "Query"


@dataclass(frozen=True, eq=False)
class Diff(_Binary):
    """Set difference; surface syntax ``left NOT right``."""

    left: "Query"
    right: "Query"


@dataclass(frozen=True)
class SetRef:
    """Reference to a previously numbered statement, ``#n``."""

    number: int

    def __post_init__(self) -> None:
        if self.number < 1:
            raise QueryError(f"statement number must be positive, got #{self.number}")


Query = Union[Term, And, Or, Diff, SetRef]

# the surface keyword of each operator, for the parser and the printer alike
_KEYWORDS: dict[str, type[_Binary]] = {"AND": And, "OR": Or, "NOT": Diff}
_SPELLING = {op: word for word, op in _KEYWORDS.items()}

T = TypeVar("T")


def postorder(query: Query) -> Iterator[Query]:
    """Yield each node of ``query`` after its operands, left before right, without recursion."""
    stack: list[tuple[Query, bool]] = [(query, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or not isinstance(node, _Binary):
            yield node
        else:
            stack += ((node, True), (node.right, False), (node.left, False))


def fold(query: Query, leaf: Callable[..., T], combine: Callable[..., T]) -> T:
    """The value of ``query``: ``leaf(node)`` at a leaf, ``combine(node, left, right)`` above."""
    values: list[T] = []
    for node in postorder(query):
        if isinstance(node, _Binary):
            right = values.pop()
            values[-1] = combine(node, values[-1], right)
        else:
            values.append(leaf(node))
    return values[0]


def or_chain(parts: list[Query]) -> Query:
    """Fold queries into a left-associative OR chain."""
    if not parts:
        raise QueryError("cannot build an OR chain from nothing")
    node = parts[0]
    for part in parts[1:]:
        node = Or(node, part)
    return node


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_FIELDS = {f.value: f for f in FieldKind}

# a statement reference, a parenthesis or '=', or a word; the whitespace between is skipped
_TOKEN = re.compile(r"#[0-9]*|[()=]|[^\s()=#]+")  # [0-9]: str.isdigit also takes ² and ١


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, then an ``end`` token at its length.

    A kind is ``(``, ``)`` or ``=``; ``#`` for a statement reference;
    an upper-cased keyword, which is then its text too; or ``word``.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        token, offset = match.group(), match.start()
        if token[0] == "#":
            if _ascii_int(token[1:]) is None:
                raise QueryError("expected a statement number after '#'", offset)
            tokens.append(("#", token, offset))
        elif token in ("(", ")", "="):
            tokens.append((token, token, offset))
        else:
            upper = token.upper()
            tokens.append((upper, upper, offset) if upper in _KEYWORDS else ("word", token, offset))
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str) -> Query:
    """Parse a query string into its syntax tree, at any nesting depth.

    One loop reads an operand, the ``)`` after it, then an operator or the
    end. Operands and pending operators wait on two stacks, with an open
    parenthesis on the operator stack as a marker (``None``). A pending
    operator is applied once an operator that binds no tighter, a ``)`` or
    the end follows it.
    """
    tokens = _scan(text)
    operands: list[Query] = []
    operators: list[type[_Binary] | None] = []
    depth = i = 0

    def apply(op: type[_Binary]) -> None:
        # the pending operators above the innermost '(' that bind at least as tightly as op
        while operators and operators[-1] is not None and (op is Or or operators[-1] is not Or):
            right = operands.pop()
            operands[-1] = operators.pop()(operands[-1], right)

    while True:
        while tokens[i][0] == "(":
            operators.append(None)
            depth, i = depth + 1, i + 1
        kind, token, offset = tokens[i]
        if kind == "#":
            number = int(token[1:])  # _scan checked the digits
            if number < 1:
                raise QueryError("statement number must be positive", offset)
            operands.append(SetRef(number))
            i += 1
        elif kind == "word" and tokens[i + 1][0] == "=":
            field = _FIELDS.get(token.upper())
            if field is None:
                raise QueryError(f"unknown field {token!r}", offset)
            term, i = _value(field, tokens, i + 2)
            operands.append(term)
        elif kind == "word":
            raise QueryError(f"expected '=' after field name {token!r}", offset)
        elif kind == "end":
            raise QueryError("unexpected end of query; expected a term, '(' or '#N'", offset)
        else:
            raise QueryError(f"unexpected {token!r}; expected a term, '(' or '#N'", offset)
        kind, token, offset = tokens[i]
        while kind == ")" and depth:
            apply(Or)
            operators.pop()
            depth, i = depth - 1, i + 1
            kind, token, offset = tokens[i]
        if kind in _KEYWORDS:
            apply(_KEYWORDS[kind])
            operators.append(_KEYWORDS[kind])
            i += 1
        elif depth:
            raise QueryError("unbalanced parentheses: expected ')'", offset)
        elif kind != "end":
            raise QueryError(f"unexpected trailing input {token!r}", offset)
        else:
            apply(Or)
            return operands[0]


def _value(field: FieldKind, tokens: list[tuple[str, str, int]], i: int) -> tuple[Query, int]:
    """The term after ``FIELD=`` at ``tokens[i]``, and the index past it.

    A value is the words up to the next other token. ``FIELD=(a OR b OR ...)``
    is a value group, which expands to ``FIELD=a OR FIELD=b OR ...``.
    """
    group = tokens[i][0] == "("
    i += group
    terms: list[Query] = []
    while True:
        start = i
        while tokens[i][0] == "word":
            i += 1
        offset = tokens[start][2]
        if i == start:
            raise QueryError("empty value", offset)
        joined = " ".join(token for _, token, _ in tokens[start:i])
        truncated = joined.endswith("*")
        if truncated:
            joined = joined[:-1]
        if not joined.strip():
            raise QueryError("lone '*' is not a valid value", offset)
        if "*" in joined:
            raise QueryError("'*' is only allowed as a trailing truncation marker", offset)
        terms.append(Term(field, Pattern(joined, truncated)))
        if not group:
            return terms[0], i
        if tokens[i][0] == ")":
            return or_chain(terms), i + 1
        if tokens[i][0] != "OR":
            raise QueryError(
                "unbalanced parentheses in value group: expected ')' or OR", tokens[i][2]
            )
        i += 1


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def print_normalized(query: Query) -> str:
    """Render the canonical text form; reparsing yields an identical tree at any depth.

    An operator operand is parenthesized when it is the right operand, or
    when exactly one of it and its parent is an OR. So AND/NOT chains
    print flat, OR operands that are AND/NOT expressions are always
    parenthesized (``(#1 AND #2) OR (#1 AND #3)``), and the printed
    structure is unambiguous under the left-associative grammar.
    Each subtree prints to a deque of pieces; an operator moves the
    shorter operand's pieces onto the longer one, so a piece moves
    O(log n) times, and the text is joined once.
    """
    return "".join(fold(query, _print_leaf, _print_operator))


def _print_leaf(node: Term | SetRef) -> deque[str]:
    if isinstance(node, SetRef):
        return deque((f"#{node.number}",))
    star = "*" if node.pattern.truncated else ""
    return deque((f"{node.field.value}={node.pattern.text}{star}",))


def _print_operator(node: And | Or | Diff, left: deque[str], right: deque[str]) -> deque[str]:
    if isinstance(node.left, _Binary) and (type(node.left) is Or) != (type(node) is Or):
        left.appendleft("(")
        left.append(")")
    if isinstance(node.right, _Binary):
        right.appendleft("(")
        right.append(")")
    right.appendleft(f" {_SPELLING[type(node)]} ")
    if len(left) >= len(right):
        left.extend(right)
        return left
    right.extendleft(reversed(left))
    return right


# ---------------------------------------------------------------------------
# Reference evaluator (direct corpus scan)
# ---------------------------------------------------------------------------


class Oracle:
    """Index-free evaluator over one corpus, scanning each distinct term once.

    The first evaluation of a ``Term`` scans the field's column and keeps
    the matching ids as a frozenset; later evaluations over the same corpus
    reuse it, so the oracle holds at most one id set per distinct term.
    Operators combine those sets and are not kept. The corpus is
    immutable, so a kept term set can never go stale.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        # read once: a scan keeps the ids it matches, and taken from this tuple they
        # are strings every scan shares, not new ones sliced from the flat ids
        self._ids = tuple(corpus.ids)
        self._terms: dict[Term, frozenset[str]] = {}

    def evaluate(
        self, query: Query, registry: Mapping[int, Set[str]] | None = None
    ) -> set[str]:
        """Evaluate a query to a fresh set of matching record ids.

        ``registry`` resolves ``#n`` references to previously computed id
        sets.
        """
        reg: Mapping[int, Set[str]] = registry if registry is not None else {}

        def leaf(node: Term | SetRef) -> frozenset[str] | Set[str]:
            if isinstance(node, SetRef):
                try:
                    return reg[node.number]
                except KeyError:
                    raise QueryError(f"unbound set reference #{node.number}") from None
            ids = self._terms.get(node)
            if ids is None:
                # copied from a set, the kept frozenset's table fits its size;
                # one filled from the ids directly is often twice as large
                ids = self._terms[node] = frozenset(_scan_term(self.corpus, self._ids, node))
            return ids

        # a copy, so no caller can change a kept term set or a registry entry
        return set(fold(query, leaf, _combine_sets))


def _combine_sets(node: And | Or | Diff, left: Set[str], right: Set[str]) -> Set[str]:
    if isinstance(node, And):
        return left & right
    if isinstance(node, Or):
        return left | right
    return left - right


def evaluate(
    query: Query, corpus: Corpus, registry: Mapping[int, Set[str]] | None = None
) -> set[str]:
    """Evaluate a query to the set of matching record ids by scanning ``corpus``.

    A one-shot ``Oracle``: nothing is kept between calls. This evaluator is
    deliberately index-free so it can serve as an oracle for faster
    implementations.
    """
    return Oracle(corpus).evaluate(query, registry)


def field_strings(corpus: Corpus, field: FieldKind) -> tuple[Column, Sequence[Collection[str]]]:
    """The field's column and, per distinct value of it, the strings a record is found through.

    Entry k holds the strings of ``column.values[k]``: the year's digits
    for PY, each country for CU, each title for SO, and each
    whitespace-separated token of each address for AD.
    """
    if field is FieldKind.PY:
        return corpus.years, [(str(year),) for year in corpus.years.values]
    if field is FieldKind.AD:
        column = corpus.addresses
        return column, [{tok for addr in value for tok in addr.split()} for value in column.values]
    column = corpus.countries if field is FieldKind.CU else corpus.source_titles
    return column, column.values


def _scan_term(corpus: Corpus, ids: Sequence[str], term: Term) -> set[str]:
    """The ids of the records ``term`` matches: one match per distinct string, one column pass.

    Each distinct string of ``field_strings`` is matched once; then one
    pass over the field's column of value numbers keeps those of ``ids``,
    the corpus's, whose value holds a matched string. Every field, the year
    included, takes this path.
    """
    match = term.pattern.matches
    column, strings = field_strings(corpus, term.field)
    matched = {s for s in set().union(*strings) if match(s)}
    hit = [not matched.isdisjoint(value) for value in strings]
    return set(compress(ids, map(hit.__getitem__, column.codes)))
