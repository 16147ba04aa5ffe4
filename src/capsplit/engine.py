"""Capped query engine: cheap counts, materialization refused at the cap.

The engine models the retrieval interface that motivates strategy
partitioning in the first place. Counting a query is always allowed;
``retrieve`` hands back the full id set only when its cardinality is
strictly below the configured cap and raises ``CapExceededError``
otherwise. As in an interactive search session, statements registered on
the engine are numbered in order: ``#k`` names the k-th statement
registered since ``clear_statements()``. A statement is added only once
it has been evaluated, so any reference past the last one, including a
statement's reference to itself or to a later number, raises "unbound
set reference #k".

``coverage`` answers what downloading several sub-cap results would
show without naming a record: for k = 1, 2, ..., how many records at
least k of them match. It folds their bitsets into an "at least k"
ladder, one ``|`` and one ``&`` per result and rung, and refuses any
result at or above the cap exactly as ``retrieve`` does.

Two count modes exist. ``visible`` reports every count exactly, however
large. ``censored`` reports counts at or above the cap only as
"at least the cap", which is the harder interface an automatic planner
may have to probe.
``CountResult.fits(cap)`` is the one cap rule (exact and strictly below
the cap) that the engine, planner and runner ask; ``str`` of a count
gives the digits or "at least the cap" for every refusal message.

Indexing is per field and built over the column's distinct values only:
one sorted table of terms, and the codes of the values that hold each
term in one ``array('I')``, term after term, placed there by a counting
sort that holds one int per term while it runs. The terms that start with a
prefix are one span of the table, found by two bisections, and their
codes one slice; a span answers exact leaves, truncated leaves and
next-symbol introspection alike. Its terms are the strings a value is
found through, as ``query.field_strings`` states them, read once per
distinct value however many records share it. How a leaf's bitset is
made from those value codes follows from the typecode of the column's
code array, which ``corpus`` chooses. Codes of typecode ``'B'`` (a
paper-scale corpus's years, country and address sets) are reversed into
``bytes`` in one slice; a leaf is one ``translate`` of them to ``0``/``1``
digits, read by ``int(..., 2)``, which is linear and has no digit limit.
For ``'I'`` codes (source titles) the index keeps one ``array('I')`` of
record positions, grouped by value code by a counting sort, and one of
where each code's group starts, so it holds no Python object per record.
A leaf sets the bits of its codes' positions in a little-endian byte
buffer of one bit per record, which ``int.from_bytes`` reads as the int.

A query is evaluated by ``query.fold``, the one walk of a query tree.
Every result is a Python ``int`` used as a bitset over record positions:
AND, OR and NOT are ``&``, ``|`` and ``& ~``, and a count is
``int.bit_count()``. Each distinct ``Term`` leaf is turned into a bitset
once and kept. A leaf cannot go stale, so that cache is bounded by the
distinct leaves ever queried. Nothing else is cached: operator results
are recomputed on every query, and the session list holds each
statement's immutable int.
Next-symbol introspection hops from the span of one child symbol to the
next, so it reads one stored term per child, not every term under the
prefix. ``retrieve`` hands a result's bitset to ``Ids.select``, which
skips every batch of ids without a set bit, so its cost follows the
result size, not the corpus size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Collection, Iterable, Sequence

from .corpus import Column, Corpus
from .query import And, Diff, FieldKind, Or, Pattern, Query, SetRef, Term, field_strings, fold

VISIBLE = "visible"
CENSORED = "censored"


class EngineError(Exception):
    """Engine configuration or registry misuse."""


class CapExceededError(EngineError):
    """Raised when retrieving a result set whose cardinality reaches the cap."""

    def __init__(self, count: "CountResult", cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"result set has {count} records; cap is {cap}")


@dataclass(frozen=True)
class EngineConfig:
    cap: int = 100_000
    count_mode: str = VISIBLE

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise EngineError(f"cap must be >= 1, got {self.cap}")
        if self.count_mode not in (VISIBLE, CENSORED):
            raise EngineError(f"count_mode must be {VISIBLE!r} or {CENSORED!r}")


@dataclass(frozen=True)
class CountResult:
    """An exact count, or the censored answer "at least the cap" (value None)."""

    value: int | None

    @classmethod
    def exact(cls, n: int) -> "CountResult":
        return cls(n)

    @classmethod
    def at_least_cap(cls) -> "CountResult":
        return cls(None)

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def expect_exact(self) -> int:
        if self.value is None:
            raise EngineError("count was censored at the cap")
        return self.value

    def fits(self, cap: int) -> bool:
        """Whether the result can be materialized: exact and strictly below ``cap``."""
        return self.value is not None and self.value < cap

    def __str__(self) -> str:
        return "at least the cap" if self.value is None else str(self.value)


class CappedEngine:
    """Queries over one immutable corpus through a capped interface."""

    def __init__(self, corpus: Corpus, config: EngineConfig | None = None):
        self.corpus = corpus
        self.config = config or EngineConfig()
        self._ids = corpus.ids
        self._index = {field: _FieldIndex(*field_strings(corpus, field)) for field in FieldKind}
        self._leaves: dict[Term, int] = {}
        self._statements: list[int] = []  # #k is self._statements[k - 1]

    # -- public interface ---------------------------------------------------

    def count(self, query: Query) -> CountResult:
        return self._to_count(self._eval(query).bit_count())

    def retrieve(self, query: Query) -> set[str]:
        """Materialize the result iff its cardinality is strictly below the cap."""
        return self._ids.select(self._below_cap(query))

    def coverage(self, queries: Iterable[Query]) -> list[int]:
        """How many records at least k of the queries match, for k = 1, 2, ...

        Entry k-1 counts the records matched by at least k queries, and the
        list ends at the highest k with any, so its first entry is the size
        of the union and its length the maximum multiplicity. Each query
        must be materializable: one at or above the cap raises
        ``CapExceededError``, as ``retrieve`` does.
        """
        levels: list[int] = []  # levels[k]: the records matched by at least k + 1 queries
        for query in queries:
            carry = self._below_cap(query)
            for k, level in enumerate(levels):
                levels[k], carry = level | carry, level & carry
            if carry:
                levels.append(carry)
        return [level.bit_count() for level in levels]

    def register(self, query: Query) -> CountResult:
        """Evaluate the next numbered statement, store it, return its count.

        The statement becomes ``#k``, where k counts the statements
        registered since ``clear_statements()``, this one included. It stays
        countable via ``#k`` even when it is at or above the cap; only
        materialization is capped.
        """
        hits = self._eval(query)
        self._statements.append(hits)
        return self._to_count(hits.bit_count())

    def clear_statements(self) -> None:
        """Forget every numbered statement, so a new session numbers from #1."""
        self._statements.clear()

    def prefix_children(self, field: FieldKind, prefix: str) -> set[str]:
        """Distinct characters that follow ``prefix`` among the field's stored terms.

        The prefix is a raw character position into the normalized terms
        (only case-folded here), so positions ending on a word boundary,
        like ``"JOURNAL "``, stay addressable. Terms exactly equal to the
        prefix contribute nothing; they form the exact-match residue a
        planner must cover separately.
        """
        return self._index[field].children(prefix.upper())

    # -- evaluation ---------------------------------------------------------

    def _to_count(self, n: int) -> CountResult:
        if self.config.count_mode == CENSORED and n >= self.config.cap:
            return CountResult.at_least_cap()
        return CountResult.exact(n)

    def _below_cap(self, query: Query) -> int:
        """Evaluate a query that is to be materialized; refuse it at or above the cap."""
        hits = self._eval(query)
        count = self._to_count(hits.bit_count())
        if not count.fits(self.config.cap):
            raise CapExceededError(count, self.config.cap)
        return hits

    def _eval(self, query: Query) -> int:
        return fold(query, self._leaf, _combine)

    def _leaf(self, node: Term | SetRef) -> int:
        if isinstance(node, SetRef):
            # SetRef numbers are >= 1; a statement still being registered
            # is not in the list yet, so self and forward references fail too
            if node.number > len(self._statements):
                raise EngineError(f"unbound set reference #{node.number}")
            return self._statements[node.number - 1]
        bits = self._leaves.get(node)
        if bits is not None:
            return bits
        bits = self._leaves[node] = self._index[node.field].leaf(node.pattern)
        return bits


def _combine(node: And | Or | Diff, left: int, right: int) -> int:
    if isinstance(node, And):
        return left & right
    if isinstance(node, Or):
        return left | right
    return left & ~right


class _FieldIndex:
    """One field's index: a sorted term table, and the bitset of a span of its terms.

    ``terms`` lists every term of ``query.field_strings`` once, sorted, and
    ``_codes`` the codes of the distinct values found through each, term
    after term, ``terms[i]``'s from ``_term_starts[i]`` to ``_term_starts[i + 1]``,
    so the span of terms that ``_span`` finds is one slice. A value found
    through two terms of a span is met twice there, which only sets its
    bits twice. Column codes of typecode ``'B'`` are kept as ``bytes``, last
    record first (one slice), so that ``translate`` with a table that maps
    each matching code to ``1`` and every other to ``0`` writes the bitset
    in base 2. Codes of typecode ``'I'`` give one ``array('I')`` of record
    positions, grouped by value code and ascending within a code, and one
    ``array('I')`` of where each code's group starts, instead. A leaf then
    sets the bits of its codes' positions one by one
    in a little-endian byte buffer that ``int.from_bytes`` reads.
    """

    def __init__(self, column: Column, strings: Sequence[Collection[str]]) -> None:
        self.terms, self._term_starts, self._codes = _term_table(strings)
        self._size = len(column.codes)
        if column.codes.typecode == "B":
            self._reversed_codes = column.codes[::-1].tobytes()
        else:
            self._reversed_codes = None
            self._starts, self._positions = _grouped(column.codes, len(column.values))

    def _span(self, prefix: str, lo: int = 0, hi: int | None = None) -> tuple[int, int]:
        """The bounds of the terms in ``lo:hi`` that start with ``prefix``: from the first
        not below it to the first whose leading ``len(prefix)`` characters sort above it."""
        cut = len(prefix)
        lo = bisect_left(self.terms, prefix, lo, hi)
        return lo, bisect_right(self.terms, prefix, lo, hi, key=lambda term: term[:cut])

    def leaf(self, pattern: Pattern) -> int:
        """The bitset of the records found through ``pattern``: through a term
        that starts with its text if it is truncated, equals its text if not."""
        lo, hi = self._span(pattern.text)
        if not pattern.truncated:  # a term equal to the text sorts first in its span
            hi = lo + 1 if lo < hi and self.terms[lo] == pattern.text else lo
        codes = self._codes[self._term_starts[lo]:self._term_starts[hi]]
        if self._reversed_codes is not None:
            table = bytearray(b"0" * 256)
            for code in codes:
                table[code] = 49  # ord("1")
            # base 2 has no digit limit; an empty corpus reads as "0"
            return int(self._reversed_codes.translate(table) or b"0", 2)
        # little-endian bytes: position p is bit p & 7 of byte p >> 3
        buf = bytearray((self._size + 7) >> 3)
        positions, starts = self._positions, self._starts
        for code in codes:
            for pos in positions[starts[code]:starts[code + 1]]:
                buf[pos >> 3] |= 1 << (pos & 7)
        return int.from_bytes(buf, "little")

    def children(self, prefix: str) -> set[str]:
        """The characters that follow ``prefix`` in the terms, one hop per character."""
        cut = len(prefix)
        lo, hi = self._span(prefix)
        if lo < hi and len(self.terms[lo]) == cut:  # the term equal to the prefix
            lo += 1
        children: set[str] = set()
        while lo < hi:
            ch = self.terms[lo][cut]
            children.add(ch)
            lo = self._span(prefix + ch, lo, hi)[1]
        return children


def _term_table(strings: Sequence[Collection[str]]) -> tuple[list[str], array, array]:
    """The sorted terms of ``strings``, where each term's codes start, and the codes.

    A counting sort, as in ``_grouped``: first how many values hold each
    term, then each value's code goes to the next free slot of each of its
    terms, so one term's codes ascend. It holds one int per term, not one
    array per term.
    """
    free = Counter(chain.from_iterable(strings))
    terms = sorted(free)
    starts = array("I", accumulate(map(free.__getitem__, terms), initial=0))
    # dict.update sets each term's first slot in place (Counter.update would add)
    dict.update(free, zip(terms, starts))
    codes = array("I", bytes(4 * starts[-1]))
    for code, value_terms in enumerate(strings):
        for term in value_terms:
            slot = free[term]
            codes[slot] = code
            free[term] = slot + 1
    return terms, starts, codes


def _grouped(codes: array, width: int) -> tuple[array, array]:
    """Where each of ``width`` codes' group starts, and the positions of ``codes`` by group.

    A counting sort: the groups are sized by a count of the codes, then each
    position is placed at the next free slot of its code's group, so the
    positions of one code ascend.
    """
    counts = [0] * width
    for code in codes:  # a list counts an array's codes in half the time of a Counter
        counts[code] += 1
    starts = array("I", accumulate(counts, initial=0))
    free = starts.tolist()
    positions = array("I", bytes(4 * len(codes)))
    for pos, code in enumerate(codes):
        slot = free[code]
        positions[slot] = pos
        free[code] = slot + 1
    return starts, positions
