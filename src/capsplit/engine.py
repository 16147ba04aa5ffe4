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

The engine numbers its bits in source-title order, not in corpus order.
Each distinct SO value is ordered by its *key*, its lowest title in SO's
sorted term table, and the records are numbered by their value in that
order, and in corpus order within a value. The numbering is a counting
sort: one pass counts each value's records, one places them. So the
records of the values whose keys lie in one span of titles, which is what
an SO prefix or title names, are one contiguous run of bits, built in C as
``((1 << (b - a)) - 1) << a``. A record found through a title of the span
that is not its value's key, with a key before the span, adds its own bit
below that run; only records with more than one title do. Counts,
``coverage`` and the session's ints do not depend on the bit order.

Indexing is per field and built over the column's distinct values only:
one sorted table of terms, and the codes of the values that hold each
term in one ``array('I')``, term after term, placed there by a counting
sort that holds one int per term while it runs. The terms that start with a
prefix are one span of the table, found by two bisections; a span answers
exact leaves, truncated leaves and next-symbol introspection alike. Its
terms are the strings a value is found through, as
``query.field_strings`` states them, read once per distinct value however
many records share it. SO's index keeps, per term, the first bit of its
key run and the bits of the records found through it whose keys sort
before it, and drops the codes once one walk has read them. Every other
field's leaf is made from the codes of its span and the column's codes
in engine order. Codes of typecode ``'B'`` (a
paper-scale corpus's years, country and address sets) ride through SO's
placing pass as the bytes of one word per record, so they come out in
engine order at no extra pass, and are kept reversed as ``bytes``; a leaf
is one ``translate`` of them to ``0``/``1`` digits, read by
``int(..., 2)``, which is linear and has no digit limit. For ``'I'`` codes
the index keeps one ``array('I')`` of engine bits, grouped by value code
by a counting sort, and one of where each code's group starts, so it holds
no Python object per record. A leaf sets the bits of its codes' groups in
a little-endian byte buffer of one bit per record, which
``int.from_bytes`` reads as the int.

A query is evaluated by ``query.fold``, the one walk of a query tree.
Every result is a Python ``int`` used as a bitset over engine bits:
AND, OR and NOT are ``&``, ``|`` and ``& ~``, and a count is
``int.bit_count()``. Each distinct ``Term`` leaf is turned into a bitset
once and kept. A leaf cannot go stale, so that cache is bounded by the
distinct leaves ever queried. Nothing else is cached: operator results
are recomputed on every query, and the session list holds each
statement's immutable int.
Next-symbol introspection hops from the span of one child symbol to the
next, so it reads one stored term per child, not every term under the
prefix. ``retrieve`` maps a result's engine bits to corpus positions
through ``order``, one ``array('I')`` of the corpus position of each
engine bit, placed by a second placing pass on first use, since no count
needs it; then ``Ids.select`` splits each batch of ids with a set bit and
skips the rest, so its cost follows the batches the result touches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, pairwise
from typing import Collection, Iterable, Sequence

from .corpus import _BIT_FLAGS, Corpus
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
        fields = {field: field_strings(corpus, field) for field in FieldKind}
        titles, title_strings = fields.pop(FieldKind.SO)
        self._titles = _TitleIndex(title_strings, titles.codes)
        self._index: dict[FieldKind, _FieldIndex] = {FieldKind.SO: self._titles}
        # the narrow columns ride through one placing pass, as the bytes of one word per
        # record: PY, CU and AD are at most three, and a word has four
        narrow = [field for field, (column, _) in fields.items() if column.codes.typecode == "B"]
        words = bytearray(4 * len(corpus))
        for k, field in enumerate(narrow):
            words[k::4] = fields[field][0].codes
        placed = self._titles.placed(memoryview(words).cast("I")).tobytes() if narrow else b""
        for field, (column, strings) in fields.items():
            if field in narrow:
                codes = placed[narrow.index(field)::4]
            else:
                codes = array("I", map(column.codes.__getitem__, self._order))
            self._index[field] = _CodeIndex(strings, codes)
        self._leaves: dict[Term, int] = {}
        self._statements: list[int] = []  # #k is self._statements[k - 1]

    # -- public interface ---------------------------------------------------

    def count(self, query: Query) -> CountResult:
        return self._to_count(self._eval(query).bit_count())

    def retrieve(self, query: Query) -> set[str]:
        """Materialize the result iff its cardinality is strictly below the cap."""
        return self._ids.select(self._by_position(self._below_cap(query)))

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

    @cached_property
    def _order(self) -> array:
        """The corpus position of each engine bit, placed on first use.

        Only ``retrieve`` and the build of a column of typecode ``'I'``
        outside SO read it; a count, a plan or a run never does.
        """
        return self._titles.placed(range(len(self._ids)))

    def _by_position(self, bits: int) -> int:
        """The bitset over corpus positions of a bitset over engine bits: engine bit i
        is the record at position ``_order[i]``.

        ``bytes.find`` hops from one set bit's flag to the next, so a sparse
        result, as a sub-cap one is, costs little more than its hits.
        """
        flags = format(bits, "b")[::-1].encode("ascii").translate(_BIT_FLAGS)
        buf = bytearray((len(self._ids) + 7) >> 3)
        order = self._order
        i = flags.find(1)
        while i >= 0:
            pos = order[i]
            buf[pos >> 3] |= 1 << (pos & 7)
            i = flags.find(1, i + 1)
        return int.from_bytes(buf, "little")

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
    """One field's sorted term table, and the bitset of a span of its terms over engine bits.

    ``terms`` lists every term of ``query.field_strings`` once, sorted, so
    the terms that start with a prefix are one span, found by ``_span``. A
    leaf is the bitset of such a span (of its first term alone, if that
    term equals an exact leaf's text), and a subclass's ``_bits`` builds
    it. The engine numbers its bits in source-title order, not in corpus
    order: each SO value is ordered by its lowest title (its *key*), and
    the records by their value. ``_TitleIndex``, SO's index, sets that
    order, and a leaf of it is one run of bits plus the bits of records
    found through a second title. ``_CodeIndex`` serves every other field
    from its column's codes, taken in engine order once, at build.
    ``retrieve`` maps engine bits back to corpus positions through the
    engine's ``_order``.
    """

    def __init__(self, terms: list[str]) -> None:
        self.terms = terms

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
        return self._bits(lo, hi)

    def _bits(self, lo: int, hi: int) -> int:
        """The bitset of the records found through ``terms[lo:hi]``."""
        raise NotImplementedError

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


class _TitleIndex(_FieldIndex):
    """SO's index, which sets the engine order: a leaf is one run of bits plus a few stray bits.

    A value's *key* is its lowest title, and the values are ordered by key,
    then by code; the records are numbered by their value in that order,
    and in corpus order within a value. ``_first_bits[code]`` is the first
    bit of value ``code``'s records, which run on for as many bits as the
    value has records, and ``_key_bits[t]`` is the first bit of the values
    whose keys are not below ``terms[t]``. So the values whose keys lie in a
    span of terms hold one run of bits, built in C as
    ``((1 << (b - a)) - 1) << a``. A value found through a term of the span
    that is not its key, and whose key sorts before the span, adds its bits
    outside that run: ``_extras`` holds, term after term, the bits of the
    values found through each term whose keys sort before it,
    ``terms[t]``'s from ``_extra_starts[t]`` to ``_extra_starts[t + 1]``. A
    span's extras are those of its terms' bits below its run, and only
    records with more than one title give any, so a leaf's int ends where
    its run ends.
    """

    def __init__(self, strings: Sequence[Collection[str]], codes: array) -> None:
        terms, term_starts, term_codes = _term_table(strings)
        super().__init__(terms)
        counts = _counts(codes, len(strings))
        unplaced = len(codes)  # above every first bit
        first_bits = array("I", [unplaced]) * len(strings)
        key_bits, extras, extra_starts = array("I"), array("I"), array("I", [0])
        bit = 0
        for start, end in pairwise(term_starts):
            # the terms ascend, so a value is first met under its key
            key_bits.append(bit)
            low = bit
            for code in term_codes[start:end]:
                first = first_bits[code]
                if first == unplaced:
                    first_bits[code] = bit
                    bit += counts[code]
                elif first < low:  # a key before this term; a repeated title is not
                    size = counts[code]
                    if size == 1:  # most such values hold one record; append is cheaper
                        extras.append(first)
                    else:
                        extras.extend(range(first, first + size))
            extra_starts.append(len(extras))
        key_bits.append(bit)
        self._key_bits, self._extras, self._extra_starts = key_bits, extras, extra_starts
        self._first_bits, self._codes = first_bits, codes

    def placed(self, items: Iterable[int]) -> array:
        """One ``'I'`` item per record, given in corpus order, in engine order.

        The placing pass of the counting sort that numbers the records:
        each record's item goes to the next free bit of its value's run.
        """
        return _placed(self._codes, self._first_bits.tolist(), items)

    def _bits(self, lo: int, hi: int) -> int:
        a, b = self._key_bits[lo], self._key_bits[hi]
        bits = ((1 << (b - a)) - 1) << a
        extras = self._extras[self._extra_starts[lo]:self._extra_starts[hi]]
        if extras:
            # little-endian bytes below the run: bit p is bit p & 7 of byte p >> 3
            buf = bytearray((a + 7) >> 3)
            for pos in filter(a.__gt__, extras):
                buf[pos >> 3] |= 1 << (pos & 7)
            bits |= int.from_bytes(buf, "little")
        return bits


class _CodeIndex(_FieldIndex):
    """A field other than SO: the codes of the values found through each term, and its column.

    ``_term_codes`` holds those codes term after term, ``terms[i]``'s from
    ``_term_starts[i]`` to ``_term_starts[i + 1]``, so a span of terms is one
    slice. A value found through two terms of a span is met twice there,
    which only sets its bits twice. The column's codes come in engine
    order. Narrow codes (``bytes``, one per record) are kept last record
    first, so that ``translate`` with a table that maps each matching code
    to ``1`` and every other to ``0`` writes the bitset in base 2. Codes of
    typecode ``'I'`` give one ``array('I')`` of engine bits, grouped by
    value code and ascending within a code, and one ``array('I')`` of where
    each code's group starts, instead. A leaf then sets the bits of its
    codes' groups one by one in a little-endian byte buffer that
    ``int.from_bytes`` reads.
    """

    def __init__(self, strings: Sequence[Collection[str]], codes: bytes | array) -> None:
        terms, self._term_starts, self._term_codes = _term_table(strings)
        super().__init__(terms)
        self._size = len(codes)
        if isinstance(codes, bytes):
            self._reversed_codes = codes[::-1]
        else:
            self._reversed_codes = None
            self._starts, self._positions = _grouped(codes, len(strings))

    def _bits(self, lo: int, hi: int) -> int:
        codes = self._term_codes[self._term_starts[lo]:self._term_starts[hi]]
        if self._reversed_codes is not None:
            table = bytearray(b"0" * 256)
            for code in codes:
                table[code] = 49  # ord("1")
            # base 2 has no digit limit; an empty corpus reads as "0"
            return int(self._reversed_codes.translate(table) or b"0", 2)
        # little-endian bytes: bit p is bit p & 7 of byte p >> 3
        buf = bytearray((self._size + 7) >> 3)
        positions, starts = self._positions, self._starts
        for code in codes:
            for pos in positions[starts[code]:starts[code + 1]]:
                buf[pos >> 3] |= 1 << (pos & 7)
        return int.from_bytes(buf, "little")


def _term_table(strings: Sequence[Collection[str]]) -> tuple[list[str], array, array]:
    """The sorted terms of ``strings``, where each term's codes start, and the codes.

    A counting sort, as in ``_grouped``: first how many values hold each
    term, then each value's code goes to the next free slot of each of its
    terms, so one term's codes ascend. It holds one int per term, not one
    array per term.
    """
    sizes = Counter(chain.from_iterable(strings))
    terms = sorted(sizes)
    starts = array("I", accumulate(map(sizes.__getitem__, terms), initial=0))
    # each term's next free slot, in a plain dict: CPython specializes item access on
    # a dict, not on a Counter; the Counter goes first, so only one is held at a time
    del sizes
    free = dict(zip(terms, starts))
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
    starts = array("I", accumulate(_counts(codes, width), initial=0))
    return starts, _placed(codes, starts.tolist(), range(len(codes)))


def _counts(codes: array, width: int) -> list[int]:
    """How many of ``codes`` hold each of the ``width`` codes."""
    counts = [0] * width
    for code in codes:  # a list counts an array's codes in half the time of a Counter
        counts[code] += 1
    return counts


def _placed(codes: array, free: list[int], items: Iterable[int]) -> array:
    """The placing pass of a counting sort: item i goes to slot ``free[codes[i]]``, which
    then moves on one, so ``free`` must start at the first slot of each code's group."""
    placed = array("I", bytes(4 * len(codes)))
    for code, item in zip(codes, items):
        slot = free[code]
        placed[slot] = item
        free[code] = slot + 1
    return placed
