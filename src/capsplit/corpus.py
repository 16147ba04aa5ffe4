"""Record corpora for capped-retrieval experiments.

A corpus is an ordered collection of bibliographic-style records, each
carrying a publication year, one or more source titles (a journal title,
sometimes plus the title of the series it belongs to), affiliation
countries, and author addresses. Multi-valued source titles are the one
mechanism by which a record can fall into two initial-letter buckets at
once, which is exactly what the strategy runner has to reconcile.

This module owns:

- the ``Record``/``Corpus`` types and their normalization rules,
- the tab-separated on-disk format (``ingest``/``serialize``),
- a fully seeded synthetic generator (``generate``),
- three reference fixtures (``build_fixture``) whose statement counts
  under the shipped seven-statement grouping are known exactly and are
  asserted by the regression suite.

A corpus is stored by column, not by record: an id column and, for the
year, source titles, countries and addresses, one ``Column`` each. A
column holds a table of the distinct parsed values (a year, a titles
tuple, a country set, an address set) and one number per record into that
table, so work that depends only on a value (parsing, serializing,
indexing, matching) is done once per distinct value. A paper-scale corpus
has half a million records but one year, tens of thousands of distinct
titles and a few dozen distinct country and address sets. One encoder
fills every column, parsing each distinct raw value once. No field keeps
a Python object per record: a column's numbers are one ``array`` (``'B'``
up to 256 values, ``'I'`` beyond), and the ids are kept as the batches
they were read or numbered in, one tab-joined ``str`` each (``Ids``).
Every builder fills these buffers directly, and its batches and code
arrays become the corpus with no copy or join. ``serialize`` writes each
batch's ids from their joined text without splitting it. ``Record``
stays the value type of one record: ``Corpus(records)`` encodes records,
and iterating a corpus builds them back on demand. ``ingest`` reads text a
bounded batch of lines at a time and fills the columns a column at a
time, with no Python step per line. It has one line reader: a batch that
holds an error is read again through it one line at a time, to name its
first bad line.

Each kind of input has one reader, whatever door it enters by.
``_parse_field`` reads SO, CU and AD values: ``ingest`` text once per
distinct field text, ``Record``'s Python values, and a generator profile's
countries and address pools once per ``generate`` call, drawn or not.
``CorpusProfile.validate`` checks a profile's types, then its values, for
Python and JSON profiles alike. ``_ascii_int`` reads a number written in
ASCII digits: a year here, and the CLI's counts and ``#N`` in queries;
``_ascii_float`` also takes one ``.``, for ``gen``'s weights and probability.
Ingest, the generator and the fixtures then fill the columns without
rechecks.
"""

from __future__ import annotations

import io
import math
import operator
import random
import sys
from array import array
from bisect import bisect, insort
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, lt, not_
from typing import Iterable, Iterator

# Canonical symbol order for title initials: letters first, then digits.
SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

_SYMBOL_RANK = {c: i for i, c in enumerate(SYMBOLS)}

FILE_HEADER = "# id\tpub_year\tsource_titles\tcountries\taddresses"


def symbol_sort_key(ch: str) -> tuple[int, int]:
    """Sort key placing A..Z before 0..9, anything else after by codepoint."""
    rank = _SYMBOL_RANK.get(ch)
    if rank is not None:
        return (0, rank)
    return (1, ord(ch))


def normalize_text(value: str) -> str:
    """Uppercase and collapse all whitespace runs to single spaces."""
    return " ".join(value.upper().split())


class CorpusError(ValueError):
    """Malformed corpus data: bad lines, duplicate ids, invalid profiles."""


# '()=#*' can never appear in a query pattern, so a stored value containing
# them would be unreachable by any statement and silently escape every export
# strategy; '|' is also the multi-value separator.
_PATTERN_RESERVED = frozenset("()=#*")
_VALUE_RESERVED = _PATTERN_RESERVED | {"|"}


def _ascii_int(text: str) -> int | None:
    """The number ``text`` writes in ASCII digits, or None, also past ``int``'s digit limit."""
    if not (text.isascii() and text.isdigit()):  # int() alone takes "１０", "1_0" and " 7"
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def _ascii_float(text: str) -> float | None:
    """The number ``text`` writes in ASCII digits with at most one ``.``, or None."""
    # float() alone takes "٠.٥", "1_0", " 7" and "inf"
    return float(text) if text.isascii() and text.replace(".", "", 1).isdigit() else None


def _parse_year(text: str) -> int:
    """Read a year written as ``serialize`` writes one: ASCII digits, no sign or leading zero."""
    year = _ascii_int(text)
    if year is None or str(year) != text:
        raise CorpusError(f"unparsable year {text!r}")
    return year


def _too_long(year: int) -> bool:
    """Whether ``year`` has more digits than ``str`` converts, so no corpus text can hold it."""
    try:
        str(year)
    except ValueError:
        return True
    return False


def _surrogate_at(text: str) -> int | None:
    """The offset of the first lone surrogate in ``text``, or None.

    Python reads a byte of argv that is not UTF-8, and a JSON ``\\udcff``
    escape, as a lone surrogate; no UTF-8 text holds one, so no corpus can
    store it and no writer can write it.
    """
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return None


def _check_id(text: str) -> str:
    """Normalize a record id and check that it is one token of UTF-8 text free of ``#``
    and ``|``."""
    rid = normalize_text(text)
    if not rid or " " in rid:
        raise CorpusError(f"record id must be a non-empty token, got {text!r}")
    if rid.startswith("#") or "|" in rid:
        raise CorpusError(f"record id {rid!r} uses a reserved character")
    if _surrogate_at(rid) is not None:
        raise CorpusError(f"record id {rid!r} holds a lone surrogate, which is not UTF-8 text")
    return rid


@dataclass(frozen=True, slots=True)
class Record:
    """One bibliographic item, stored fully normalized.

    ``source_titles`` keeps ingestion order (it is a list-like field);
    ``countries`` and ``addresses`` are sets and serialize sorted.
    """

    id: str
    pub_year: int
    source_titles: tuple[str, ...]
    countries: frozenset[str]
    addresses: frozenset[str]

    def __post_init__(self) -> None:
        rid = _check_id(self.id)
        year = self.pub_year
        if not isinstance(year, int) or isinstance(year, bool) or year < 0:
            raise CorpusError(f"record {rid!r} pub_year must be a non-negative int, got {year!r}")
        if _too_long(year):
            raise CorpusError(f"record {rid!r} pub_year must be a non-negative int of at most "
                              f"{sys.get_int_max_str_digits()} digits")
        object.__setattr__(self, "id", rid)
        for tag, name in (("SO", "source_titles"), ("CU", "countries"), ("AD", "addresses")):
            try:
                object.__setattr__(self, name, _parse_field(tag, getattr(self, name), text=False))
            except CorpusError as exc:
                raise CorpusError(f"record {rid!r}: {exc}") from None


@dataclass(frozen=True, eq=False)
class Column:
    """One dictionary-encoded field: its distinct values and, per record, an index into them.

    ``values`` holds each distinct parsed value once (a year, a titles
    tuple, a country set or an address set); ``codes[pos]`` is the index
    of the value of the record at ``pos``. The codes are one ``array``:
    typecode ``'B'`` for at most 256 values, ``'I'`` for more, by the rule of
    ``_Encoder.column``. Iterating yields the value of every record in order.
    """

    values: tuple
    codes: array

    def __iter__(self) -> Iterator:
        return map(self.values.__getitem__, self.codes)


# a binary digit -> a flag that ``itertools.compress`` reads
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


class Ids(Sequence):
    """A corpus's record ids, in order, as the batches they were built or read in.

    Each batch is one ``str`` of at most ``_BATCH_LINES`` ids joined by tabs,
    and ``_ends[b]`` is the number of ids in batches ``0..b``. A batch that
    ``ingest`` read holds fewer ids where comment lines took some of its
    lines. An id holds no whitespace, so a tab cannot occur inside one.
    Indexing splits the one batch that holds the id; iteration splits a
    batch at a time. The sequence equals any sequence of the same ids,
    however they are batched, and, like a list, it is unhashable.
    """

    __slots__ = ("_batches", "_ends")

    def __init__(self, ids: Iterable[str]) -> None:
        self._batches: list[str] = []
        self._ends: list[int] = []
        ids = iter(ids)
        while batch := list(islice(ids, _BATCH_LINES)):
            self._add(batch)

    def _add(self, batch: list[str]) -> None:
        """Append a batch of at least one and at most ``_BATCH_LINES`` checked ids."""
        self._batches.append("\t".join(batch))
        self._ends.append(len(self) + len(batch))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index: int) -> str:
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("id index out of range")
        b = bisect(self._ends, i)
        return self._batches[b].split("\t")[i - (self._ends[b - 1] if b else 0)]

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(map(str.split, self._batches, repeat("\t")))

    def select(self, bits: int) -> set[str]:
        """The set of the ids whose bits are set in ``bits``, bit ``i`` standing for id ``i``.

        Each batch with a set bit is split and filtered by its bits; a batch
        with none is skipped, so the cost follows the batches touched.
        """
        flags = format(bits, "b")[::-1].encode("ascii").translate(_BIT_FLAGS)
        found: set[str] = set()
        for batch, lo, hi in zip(self._batches, [0, *self._ends], self._ends):
            if 1 in flags[lo:hi]:
                found.update(compress(batch.split("\t"), flags[lo:hi]))
        return found

    def _text(self) -> str:
        """Every id joined by tabs, the same text however the ids are batched."""
        return "\t".join(self._batches)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ids):  # a tab cannot occur inside an id
            return self._text() == other._text()
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # equal to tuples, whose hashes it cannot match cheaply

    def __repr__(self) -> str:
        return f"Ids({list(self)!r})"


class _Encoder(dict):
    """Maps a raw value to the number of its parsed value, recording one code per record.

    A raw value seen for the first time is parsed once, by ``parse``; parsed
    values are numbered in first-seen order in ``numbers``, so raw values that
    parse alike share one number. Without ``parse`` a raw value is its own value,
    and ``numbers`` is the encoder itself. ``add`` records one record's number in
    ``codes``, an ``array('I')`` unless a builder puts another buffer there."""

    def __init__(self, parse=None) -> None:
        super().__init__()
        self.parse = parse
        self._parsed: dict | None = None if parse is None else {}
        self.codes = array("I")

    # not an attribute: an encoder holding itself is a cycle, which outlives its builder
    numbers = property(lambda self: self if self.parse is None else self._parsed)

    def __missing__(self, raw) -> int:
        if self.parse is None:
            number = self[raw] = len(self)
        else:
            number = self[raw] = self._parsed.setdefault(self.parse(raw), len(self._parsed))
        return number

    def add(self, raw) -> None:
        self.codes.append(self[raw])

    def column(self, order: Iterable[int] | None = None) -> Column:
        """The column of the recorded codes, or of ``codes[i] for i in order``.

        Its codes are an ``array`` of typecode ``'B'`` for at most 256 values, ``'I'``
        beyond: recorded codes in that array are the column's own, others are converted."""
        values = tuple(self.numbers)
        typecode = "B" if len(values) <= 256 else "I"
        codes = self.codes if order is None else map(self.codes.__getitem__, order)
        if getattr(codes, "typecode", None) != typecode:  # a list, a map or the other array
            # bytes() of an iterator reads its items at C speed; array("B") parses each one
            codes = array("B", bytes(iter(codes))) if typecode == "B" else array("I", codes)
        return Column(values, codes)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Corpus:
    """Immutable ordered record collection, stored by column.

    ``ids`` holds one id per record, as ``Ids``; ``years``,
    ``source_titles``, ``countries`` and ``addresses`` are ``Column``s, so
    each distinct value is stored once however many records carry it, and
    each record costs one code in a flat buffer. No field keeps a Python
    object per record. ``Corpus(records)`` builds one from ``Record``s;
    iterating yields equal ``Record``s in order, built on demand. Two
    corpora are equal, and hash alike, when they hold the same records in
    the same order, however they were built and their value tables laid out.
    """

    ids: Ids
    years: Column
    source_titles: Column
    countries: Column
    addresses: Column

    def __init__(self, records: Iterable[Record]):
        ids: list[str] = []
        seen: set[str] = set()
        years, titles, countries, addresses = _Encoder(), _Encoder(), _Encoder(), _Encoder()
        for pos, rec in enumerate(records):
            if rec.id in seen:
                raise CorpusError(
                    f"duplicate record id {rec.id!r} at position {pos + 1} "
                    f"(first seen at position {ids.index(rec.id) + 1})"
                )
            seen.add(rec.id)
            ids.append(rec.id)
            years.add(rec.pub_year)
            titles.add(rec.source_titles)
            countries.add(rec.countries)
            addresses.add(rec.addresses)
        self._fill(Ids(ids), years.column(), titles.column(), countries.column(),
                   addresses.column())

    @classmethod
    def _of(cls, ids: Ids | Iterable[str], years: Column, titles: Column,
            countries: Column, addresses: Column) -> "Corpus":
        """A corpus of columns whose values and ids were checked where they entered.

        Ids given as any other iterable, a tuple say, are stored as ``Ids``.
        """
        corpus = object.__new__(cls)
        corpus._fill(ids if isinstance(ids, Ids) else Ids(ids), years, titles, countries,
                     addresses)
        return corpus

    def _fill(self, *columns) -> None:
        names = ("ids", "years", "source_titles", "countries", "addresses")
        for name, column in zip(names, columns):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Record]:
        # the values were checked when they entered the corpus, so the
        # records are built without Record's checks
        new, put = object.__new__, object.__setattr__
        for rid, year, titles, countries, addresses in zip(
            self.ids, self.years, self.source_titles, self.countries, self.addresses
        ):
            rec = new(Record)
            put(rec, "id", rid)
            put(rec, "pub_year", year)
            put(rec, "source_titles", titles)
            put(rec, "countries", countries)
            put(rec, "addresses", addresses)
            yield rec

    @property
    def records(self) -> tuple[Record, ...]:
        """Every record in order, built on demand."""
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.ids == other.ids and all(
            list(getattr(self, name)) == list(getattr(other, name))
            for name in ("years", "source_titles", "countries", "addresses")
        )

    def __hash__(self) -> int:
        return hash(self.ids._text())


def _numbered(years: Column, titles: Column, countries: Column,
              addresses: Column) -> Corpus:
    """Number generated columns R0000001, R0000002, ...; unique by construction.

    Every id is padded to one width, so the ids ascend as text at any size,
    and ``ingest`` checks them for repeats without a set (see ``_Reader``).
    """
    n = len(years.codes)
    width = max(7, len(str(n)))
    ids = Ids(map(f"R%0{width}d".__mod__, range(1, n + 1)))
    return Corpus._of(ids, years, titles, countries, addresses)


# ---------------------------------------------------------------------------
# On-disk format
#
# UTF-8, LF line endings. Lines starting with '#' are comments. A data line
# has exactly 5 tab-separated fields:
#
#   id <TAB> pub_year <TAB> so1|so2|... <TAB> cu1|cu2|... <TAB> ad1|ad2|...
#
# The address field may be empty; all others are mandatory.
# ---------------------------------------------------------------------------


# Lines are read this many at a time: enough to make each batch's column
# work cheap per line, few enough that the batch's cells, held while its
# columns fill, add little to the peak memory of reading a large file.
_BATCH_LINES = 4096


def ingest(source: str | Iterable[str]) -> Corpus:
    """Parse line-oriented corpus text into a Corpus.

    ``source`` is either the whole text or an iterable of lines (an open
    text file works). Errors carry the 1-based line number; duplicate ids
    name both offending lines. Each distinct text of a field is parsed and
    checked once per call, and each record stores only the number of its
    parsed value in that field's table, so texts that normalize alike
    (``usa``, ``USA``) share one value.

    Lines are read in bounded batches by one reader, ``_Reader.read``,
    which checks a batch a column at a time, with no Python step per line.
    A batch it refuses is read again through it one line at a time, and
    the first line it refuses is named. While the ids ascend, as they do in
    every file ``gen`` writes, no id is held twice: the duplicate check keeps
    only the last id read, and a set of the ids is built only once they
    break that order.
    """
    # A string is read as a text file is, breaking lines only on \n, \r and \r\n.
    lines = iter(io.StringIO(source, newline=None) if isinstance(source, str) else source)
    first = list(islice(lines, 1))
    if first and first[0].startswith("\ufeff"):
        raise CorpusError("line 1: text starts with a byte-order mark (U+FEFF); "
                          "corpus text is UTF-8 without one")
    lines = chain(first, lines)
    reader = _Reader()
    start = 1
    while batch := list(islice(lines, _BATCH_LINES)):
        try:
            reader.read(batch, start)
        except CorpusError:
            for lineno, line in enumerate(batch, start):
                try:
                    reader.read([line], lineno)
                except CorpusError as exc:
                    raise CorpusError(f"line {lineno}: {exc}") from None
            raise AssertionError(f"lines {start}-{start + len(batch) - 1} were refused, "
                                 "but each one reads")
        start += len(batch)
    return reader.corpus()


class _Reader:
    """The columns ``ingest`` fills, one batch of lines at a time.

    Each batch's ids go to an ``Ids`` as one batch, and each field's codes to an
    ``array('B')`` that is widened to ``array('I')`` once the field has more than
    256 values, so no column keeps a Python object per record, and the ``Ids`` and
    each array are the corpus's own.

    Ids that strictly ascend cannot repeat, so while they do only ``last``,
    the last id read, is kept for the duplicate check. The first batch out
    of that order builds ``seen``, the set of the ids read, and every batch
    from then on is checked against it before its ids join it.
    """

    def __init__(self) -> None:
        self.ids = Ids(())
        self.last = ""  # below every id, since none is empty
        self.seen: set[str] | None = None  # built when the ids first break ascending order
        self.comments: list[int] = []  # the line numbers of comment lines, ascending
        self.years = _Encoder(_parse_year)
        self.titles, self.countries, self.addresses = (
            _Encoder(partial(_parse_field, tag)) for tag in ("SO", "CU", "AD")
        )
        for encoder in (self.years, self.titles, self.countries, self.addresses):
            encoder.codes = array("B")  # flat from the first batch on, widened past 256 values

    def read(self, batch: list[str], start: int) -> None:
        """Add the records of lines ``start``, ``start + 1``, ...; raise the first fault checked.

        A line that is not a comment is checked in this order: blank, field
        count, PY, id, SO, CU, AD, repeated id. The batch is checked a column
        at a time in that order, so a batch of one line raises that line's
        first fault. Blankness is decided only after a check fails: a blank
        line fails the field count or its empty year. A refused batch adds
        no id, code or comment line, so it can be read again from the state
        before it; the encoders may have numbered some of its texts, which
        is harmless, since a refused batch always holds an error.
        """
        comment = list(map(str.startswith, batch, repeat("#")))
        comments = list(compress(range(start, start + len(batch)), comment))
        data = list(compress(batch, map(not_, comment))) if comments else batch
        if data:
            # a line of 5 fields has exactly 4 tabs
            tabs = set(map(str.count, data, repeat("\t")))
            if tabs != {4}:
                _refuse_blank(data)
                raise CorpusError(f"expected 5 tab-separated fields, got {min(tabs - {4}) + 1}")
            cells = "\t".join(data).split("\t")
            try:
                years = list(map(self.years.__getitem__, cells[1::5]))
            except CorpusError:
                _refuse_blank(data)
                raise
            ids = _batch_ids(cells[0::5])
            # the last cell of a line still holds its line break
            addresses = map(str.rstrip, cells[4::5], repeat("\n"))
            fields = [(encoder, list(map(encoder.__getitem__, texts))) for encoder, texts in (
                (self.titles, cells[2::5]), (self.countries, cells[3::5]),
                (self.addresses, addresses))]
            if self.seen is None and ids[0] > self.last and all(map(lt, ids, ids[1:])):
                self.last = ids[-1]
            else:
                if self.seen is None:
                    self.seen = set(self.ids)
                fresh = set(ids)
                if len(fresh) < len(ids) or not self.seen.isdisjoint(fresh):
                    raise self._repeated(list(self.ids) + ids, comments)
                self.seen |= fresh
            self.ids._add(ids)
            for encoder, codes in ((self.years, years), *fields):
                if encoder.codes.typecode == "I":
                    encoder.codes.fromlist(codes)
                elif len(encoder.numbers) <= 256:
                    encoder.codes.frombytes(bytes(codes))
                else:  # a code no longer fits in a byte
                    encoder.codes = array("I", encoder.codes)
                    encoder.codes.fromlist(codes)
        self.comments += comments

    def _repeated(self, ids: list[str], comments: list[int]) -> CorpusError:
        """The fault of the first of ``ids``, every id read and then a batch's, that repeats
        one before it; ``comments`` are the batch's comment lines."""
        known: set[str] = set()
        # set.add returns None, so this stops at the first id already known
        rid = next(rid for rid in ids if rid in known or known.add(rid))
        first = _line_of(ids.index(rid), self.comments + comments)
        return CorpusError(f"duplicate id {rid!r} (first defined on line {first})")

    def corpus(self) -> Corpus:
        """The corpus of the lines read; no line is read after it."""
        self.seen = None  # an unordered file's id strings go before the columns are built
        encoders = (self.years, self.titles, self.countries, self.addresses)
        for encoder in encoders:  # a column reads only the parsed values, not the raw texts
            encoder.clear()
        return Corpus._of(self.ids, *(encoder.column() for encoder in encoders))


def _refuse_blank(lines: list[str]) -> None:
    """Raise if one of ``lines`` holds only whitespace."""
    if not all(map(str.strip, lines)):
        raise CorpusError("blank line is not valid corpus data")


def _batch_ids(texts: list[str]) -> list[str]:
    """``_check_id`` of every id text, raising the fault of the first bad one.

    The common case is checked as one string: texts that upper-case to one
    token each, with no ``|``, none led by ``#`` and no lone surrogate, are
    their own ids. Otherwise each text is read by ``_check_id``, the one id rule.
    """
    text = "\t".join(texts).upper()
    ids = text.split("\t")
    if (text.split() != ids or "|" in text or text.startswith("#") or "\t#" in text
            or _surrogate_at(text) is not None):
        return list(map(_check_id, texts))
    return ids


def _line_of(index: int, comments: list[int]) -> int:
    """The line number of data line ``index`` (0-based), past the comment lines before it."""
    line = index + 1
    for comment in comments:
        if comment > line:
            break
        line += 1
    return line


# field tag -> (the name of one value, the container of the values)
_FIELDS = {"SO": ("source title", tuple), "CU": ("country", frozenset), "AD": ("address", frozenset)}


def _parse_field(tag: str, values: str | Iterable[str],
                 text: bool = True) -> tuple[str, ...] | frozenset[str]:
    """Read one field's values: its text, split on ``|``, or (``text=False``) a collection.

    Every entry point reads SO, CU and AD values here. Each value is
    normalized; none may be empty or hold a reserved character or a lone
    surrogate, and only AD may have none. A bare string given for a collection is refused: iterating
    it would make each character a value.
    """
    what, container = _FIELDS[tag]
    if text:
        values = values.split("|") if values else ()
    elif isinstance(values, str):
        raise CorpusError(f"{tag} values must be a collection, got the string {values!r}")
    values = [normalize_text(value) for value in values]
    if not values:
        if tag == "AD":
            return frozenset()
        raise CorpusError(f"empty {tag} field")
    if not all(values):
        raise CorpusError(f"{tag} field has an empty value")
    for value in values:
        if bad := _VALUE_RESERVED.intersection(value):
            raise CorpusError(f"{what} {value!r} contains reserved character {sorted(bad)[0]!r}")
        if _surrogate_at(value) is not None:
            raise CorpusError(f"{what} {value!r} holds a lone surrogate, which is not UTF-8 text")
    return container(values)


def _chunks(corpus: Corpus) -> Iterator[str]:
    """The on-disk text of ``corpus``: its header line, then one chunk per batch of its ids."""
    # each distinct value is written once, the address with its line break;
    # sets serialize sorted
    py = [str(year) for year in corpus.years.values]
    so = ["|".join(titles) for titles in corpus.source_titles.values]
    cu = ["|".join(sorted(countries)) for countries in corpus.countries.values]
    ad = ["|".join(sorted(addresses)) + "\n" for addresses in corpus.addresses.values]
    rests = (f"{py[y]}\t{so[s]}\t{cu[c]}\t{ad[a]}" for y, s, c, a in zip(
        corpus.years.codes, corpus.source_titles.codes, corpus.countries.codes,
        corpus.addresses.codes))
    yield FILE_HEADER + "\n"
    for ids in corpus.ids._batches:
        # the tab after each id, the last one's added, is where the rest of its line goes;
        # the ids are not split, and a "%" in one is escaped
        lines = ids.replace("%", "%%").replace("\t", "\t%s") + "\t%s"
        yield lines % tuple(islice(rests, ids.count("\t") + 1))


def serialize(corpus: Corpus) -> str:
    """Render a corpus in the on-disk format; byte-deterministic."""
    return "".join(_chunks(corpus))


def _write_utf8(chunks: Iterable[str], path: str | None = None) -> None:
    """Write ``chunks`` in UTF-8 to ``path``, or to standard output if it is None.

    Every file and command output leaves here, a chunk at a time, encoded as
    it is: line ends stay LF and the locale's encoding is never used. No text
    that UTF-8 cannot write gets this far: ids, values and query patterns with
    a lone surrogate are refused where they enter. Standard output's bytes are written beneath its flushed text layer; a
    stream with no bytes beneath it, such as an ``io.StringIO``, takes the text.
    """
    encoded = (chunk.encode("utf-8") for chunk in chunks)
    if path is not None:
        with open(path, "wb") as fh:
            fh.writelines(encoded)
        return
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        out.writelines(encoded)
        out.flush()


def load_corpus(path: str) -> Corpus:
    """``ingest`` a corpus file; text that is not UTF-8 is a ``CorpusError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ingest(fh)
    except UnicodeDecodeError:
        raise CorpusError(_not_utf8(path)) from None


def _not_utf8(path: str) -> str:
    """Name the line and value of the first byte of ``path`` that is not UTF-8.

    The text reader counts its error's offset from the chunk it was decoding,
    so the bytes are read again, on this error path only. Lines break on
    ``\\n``, ``\\r`` and ``\\r\\n``, as ``ingest`` reads them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return (f"line {line}: byte 0x{data[exc.start]:02X} is not UTF-8 ({exc.reason}); "
                "corpus text is UTF-8")
    return "text is not UTF-8"  # the file changed since it was read


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write ``serialize(corpus)`` to ``path``."""
    _write_utf8(_chunks(corpus), path)


# ---------------------------------------------------------------------------
# Seeded generator
# ---------------------------------------------------------------------------

_TITLE_WORDS = (
    "JOURNAL",
    "REVIEW",
    "ACTA",
    "ANNALS",
    "BULLETIN",
    "LETTERS",
    "PROCEEDINGS",
    "STUDIES",
    "REPORTS",
    "TRANSACTIONS",
)

DEFAULT_COUNTRY_WEIGHTS = {"USA": 5.0, "ENGLAND": 2.0, "GERMANY": 2.0, "CUBA": 1.0}

# Journal initials are heavily skewed toward J in the wild (JOURNAL OF ...).
DEFAULT_LETTER_WEIGHTS = {
    **{c: 1.0 for c in SYMBOLS[:26]},
    "J": 6.0,
    **{d: 0.2 for d in SYMBOLS[26:]},
}

DEFAULT_ADDRESS_POOLS = {
    "USA": (
        "STANFORD UNIV STANFORD CA",
        "MIT CAMBRIDGE MA",
        "HARVARD UNIV BOSTON MA",
        "UNIV TEXAS AUSTIN TX",
        "COLUMBIA UNIV NEW YORK NY",
    ),
    "ENGLAND": ("UCL LONDON", "UNIV MANCHESTER", "UNIV OXFORD"),
    "GERMANY": ("MAX PLANCK INST BERLIN", "UNIV HEIDELBERG"),
    "CUBA": ("CNIC AVE 25 HAVANA", "UNIV ORIENTE SANTIAGO DE CUBA"),
}


@dataclass(frozen=True)
class CorpusProfile:
    """Parameters for the seeded generator; equal profiles give equal corpora."""

    seed: int
    n_records: int
    year_range: tuple[int, int] = (2005, 2009)
    country_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COUNTRY_WEIGHTS)
    )
    initial_letter_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_LETTER_WEIGHTS)
    )
    multi_title_prob: float = 0.1
    address_pools: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ADDRESS_POOLS)
    )

    def validate(self) -> None:
        """Check every field's type, then its value, however the profile was built."""
        self._checked()

    def _checked(self) -> _Countries:
        """Check the profile as ``validate`` does, and return its countries as
        ``_read_countries`` reads them."""
        for name, (what, ok) in _PROFILE_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise CorpusError(f"profile {name} must be {what}, got {value!r}")
        if self.seed < 0:
            raise CorpusError("profile seed must be a non-negative integer")
        if self.n_records < 0:
            raise CorpusError("profile n_records must be non-negative")
        lo, hi = self.year_range
        if any(map(_too_long, self.year_range)):
            raise CorpusError(f"profile year_range has a year of more than "
                              f"{sys.get_int_max_str_digits()} digits")
        if lo < 0:
            raise CorpusError(f"profile year_range {self.year_range} starts below year 0")
        if lo > hi:
            raise CorpusError(f"profile year_range {self.year_range} is not ordered")
        _check_weights(self.country_weights, "country_weights")
        _check_weights(self.initial_letter_weights, "initial_letter_weights")
        for sym in self.initial_letter_weights:
            if sym not in _SYMBOL_RANK:
                raise CorpusError(f"initial_letter_weights key {sym!r} not in A..Z, 0..9")
        if not 0.0 <= self.multi_title_prob <= 1.0:
            raise CorpusError(f"multi_title_prob {self.multi_title_prob} outside [0, 1]")
        return _read_countries(self.country_weights, self.address_pools)

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusProfile":
        """A validated profile from parsed JSON, its lists turned into tuples once checked."""
        if not isinstance(data, dict):
            raise CorpusError("profile must be a JSON object")
        profile = cls(**data)
        profile.validate()
        pools = {country: tuple(pool) for country, pool in profile.address_pools.items()}
        return replace(profile, year_range=tuple(profile.year_range), address_pools=pools)


def _int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: object) -> bool:
    return _int(value) or isinstance(value, float)


def _year_range(value: object) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_int, value))


def _weights(value: object) -> bool:
    return isinstance(value, dict) and all(
        isinstance(key, str) and _number(weight) for key, weight in value.items()
    )


def _pools(value: object) -> bool:
    return isinstance(value, dict) and all(
        isinstance(key, str) and isinstance(pool, (list, tuple))
        and all(isinstance(a, str) for a in pool)
        for key, pool in value.items()
    )


# profile field -> (its type as JSON names it, in words; the check). A JSON
# list may be a Python list or tuple.
_PROFILE_TYPES = {
    "seed": ("an integer", _int),
    "n_records": ("an integer", _int),
    "year_range": ("a list of two integers", _year_range),
    "country_weights": ("an object of numbers", _weights),
    "initial_letter_weights": ("an object of numbers", _weights),
    "multi_title_prob": ("a number", _number),
    "address_pools": ("an object of string lists", _pools),
}


def _check_weights(weights: dict[str, float], what: str) -> None:
    if not weights:
        raise CorpusError(f"profile {what} is empty")
    # A weighted draw bisects the running sums of the weights, which needs a
    # finite total; a NaN weight would pass every check below.
    if not math.isfinite(sum(weights.values())):
        raise CorpusError(f"profile {what} has a weight or a total that is not finite")
    if any(w < 0 for w in weights.values()):
        raise CorpusError(f"profile {what} has a negative weight")
    if not any(w > 0 for w in weights.values()):
        raise CorpusError(f"profile {what} has no positive weight")


def _read_profile_value(tag: str, value: str, key: str) -> frozenset[str]:
    """``value`` read as one CU or AD value; a fault names the profile country ``key``."""
    try:
        return _parse_field(tag, (value,), text=False)
    except CorpusError as exc:
        raise CorpusError(f"profile country {key!r}: {exc}") from None


def _by_country(names: Iterable[str], what: str) -> dict[frozenset[str], str]:
    """Each of ``names`` keyed by the country it names, in sorted order of the names.

    Two names of one country ("usa", "USA") are refused, not read as one.
    """
    named: dict[frozenset[str], str] = {}
    for name in sorted(names):
        country = _read_profile_value("CU", name, name)
        if country in named:
            raise CorpusError(f"profile {what} {named[country]!r} and {name!r} name one country")
        named[country] = name
    return named


# the drawable countries, each with its pool of addresses as sets of one, and
# their weights
_Countries = tuple[list[tuple[frozenset[str], tuple[frozenset[str], ...]]], list[float]]


def _read_countries(weights: dict[str, float], pools: dict[str, Sequence[str]]) -> _Countries:
    """The only reader of a profile's countries: the drawable ones, each with its pool.

    Each weight name and each pool key is read as a CU value, and each pool
    address as an AD value, so a bad name or address fails even if it is
    never drawn. A pool belongs to the country its key names, however either
    is spelled; a country without a pool draws no address. Returns the
    countries of positive weight, in sorted order of their names.
    """
    named = _by_country(weights, "countries")
    pool_of = {country: tuple(_read_profile_value("AD", address, key) for address in pools[key])
               for country, key in _by_country(pools, "address_pools keys").items()}
    drawn = [(country, name) for country, name in named.items() if weights[name] > 0]
    return ([(country, pool_of.get(country, ())) for country, _ in drawn],
            [weights[name] for _, name in drawn])


def _weighted_items(weights: dict[str, float]) -> tuple[list[str], list[float]]:
    # Sorted for determinism regardless of dict insertion order.
    items = sorted((k, w) for k, w in weights.items() if w > 0)
    return [k for k, _ in items], [w for _, w in items]


# ---------------------------------------------------------------------------
# Drawing
#
# The generator and the fixtures draw from a seeded ``random.Random`` through
# its public ``getrandbits`` and ``random`` only. They consume its Mersenne
# Twister outputs exactly as CPython's ``random.py`` (3.10 to 3.12) does for
# ``choice``, ``choices``, ``randint`` and ``shuffle``, so each corpus is the
# one those methods would give, at one Python frame per draw or none:
#
# - ``choice(seq)`` is ``seq[below(len(seq))]``, where ``below(n)`` draws
#   ``getrandbits(n.bit_length())`` until the draw is below ``n``; a draw
#   below 1 still consumes an output, and one of more than 32 bits several;
# - ``randint(a, b)`` is ``a + below(b - a + 1)``;
# - ``choices(items, weights)[0]`` is ``items[bisect(cum, random() * total,
#   0, len(cum) - 1)]``, with ``cum`` the running sums of the weights and
#   ``total = cum[-1] + 0.0``;
# - ``shuffle(x)`` swaps ``x[i]`` with ``x[below(i + 1)]`` for ``i`` from
#   ``len(x) - 1`` down to 1.
# ---------------------------------------------------------------------------


def _below(bits, n: int) -> int:
    """``below(n)`` above, drawn through ``bits``, a ``Random.getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _weighted(rng: random.Random, items: Sequence, weights: Iterable[float]):
    """A function drawing ``rng.choices(items, weights)[0]``, the running sums summed once."""
    cum = list(accumulate(weights))
    total, hi, uniform = cum[-1] + 0.0, len(cum) - 1, rng.random
    return lambda: items[bisect(cum, uniform() * total, 0, hi)]


def _shuffle(bits, x: list | array) -> None:
    """``random.shuffle(x)``, drawn through ``bits``, a ``Random.getrandbits``."""
    for i in reversed(range(1, len(x))):
        n = i + 1
        k = n.bit_length()
        j = bits(k)
        while j >= n:
            j = bits(k)
        x[i], x[j] = x[j], x[i]


def _random_title(bits, initial: str) -> str:
    """A title: ``initial``, a body and a word, drawn through ``bits``, a ``Random.getrandbits``.

    The body is ``randint(3, 7)`` draws of ``choice(SYMBOLS[:26])`` and the
    word is ``choice(_TITLE_WORDS)``, after a space. The three draws are
    inlined: ``below(5)``, ``below(26)`` and ``below(10)``, bit widths
    written out.
    """
    n = bits(3)
    while n >= 5:
        n = bits(3)
    title = initial
    for _ in range(n + 3):
        r = bits(5)
        while r >= 26:
            r = bits(5)
        title += SYMBOLS[r]
    word = bits(4)
    while word >= 10:
        word = bits(4)
    return f"{title} {_TITLE_WORDS[word]}"


def generate(profile: CorpusProfile) -> Corpus:
    """Generate a corpus fully determined by the profile."""
    # the profile's countries and pools are read once, where it is checked,
    # so no generated record is checked again
    countries, country_w = profile._checked()
    rng = random.Random(profile.seed)
    bits, uniform = rng.getrandbits, rng.random
    country_at = _weighted(rng, countries, country_w)
    letter = _weighted(rng, *_weighted_items(profile.initial_letter_weights))
    multi = profile.multi_title_prob
    lo, hi = profile.year_range
    n_years = hi - lo + 1

    years, titles, cu, ad = _Encoder(), _Encoder(), _Encoder(), _Encoder()
    put_year, put_titles = years.codes.append, titles.codes.append
    put_country, put_address = cu.codes.append, ad.codes.append
    no_address = frozenset()
    for _ in range(profile.n_records):
        country, pool = country_at()
        first = _random_title(bits, letter())
        key = (first,)
        if uniform() < multi:
            second = _random_title(bits, letter())
            while second == first:
                second = _random_title(bits, letter())
            key = (first, second)
        # nearly every title tuple is new: numbered here, not by a __missing__ frame
        put_titles(titles.setdefault(key, len(titles)))
        put_country(cu[country])
        put_address(ad[pool[_below(bits, len(pool))] if pool else no_address])
        put_year(years[lo + _below(bits, n_years)])
    return _numbered(years.column(), titles.column(), cu.column(), ad.column())


# ---------------------------------------------------------------------------
# Reference fixtures
#
# Each fixture reproduces exact per-statement counts under the shipped
# seven-statement grouping (five initial-letter buckets plus a J bucket
# divided by an address pivot). The construction works backwards from the
# target numbers: e[i] records belong to statement i alone, and overlap
# records carry exactly two source titles spanning two different statement
# groups, allocated by greedy largest-degree-first pairing over the per-
# statement overlap degrees d[i]. Statements 6 and 7 are complementary on
# the address pivot, so the pair (6, 7) can never share a record.
# ---------------------------------------------------------------------------

FIXTURE_LETTER_GROUPS: tuple[tuple[str, ...], ...] = (
    ("A", "B"),
    ("C", "D", "E", "F", "G"),
    ("H", "I", "K", "L", "M"),
    ("N", "O", "P", "Q", "R"),
    ("S", "T", "U", "V", "W", "X", "Y", "Z", "1", "2", "3", "4", "5", "6", "7", "8", "9"),
)

FIXTURE_SPLIT_PREFIX = "J"


@dataclass(frozen=True)
class _SplitFixtureSpec:
    seed: int
    country: str
    exclusive: tuple[int, ...]  # records in exactly one statement
    overlap_degree: tuple[int, ...]  # per-statement count of two-section records
    with_pivot_pool: tuple[str, ...]
    without_pivot_pool: tuple[str, ...]
    titles_per_symbol: int


_CUBA_SPEC = _SplitFixtureSpec(
    seed=1003,
    country="CUBA",
    exclusive=(127, 205, 139, 177, 86, 108, 34),
    overlap_degree=(13, 11, 22, 16, 5, 0, 1),
    with_pivot_pool=(
        "CNIC AVE 25 HAVANA",
        "UNIV HAVANA VEDADO HAVANA",
        "INST SUPER TECNOL HAVANA",
    ),
    without_pivot_pool=(
        "UNIV ORIENTE SANTIAGO DE CUBA",
        "UNIV CENT MARTA ABREU VILLA CLARA",
        "CTR INVEST ENERGIA MATANZAS",
    ),
    titles_per_symbol=24,
)

_USA_SPEC = _SplitFixtureSpec(
    seed=1001,
    country="USA",
    exclusive=(85586, 87535, 69457, 75516, 45551, 17008, 92808),
    overlap_degree=(5536, 4385, 13440, 9267, 13200, 56, 168),
    with_pivot_pool=(
        "STANFORD UNIV STANFORD CA",
        "UNIV CALIF BERKELEY CA",
        "CALTECH PASADENA CA",
        "UNIV CALIF LOS ANGELES CA",
    ),
    without_pivot_pool=(
        "MIT CAMBRIDGE MA",
        "HARVARD UNIV BOSTON MA",
        "UNIV TEXAS AUSTIN TX",
        "UNIV MICHIGAN ANN ARBOR MI",
        "COLUMBIA UNIV NEW YORK NY",
    ),
    titles_per_symbol=400,
)

_COLLABORATOR_COUNTRIES = ("SPAIN", "NETHERLANDS", "BELGIUM", "MEXICO", "CANADA", "JAPAN")

_UK_WITH_LONDON = 33043  # records with a London address: statement 1 of the pivot split
_UK_WITHOUT_LONDON = 98802

_UK_NATIONS = ("ENGLAND", "SCOTLAND", "WALES", "NORTH IRELAND")
_UK_NATION_WEIGHTS = (70, 15, 10, 5)
_UK_LONDON_POOL = (
    "IMPERIAL COLL LONDON",
    "UCL LONDON",
    "KINGS COLL LONDON",
    "LONDON SCH ECON",
    "QUEEN MARY UNIV LONDON",
)
_UK_OTHER_POOL = (
    "UNIV MANCHESTER",
    "UNIV EDINBURGH",
    "UNIV OXFORD",
    "UNIV CAMBRIDGE",
    "CARDIFF UNIV",
    "QUEENS UNIV BELFAST",
    "UNIV GLASGOW",
    "UNIV LEEDS",
)

_FIXTURE_YEAR = 2007


def pair_overlap_degrees(
    degrees: list[int] | tuple[int, ...], forbidden: frozenset[tuple[int, int]] = frozenset()
) -> list[tuple[int, int]]:
    """Realize a symmetric degree sequence as a list of index pairs, one edge per step.

    Greedy largest-degree-first, with one refinement: statements that have
    forbidden partners are matched first (largest such degree first, each
    edge going to the largest compatible partner), otherwise the big
    unconstrained degrees would consume each other and leave only a
    forbidden pair at the end. ``forbidden`` holds unordered index pairs
    that may never share a record. Deterministic; raises CorpusError when
    the sequence cannot be realized.
    """
    remaining = list(degrees)
    if any(d < 0 for d in remaining):
        raise CorpusError("overlap degrees must be non-negative")
    if sum(remaining) % 2 != 0:
        raise CorpusError("overlap degree sequence has odd sum; cannot pair")
    blocked = {tuple(sorted(p)) for p in forbidden}
    constrained = sorted(
        {k for pair in blocked for k in pair},
        key=lambda k: (-remaining[k], k),
    )
    pairs: list[tuple[int, int]] = []
    # Each step pairs a statement with its highest-ranked compatible partner
    # (most remaining, lowest index).
    for i in constrained:
        while remaining[i] > 0:
            partners = [
                (-remaining[k], k)
                for k in range(len(remaining))
                if k != i and remaining[k] > 0 and tuple(sorted((i, k))) not in blocked
            ]
            if not partners:
                raise CorpusError("overlap degree sequence infeasible under pair constraints")
            j = min(partners)[1]
            remaining[i] -= 1
            remaining[j] -= 1
            pairs.append((min(i, j), max(i, j)))
    # Every statement with a forbidden partner is paired off now, so each
    # step pairs the two highest-ranked statements; ``ranked`` holds
    # (-remaining, statement), in rank order.
    ranked = sorted((-d, k) for k, d in enumerate(remaining) if d > 0)
    while ranked:
        if len(ranked) == 1:
            raise CorpusError("overlap degree sequence infeasible under pair constraints")
        (di, i), (dj, j) = ranked[0], ranked[1]
        del ranked[:2]
        pairs.append((min(i, j), max(i, j)))
        for d, k in ((di + 1, i), (dj + 1, j)):
            if d < 0:
                insort(ranked, (d, k))
    return pairs


def _title_pools(bits, symbols: Iterable[str], per_symbol: int) -> dict[str, list[str]]:
    pools: dict[str, list[str]] = {}
    for sym in symbols:
        seen: set[str] = set()
        pool: list[str] = []
        while len(pool) < per_symbol:
            title = _random_title(bits, sym)
            if title not in seen:
                seen.add(title)
                pool.append(title)
        pools[sym] = pool
    return pools


def _build_split_fixture(spec: _SplitFixtureSpec) -> Corpus:
    rng = random.Random(spec.seed)
    bits, uniform = rng.getrandbits, rng.random
    symbols = [s for group in FIXTURE_LETTER_GROUPS for s in group] + [FIXTURE_SPLIT_PREFIX]
    pools = _title_pools(bits, symbols, spec.titles_per_symbol)
    letter_pools = [[pools[s] for s in group] for group in FIXTURE_LETTER_GROUPS]
    split_pool = pools[FIXTURE_SPLIT_PREFIX]
    with_pivot, without_pivot = spec.with_pivot_pool, spec.without_pivot_pool
    any_pool = with_pivot + without_pivot

    def pick_title(stmt: int) -> str:
        if stmt >= 5:  # both pivot-split statements draw from the J pool
            pool = split_pool
        else:
            group = letter_pools[stmt]
            pool = group[_below(bits, len(group))]
        return pool[_below(bits, len(pool))]

    def addresses_for(*stmts: int) -> tuple[str, ...]:
        if 5 in stmts:
            first = with_pivot[_below(bits, len(with_pivot))]
            if uniform() < 0.15:
                return (first, without_pivot[_below(bits, len(without_pivot))])
            return (first,)
        if 6 in stmts:
            # complement side: no address may carry the pivot token
            if uniform() > 0.05:
                return (without_pivot[_below(bits, len(without_pivot))],)
            return ()
        roll = uniform()
        if roll < 0.08:
            return ()
        first = any_pool[_below(bits, len(any_pool))]
        if roll < 0.16:
            return (first, any_pool[_below(bits, len(any_pool))])
        return (first,)

    home, collaborators = frozenset((spec.country,)), _COLLABORATOR_COUNTRIES

    def countries_for() -> frozenset[str]:
        if uniform() < 0.08:
            return frozenset((spec.country, collaborators[_below(bits, len(collaborators))]))
        return home

    # the columns are filled in drawing order, then shuffled; an address
    # tuple is read as the set of its addresses
    titles, countries, addresses = _Encoder(), _Encoder(), _Encoder(frozenset)
    put_titles, put_countries = titles.codes.append, countries.codes.append
    put_addresses = addresses.codes.append
    for stmt, count in enumerate(spec.exclusive):
        for _ in range(count):
            put_titles(titles[(pick_title(stmt),)])
            put_countries(countries[countries_for()])
            put_addresses(addresses[addresses_for(stmt)])
    pairs = pair_overlap_degrees(spec.overlap_degree, forbidden=frozenset({(5, 6)}))
    for i, j in pairs:
        put_titles(titles[(pick_title(i), pick_title(j))])
        put_countries(countries[countries_for()])
        put_addresses(addresses[addresses_for(i, j)])
    return _shuffled(bits, titles, countries, addresses)


def _shuffled(bits, titles: _Encoder, countries: _Encoder, addresses: _Encoder) -> Corpus:
    """Number a fixture's rows in a shuffled order; shuffling depends only on the row count."""
    order = array("I", range(len(titles.codes)))
    _shuffle(bits, order)
    columns = (encoder.column(order) for encoder in (titles, countries, addresses))
    return _numbered(Column((_FIXTURE_YEAR,), array("B", bytes(len(order)))), *columns)


def _build_uk_fixture() -> Corpus:
    rng = random.Random(1002)
    bits, uniform = rng.getrandbits, rng.random
    pools = _title_pools(bits, SYMBOLS, 60)
    letter_pools = [pools[s] for s in SYMBOLS[:26]]
    nation_at = _weighted(rng, _UK_NATIONS, _UK_NATION_WEIGHTS)
    collaborators = _COLLABORATOR_COUNTRIES

    def titles_for() -> tuple[str, ...]:
        pool = letter_pools[_below(bits, len(letter_pools))]
        first = pool[_below(bits, len(pool))]
        if uniform() < 0.1:
            pool = letter_pools[_below(bits, len(letter_pools))]
            second = pool[_below(bits, len(pool))]
            if second != first:
                return (first, second)
        return (first,)

    def nation() -> frozenset[str]:
        base = nation_at()
        if uniform() < 0.06:
            return frozenset((base, collaborators[_below(bits, len(collaborators))]))
        return frozenset((base,))

    titles, countries, addresses = _Encoder(), _Encoder(), _Encoder(frozenset)
    put_titles, put_countries = titles.codes.append, countries.codes.append
    put_addresses = addresses.codes.append
    london, other = _UK_LONDON_POOL, _UK_OTHER_POOL
    for _ in range(_UK_WITH_LONDON):
        first = london[_below(bits, len(london))]
        if uniform() < 0.2:
            put_addresses(addresses[(first, other[_below(bits, len(other))])])
        else:
            put_addresses(addresses[(first,)])
        put_titles(titles[titles_for()])
        put_countries(countries[nation()])
    for _ in range(_UK_WITHOUT_LONDON):
        if uniform() > 0.05:
            put_addresses(addresses[(other[_below(bits, len(other))],)])
        else:
            put_addresses(addresses[()])
        put_titles(titles[titles_for()])
        put_countries(countries[nation()])
    return _shuffled(bits, titles, countries, addresses)


_FIXTURES = {
    "cuba_t3": partial(_build_split_fixture, _CUBA_SPEC),
    "usa_t1": partial(_build_split_fixture, _USA_SPEC),
    "uk_s1": _build_uk_fixture,
}

FIXTURE_NAMES = tuple(_FIXTURES)


def build_fixture(name: str) -> Corpus:
    """Build one of the shipped reference corpora: cuba_t3, usa_t1 or uk_s1."""
    if name not in _FIXTURES:
        raise CorpusError(f"unknown fixture {name!r}; expected one of {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]()
