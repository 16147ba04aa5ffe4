from __future__ import annotations

import hashlib
import io
import math
import random
import sys
import weakref
from array import array
from collections import Counter
from functools import partial
from itertools import chain, islice
from operator import lt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from capsplit import (
    Corpus,
    CorpusError,
    CorpusProfile,
    Record,
    generate,
    ingest,
    load_corpus,
    save_corpus,
    serialize,
)
import capsplit.corpus
from capsplit.cli import main
from capsplit.corpus import (
    _BATCH_LINES,
    _TITLE_WORDS,
    FILE_HEADER,
    FIXTURE_LETTER_GROUPS,
    FIXTURE_NAMES,
    SYMBOLS,
    Ids,
    _below,
    _check_id,
    _Encoder,
    _line_of,
    _parse_field,
    _parse_year,
    _random_title,
    _Reader,
    _shuffle,
    _weighted,
    build_fixture,
    pair_overlap_degrees,
)

from helpers import make_record


# -- ingest -----------------------------------------------------------------


def test_ingest_single_line():
    corpus = ingest("R1\t2007\tACTA PHYSICA\tCUBA\tHAVANA CUBA")
    assert len(corpus) == 1
    rec = corpus.records[0]
    assert rec.id == "R1"
    assert rec.pub_year == 2007
    assert rec.source_titles == ("ACTA PHYSICA",)
    assert rec.countries == {"CUBA"}
    assert rec.addresses == {"HAVANA CUBA"}


def test_ingest_multi_value_source_titles():
    corpus = ingest("R1\t2007\tJOURNAL OF X|LECTURE NOTES Y\tUSA\t")
    assert corpus.records[0].source_titles == ("JOURNAL OF X", "LECTURE NOTES Y")


def test_ingest_skips_comments_and_preserves_order():
    text = "# a comment\nR2\t2007\tB REV\tUSA\t\nR1\t2007\tA REV\tUSA\t"
    corpus = ingest(text)
    assert [r.id for r in corpus] == ["R2", "R1"]


def test_ingest_duplicate_id_names_both_lines():
    text = "R1\t2007\tA REV\tUSA\t\nR1\t2008\tB REV\tUSA\t"
    with pytest.raises(CorpusError, match=r"line 2: duplicate id 'R1'.*line 1"):
        ingest(text)
    # comment lines before and between the two definitions count as lines
    text = (
        f"{FILE_HEADER}\n# second comment\nR0\t2007\tA REV\tUSA\t\n# between\n"
        "R1\t2007\tA REV\tUSA\t\n# a\n# b\nR2\t2007\tA REV\tUSA\t\n# c\nR1\t2008\tB REV\tUSA\t\n"
    )
    with pytest.raises(CorpusError, match=r"^line 10: duplicate id 'R1' \(first defined on line 5\)$"):
        ingest(text)
    with pytest.raises(CorpusError, match=r"^line 5: duplicate id 'R0' \(first defined on line 3\)$"):
        ingest(f"{FILE_HEADER}\n#\nR0\t2007\tA REV\tUSA\t\n#\nR0\t2007\tA REV\tUSA\t\n")


def test_ingest_wrong_field_count_names_line():
    with pytest.raises(CorpusError, match="line 1: expected 5"):
        ingest("R1\t2007\tA REV\tUSA")


def test_ingest_unparsable_year():
    with pytest.raises(CorpusError, match="line 1: unparsable year 'MMVII'"):
        ingest("R1\tMMVII\tA REV\tUSA\t")


@pytest.mark.parametrize(
    "year",
    [
        "2_007", " 2007", "2007 ", "+2007", "-5", "02007", "00", "2007.0", "",
        "\u0662\u0660\u0660\u0667",  # Arabic-Indic digits
        "\uff12\uff10\uff10\uff17",  # full-width digits
        pytest.param("9" * 5000, id="5000-digits"),  # beyond int()'s digit limit
    ],
)
def test_ingest_accepts_only_years_that_round_trip(year, tmp_path, capsys):
    text = f"{FILE_HEADER}\nR1\t2007\tA REV\tUSA\t\nR2\t{year}\tB REV\tUSA\t\n"
    with pytest.raises(CorpusError) as err:
        ingest(text)
    assert str(err.value) == f"line 3: unparsable year {year!r}"
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    assert main(["ingest", "--corpus", str(path)]) == 3
    assert "unparsable year" in capsys.readouterr().err


@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
def test_ingest_refuses_a_leading_byte_order_mark(header, tmp_path, capsys):
    text = (f"{FILE_HEADER}\n" if header else "") + "R1\t2007\tA REV\tUSA\t\n"
    assert len(ingest(text)) == 1
    with pytest.raises(CorpusError, match=r"^line 1: .*byte-order mark"):
        ingest("\ufeff" + text)
    path = tmp_path / "bom.tsv"
    path.write_text(text, encoding="utf-8-sig")  # UTF-8 with a leading EF BB BF
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["ingest", "--corpus", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 1:" in err and "byte-order mark" in err


@pytest.mark.parametrize(
    "lines, ending",
    [(1, "\n"), (5000, "\r\n"), (5000, "\r")],
    ids=["line-3", "crlf-past-the-first-chunk", "cr-past-the-first-chunk"],
)
def test_corpus_file_that_is_not_utf8_is_a_data_error(lines, ending, tmp_path, capsys):
    good = "".join(f"R{i}\t2007\tA REV\tUSA\t{ending}" for i in range(lines))
    path = tmp_path / "latin1.tsv"
    path.write_bytes(f"{FILE_HEADER}{ending}{good}".encode() + b"R\xff\t2007\tB\tUSA\t\n")
    bad_line = lines + 2
    with pytest.raises(CorpusError, match=rf"^line {bad_line}: byte 0xFF is not UTF-8"):
        load_corpus(str(path))
    for argv in (["ingest"], ["plan", "--base", "PY=2007", "--auto"]):
        assert main([*argv, "--corpus", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"error: line {bad_line}: byte 0xFF" in err and "Traceback" not in err


@pytest.mark.parametrize("year", ["0", "7", "2007", "10000"])
def test_ingest_years_round_trip(year):
    text = f"{FILE_HEADER}\nR1\t{year}\tA REV\tUSA\t\n"
    assert ingest(text).records[0].pub_year == int(year)
    assert serialize(ingest(text)) == text


@pytest.mark.parametrize(
    "year",
    [-1, True, "2007", 2007.0, None, pytest.param(10**5000, id="5001-digits")],
)
def test_record_rejects_a_year_ingest_could_not_read_back(year):
    with pytest.raises(CorpusError, match="pub_year must be a non-negative int"):
        make_record("R1", ("A REV",), year=year)


def test_ingest_empty_fields_rejected():
    with pytest.raises(CorpusError, match="line 1"):
        ingest("\t2007\tA REV\tUSA\t")
    with pytest.raises(CorpusError, match="line 1: empty SO field"):
        ingest("R1\t2007\t\tUSA\t")
    with pytest.raises(CorpusError, match="line 1: CU field has an empty value"):
        ingest("R1\t2007\tA REV\tUSA||CUBA\t")
    with pytest.raises(CorpusError, match="line 2: blank line"):
        ingest("R1\t2007\tA REV\tUSA\t\n\nR2\t2007\tB REV\tUSA\t")


def test_ingest_normalizes_case_and_whitespace():
    corpus = ingest("r9\t2007\tacta   physica\tcuba\thavana  cuba")
    rec = corpus.records[0]
    assert rec.id == "R9"
    assert rec.source_titles == ("ACTA PHYSICA",)
    assert rec.addresses == {"HAVANA CUBA"}


def test_ingest_parses_repeated_field_text_once_per_field():
    corpus = ingest(
        "r1\t2007\tacta  physica\tusa\t\n"
        "r2\t2007\tacta  physica\tusa\t\n"
        "r3\t2007\tUSA\tacta  physica\t"
    )
    assert [r.source_titles for r in corpus] == [("ACTA PHYSICA",)] * 2 + [("USA",)]
    assert [r.countries for r in corpus] == [{"USA"}] * 2 + [{"ACTA PHYSICA"}]
    # the raw text "acta  physica" is a tuple as SO and a frozenset as CU
    assert type(corpus.records[0].source_titles) is tuple
    assert type(corpus.records[2].countries) is frozenset
    # a bad text first seen on line 3 is reported there, after two good lines
    with pytest.raises(CorpusError, match=r"^line 3: source title 'A\(B' contains reserved"):
        ingest("R1\t2007\tA REV\tUSA\t\nR2\t2007\tA REV\tUSA\t\nR3\t2007\tA(B\tUSA\t")
    # an empty AD field is allowed; the same empty text as CU is not
    with pytest.raises(CorpusError, match=r"^line 2: empty CU field$"):
        ingest("R1\t2007\tA REV\tUSA\t\nR2\t2007\tA REV\t\t")


def test_ingest_parses_each_distinct_raw_text_once_per_field(monkeypatch, cuba_corpus):
    calls: Counter = Counter()
    parse_field, parse_year = capsplit.corpus._parse_field, capsplit.corpus._parse_year

    def counted_field(tag, text):
        calls[tag, text] += 1
        return parse_field(tag, text)

    def counted_year(text):
        calls["PY", text] += 1
        return parse_year(text)

    monkeypatch.setattr(capsplit.corpus, "_parse_field", counted_field)
    monkeypatch.setattr(capsplit.corpus, "_parse_year", counted_year)
    rows = [
        ("2007", "A REV", "USA", "MIT CAMBRIDGE"),
        ("2007", "A REV", "USA", "MIT CAMBRIDGE"),
        ("2008", "B REV|A REV", "USA|CUBA", "MIT CAMBRIDGE"),
        ("2007", "a rev", "usa", ""),
        ("2008", "A REV", "USA", ""),
    ]
    corpus = ingest("".join("\t".join((f"R{i}", *row)) + "\n" for i, row in enumerate(rows)))
    assert calls == Counter(
        {(tag, text): 1 for row in rows for tag, text in zip(("PY", "SO", "CU", "AD"), row)}
    )
    # raw texts that parse alike share one value
    assert corpus.years.values == (2007, 2008)
    assert corpus.source_titles.values == (("A REV",), ("B REV", "A REV"))
    assert list(corpus.countries.codes) == [0, 0, 1, 0, 0]
    # a fixture has one year
    assert cuba_corpus.years.values == (2007,)


def _per_line_ingest(source):
    """The reference reader: ``ingest`` as it was written, one Python step per line."""
    lines = iter(io.StringIO(source, newline=None) if isinstance(source, str) else source)
    first = list(islice(lines, 1))
    if first and first[0].startswith("\ufeff"):
        raise CorpusError("line 1: text starts with a byte-order mark (U+FEFF); "
                          "corpus text is UTF-8 without one")
    ids: list[str] = []
    seen: set[str] = set()
    comments: list[int] = []
    years = _Encoder(_parse_year)
    titles, countries, addresses = (_Encoder(partial(_parse_field, t)) for t in ("SO", "CU", "AD"))
    for lineno, raw in enumerate(chain(first, lines), start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            comments.append(lineno)
            continue
        if not line.strip():
            raise CorpusError(f"line {lineno}: blank line is not valid corpus data")
        fields = line.split("\t")
        if len(fields) != 5:
            raise CorpusError(
                f"line {lineno}: expected 5 tab-separated fields, got {len(fields)}"
            )
        id_text, year_text, so_text, cu_text, ad_text = fields
        try:
            year = years[year_text]
            rid = _check_id(id_text)
            so, cu, ad = titles[so_text], countries[cu_text], addresses[ad_text]
        except CorpusError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from None
        if rid in seen:
            raise CorpusError(
                f"line {lineno}: duplicate id {rid!r} "
                f"(first defined on line {_line_of(ids.index(rid), comments)})"
            )
        seen.add(rid)
        ids.append(rid)
        years.codes.append(year)
        titles.codes.append(so)
        countries.codes.append(cu)
        addresses.codes.append(ad)
    return Corpus._of(tuple(ids), years.column(), titles.column(), countries.column(),
                      addresses.column())


def _read_with(reader, source):
    """What a reader makes of ``source``: its columns and bytes, or its error message."""
    try:
        corpus = reader(source)
    except CorpusError as exc:
        return str(exc)
    columns = [(column.values, column.codes) for column in (
        corpus.years, corpus.source_titles, corpus.countries, corpus.addresses)]
    return corpus.ids, columns, serialize(corpus)



def test_unparsed_encoder_holds_one_mapping():
    enc = _Encoder()
    for raw in (("B REV",), ("A REV",), ("B REV",)):
        enc.add(raw)
    assert enc.numbers is enc
    assert dict(enc) == {("B REV",): 0, ("A REV",): 1}
    column = enc.column()
    assert (column.values, list(column.codes)) == ((("B REV",), ("A REV",)), [0, 1, 0])
    # no reference cycle: the encoder is freed as soon as its builder drops it
    gone = weakref.ref(enc)
    del enc
    assert gone() is None


def test_parsing_encoder_numbers_texts_that_parse_alike_once():
    enc = _Encoder(partial(_parse_field, "CU"))
    for raw in ("usa", "USA|CUBA", " USA ", "cuba|usa"):
        enc.add(raw)
    assert enc.numbers is not enc
    assert enc.numbers == {frozenset({"USA"}): 0, frozenset({"USA", "CUBA"}): 1}
    assert enc.codes == [0, 1, 0, 1]
    assert enc.column().values == (frozenset({"USA"}), frozenset({"USA", "CUBA"}))

# Cell texts for each field: (texts the readers accept, texts they refuse).
_CELLS = (
    (("R{}", "r{}", " r{} ", "R{}\x0b", "ß{}"), (" #R{}", "R{} X", "R|{}", "", " ")),
    (("2007", "0", "10000", "2008"), ("02007", "20O7", "", " 2007")),
    (("A REV", "a  rev", "B REV|A REV", "É X"), ("J(X", "A||B", "", " ")),
    (("USA", "usa", "CUBA|USA", " cuba "), ("US=A", "|", "")),
    (("", "UCL LONDON", "mit  cambridge|UCL LONDON", "A\rB"), (" ", "#X", "A|")),
)


@st.composite
def _corpus_sources(draw):
    """Corpus text as a string or as a list of lines, mostly valid, sometimes not.

    A line is a record, a comment, a blank line, a line of 4 or 6 fields, a
    record with one refused cell, a record that repeats an earlier id, or a
    record with a line break inside its last field: a list element takes
    that as one line, while a string breaks it in two.
    """
    kinds = ["record"] * 12 + ["comment", "blank", "tabs", "bad cell", "dup", "inner break"]
    lines = [FILE_HEADER + "\n"] if draw(st.booleans()) else []
    for n in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c\n", "#\tx\ty\n", "#\n"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["\n", "  \n", "\t\t\t\t\n"])))
            continue
        cells = [draw(st.sampled_from(good)) for good, _ in _CELLS]
        if kind == "bad cell":
            field = draw(st.integers(0, 4))
            cells[field] = draw(st.sampled_from(_CELLS[field][1]))
        cells[0] = cells[0].format(draw(st.integers(0, n - 1)) if kind == "dup" and n else n)
        if kind == "tabs":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["X"]
        if kind == "inner break":
            cells[-1] += draw(st.sampled_from(["\nY", "\rY", "\r"]))
        lines.append("\t".join(cells) + "\n")
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")  # no final newline
    if lines and draw(st.integers(0, 9)) == 0:
        lines[0] = "\ufeff" + lines[0]
    return lines if draw(st.booleans()) else "".join(lines)


@given(source=_corpus_sources(), batch=st.sampled_from([1, 2, 3, 5, 4096]))
@example(  # a duplicate whose first definition lies two batches back
    source=[f"{FILE_HEADER}\n", "R1\t2007\tA\tUSA\t\n", "# c\n", "R2\t2007\tA\tUSA\t\n",
            "R3\t2007\tA\tUSA\t\n", "r1 \t2007\tB\tUSA\t\n"],
    batch=2,
)
def test_ingest_reads_as_the_per_line_reader_reads(source, batch):
    saved = capsplit.corpus._BATCH_LINES
    capsplit.corpus._BATCH_LINES = batch
    try:
        got = _read_with(ingest, list(source) if isinstance(source, list) else source)
    finally:
        capsplit.corpus._BATCH_LINES = saved
    assert got == _read_with(_per_line_ingest, source)


def test_ingest_names_a_duplicate_defined_batches_earlier(monkeypatch):
    monkeypatch.setattr(capsplit.corpus, "_BATCH_LINES", 2)
    text = (f"{FILE_HEADER}\nR1\t2007\tA\tUSA\t\n# c\nR2\t2007\tA\tUSA\t\n"
            "R3\t2007\tA\tUSA\t\nr1 \t2008\tB\tUSA\t\n")
    with pytest.raises(CorpusError) as err:
        ingest(text)
    assert str(err.value) == "line 6: duplicate id 'R1' (first defined on line 2)"


# Ids in two-line batches: while they ascend the reader keeps only the last
# one, and the first batch out of that order makes it check by set from then on.
@pytest.mark.parametrize(
    "rids, message",
    [
        (("R3", "R2", "R3"), "line 3: duplicate id 'R3' (first defined on line 1)"),
        (("R1", "R2", "R3", "R2"), "line 4: duplicate id 'R2' (first defined on line 2)"),
        (("R5", "R6", "R1", "R2"), None),
        # the last batch ascends from the one before it, but repeats an id read before the set
        (("R2", "R4", "R3", "R1", "R2", "R5"), "line 5: duplicate id 'R2' (first defined on line 1)"),
    ],
    ids=["descend-then-repeat", "repeat-across-a-batch-boundary", "batch-starts-below-the-last",
         "defined-before-the-set-repeated-after"],
)
def test_ids_out_of_ascending_order_are_checked_by_set(monkeypatch, rids, message):
    monkeypatch.setattr(capsplit.corpus, "_BATCH_LINES", 2)
    source = "".join(f"{rid}\t2007\tA\tUSA\t\n" for rid in rids)
    got = _read_with(ingest, source)
    assert got == _read_with(_per_line_ingest, source)
    if message is None:
        assert list(got[0]) == list(rids)
    else:
        assert got == message


def test_every_shipped_and_generated_corpus_numbers_its_ids_in_ascending_order(
        cuba_corpus, usa_corpus, uk_corpus):
    # ingest checks such ids for repeats without holding a set of them; an id
    # format that broke the order would bring that memory back unseen
    fixtures = {"cuba_t3": cuba_corpus, "usa_t1": usa_corpus, "uk_s1": uk_corpus}
    assert tuple(fixtures) == FIXTURE_NAMES
    generated = generate(CorpusProfile(seed=5, n_records=3000))
    for name, corpus in (*fixtures.items(), ("generated", generated)):
        ids = list(corpus.ids)
        assert all(map(lt, ids, ids[1:])), name
    reader = _Reader()
    lines = serialize(generated).splitlines(keepends=True)
    for start in range(0, len(lines), 1000):
        reader.read(lines[start:start + 1000], start + 1)
    assert reader.seen is None
    assert reader.corpus() == generated


# Lines with two faults each, after a good line R0: a line reports the fault
# its first check finds, in the order blank, field count, PY, id, SO, CU, AD,
# repeated id.
@pytest.mark.parametrize(
    "line, message",
    [
        ("R|1\tMMVII\tA REV\tUSA\t", "unparsable year 'MMVII'"),
        ("R|1\t2007\tA(\tUSA\t", "record id 'R|1' uses a reserved character"),
        ("R1\t2007\tA(\tUS=A\t", "source title 'A(' contains reserved character '('"),
        ("R1\t2007\tA REV\tUS=A\t#X", "country 'US=A' contains reserved character '='"),
        ("r0\t2007\tA REV\tUS=A\t", "country 'US=A' contains reserved character '='"),
        (" \t\t \t\t", "blank line is not valid corpus data"),
    ],
    ids=["year+id", "id+SO", "SO+CU", "CU+AD", "CU+repeated-id", "blank-with-four-tabs"],
)
@pytest.mark.parametrize("batch", [1, 4096])
def test_a_line_with_two_faults_reports_the_one_checked_first(monkeypatch, line, message, batch):
    source = f"{FILE_HEADER}\nR0\t2007\tA REV\tUSA\t\n{line}\n"
    monkeypatch.setattr(capsplit.corpus, "_BATCH_LINES", batch)
    got = _read_with(ingest, source)
    assert got == _read_with(_per_line_ingest, source)
    assert got == f"line 3: {message}"


# -- serialize --------------------------------------------------------------


def test_serialize_empty_corpus_is_header_only():
    assert serialize(Corpus(())) == FILE_HEADER + "\n"


def test_serialize_round_trip_identity():
    corpus = generate(CorpusProfile(seed=11, n_records=300))
    again = ingest(serialize(corpus))
    assert again.records == corpus.records


def test_serialize_is_deterministic():
    corpus = generate(CorpusProfile(seed=3, n_records=50))
    assert serialize(corpus) == serialize(corpus)


@pytest.mark.parametrize(
    "sep", ["\u2028", "\x85", "\f"], ids=["line-separator", "nel", "form-feed"]
)
def test_ingest_reads_a_string_as_a_file_is_read(sep, tmp_path):
    # only \n, \r and \r\n end a line; other breaks are whitespace inside a value
    text = f"R1\t2007\tA{sep}B REV\tUSA\t\r\nR2\t2008\tC REV\tUSA\t\rR3\t2009\tD\tUSA\t\n"
    path = tmp_path / "c.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest(text) == load_corpus(str(path))
    assert [r.source_titles for r in ingest(text)] == [("A B REV",), ("C REV",), ("D",)]


# Values of one to three words, keywords included, as generated corpora may hold them.
_VALUES = st.lists(
    st.sampled_from(["AND", "OR", "NOT", "ACTA", "J", "REV", "2007", "ÉCOLE", "X-RAY"]),
    min_size=1, max_size=3,
).map(" ".join)
_ROW = st.tuples(
    # 10**4299 has 4300 digits, the most that ingest reads
    st.one_of(st.sampled_from([0, 10_000, 123_456_789_012, 10**4299]), st.integers(0, 10**6)),
    st.lists(_VALUES, min_size=1, max_size=2, unique=True),  # source titles
    st.frozensets(_VALUES, min_size=1, max_size=2),  # countries
    st.frozensets(_VALUES, max_size=2),  # addresses
)
_ROWS = st.lists(_ROW, max_size=5)


@given(rows=_ROWS)
def test_ingest_reads_back_what_serialize_writes(rows):
    corpus = Corpus(tuple(
        Record(f"R{i}", year, tuple(titles), countries, addresses)
        for i, (year, titles, countries, addresses) in enumerate(rows)
    ))
    assert ingest(serialize(corpus)) == corpus


@given(rows=_ROWS)
def test_serialize_writes_back_what_ingest_reads(rows):
    # the file format, spelled out: sorted countries and addresses, empty AD allowed
    text = "".join(
        [FILE_HEADER + "\n"]
        + [
            f"R{i}\t{year}\t{'|'.join(titles)}\t{'|'.join(sorted(countries))}"
            f"\t{'|'.join(sorted(addresses))}\n"
            for i, (year, titles, countries, addresses) in enumerate(rows)
        ]
    )
    assert serialize(ingest(text)) == text


@given(rows=st.lists(_ROW, max_size=60))
def test_corpus_of_records_gives_them_back(rows):
    records = [
        Record(f"R{i}", year, tuple(titles), countries, addresses)
        for i, (year, titles, countries, addresses) in enumerate(rows)
    ]
    corpus = Corpus(records)
    assert len(corpus) == len(records)
    assert list(corpus) == records
    assert corpus.records == tuple(records)
    assert ingest(serialize(corpus)) == corpus


def test_texts_that_normalize_alike_share_one_value():
    corpus = ingest("R1\t2007\tA REV\tusa\t\nR2\t2007\ta  rev\tUSA\t\nR3\t2007\tA REV\t usa \t")
    assert [r.countries for r in corpus] == [frozenset({"USA"})] * 3
    assert [r.source_titles for r in corpus] == [("A REV",)] * 3
    assert corpus.countries.values == (frozenset({"USA"}),)
    assert corpus.source_titles.values == (("A REV",),)
    # equality is by content: records built one by one give an equal corpus
    assert corpus == Corpus(make_record(f"R{i}", ("a rev",), countries=("usa",)) for i in (1, 2, 3))
    assert corpus != Corpus(make_record(f"R{i}", ("A REV",), countries=("UK",)) for i in (1, 2, 3))


@pytest.mark.parametrize("name", ["cuba_t3", "uk_s1", "empty", "generated"])
def test_save_corpus_writes_serialize_bytes(name, tmp_path, request):
    if name == "empty":
        corpus = Corpus(())
    elif name == "generated":
        corpus = generate(CorpusProfile(seed=4, n_records=9000))
    else:
        corpus = request.getfixturevalue(name.split("_")[0] + "_corpus")
    path = tmp_path / "c.tsv"
    save_corpus(corpus, str(path))
    assert path.read_bytes() == serialize(corpus).encode("utf-8")


def test_serialize_empty_address_field_round_trips():
    rec = make_record("R1", ("A REV",))
    text = serialize(Corpus((rec,)))
    assert text.splitlines()[1].endswith("\t")
    assert ingest(text).records[0].addresses == frozenset()


# -- record/corpus invariants ------------------------------------------------


def test_record_rejects_reserved_characters():
    with pytest.raises(CorpusError):
        make_record("R 1", ("A REV",))
    with pytest.raises(CorpusError):
        make_record("#R1", ("A REV",))
    with pytest.raises(CorpusError):
        make_record("R1", ("A|B",))
    with pytest.raises(CorpusError):
        make_record("R1", ())
    with pytest.raises(CorpusError, match="got the string 'NATURE'"):
        make_record("R1", "NATURE")  # one title, not six of one letter each
    with pytest.raises(CorpusError):
        Record(id="R1", pub_year=2007, source_titles=("A REV",), countries=frozenset(),
               addresses=frozenset())
    # characters no query pattern can carry would make a value unreachable
    for bad in ("ANN REV (PART A)", "A=B REV", "A#1 REV", "A* REV"):
        with pytest.raises(CorpusError, match="reserved character"):
            make_record("R1", (bad,))


_RECORD_FIELDS = {"SO": "source_titles", "CU": "countries", "AD": "addresses"}


# one bad field, as corpus text and as a Python collection (None where that
# entry point cannot carry it, the bad value last), and the message body of
# the refusal
@pytest.mark.parametrize(
    "tag, text, values, body",
    [
        ("SO", None, "NATURE", "SO values must be a collection, got the string 'NATURE'"),
        ("AD", None, "MIT", "AD values must be a collection, got the string 'MIT'"),
        ("CU", "USA| ", ("USA", " "), "CU field has an empty value"),
        ("AD", "MIT|", ("MIT", ""), "AD field has an empty value"),
        ("SO", "A(B REV", ("A(B REV",), "source title 'A(B REV' contains reserved character '('"),
        ("CU", "US=A", ("US=A",), "country 'US=A' contains reserved character '='"),
        ("AD", "MIT*", ("MIT*",), "address 'MIT*' contains reserved character '*'"),
        ("SO", "", (), "empty SO field"),
        ("CU", "", (), "empty CU field"),
    ],
    ids=["so-string", "ad-string", "cu-empty-value", "ad-empty-value", "so-reserved",
         "cu-reserved", "ad-reserved", "so-empty", "cu-empty"],
)
def test_bad_field_value_gives_one_message_at_every_entry_point(tag, text, values, body):
    if text is not None:
        fields = {"SO": "A REV", "CU": "USA", "AD": "", tag: text}
        with pytest.raises(CorpusError) as err:
            ingest("\t".join(("R1", "2007", fields["SO"], fields["CU"], fields["AD"])))
        assert str(err.value) == f"line 1: {body}"
    kwargs = {"source_titles": ("A REV",), "countries": ("USA",), "addresses": (),
              _RECORD_FIELDS[tag]: values}
    with pytest.raises(CorpusError) as err:
        Record("R1", 2007, **kwargs)
    assert str(err.value) == f"record 'R1': {body}"
    # a generator profile reads each country, and each address of a pool, as
    # one value; a pool given as one string fails the profile's type check
    if tag == "SO" or not values or isinstance(values, str):
        return
    if tag == "CU":
        country, pools = values[-1], {}
    else:
        country, pools = "USA", {"USA": values}
    profile = CorpusProfile(seed=1, n_records=0, country_weights={"USA": 1.0, country: 1.0},
                            address_pools=pools)
    with pytest.raises(CorpusError) as err:
        generate(profile)
    assert str(err.value) == f"profile country {country!r}: {body}"


@pytest.mark.parametrize(
    "country_weights, names",
    [
        ({"usa": 1, "USA": 1, "CUBA": 1}, ("USA", "usa")),
        ({"CUBA": 1.0, " Cuba": 2.0}, (" Cuba", "CUBA")),
        ({"north  ireland": 1, "NORTH IRELAND": 1}, ("NORTH IRELAND", "north  ireland")),
        ({"usa": 0, "USA": 1}, ("USA", "usa")),  # a name of weight 0 is read too
    ],
)
def test_profile_naming_one_country_twice_is_refused(country_weights, names):
    for n in (0, 30):
        with pytest.raises(CorpusError) as err:
            generate(CorpusProfile(seed=1, n_records=n, country_weights=country_weights))
        assert str(err.value) == f"profile countries {names[0]!r} and {names[1]!r} name one country"


@pytest.mark.parametrize(
    "address_pools, message",
    [
        # a pool that no weight names is read too, and a fault names its key
        ({"FRANCE": ("BAD|ADDR",)},
         "profile country 'FRANCE': address 'BAD|ADDR' contains reserved character '|'"),
        ({"X|Y": ("OK",)}, "profile country 'X|Y': country 'X|Y' contains reserved character '|'"),
        ({"usa": ("MIT",), "USA": ("MIT",)},
         "profile address_pools keys 'USA' and 'usa' name one country"),
        ({1: ("MIT",)}, "profile address_pools must be an object of string lists, "
                        "got {1: ('MIT',)}"),
    ],
    ids=["unnamed-bad-address", "unnamed-bad-key", "one-country-twice", "key-not-a-string"],
)
def test_every_address_pool_is_read(address_pools, message):
    profile = CorpusProfile(seed=1, n_records=5, country_weights={"USA": 1.0},
                            address_pools=address_pools)
    for check in (profile.validate, partial(generate, profile)):
        with pytest.raises(CorpusError) as err:
            check()
        assert str(err.value) == message


@pytest.mark.parametrize(
    "country_weights, address_pools",
    [
        ({"usa": 1}, {"USA": ("MIT CAMBRIDGE MA",)}),
        ({"USA": 1, "cuba": 0}, {" usa ": ("MIT CAMBRIDGE MA",), "CUBA": ("CNIC",)}),
    ],
)
def test_generate_draws_from_the_pool_of_the_country_its_key_names(country_weights,
                                                                    address_pools):
    corpus = generate(CorpusProfile(seed=1, n_records=40, country_weights=country_weights,
                                    address_pools=address_pools))
    assert {(r.countries, r.addresses) for r in corpus} == {
        (frozenset({"USA"}), frozenset({"MIT CAMBRIDGE MA"}))}


def test_corpus_rejects_duplicate_ids():
    rec = make_record("R1", ("A REV",))
    with pytest.raises(CorpusError, match="duplicate record id"):
        Corpus((rec, rec))


# -- flat columns --------------------------------------------------------------


def _distinct_titles(width):
    """``width`` records, each with a title of its own, as ``Record``s and as corpus text."""
    records = [make_record(f"R{i}", (f"T{i} REV",)) for i in range(width)]
    return records, "".join(f"R{i}\t2007\tT{i} REV\tUSA\t\n" for i in range(width))


@pytest.mark.parametrize("width, kind", [(256, bytes), (257, array)])
def test_codes_are_bytes_up_to_256_values_and_an_unsigned_array_beyond(width, kind, monkeypatch):
    records, text = _distinct_titles(width)
    generated = generate(CorpusProfile(seed=1, n_records=width))
    read = ingest(text)
    # read 100 lines at a time, the 257th title arrives in the third batch
    monkeypatch.setattr(capsplit.corpus, "_BATCH_LINES", 100)
    read_in_batches = ingest(text)
    assert read_in_batches == read
    for corpus in (read, read_in_batches, Corpus(records), generated):
        titles = corpus.source_titles
        assert len(titles.values) == width
        assert type(titles.codes) is kind
        if kind is array:
            assert titles.codes.typecode == "I"
        # one year, one country set and no address: a byte per record each
        for column in (corpus.years, corpus.countries, corpus.addresses):
            assert type(column.codes) is bytes and len(column.codes) == width


def test_ids_are_a_sequence_of_strings():
    n = 2 * _BATCH_LINES + 3  # iteration splits a batch at a time
    expected = tuple(f"R{i}" for i in range(n))
    corpus = ingest("".join(f"{rid}\t2007\tA REV\tUSA\t\n" for rid in expected))
    ids = corpus.ids
    assert isinstance(ids, Ids)
    assert len(ids) == n
    assert (ids[0], ids[_BATCH_LINES - 1], ids[_BATCH_LINES], ids[-1]) == (
        "R0", f"R{_BATCH_LINES - 1}", f"R{_BATCH_LINES}", f"R{n - 1}")
    assert ids[-n] == "R0"
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            ids[index]
    assert tuple(ids) == expected and list(ids) == list(expected)
    assert ids == expected and expected == ids and ids == list(expected)
    assert ids != expected[:-1] and ids != expected[:-1] + ("R",)
    assert ids != "R0" and ids != 0
    assert [rec.id for rec in corpus] == list(expected)


def test_ids_select_splits_dense_batches_and_slices_sparse_ones():
    n = 2 * _BATCH_LINES + 3
    ids = Ids(f"R{i}" for i in range(n))
    # the first batch whole, every tenth id of the second, two of the last three
    positions = [*range(_BATCH_LINES), *range(_BATCH_LINES, 2 * _BATCH_LINES, 10), n - 3, n - 1]
    assert ids.select(sum(1 << pos for pos in positions)) == {f"R{pos}" for pos in positions}
    assert ids.select(1 << 1 | 1 << n - 1) == {"R1", f"R{n - 1}"}
    assert ids.select(0) == set()


def test_corpora_built_every_way_are_equal_and_hash_alike():
    records = [make_record(f"R{i}", (f"T{i % 300} REV",), 2007 + i % 3, ("USA",)) for i in range(700)]
    read = ingest(serialize(Corpus(records)))
    built = Corpus(records)
    columns = (read.years, read.source_titles, read.countries, read.addresses)
    of_tuple = Corpus._of(tuple(rec.id for rec in records), *columns)
    for corpus in (built, of_tuple):
        assert corpus == read and read == corpus
        assert hash(corpus) == hash(read)
        assert corpus.ids == read.ids
    assert type(of_tuple.ids) is Ids
    assert read != Corpus(records[:-1])


@pytest.mark.parametrize("ids, read", [
    (["ß1", "É1", "r2"], ["SS1", "É1", "R2"]),
    (["r%1", "%s", "100%%", "%(a)s"], ["R%1", "%S", "100%%", "%(A)S"]),  # "%" is no placeholder
    ([], []),
])
def test_non_ascii_ids_and_the_empty_corpus_round_trip(ids, read):
    corpus = Corpus([make_record(rid, ("A REV",)) for rid in ids])
    assert list(corpus.ids) == read and len(corpus.ids) == len(read)
    again = ingest(serialize(corpus))
    assert again == corpus and hash(again) == hash(corpus)
    assert list(again.ids) == read
    assert [rec.id for rec in again] == read


# -- generator ---------------------------------------------------------------


def test_generate_zero_records():
    assert len(generate(CorpusProfile(seed=1, n_records=0))) == 0


def test_generate_is_deterministic():
    profile = CorpusProfile(seed=7, n_records=500)
    assert serialize(generate(profile)) == serialize(generate(profile))


def test_generate_seeds_differ():
    a = serialize(generate(CorpusProfile(seed=1, n_records=200)))
    b = serialize(generate(CorpusProfile(seed=2, n_records=200)))
    assert a != b


def test_generate_multi_title_fraction():
    corpus = generate(CorpusProfile(seed=7, n_records=5000, multi_title_prob=0.1))
    multi = sum(1 for r in corpus if len(r.source_titles) == 2)
    # binomial 99% interval around n*p, plus the frozen per-seed value
    mean, sd = 5000 * 0.1, math.sqrt(5000 * 0.1 * 0.9)
    assert mean - 2.576 * sd <= multi <= mean + 2.576 * sd
    assert multi == 487


def test_generate_respects_year_range_and_countries():
    profile = CorpusProfile(
        seed=5,
        n_records=200,
        year_range=(2007, 2007),
        country_weights={"CUBA": 1.0},
    )
    corpus = generate(profile)
    assert all(r.pub_year == 2007 for r in corpus)
    assert all(r.countries == {"CUBA"} for r in corpus)


def test_invalid_profiles_rejected():
    with pytest.raises(CorpusError, match="n_records"):
        generate(CorpusProfile(seed=1, n_records=-1))
    with pytest.raises(CorpusError, match="year_range"):
        generate(CorpusProfile(seed=1, n_records=1, year_range=(2009, 2005)))
    with pytest.raises(CorpusError, match="starts below year 0"):
        generate(CorpusProfile(seed=1, n_records=1, year_range=(-5, 2007)))
    with pytest.raises(CorpusError, match="year_range has a year of more than"):
        generate(CorpusProfile(seed=1, n_records=1, year_range=(0, 10**5000)))
    with pytest.raises(CorpusError, match="negative weight"):
        generate(CorpusProfile(seed=1, n_records=1, country_weights={"USA": -1.0}))
    with pytest.raises(CorpusError, match="no positive weight"):
        generate(CorpusProfile(seed=1, n_records=1, country_weights={"USA": 0.0}))
    with pytest.raises(CorpusError, match="multi_title_prob"):
        generate(CorpusProfile(seed=1, n_records=1, multi_title_prob=1.5))
    with pytest.raises(CorpusError, match="initial_letter_weights"):
        generate(CorpusProfile(seed=1, n_records=1, initial_letter_weights={"É": 1.0}))


@pytest.mark.parametrize(
    "weights",
    [
        {"A": float("inf")},
        {"A": 1.0, "B": float("nan")},
        {"A": float("-inf"), "B": 1.0},
        {"A": 1e308, "B": 1e308},  # each finite, the total is not
    ],
)
def test_non_finite_weights_rejected(weights):
    for field in ("country_weights", "initial_letter_weights"):
        profile = CorpusProfile(seed=1, n_records=1, **{field: weights})
        with pytest.raises(CorpusError, match=f"{field} has a weight or a total that is not"):
            profile.validate()


@pytest.mark.parametrize(
    "country_weights, address_pools",
    [
        # a reserved character in a country the RNG practically never draws
        ({"USA": 1.0, "A(B": 1e-9}, {}),
        # ... or never draws at all
        ({"USA": 1.0, "A(B": 0}, {}),
        ({"USA": 1.0, "CUBA": 0.0}, {"CUBA": ("MIT*",)}),
        # a reserved character in an address pool the RNG never reaches
        ({"USA": 1.0}, {"USA": ("STANFORD UNIV", "MIT*")}),
        ({"USA": 1.0}, {"USA": ("  ",)}),
    ],
)
def test_bad_profile_value_fails_even_if_never_drawn(country_weights, address_pools):
    for n in (0, 1):
        profile = CorpusProfile(
            seed=1, n_records=n, country_weights=country_weights, address_pools=address_pools
        )
        with pytest.raises(CorpusError, match="country|address"):
            generate(profile)


def test_generator_skips_record_and_corpus_rechecks(monkeypatch):
    calls = []
    monkeypatch.setattr(Record, "__post_init__", lambda self: calls.append("record"))
    monkeypatch.setattr(Corpus, "__init__", lambda self, records: calls.append("corpus"))
    generate(CorpusProfile(seed=1, n_records=50))
    build_fixture("cuba_t3")
    assert calls == []
    # ingest checks the text itself, so it fills the columns unchecked too
    corpus = ingest("R1\t2007\tA REV\tUSA\t\nR2\t2007\tB REV\tUSA\t")
    assert calls == []
    # records built on demand from the columns are not checked again either
    assert [r.id for r in corpus] == ["R1", "R2"]
    assert calls == []


def test_profile_from_dict_accepts_lists():
    profile = CorpusProfile.from_dict(
        {
            "seed": 3,
            "n_records": 10,
            "year_range": [2000, 2001],
            "address_pools": {"USA": ["SOMEWHERE NY"]},
        }
    )
    assert profile.year_range == (2000, 2001)
    assert profile.address_pools["USA"] == ("SOMEWHERE NY",)


# -- degree pairing ----------------------------------------------------------


def test_pair_degrees_simple():
    assert pair_overlap_degrees((1, 1)) == [(0, 1)]


def test_pair_degrees_odd_sum_rejected():
    with pytest.raises(CorpusError, match="odd sum"):
        pair_overlap_degrees((1, 1, 1))


def test_pair_degrees_infeasible():
    with pytest.raises(CorpusError, match="infeasible"):
        pair_overlap_degrees((2, 0, 0))
    with pytest.raises(CorpusError, match="infeasible"):
        pair_overlap_degrees((1, 1), forbidden=frozenset({(0, 1)}))


def test_pair_degrees_satisfies_degrees_and_constraints():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(3, 8)
        degrees = [rng.randint(0, 20) for _ in range(n)]
        if sum(degrees) % 2:
            degrees[0] += 1
        # keep the sequence realizable: no degree above the sum of the rest
        total = sum(degrees)
        if max(degrees) > total - max(degrees):
            continue
        forbidden = frozenset({(0, 1)}) if degrees[0] + degrees[1] <= total - degrees[0] - degrees[1] else frozenset()
        try:
            pairs = pair_overlap_degrees(degrees, forbidden=forbidden)
        except CorpusError:
            continue  # constrained corner cases may be genuinely infeasible
        got = [0] * n
        for i, j in pairs:
            assert i != j
            assert (i, j) not in forbidden
            got[i] += 1
            got[j] += 1
        assert got == degrees


def _reference_pair_overlap_degrees(degrees, forbidden=frozenset()):
    """The reference pairing: one edge per step, every statement rescanned with ``max``."""
    remaining = list(degrees)
    if any(d < 0 for d in remaining):
        raise CorpusError("overlap degrees must be non-negative")
    if sum(remaining) % 2 != 0:
        raise CorpusError("overlap degree sequence has odd sum; cannot pair")
    blocked = {tuple(sorted(p)) for p in forbidden}
    constrained = sorted({k for pair in blocked for k in pair}, key=lambda k: (-remaining[k], k))
    pairs = []

    def take_edge(i):
        candidates = [
            k
            for k in range(len(remaining))
            if k != i and remaining[k] > 0 and tuple(sorted((i, k))) not in blocked
        ]
        if not candidates:
            raise CorpusError("overlap degree sequence infeasible under pair constraints")
        j = max(candidates, key=lambda k: (remaining[k], -k))
        remaining[i] -= 1
        remaining[j] -= 1
        pairs.append((min(i, j), max(i, j)))

    for i in constrained:
        while remaining[i] > 0:
            take_edge(i)
    while True:
        i = max(range(len(remaining)), key=lambda k: (remaining[k], -k))
        if remaining[i] == 0:
            break
        take_edge(i)
    return pairs


def _pairing(pair, degrees, forbidden):
    try:
        return pair(degrees, forbidden)
    except CorpusError as exc:
        return str(exc)


@given(
    degrees=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
)
@example(degrees=[5536, 4385, 13440, 9267, 13200, 56, 168], picks=[(5, 6)])  # usa_t1
@example(degrees=[1000, 1000, 2], picks=[])  # long runs of one equal pair
def test_pair_degrees_equal_the_reference_pairing(degrees, picks):
    forbidden = frozenset((i % len(degrees), j % len(degrees)) for i, j in picks)
    assert _pairing(pair_overlap_degrees, degrees, forbidden) == _pairing(
        _reference_pair_overlap_degrees, degrees, forbidden
    )


def test_pair_degrees_of_no_statements_is_no_pairs():
    assert pair_overlap_degrees(()) == []


# -- fixtures ----------------------------------------------------------------


def _split_fixture_memberships(corpus, pivot: str) -> list[set[int]]:
    """Independent scan: which of the seven statements holds each record."""
    memberships = []
    for rec in corpus:
        initials = {t[0] for t in rec.source_titles}
        stmts = {
            i
            for i, letters in enumerate(FIXTURE_LETTER_GROUPS)
            if initials.intersection(letters)
        }
        if "J" in initials:
            has_pivot = any(pivot in addr.split() for addr in rec.addresses)
            stmts.add(5 if has_pivot else 6)
        memberships.append(stmts)
    return memberships


def test_cuba_fixture_structure(cuba_corpus):
    assert len(cuba_corpus) == 910
    assert sum(1 for r in cuba_corpus if len(r.source_titles) == 2) == 34
    memberships = _split_fixture_memberships(cuba_corpus, "HAVANA")
    counts = [0] * 7
    exclusive = [0] * 7
    overlap = 0
    for stmts in memberships:
        assert 1 <= len(stmts) <= 2  # never uncovered, never in three sections
        for s in stmts:
            counts[s] += 1
        if len(stmts) == 1:
            exclusive[next(iter(stmts))] += 1
        else:
            overlap += 1
            assert stmts != {5, 6}  # the pivot sides are complementary
    assert counts == [140, 216, 161, 193, 91, 108, 35]
    assert exclusive == [127, 205, 139, 177, 86, 108, 34]
    assert overlap == 34
    assert all(r.pub_year == 2007 and "CUBA" in r.countries for r in cuba_corpus)


def test_uk_fixture_structure(uk_corpus):
    assert len(uk_corpus) == 131845
    with_london = sum(
        1 for r in uk_corpus if any("LONDON" in a.split() for a in r.addresses)
    )
    assert with_london == 33043
    assert len(uk_corpus) - with_london == 98802
    nations = {"ENGLAND", "SCOTLAND", "WALES", "NORTH IRELAND"}
    assert all(r.countries.intersection(nations) for r in uk_corpus)
    assert all(r.pub_year == 2007 for r in uk_corpus)


# -- drawing -----------------------------------------------------------------
#
# Each draw helper stands for a random.Random method: from equal states it
# must return what the method returns and leave the state the method leaves.

_seeds = st.integers(0, 2**64)


@given(_seeds, st.integers(1, 2**70))
@example(0, 1)  # a draw below 1 still consumes an output
@example(0, 2**32)  # 33 bits: two outputs
@example(0, 2**70)
def test_below_draws_what_choice_and_randrange_draw(seed, n):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _below(ours.getrandbits, n) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()
    # choice takes len(seq), which a range longer than sys.maxsize cannot give
    if n <= sys.maxsize:
        seq = range(n)
        assert seq[_below(ours.getrandbits, n)] == theirs.choice(seq)
        assert ours.getstate() == theirs.getstate()


@given(_seeds, st.integers(-(2**40), 2**40), st.integers(0, 2**40))
@example(0, 2005, 4)
def test_below_draws_what_randint_draws(seed, lo, width):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert lo + _below(ours.getrandbits, width + 1) == theirs.randint(lo, lo + width)
    assert ours.getstate() == theirs.getstate()


@given(
    _seeds,
    st.one_of(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        st.lists(st.floats(0, 1e6), min_size=1, max_size=40),
    ).filter(lambda weights: sum(weights) > 0),
)
def test_weighted_draws_what_choices_draws(seed, weights):
    ours, theirs = random.Random(seed), random.Random(seed)
    items = [f"item{i}" for i in range(len(weights))]
    draw = _weighted(ours, items, weights)
    for _ in range(5):
        assert draw() == theirs.choices(items, weights)[0]
    assert ours.getstate() == theirs.getstate()


@given(_seeds, st.integers(0, 60))
def test_shuffle_draws_what_random_shuffle_draws(seed, length):
    ours, theirs = random.Random(seed), random.Random(seed)
    x, y = list(range(length)), list(range(length))
    _shuffle(ours.getrandbits, x)
    theirs.shuffle(y)
    assert x == y
    assert ours.getstate() == theirs.getstate()


@given(_seeds, st.sampled_from(SYMBOLS))
def test_random_title_draws_what_choice_and_randint_draw(seed, initial):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(20):
        body = "".join(theirs.choice(SYMBOLS[:26]) for _ in range(theirs.randint(3, 7)))
        expected = f"{initial}{body} {theirs.choice(_TITLE_WORDS)}"
        assert _random_title(ours.getrandbits, initial) == expected
    assert ours.getstate() == theirs.getstate()


# -- pinned corpus bytes ----------------------------------------------------
#
# sha256 of serialize(...). The fixture rows and the first two generator
# rows were recorded before record assembly was shared between the
# generator and the fixtures; the other generator rows were recorded while
# the generator still drew through random's choice, choices and randint.
# Any drift in which Mersenne Twister outputs are consumed, and in what
# order, in numbering or in normalization changes these.

_FIXTURE_SHA256 = {
    "cuba_t3": "2c3474076458bb9611728bdcea5f66ccf3f173a1d084ef83a7af51e2e2a80c9f",
    "uk_s1": "7aefd6b9c007d74da3863187ea809365500468e03c7382438322e31f765beb57",
    "usa_t1": "2d1212439a802b5c5355e2831a46e2ee51c65c890514724dcc354266e909c4aa",
}

def _sha256(corpus: Corpus) -> str:
    return hashlib.sha256(serialize(corpus).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(_FIXTURE_SHA256))
def test_fixture_bytes_are_pinned(name, request):
    corpus = request.getfixturevalue(name.split("_")[0] + "_corpus")  # built once, in conftest
    assert _sha256(corpus) == _FIXTURE_SHA256[name]
    assert ingest(serialize(corpus)) == corpus


@pytest.mark.parametrize(
    "profile, digest",
    [
        (
            CorpusProfile(seed=7, n_records=500),
            "e76eb54fbdad8c892dfc910a5e6bddbc688a60837676dc64e3f986e07b52261e",
        ),
        (
            CorpusProfile(
                seed=3,
                n_records=300,
                country_weights={"usa": 1.0, "North  Ireland": 2.0},
                address_pools={"usa": ("stanford  univ ca",), "North  Ireland": ("qub belfast",)},
            ),
            "61ba1d35c8baa77f42b75df01f5145b2eec232ef93e7f9b96e1cde678dd557ba",
        ),
        # a year draw of 41 bits, which takes two 32-bit outputs
        (
            CorpusProfile(seed=11, n_records=300, year_range=(0, 2**40)),
            "c8a4e6563e5d89ffef43e14357cf0fdeeac44571205055a0225a1cc02bcba2bc",
        ),
        # record 25 of this seed draws a second title equal to its first, then redraws it
        (
            CorpusProfile(seed=76523, n_records=30, multi_title_prob=1.0,
                          initial_letter_weights={"Q": 1.0}),
            "5d488bcd3f597fa4dfa751b8792f90a7b574b9ab26887bc8aa5be6223a90b11d",
        ),
        # choosing from a pool of one still consumes an output
        (
            CorpusProfile(seed=13, n_records=300, country_weights={"USA": 1.0},
                          address_pools={"USA": ("MIT CAMBRIDGE MA",)}),
            "958c7a3b7bf3b735badd036e8fc2c24afb19c46f6a4de68b80fe0ce1f1428c85",
        ),
        # a country without a pool draws no address
        (
            CorpusProfile(seed=14, n_records=300, country_weights={"USA": 1.0, "CUBA": 1.0},
                          address_pools={"USA": ("MIT CAMBRIDGE MA", "HARVARD UNIV BOSTON MA")}),
            "e9521f6f8b737b934e461e28044e9d1135b595998ae58f02a8c660eb6e21ed5d",
        ),
        (
            CorpusProfile(seed=15, n_records=300, address_pools={}),
            "bc7d7a3901fafbcdfa5e5c7c03b329a153091683d5682c1a57c6ea1722ccf201",
        ),
        (
            CorpusProfile(seed=16, n_records=300, country_weights={"USA": 3, "CUBA": 1},
                          initial_letter_weights={"A": 2, "J": 5, "7": 1}),
            "c9100a6d1164e5aa4030ff40646ea265c3107106a06ae40d8c0be3637eb58b6b",
        ),
    ],
    ids=["default-seed7", "unnormalized-names", "year-over-32-bits", "second-title-redrawn",
         "one-address-pool", "country-without-pool", "no-address-pools", "integer-weights"],
)
def test_generate_bytes_are_pinned(profile, digest):
    corpus = generate(profile)
    assert _sha256(corpus) == digest
    assert ingest(serialize(corpus)) == corpus


def test_fixture_is_deterministic():
    assert serialize(build_fixture("cuba_t3")) == serialize(build_fixture("cuba_t3"))


def test_unknown_fixture_name():
    with pytest.raises(CorpusError) as err:
        build_fixture("atlantis_t9")
    assert str(err.value) == ("unknown fixture 'atlantis_t9'; "
                              "expected one of cuba_t3, usa_t1, uk_s1")
    assert FIXTURE_NAMES == ("cuba_t3", "usa_t1", "uk_s1")
