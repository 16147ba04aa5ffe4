"""Test-local brute-force oracles, kept independent of the package's
evaluators: queries are judged record by record with plain boolean logic,
so index bugs and set-algebra bugs cannot hide each other."""

from __future__ import annotations

import random
from typing import Iterable

from capsplit import And, Corpus, FieldKind, Or, Record, SetRef, Term
from capsplit.query import Query


def record_matches(rec: Record, node: Query, registry: dict[int, set[str]] | None = None) -> bool:
    if isinstance(node, Term):
        p = node.pattern
        if node.field is FieldKind.PY:
            return p.matches(str(rec.pub_year))
        if node.field is FieldKind.CU:
            return any(p.matches(c) for c in rec.countries)
        if node.field is FieldKind.SO:
            return any(p.matches(t) for t in rec.source_titles)
        return any(p.matches(tok) for addr in rec.addresses for tok in addr.split())
    if isinstance(node, SetRef):
        return rec.id in (registry or {})[node.number]
    left = record_matches(rec, node.left, registry)
    right = record_matches(rec, node.right, registry)
    if isinstance(node, And):
        return left and right
    if isinstance(node, Or):
        return left or right
    return left and not right


def brute_eval(corpus: Iterable[Record], node: Query,
               registry: dict[int, set[str]] | None = None) -> set[str]:
    return {rec.id for rec in corpus if record_matches(rec, node, registry)}


def make_record(rid: str, titles: tuple[str, ...], year: int = 2007,
                countries: tuple[str, ...] = ("USA",),
                addresses: tuple[str, ...] = ()) -> Record:
    return Record(
        id=rid,
        pub_year=year,
        source_titles=titles,
        countries=frozenset(countries),
        addresses=frozenset(addresses),
    )


def skewed_bucket_corpus(
    rng: random.Random,
    bucket_letters: str,
    bucket_size: int,
    wide_records: int,
    wide_letters: str,
    extra_noise: int = 0,
) -> Corpus:
    """Corpus engineering for multiplicity >= 3.

    Each letter in ``bucket_letters`` gets ``bucket_size`` single-title
    records. When ``bucket_size`` exceeds half the planner cap, no two of
    these buckets can share a greedy group, so a record whose titles hit
    ``wide_letters`` (three or more distinct bucket letters) is guaranteed
    to land in that many different statements.
    """
    records = []
    n = 0
    for letter in bucket_letters:
        for _ in range(bucket_size):
            n += 1
            records.append(make_record(f"B{n:06d}", (f"{letter}X{rng.randrange(10**6):06d} REV",)))
    for _ in range(wide_records):
        n += 1
        titles = tuple(f"{letter}W{rng.randrange(10**6):06d} REV" for letter in wide_letters)
        records.append(make_record(f"W{n:06d}", titles))
    for _ in range(extra_noise):
        n += 1
        letter = rng.choice(bucket_letters)
        records.append(make_record(f"N{n:06d}", (f"{letter}Z{rng.randrange(10**6):06d} REV",)))
    return Corpus(tuple(records))
