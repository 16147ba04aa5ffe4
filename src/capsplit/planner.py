"""Partition planning for capped retrieval.

A strategy splits a base query into numbered statements whose individual
result sets all stay strictly below the cap, by bucketing a token field
(normally the source title) on its first symbol:

    base AND (SO=A* OR SO=B*)
    base AND (SO=C* OR SO=D* OR ...)
    ...

Two planners build the statements:

- ``plan_prescribed`` realizes caller-supplied groups verbatim, usually
  parsed and checked from text by ``parse_group_spec``. A group is one of
  two things: a pattern bucket (``Prefixes``), realized as one statement,
  or a pivot split of a prefix on a second field (``Split``), realized as
  two, ``base AND SO=J* AND AD=CA`` then ``base AND SO=J* NOT AD=CA``.
  Pivot splits serve buckets known to be oversized.
- ``plan_auto`` packs first symbols greedily in canonical order (A..Z,
  0..9, then any other stored first symbol by code point): each bucket
  is the longest run of symbols whose statement's count stays below the
  cap. Counts never fall as a run grows, so it finds that run in
  O(log n) probes, not one per symbol, and it guesses the run's end from
  the counts it reads: after width 1 it tries the previous run's width,
  then interpolates between a fitting and a failing count, or scales a
  fitting count per symbol, with a doubling or bisecting step between
  guesses (see ``_Packer.longest_fit``). It first probes all symbols at
  once, so a domain below the cap costs one probe. A single
  symbol whose bucket alone reaches the cap is replaced by packed
  longer-prefix buckets via the engine's next-symbol introspection, with
  exact-title residues covered by untruncated terms; deepening recurses
  until everything fits or a single full-title class reaches the cap,
  which is irreducible. One greedy body serves both count modes
  (``plan_censored`` is the same function) and counts each statement once.
  It refuses the AD field, whose values may be empty: no prefix bucket
  names a record without an address.

``plan_prescribed`` reads nothing of the term dictionary. After checking
its statements it sends one more, ``base NOT (s1 OR ... OR sn)``, and
warns with that count if it is not zero ("at least the cap" when
censored), however the groups spell their prefixes.

Every strategy also carries the overlap statement (the OR of all pairwise
ANDs of the numbered statements) and one exclusion statement per numbered
statement, which a runner registers right after the partition statements.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Union

from .corpus import SYMBOLS, symbol_sort_key
from .engine import CENSORED, CappedEngine, CountResult
from .query import (
    And,
    Diff,
    FieldKind,
    Pattern,
    Query,
    QueryError,
    SetRef,
    Term,
    or_chain,
    postorder,
    print_normalized,
)


class GroupSpecError(ValueError):
    """Invalid partition-group specification or planner parameters."""


class PlanInfeasibleError(Exception):
    """No valid sub-cap partition exists for the given corpus and cap."""


@dataclass(frozen=True)
class Prefixes:
    """A bucket of patterns, realized as ``F=p1 OR F=p2 OR ...``.

    A letter chunk of a group specification is one-symbol truncated
    patterns (``SO=A* OR SO=B*``).
    """

    patterns: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise GroupSpecError("empty prefix group")


@dataclass(frozen=True)
class Split:
    """A pivot split of a prefix bucket on a second field: the records of
    the bucket with the pivot, then those without it.

    An empty prefix splits the whole base query (the two-statement
    include/exclude pattern used for mid-sized domains).
    """

    prefix: str
    pivot_field: FieldKind
    pivot: Pattern


Group = Union[Prefixes, Split]


@dataclass(frozen=True)
class Strategy:
    """A realized partition: ordered statements plus overlap and exclusions."""

    base: Query
    cap: int
    statements: tuple[Query, ...]
    overlap_stmt: Query
    exclusion_stmts: tuple[Query, ...]
    warnings: tuple[str, ...] = ()


def _bucket(base: Query, field: FieldKind, patterns: Iterable[Pattern]) -> Query:
    """``base AND (F=p1 OR F=p2 ...)``; a single pattern needs no parentheses."""
    return And(base, or_chain([Term(field, p) for p in patterns]))


def realize_group(base: Query, field: FieldKind, group: Group) -> tuple[Query, ...]:
    """Build the executable statements for one partition group, in script order."""
    if isinstance(group, Prefixes):
        return (_bucket(base, field, group.patterns),)
    scoped = base if not group.prefix else _bucket(base, field, [Pattern(group.prefix, True)])
    pivot_term = Term(group.pivot_field, group.pivot)
    return And(scoped, pivot_term), Diff(scoped, pivot_term)


def build_overlap_statement(n: int) -> Query:
    """OR of all pairwise ANDs of statements 1..n, pairs in (i, j) order.

    With a single statement there are no pairs; the canonical empty-set
    query ``#1 NOT #1`` keeps the statement numbering scheme intact.
    """
    if n < 1:
        raise GroupSpecError(f"need at least one statement, got {n}")
    refs = [SetRef(i) for i in range(1, n + 1)]  # one per statement, shared by its pairs
    if n == 1:
        return Diff(refs[0], refs[0])
    return or_chain([And(left, right) for i, left in enumerate(refs, 1) for right in refs[i:]])


def build_exclusions(n: int) -> list[Query]:
    """One ``#i NOT #n+1`` statement per numbered statement; ``#n+1`` is the overlap."""
    overlap = SetRef(n + 1)
    return [Diff(SetRef(i), overlap) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Group specifications
# ---------------------------------------------------------------------------


def parse_group_spec(text: str) -> tuple[Group, ...]:
    """Parse and check the textual group form, e.g. ``AB,CDEFG,...,J/AD=CA``.

    Comma-separated chunks. A plain chunk lists the first symbols of one
    bucket: ``Prefixes`` of one-symbol truncated patterns, in canonical
    order (A..Z then 0..9) with duplicates dropped. ``PREFIX/FIELD=value``
    is one ``Split`` of the prefix on the pivot, and an empty prefix
    (``/AD=LONDON``) splits the whole base query. Each listed symbol, and
    the first symbol of a split prefix, must upper-case to one symbol in
    A..Z, 0..9. No two chunks may share records, whatever the chunk order:
    no prefix that one chunk names may start with a prefix that another
    chunk names (see ``_named_prefixes``).
    """
    chunks: list[tuple[str, Group]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise GroupSpecError("empty group in group specification")
        if "/" in chunk:
            prefix, _, pivot_text = chunk.partition("/")
            field_name, eq, value = pivot_text.partition("=")
            value = value.strip()
            if not eq or not value:
                raise GroupSpecError(f"split group {chunk!r} must look like PREFIX/FIELD=value")
            try:
                pivot_field = FieldKind(field_name.strip().upper())
            except ValueError:
                raise GroupSpecError(f"unknown pivot field {field_name!r}") from None
            truncated = value.endswith("*")
            pivot = Pattern(value[:-1] if truncated else value, truncated)
            chunks.append((chunk, Split(_split_prefix(prefix), pivot_field, pivot)))
        else:
            symbols = sorted({_symbol(ch, "letter group symbol") for ch in chunk},
                             key=symbol_sort_key)
            chunks.append((chunk, Prefixes(tuple(Pattern(sym, True) for sym in symbols))))
    named = [(chunk, _named_prefixes(group)) for chunk, group in chunks]
    for (chunk_a, prefixes_a), (chunk_b, prefixes_b) in combinations(named, 2):
        for a, b in product(prefixes_a, prefixes_b):
            if a.startswith(b) or b.startswith(a):
                raise GroupSpecError(
                    f"groups {chunk_a!r} and {chunk_b!r} both export the records "
                    f"under prefix {min(a, b, key=len)!r}"
                )
    return tuple(group for _, group in chunks)


def _named_prefixes(group: Group) -> tuple[str, ...]:
    """The prefixes whose records ``group`` exports: a bucket's pattern texts,
    a split's prefix, and the empty prefix (every record) for a whole-base split."""
    if isinstance(group, Prefixes):
        return tuple(p.text for p in group.patterns)
    return (group.prefix,)


def _symbol(ch: str, what: str) -> str:
    """Upper-case one character, which must become exactly one of A..Z, 0..9.

    Checked per character because ``str.upper`` may lengthen one (``ß`` is
    ``SS``), which would smuggle in symbols the text never listed.
    """
    upper = ch.upper()
    if len(upper) != 1 or upper not in SYMBOLS:
        raise GroupSpecError(f"{what} {upper if len(upper) == 1 else ch!r} not in A..Z, 0..9")
    return upper


def _split_prefix(text: str) -> str:
    """Normalize a split prefix, checked as the truncated pattern it realizes as."""
    text = text.strip()
    if not text:
        return ""
    _symbol(text[0], "split prefix symbol")
    try:
        return Pattern(text, truncated=True).text
    except QueryError as exc:
        raise GroupSpecError(f"split prefix {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------


def check_base(base: Query) -> None:
    """Refuse a base that names a numbered statement.

    A run numbers a plan's statements from ``#1`` in a new session, so a
    ``#k`` in the base would name one of them there, not the statement it
    named while the plan was probed.
    """
    for node in postorder(base):
        if isinstance(node, SetRef):
            raise GroupSpecError(
                f"the base query names the numbered statement #{node.number}; "
                "a run numbers its statements anew, so a base cannot refer to one"
            )


def _effective_cap(engine: CappedEngine, cap: int | None) -> int:
    if cap is None:
        return engine.config.cap
    if cap < 1:
        raise GroupSpecError(f"cap must be >= 1, got {cap}")
    if engine.config.count_mode == CENSORED and cap != engine.config.cap:
        raise GroupSpecError(
            "a censored engine only answers probes at its own cap; "
            f"cannot plan for cap {cap} against engine cap {engine.config.cap}"
        )
    if cap > engine.config.cap:
        raise GroupSpecError(
            f"cannot plan for cap {cap} above the engine cap {engine.config.cap}"
        )
    return cap


def plan_prescribed(
    engine: CappedEngine,
    base: Query,
    field: FieldKind,
    groups: tuple[Group, ...],
) -> Strategy:
    """Realize caller-fixed groups, verifying every statement stays below the engine's cap.

    Coverage is asked of the interface too: a non-zero count of
    ``base NOT (s1 OR ... OR sn)`` is the strategy's one warning.
    """
    check_base(base)
    if not groups:
        raise GroupSpecError("a prescribed plan needs at least one group")
    cap = engine.config.cap
    statements = tuple(stmt for group in groups for stmt in realize_group(base, field, group))
    for i, stmt in enumerate(statements, start=1):
        count = engine.count(stmt)
        if not count.fits(cap):
            raise PlanInfeasibleError(
                f"statement {i} ({print_normalized(stmt)}) has {count} records; cap is {cap}"
            )
    uncovered = engine.count(Diff(base, or_chain(list(statements))))
    warnings = () if uncovered.value == 0 else (
        f"groups leave records of the base uncovered: {uncovered}",
    )
    return _assemble(base, cap, statements, warnings)


class _Packer:
    """Greedy packing of one base's buckets on one field below one cap."""

    def __init__(self, engine: CappedEngine, base: Query, field: FieldKind, cap: int):
        self.engine = engine
        self.base = base
        self.field = field
        self.cap = cap

    def probe(self, patterns: list[Pattern]) -> CountResult:
        return self.engine.count(_bucket(self.base, self.field, patterns))

    def child_prefixes(self, prefix: str) -> list[Pattern]:
        items: list[Pattern] = []
        for ch in sorted(self.engine.prefix_children(self.field, prefix), key=symbol_sort_key):
            if ch == " ":
                # No pattern may end with a space (normalization strips it)
                # and no stored value does either, so hop over the word
                # boundary; none past AND, OR or NOT is writable (see expand).
                items.extend(self.child_prefixes(prefix + ch))
            else:
                with suppress(QueryError):
                    items.append(Pattern(prefix + ch, truncated=True))
        return items

    def expand(self, item: Pattern) -> tuple[list[Pattern], list[Pattern], int]:
        """Replace an oversized prefix bucket by all minimally-longer
        representable prefixes, after an opening run of its exact-value
        residue (if any), which is counted here and nowhere else."""
        field = self.field
        children = self.child_prefixes(item.text)
        try:
            exact = Pattern(item.text, truncated=False)
        except QueryError:
            # Ending on the word AND, OR or NOT, the text names neither its exact
            # residue nor values past that word: the children must cover it all.
            if not children or self.engine.count(
                Diff(_bucket(self.base, field, [item]), _bucket(self.base, field, children))
            ).value != 0:
                raise PlanInfeasibleError(f"no statements name all of {field.value}={item.text}*")
            return children, [], 0
        exact_count = self.probe([exact])
        if not exact_count.fits(self.cap):
            raise PlanInfeasibleError(
                f"single value class {field.value}={item.text} reaches the cap {self.cap}; "
                "no finer partition exists"
            )
        return children, [exact] if exact_count.value else [], exact_count.value

    def pack(
        self, items: list[Pattern], current: list[Pattern], current_count: int
    ) -> list[tuple[list[Pattern], int]]:
        """Greedy runs of ``items`` after the opening run ``current``, with their counts.

        All of ``current + items`` as one run is known not to fit: it holds
        the records of the whole domain or of a bucket that did not fit.
        Each run is the longest that still fits; an item that does not fit
        even alone is deepened (every item is truncated, so it can be).
        """
        packed: list[tuple[list[Pattern], int]] = []
        i, too_wide, guess = 0, len(items), None
        while i < len(items):
            width, count = self.longest_fit(items[i:], current, current_count, too_wide, guess)
            run, i = current + items[i : i + width], i + width
            current, current_count, too_wide = [], 0, None
            if run:  # the next item, if any, does not fit after it: try it alone next
                packed.append((run, count))
                guess = width
            else:  # items[i] does not fit even alone: deepen it
                packed.extend(self.pack(*self.expand(items[i])))
                i += 1
        if current:  # no items followed it
            packed.append((current, current_count))
        return packed

    def longest_fit(
        self,
        items: list[Pattern],
        current: list[Pattern],
        current_count: int,
        too_wide: int | None,
        guess: int | None,
    ) -> tuple[int, int]:
        """The most leading ``items`` that still fit after ``current``, and their count.

        A count never falls as the run grows, so the widths that fit are
        ``0..lo`` and those that do not are ``hi`` and wider, where ``hi`` starts
        at ``too_wide``, a width known not to fit, if given, else one past the
        last item. The first probe is width 1, so an item over the cap by itself
        costs one probe. The next is ``guess``, the previous run's width, if
        given. Then plain and guided steps alternate, plain first, with
        ``guess`` standing in for the first plain step. A plain step bisects
        once some width has failed and doubles ``lo`` before, so every two steps
        halve the gap or double ``lo``: O(log n) probes. A guided step reads the
        counts: it interpolates between ``lo``'s and ``hi``'s counts to a count
        of ``cap - 1`` when both are exact, and else scales ``lo`` by the count
        per item, at most doubling it while no width has failed. Each width is
        clamped to lie strictly between ``lo`` and ``hi``, so no width is probed
        twice, and the count returned is one a probe returned
        (``current_count`` for width 0).
        """
        lo, hi, hi_count = 0, too_wide or len(items) + 1, None
        steps = 0  # probes since the opening one
        while hi - lo > 1:
            if lo == 0:
                width = 1
            elif guess is not None:
                width, guess = guess, None
            elif steps % 2 == 0:
                width = (lo + hi) // 2 if hi <= len(items) else 2 * lo
            elif hi_count is not None:
                width = lo + (self.cap - 1 - current_count) * (hi - lo) // (hi_count - current_count)
            else:
                width = lo * (self.cap - 1) // current_count if current_count else 2 * lo
                if hi > len(items):
                    width = min(width, 2 * lo)
            width = max(lo + 1, min(width, hi - 1))
            if lo > 0:
                steps += 1
            result = self.probe(current + items[:width])
            if result.fits(self.cap):
                lo, current_count = width, result.value
            else:
                hi, hi_count = width, result.value
        return lo, current_count


def plan_auto(
    engine: CappedEngine, base: Query, field: FieldKind, cap: int | None = None
) -> Strategy:
    """Greedy alphabetical packing, on visible and censored engines alike."""
    if field is FieldKind.AD:
        raise GroupSpecError(
            "cannot pack AD values: AD values may be empty, so an AD partition "
            "cannot name the records without an address"
        )
    check_base(base)
    cap = _effective_cap(engine, cap)
    # the canonical symbols, then any other stored first symbol (no stored
    # value starts with a space or a reserved character, so each is writable)
    firsts = engine.prefix_children(field, "").union(SYMBOLS)
    symbols = [Pattern(s, True) for s in sorted(firsts, key=symbol_sort_key)]
    packer = _Packer(engine, base, field, cap)
    whole = packer.probe(symbols)  # a domain below the cap is one statement
    runs = [(symbols, whole.value)] if whole.fits(cap) else packer.pack(symbols, [], 0)
    # A degenerate base (matches nothing) keeps one full-coverage statement.
    packed = [patterns for patterns, n in runs if n > 0] or [symbols]
    statements = tuple(_bucket(base, field, patterns) for patterns in packed)
    # Greedy plans cover every stored first symbol and drop only provably
    # empty buckets, so coverage warnings would be noise.
    return _assemble(base, cap, statements, ())


# The greedy body only asks whether a probe fits, which censored counts answer too.
plan_censored = plan_auto


def _assemble(
    base: Query, cap: int, statements: tuple[Query, ...], warnings: tuple[str, ...]
) -> Strategy:
    n = len(statements)
    return Strategy(
        base=base,
        cap=cap,
        statements=statements,
        overlap_stmt=build_overlap_statement(n),
        exclusion_stmts=tuple(build_exclusions(n)),
        warnings=warnings,
    )
