"""Seeded corpus files for the benchmark's seeded workload.

Standard library only, and independent of ``capsplit``: the file is
written here in the on-disk corpus format directly, so a change to the
package's corpus layer cannot change the benchmark's inputs. The rows are
already normalized (uppercase, single spaces, sorted set fields), so the
package's ``serialize(ingest(text))`` must reproduce the file byte for
byte, which the benchmark checks.

Source titles come from journal-like pools of about 400 titles per
initial symbol, skewed toward J (``JOURNAL OF ...``) and drawn with a
mild popularity skew, so titles repeat across records. About 10% of the
records carry two titles and a rare few carry three, which is how a
record lands in two or three partition statements.

Usage: ``python3 perfbench/inputs.py WORKLOAD SEED OUT`` writes one file.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import accumulate

FILE_HEADER = "# id\tpub_year\tsource_titles\tcountries\taddresses"

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
DIGITS = "0123456789"

# Lead phrases per initial. No title may contain the words AND, OR or NOT:
# the query language would read them as operators.
LEADS = {
    "A": ("ACTA", "ADVANCES IN", "ANNALS OF", "APPLIED", "ARCHIVES OF", "AMERICAN JOURNAL OF"),
    "B": ("BULLETIN OF", "BRITISH JOURNAL OF", "BIOCHEMICAL", "BRAZILIAN JOURNAL OF"),
    "C": ("CANADIAN JOURNAL OF", "CURRENT OPINION IN", "CLINICAL", "COMPUTATIONAL", "CHINESE JOURNAL OF"),
    "D": ("DEVELOPMENTS IN", "DIGEST OF", "DANISH MEDICAL", "DISCRETE"),
    "E": ("EUROPEAN JOURNAL OF", "EXPERIMENTAL", "ENVIRONMENTAL", "ENCYCLOPEDIA OF"),
    "F": ("FRONTIERS IN", "FOUNDATIONS OF", "FRENCH JOURNAL OF", "FORUM FOR"),
    "G": ("GERMAN JOURNAL OF", "GLOBAL", "GENERAL", "GAZETTE OF"),
    "H": ("HANDBOOK OF", "HUMAN", "HISTORICAL", "HELVETICA"),
    "I": ("INTERNATIONAL JOURNAL OF", "IEEE TRANSACTIONS ON", "INDIAN JOURNAL OF", "ISSUES IN"),
    "J": (
        "JOURNAL OF",
        "JOURNAL OF APPLIED",
        "JOURNAL OF CLINICAL",
        "JOURNAL OF EXPERIMENTAL",
        "JOURNAL OF THE SOCIETY FOR",
        "JAPANESE JOURNAL OF",
        "JOURNAL FOR RESEARCH IN",
    ),
    "K": ("KOREAN JOURNAL OF", "KYBERNETES", "KINETICS OF", "KNOWLEDGE IN"),
    "L": ("LETTERS IN", "LANCET", "LATIN AMERICAN JOURNAL OF", "LECTURE NOTES IN"),
    "M": ("MEDICAL", "MOLECULAR", "METHODS IN", "MODERN"),
    "N": ("NATURE REVIEWS", "NEW JOURNAL OF", "NORDIC JOURNAL OF", "NOTES ON"),
    "O": ("OPEN JOURNAL OF", "OXFORD REVIEW OF", "OBSERVATIONS IN", "ORGANIC"),
    "P": ("PROCEEDINGS OF", "PHYSICAL REVIEW", "PROGRESS IN", "POLISH JOURNAL OF"),
    "Q": ("QUARTERLY JOURNAL OF", "QUANTITATIVE", "QUESTIONS IN", "QUALITY IN"),
    "R": ("REVIEWS OF", "RESEARCH IN", "REPORTS ON", "RUSSIAN JOURNAL OF"),
    "S": ("SCANDINAVIAN JOURNAL OF", "STUDIES IN", "SEMINARS IN", "SOVIET"),
    "T": ("TRANSACTIONS OF", "TRENDS IN", "TOPICS IN", "THEORETICAL"),
    "U": ("ULTRASTRUCTURAL", "UKRAINIAN JOURNAL OF", "UPDATES IN", "URBAN"),
    "V": ("VETERINARY", "VIENNA JOURNAL OF", "VISTAS IN", "VIBRATIONAL"),
    "W": ("WORLD JOURNAL OF", "WIRES", "WESTERN JOURNAL OF", "WORKSHOP ON"),
    "X": ("XENOBIOTICA", "XRAY", "XIAMEN JOURNAL OF", "XINJIANG JOURNAL OF"),
    "Y": ("YEARBOOK OF", "YALE JOURNAL OF", "YOUNG", "YUNNAN JOURNAL OF"),
    "Z": ("ZEITSCHRIFT FUR", "ZOOLOGICAL", "ZHURNAL", "ZENTRALBLATT FUR"),
    **{d: (f"{d}D", f"{d}OR", f"{d} OPEN") for d in DIGITS},
}

QUALIFIERS = (
    "", "APPLIED", "CLINICAL", "EXPERIMENTAL", "THEORETICAL", "COMPUTATIONAL",
    "MOLECULAR", "ENVIRONMENTAL", "INDUSTRIAL", "MEDICAL", "STRUCTURAL", "PHYSICAL",
)

SUBJECTS = (
    "PHYSICS", "CHEMISTRY", "BIOLOGY", "MEDICINE", "ECOLOGY", "GENETICS", "IMMUNOLOGY",
    "NEUROSCIENCE", "ONCOLOGY", "MATERIALS", "ECONOMICS", "MATHEMATICS", "STATISTICS",
    "GEOLOGY", "ASTRONOMY", "ENGINEERING", "COMPUTING", "PSYCHOLOGY", "SOCIOLOGY",
    "LINGUISTICS", "EDUCATION", "NURSING", "SURGERY", "CARDIOLOGY", "DERMATOLOGY",
    "PEDIATRICS", "VIROLOGY", "MICROBIOLOGY", "BOTANY", "ZOOLOGY", "HYDROLOGY",
    "OCEANOGRAPHY", "OPTICS", "ACOUSTICS", "ROBOTICS", "CATALYSIS", "TOXICOLOGY",
    "NUTRITION", "EPIDEMIOLOGY", "PHARMACOLOGY",
)

SUFFIXES = ("", "", "", "LETTERS", "REVIEWS", "RESEARCH", "A", "B")

TITLES_PER_SYMBOL = 400

# Share of records whose first title starts with each symbol: journal
# initials are heavily skewed toward J, digits are rare.
SYMBOL_WEIGHTS = {**{c: 1.0 for c in LETTERS}, "J": 6.0, **{d: 0.2 for d in DIGITS}}

# Popularity of the titles inside one pool: weight (rank + 1) ** -POPULARITY.
POPULARITY = 0.7

DUAL_TITLE_PROB = 0.10
TRIPLE_TITLE_PROB = 0.003
SECOND_COUNTRY_PROB = 0.08
COLLABORATORS = ("CANADA", "ITALY", "SPAIN", "NETHERLANDS")

ADDRESS_POOLS = {
    "USA": (
        "STANFORD UNIV STANFORD CA",
        "UNIV CALIF BERKELEY CA",
        "MIT CAMBRIDGE MA",
        "HARVARD UNIV BOSTON MA",
        "UNIV TEXAS AUSTIN TX",
        "UNIV MICHIGAN ANN ARBOR MI",
        "COLUMBIA UNIV NEW YORK NY",
    ),
    "ENGLAND": ("UCL LONDON", "UNIV MANCHESTER", "UNIV OXFORD", "UNIV CAMBRIDGE"),
    "GERMANY": ("MAX PLANCK INST BERLIN", "UNIV HEIDELBERG", "TU MUNICH", "UNIV BONN"),
    "FRANCE": ("CNRS PARIS", "UNIV LYON", "INST PASTEUR PARIS", "UNIV TOULOUSE"),
    "JAPAN": ("UNIV TOKYO", "KYOTO UNIV", "OSAKA UNIV", "RIKEN WAKO"),
}


@dataclass(frozen=True)
class Shape:
    """What a seeded corpus looks like; the seed picks the rows."""

    n_records: int
    years: tuple[int, ...]
    countries: dict[str, float]


SHAPES = {
    # 10 years x 5 countries = 50 (year, country) domains of ~2k to ~7k records
    "censored-domains": Shape(
        n_records=200_000,
        years=tuple(range(2000, 2010)),
        countries={"USA": 0.35, "GERMANY": 0.20, "ENGLAND": 0.20, "FRANCE": 0.15, "JAPAN": 0.10},
    ),
}


def title_pools(rng: random.Random) -> dict[str, list[str]]:
    """About 400 distinct titles per symbol, in popularity order."""
    pools = {}
    for sym, leads in LEADS.items():
        combos = sorted(
            {
                " ".join(w for w in (lead, qual, subject, suffix) if w)
                for lead in leads
                for qual in QUALIFIERS
                for subject in SUBJECTS
                for suffix in SUFFIXES
            }
        )
        pools[sym] = rng.sample(combos, TITLES_PER_SYMBOL)
    return pools


def write_corpus(workload: str, seed: int, path: str) -> int:
    """Write the workload's corpus for ``seed`` to ``path``; return the row count."""
    shape = SHAPES[workload]
    n = shape.n_records
    # The journal universe is the same for every seed, so seeds differ
    # only in which records carry which titles and attributes.
    pools = title_pools(random.Random("title-pools"))
    rng = random.Random(f"{workload}:{seed}")
    uniform = rng.random

    symbols = sorted(SYMBOL_WEIGHTS)
    widths = [3 if r < TRIPLE_TITLE_PROB else 2 if r < DUAL_TITLE_PROB else 1
              for r in (uniform() for _ in range(n))]
    draws = sum(widths)
    title_symbols = rng.choices(
        symbols, cum_weights=list(accumulate(SYMBOL_WEIGHTS[s] for s in symbols)), k=draws
    )
    title_ranks = rng.choices(
        range(TITLES_PER_SYMBOL),
        cum_weights=list(accumulate((r + 1) ** -POPULARITY for r in range(TITLES_PER_SYMBOL))),
        k=draws,
    )
    countries = sorted(shape.countries)
    homes = rng.choices(
        countries, cum_weights=list(accumulate(shape.countries[c] for c in countries)), k=n
    )
    partners = sorted(set(countries) | set(COLLABORATORS))
    years = rng.choices(shape.years, k=n)

    width = max(7, len(str(n)))
    lines = [FILE_HEADER]
    k = 0
    for i in range(n):
        # a title drawn twice for one record is kept once
        titles = dict.fromkeys(
            pools[title_symbols[j]][title_ranks[j]] for j in range(k, k + widths[i])
        )
        k += widths[i]
        home = homes[i]
        cu = {home, rng.choice(partners)} if uniform() < SECOND_COUNTRY_PROB else {home}
        pool = ADDRESS_POOLS[home]
        roll = uniform()
        if roll < 0.05:
            ad: set[str] = set()
        elif roll < 0.20:
            ad = set(rng.sample(pool, 2))
        else:
            ad = {rng.choice(pool)}
        lines.append(
            f"R{i + 1:0{width}d}\t{years[i]}\t{'|'.join(titles)}\t"
            f"{'|'.join(sorted(cu))}\t{'|'.join(sorted(ad))}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return n


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in SHAPES:
        sys.exit(f"usage: inputs.py {{{'|'.join(SHAPES)}}} SEED OUT")
    write_corpus(sys.argv[1], int(sys.argv[2]), sys.argv[3])
