"""``capsplit gen``, timed from inside its own process.

    python3 perfbench/gen.py fixture NAME OUT      # capsplit gen --fixture NAME
    python3 perfbench/gen.py profile SEED N OUT    # capsplit gen --seed SEED --n N

The benchmark runs this as a child, so that writing a corpus costs what it
costs a CLI user, in a fresh process. Prints one JSON line: the time to
build the corpus in memory, the time to write it, its record count and
the process's peak RSS.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from time import perf_counter

from program import import_capsplit
from tracing import maxrss_mb


def main(argv: list[str]) -> None:
    capsplit = import_capsplit()
    t0 = perf_counter()
    if argv[0] == "fixture" and len(argv) == 3:
        corpus = capsplit.build_fixture(argv[1])
    elif argv[0] == "profile" and len(argv) == 4:
        profile = replace(capsplit.CorpusProfile(seed=0, n_records=1000),
                          seed=int(argv[1]), n_records=int(argv[2]))
        corpus = capsplit.generate(profile)
    else:
        sys.exit(__doc__)
    t1 = perf_counter()
    capsplit.save_corpus(corpus, argv[-1])
    t2 = perf_counter()
    print(json.dumps({"build_s": t1 - t0, "serialize_s": t2 - t1,
                      "records": len(corpus), "peak_rss_mb": maxrss_mb()}))


if __name__ == "__main__":
    main(sys.argv[1:])
