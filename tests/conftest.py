from __future__ import annotations

import pytest
from hypothesis import settings

from capsplit import CappedEngine, build_fixture, save_corpus

# One pinned profile for every property test: the same examples on every run,
# a fixed number of them, and no per-example deadline on a busy machine.
settings.register_profile(
    "capsplit", derandomize=True, max_examples=300, deadline=None, database=None
)
settings.load_profile("capsplit")

REFERENCE_GROUPS_CUBA = "AB,CDEFG,HIKLM,NOPQR,STUVWXYZ123456789,J/AD=HAVANA"
REFERENCE_GROUPS_USA = "AB,CDEFG,HIKLM,NOPQR,STUVWXYZ123456789,J/AD=CA"

CUBA_BASE = "PY=2007 AND CU=CUBA"
USA_BASE = "PY=2007 AND CU=USA"
UK_BASE = "PY=2007 AND CU=(England OR Scotland OR Wales OR North Ireland)"


@pytest.fixture(scope="session")
def cuba_corpus():
    return build_fixture("cuba_t3")


@pytest.fixture(scope="session")
def usa_corpus():
    return build_fixture("usa_t1")


@pytest.fixture(scope="session")
def uk_corpus():
    return build_fixture("uk_s1")


@pytest.fixture(scope="session")
def usa_engine(usa_corpus):
    # shared across tests: each run clears the statement registry first
    return CappedEngine(usa_corpus)


@pytest.fixture(scope="session")
def cuba_file(cuba_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpora") / "cuba.tsv"
    save_corpus(cuba_corpus, str(path))
    return str(path)
