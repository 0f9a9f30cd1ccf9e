import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from redweave import enumerate_sn
from redweave.classes import build_graph


@pytest.fixture(scope="session")
def s5():
    return list(enumerate_sn(5))


@pytest.fixture(scope="session")
def s6():
    return list(enumerate_sn(6))


@pytest.fixture(scope="session")
def s6_graphs(s6):
    # G(w) for all of S_6, shared by the heavy criteria
    return {w: build_graph(w) for w in s6}
