import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "perfbench")]


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    """Workloads read configs/ relative to the checkout root, as the benchmark runs."""
    monkeypatch.chdir(REPO)
