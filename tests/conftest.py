"""Shared pytest setup: a deterministic hypothesis profile and a fixture
that records the posteriors a test builds.

`derandomize=True` draws the same examples on every run, `deadline=None`
keeps slow shared machines from failing a test on time alone, and no
example database is kept, so a run does not depend on earlier runs.
"""

import pytest
from hypothesis import settings

from abqlab import gp

settings.register_profile("abqlab", derandomize=True, deadline=None, database=None)
settings.load_profile("abqlab")


@pytest.fixture
def posteriors(monkeypatch):
    """Every `gp.GridPosterior` built while the test runs, in order."""
    built = []

    class Recording(gp.GridPosterior):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(gp, "GridPosterior", Recording)
    return built
