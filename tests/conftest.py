"""Shared pytest setup: a deterministic hypothesis profile.

`derandomize=True` draws the same examples on every run, `deadline=None`
keeps slow shared machines from failing a test on time alone, and no
example database is kept, so a run does not depend on earlier runs.
"""

from hypothesis import settings

settings.register_profile("abqlab", derandomize=True, deadline=None, database=None)
settings.load_profile("abqlab")
