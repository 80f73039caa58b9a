"""Shared pytest setup: a deterministic hypothesis profile.

Property tests draw the same examples on every run, take as long as a
simulation needs, and stop at a bounded number of examples, so the suite
stays reproducible and its run time stays fixed.
"""

from hypothesis import settings

settings.register_profile(
    "luxnet", derandomize=True, deadline=None, max_examples=25,
    database=None)
settings.load_profile("luxnet")
