"""Hypothesis settings for the suite: derandomized, so every run draws the
same examples, and without a per-example deadline, since solve time grows
with m and with the BLAS thread setting."""

from hypothesis import settings

settings.register_profile("gbstates", derandomize=True, deadline=None)
settings.load_profile("gbstates")
