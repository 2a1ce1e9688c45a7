"""Hypothesis draws the same examples on every run (seeded from each test
function), so Tier-1 runs are comparable; each test keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
