"""Shared test settings.

Property tests run derandomized, so tier-1 gives the same result on every
run and a failure can be reproduced, and without a per-example deadline,
which a loaded host would otherwise trip.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
