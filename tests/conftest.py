"""Shared test configuration.

Registers and loads one hypothesis profile, so every property test is
deterministic by default: examples come from a fixed derandomized stream,
and with no deadline a slow machine cannot fail a correct example.
"""

from hypothesis import settings

settings.register_profile("projstab", derandomize=True, deadline=None)
settings.load_profile("projstab")
