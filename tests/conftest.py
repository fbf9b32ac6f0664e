"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Every property test draws the same examples on every run, so a run's
# outcome and warnings do not change from one run to the next.  A test's own
# @settings inherits this profile and overrides only what it names.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
