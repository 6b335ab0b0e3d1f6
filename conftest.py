"""Repository-wide pytest options (loaded for every invocation)."""

import os

from hypothesis import settings

# Tier-1 is a gate, so its property tests draw the same examples every
# run; ``HYPOTHESIS_PROFILE=explore`` restores random draws (CI runs that
# leg without gating on it).  Per-test ``@settings`` still apply on top.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def pytest_addoption(parser):
    parser.addoption(
        "--write-reports",
        action="store_true",
        default=False,
        help="regenerate the tracked tables under benchmarks/reports/ "
        "(by default the benchmark suite only prints them, so a test "
        "run leaves the tree clean)",
    )
