"""Test-suite settings: property tests run from a fixed seed and without a
per-example deadline, so they reproduce exactly and a slow host does not
fail them."""
from hypothesis import settings

settings.register_profile("maskpost", derandomize=True, deadline=None)
settings.load_profile("maskpost")
