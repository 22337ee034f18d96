"""Test-suite settings: property tests run from a fixed seed and without a
per-example deadline, so they reproduce exactly and a slow host does not
fail them."""
import warnings

from hypothesis import settings

settings.register_profile("maskpost", derandomize=True, deadline=None)
settings.load_profile("maskpost")

# When a property fails, the hypothesis pytest plugin imports its patch
# writer, which imports libcst; under ``filterwarnings = error`` a
# DeprecationWarning from that import aborts the run with INTERNALERROR
# instead of reporting the falsifying example. Importing it here first, with
# that warning ignored, leaves every other warning an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
