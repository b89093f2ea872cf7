"""Setup shared by every test module."""

import warnings

# When a hypothesis property fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching to print the falsifying example.  That import
# pulls in libcst, which warns through mypy_extensions.TypedDict, and under
# `pytest -W error` the warning ends the run with an INTERNALERROR before the
# example is printed.  Import it once here with only that import's
# DeprecationWarnings ignored; every other warning still fails the run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
