"""Session set-up shared by every test module."""

import warnings

# hypothesis imports its failure-report module, and through it libcst, only when a
# property test fails.  libcst's mypy_extensions.TypedDict raises a DeprecationWarning on
# import, which -W error (applied after any ini filterwarnings) turns into an
# INTERNALERROR that hides the test's own failure.  Importing it here, with that one
# warning ignored, leaves the failure report nothing left to import.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
