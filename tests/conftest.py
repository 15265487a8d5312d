import warnings

# When a property fails, hypothesis's pytest plugin imports its patch writer,
# which imports libcst and then mypy_extensions. That import raises a
# DeprecationWarning, which pyproject's error::DeprecationWarning turns into
# an INTERNALERROR that ends the whole session. Importing it here once, with
# that warning ignored, keeps the filter for evframes' own code.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass


def pytest_terminal_summary(terminalreporter):
    """Show the acceptance scorecard after capture ends, one line per criterion."""
    from tests.test_acceptance import SCORECARD

    if SCORECARD:
        terminalreporter.section("acceptance criteria")
        for line in SCORECARD:
            terminalreporter.write_line(line)
