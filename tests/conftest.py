from hypothesis import settings

# Property tests draw the same examples on every run and never fail on a
# slow example: Tier-1 must be deterministic on a small shared machine.
settings.register_profile("sidalign", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("sidalign")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines; per-test capture would hide them."""
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
