"""Property tests run one fixed, derandomised set of examples with no
deadline, so a rare draw or a slow machine cannot make the suite flaky."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("clmtree", derandomize=True, deadline=None)
    settings.load_profile("clmtree")
