"""Property tests run one fixed, derandomised set of examples with no
deadline, so a rare draw or a slow machine cannot make the suite flaky.

The coarse Feller calibration is computed once per session and shared by
the calibration and golden tests."""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("clmtree", derandomize=True, deadline=None)
    settings.load_profile("clmtree")


def coarse_feller_calibration():
    """Three-level Feller calibration at c07's process on 120 paths."""
    # imported here, so that a package that fails to import fails the tests
    # that use it rather than the collection of every test
    from clmtree.calibrate import delta_mc
    from clmtree.simulate import ProcessSpec

    spec = ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0)
    return delta_mc(spec, 300, 1.2, step_exponents=(2, 3, 4), n_paths=120,
                    seed=4)


@pytest.fixture(scope="session")
def feller_coarse():
    return coarse_feller_calibration()
