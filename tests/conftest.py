import atexit
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qetsim import chain, ising

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic.  Hypothesis still caches the
# constants it reads from local modules; that cache goes to a temporary
# directory removed at exit, so nothing is written to the tree.
settings.register_profile("qetsim", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("qetsim")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="qetsim-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


@pytest.fixture(scope="session")
def ising8():
    return ising.build(ising.IsingParams(1.0, 8))


@pytest.fixture(scope="session")
def ising12():
    return ising.build(ising.IsingParams(1.0, 12))


@pytest.fixture(scope="session")
def random_chains10():
    rng = np.random.default_rng(2024)
    return tuple(chain.random_chain_model(10, rng) for _ in range(5))


@pytest.fixture(autouse=True)
def _silence_separation_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=".*separation.*", category=UserWarning)
        yield
