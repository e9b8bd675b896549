import atexit
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qetsim import chain, core, ising

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


@pytest.fixture
def krylov_calls(monkeypatch):
    """Dimensions of the ground-state solves, dense or CSR, in call order:
    ``core.ground_state`` solves every matrix by ``_krylov_lowest_pair``."""
    calls = []
    solve = core._krylov_lowest_pair

    def counted(*args):
        calls.append(args[1])
        return solve(*args)

    monkeypatch.setattr(core, "_krylov_lowest_pair", counted)
    return calls


@pytest.fixture
def lanczos_matvecs(monkeypatch):
    """The Lanczos passes of the Krylov solves, in call order, each as
    ``(name, operator dimension, operator applications)``.  The names are
    ``"pass 1"`` (one per parity block), then in the block of the ground
    state ``"resume"`` (when its pass 1 stopped before the residual test
    held), ``"replay"`` and ``"gap pass"``."""
    passes = []

    def lanczos_role(kwargs):
        if kwargs.get("resume") is not None:
            return "resume"
        # the one fresh run after the replay is the gap pass
        return "gap pass" if passes and passes[-1][0] == "replay" else "pass 1"

    def counted(run, role):
        def wrapper(apply, v, *args, **kwargs):
            entry = [role(kwargs), v.size, 0]
            passes.append(entry)

            def tally(u):
                entry[2] += 1
                return apply(u)

            return run(tally, v, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(core, "_lanczos", counted(core._lanczos, lanczos_role))
    monkeypatch.setattr(core, "_ritz_vector",
                        counted(core._ritz_vector, lambda kwargs: "replay"))
    return passes


@pytest.fixture(autouse=True)
def _silence_separation_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=".*separation.*", category=UserWarning)
        yield
