"""Critical Ising chain: log-space analytics and finite-size cross-checks."""

import math

import numpy as np
import pytest

from qetsim import ising
from qetsim.ising import IsingParams


def test_params_validated():
    with pytest.raises(ValueError):
        IsingParams(0.0)
    with pytest.raises(ValueError):
        ising.build(IsingParams(1.0, 3, "periodic"))


@pytest.mark.parametrize("j", [math.inf, math.nan])
def test_coupling_must_be_finite(j):
    with pytest.raises(ValueError, match="finite"):
        IsingParams(j)
    with pytest.raises(ValueError, match="finite"):
        ising.analytic_energies(j, 3)


def test_build_normalized(ising8):
    amp = ising8.ground.state.amplitudes
    assert np.abs(ising8.site_energies([amp])).max() < 1e-9


def test_shift_uniform_and_positive(ising8, ising12):
    for model in (ising8, ising12):
        eps = ising.per_site_shift(model)
        assert eps > 0
    # the added constant equals minus the unshifted energy density and
    # decreases toward the infinite-chain magnitude as the chain grows
    e8 = ising.per_site_shift(ising8)
    e12 = ising.per_site_shift(ising12)
    assert e12 < e8


def test_shift_matches_unshifted_ground_energy(ising8):
    # N * eps equals minus the unshifted ground energy
    import qetsim.core as core
    from qetsim.chain import ChainModel, Channel
    n = 8
    raw = ChainModel(
        n, "periodic",
        tuple(-core.PAULI_Z for _ in range(n)),
        (Channel(tuple(core.PAULI_X for _ in range(n)),
                 tuple(-1.0 for _ in range(n))),),
        tuple(0.0 for _ in range(n)),
    )
    e0 = raw.ground.energy
    assert sum(ising8.shifts) == pytest.approx(e0, abs=1e-9)


def test_log_h_values():
    assert ising.log_h(1) == 0.0
    assert ising.log_h(2) == 0.0
    assert ising.log_h(3) == pytest.approx(math.log(2.0), abs=1e-15)
    assert ising.log_h(4) == pytest.approx(math.log(12.0), rel=1e-15)
    assert ising.log_h(6) == pytest.approx(math.log(34560.0), rel=1e-15)


def test_delta_exact_small_separations():
    d1 = ising.delta_log(1)
    assert d1.sign == -1
    ref1 = math.log(2.0 / (3.0 * math.pi))
    assert abs(d1.log_abs - ref1) < 1e-14 * abs(ref1)
    d2 = ising.delta_log(2)
    ref2 = math.log(16.0 / (45.0 * math.pi**2))
    assert abs(d2.log_abs - ref2) < 1e-14 * abs(ref2)
    with pytest.raises(ValueError):
        ising.delta_log(0)


def test_delta_log_slope():
    ns = np.arange(20, 101)
    ld = np.array([ising.delta_log(int(n)).log_abs for n in ns])
    slope = np.polyfit(np.log(ns), ld, 1)[0]
    assert slope == pytest.approx(-2.25, abs=0.03)


def test_delta_log_stable_under_reordering():
    for n in (50, 120, 200):
        asc = math.fsum((n - k) * math.log(k) for k in range(1, n))
        dsc = math.fsum((n - k) * math.log(k) for k in reversed(range(1, n)))
        def rebuild(lh_n):
            lh_2n_asc = math.fsum((2 * n - k) * math.log(k)
                                  for k in range(1, 2 * n))
            return (n * math.log(2 / math.pi) + 2 * n * (n - 1) * math.log(2)
                    + 4 * lh_n - math.log(4 * n * n - 1) - lh_2n_asc)
        va, vd = rebuild(asc), rebuild(dsc)
        assert abs(va - vd) <= 1e-9 * abs(va)


def test_analytic_energy_values():
    e = ising.analytic_energies(1.0, 1)
    assert e.e_a == pytest.approx(6.0 / math.pi, abs=1e-14)
    assert e.e_r == pytest.approx(6.0 / math.pi - 1.0, abs=1e-14)
    # (pi/2)|Delta(1)| = 1/3 exactly, so E_B = (2/pi)(sqrt(10)/3 - 1)
    ref = (2.0 / math.pi) * (math.sqrt(10.0) / 3.0 - 1.0)
    assert e.e_b == pytest.approx(ref, rel=1e-13)
    assert e.e_b == pytest.approx(0.034436, abs=1e-6)


def test_analytic_energies_scale_linearly_in_coupling():
    a = ising.analytic_energies(1.0, 7)
    b = ising.analytic_energies(2.0, 7)
    for field in ("e_a", "e_b", "e_b_asymptotic", "e_r"):
        assert getattr(b, field) == pytest.approx(2 * getattr(a, field),
                                                  rel=1e-14)


def test_e_b_positive_and_decreasing():
    values = [ising.analytic_energies(1.0, n).e_b for n in range(1, 60)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    e_a = 6.0 / math.pi
    assert all(v < e_a for v in values)


def test_small_delta_taylor_limit():
    rel_devs = []
    for n in (5, 20, 80):
        e_b = ising.analytic_energies(1.0, n).e_b
        d2 = math.exp(2 * ising.delta_log(n).log_abs)
        approx = math.pi / 4 * d2
        rel_devs.append(abs(e_b - approx) / e_b)
    assert rel_devs[0] > rel_devs[1] > rel_devs[2]
    assert rel_devs[2] < 1e-9


def test_asymptote_fit():
    fit = ising.asymptote_check(range(30, 101))
    assert fit.exponent == pytest.approx(-4.5, abs=0.05)
    assert abs(fit.c_implied - 1.28) / 1.28 < 0.05
    assert fit.exponential_residual > 100 * fit.power_law_residual


def test_numeric_cross_check_small(ising8):
    report = ising.numeric_cross_check(1.0, 8)
    assert report.separation == 4
    labels = [row.label for row in report.rows]
    assert "z" in labels and "x" in labels
    for row in report.rows:
        assert row.e_a > 0
        assert abs(row.e_b_closed - row.e_b_protocol) < 1e-9
        assert row.e_b_protocol <= row.e_a
    assert report.note
    assert report.e_a_analytic == pytest.approx(6 / math.pi, abs=1e-12)


def test_numeric_cross_check_finite_size_trend():
    e_a_by_n = {}
    for n in (8, 10):
        report = ising.numeric_cross_check(1.0, n, directions=(("z", (0, 0, 1.0)),))
        e_a_by_n[n] = report.rows[0].e_a
    # the z-direction input energy equals the per-site shift and decreases
    assert e_a_by_n[10] < e_a_by_n[8]
