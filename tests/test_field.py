"""Field protocol: profiles, quadrature, overlap oracle, output energy."""

import math
import warnings

import numpy as np
import pytest

from qetsim import field
from qetsim.field import FieldProtocolSpec, Profile


def sin2(amplitude=0.1, start=0.0, width=1.0, n=257):
    return Profile.sin_squared(amplitude, start, width, n)


TEN_PROFILES = [
    (0.10, 0.0, 1.0), (0.20, -1.0, 2.0), (0.05, 3.0, 0.5), (0.15, 0.0, 1.0),
    (0.30, -2.5, 1.5), (0.08, 1.0, 0.8), (0.12, 0.3, 1.2), (0.25, -0.7, 0.9),
    (0.18, 2.0, 2.5), (0.06, -4.0, 0.6),
]


# ------------------------------------------------------------------ profiles


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(0.0, 0.01, np.ones(100), (0.0, 0.5))  # nonzero outside support
    with pytest.raises(ValueError):
        Profile.sin_squared(0.1, 0.0, 1.0, n_samples=32)  # under-resolved
    with pytest.raises(ValueError):
        Profile.from_points(np.array([0.0, 0.1, 0.25]), np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite(bad):
    vals = sin2().values.copy()
    with pytest.raises(ValueError, match="finite"):
        Profile(bad, 1 / 256, vals, (0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        Profile(0.0, bad, vals, (0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        Profile(0.0, 1 / 256, vals, (0.0, bad))
    vals[100] = bad
    with pytest.raises(ValueError, match="sample 100 is not finite"):
        Profile(0.0, 1 / 256, vals, (0.0, 1.0))


@pytest.mark.parametrize("column, message", [
    (0, "grid points must be finite"), (1, "sample 100 is not finite"),
])
def test_profile_csv_nan_cell_rejected(tmp_path, column, message):
    prof = sin2()
    rows = np.column_stack([prof.x, prof.values])
    rows[100, column] = math.nan
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(f"{float(x)!r},{float(v)!r}" for x, v in rows))
    with pytest.raises(ValueError, match=message):
        Profile.from_csv(path)


def test_profile_csv_round_trip(tmp_path):
    prof = sin2(0.17, -1.3, 1.1)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    back = Profile.from_csv(path)
    assert back.dx == pytest.approx(prof.dx, rel=1e-12)
    assert np.abs(back.values - prof.values).max() == 0.0


def test_profile_csv_nonuniform_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    xs = np.linspace(0, 1, 100)
    xs[50] += 1e-3
    path.write_text("\n".join(f"{x},{0.1}" for x in xs))
    with pytest.raises(ValueError):
        Profile.from_csv(path)


# -------------------------------------------------------------- input energy


def test_input_energy_zero_profile():
    prof = Profile(0.0, 1 / 128, np.zeros(129), (0.0, 1.0))
    with pytest.raises(ValueError):
        # an identically zero profile has no support samples above threshold
        Profile.from_points(prof.x, prof.values)
    # but an explicit support makes it legal and the energy vanishes
    assert field.input_energy(prof) == 0.0


def test_input_energy_closed_form():
    # amplitude^2 pi^2 / (2 width) for the smooth window
    for eps, width in ((0.1, 1.0), (0.2, 2.0), (0.05, 0.5)):
        prof = sin2(eps, 0.0, width, n=1025)
        expected = eps**2 * math.pi**2 / (2 * width)
        assert field.input_energy(prof) == pytest.approx(expected, rel=1e-4)
    prof = sin2(0.1, 0.0, 1.0, n=1025)
    assert field.input_energy(prof) == pytest.approx(0.0493480, abs=2e-5)


def test_input_energy_quadratic_scaling():
    prof = sin2()
    base = field.input_energy(prof)
    assert field.input_energy(prof.scaled(3.0)) == pytest.approx(
        9.0 * base, rel=1e-10)


def test_input_energy_second_order_convergence():
    eps, width = 0.1, 1.0
    exact = eps**2 * math.pi**2 / (2 * width)
    errors = []
    for n in (129, 257, 513, 1025):
        prof = sin2(eps, 0.0, width, n)
        errors.append(abs(field.input_energy(prof) - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.3)


# ------------------------------------------------------------------- overlap


def test_overlap_trivial_and_range():
    prof = sin2()
    val = field.vacuum_overlap(prof)
    assert 0.0 < val < 1.0
    zero = Profile(0.0, 1 / 128, np.zeros(129), (0.0, 1.0))
    assert field.vacuum_overlap(zero) == pytest.approx(1.0, abs=1e-15)


def test_overlap_gaussian_exponent_scaling():
    prof = sin2(0.1, 0.0, 1.0, 513)
    base = field.vacuum_overlap(prof)
    for s in (0.5, 1.5, 2.0):
        scaled = field.vacuum_overlap(prof.scaled(s))
        assert scaled == pytest.approx(base ** (s * s), abs=1e-8)


def test_overlap_monotone_in_amplitude():
    values = [field.vacuum_overlap(sin2(eps)) for eps in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_oracle_zero_profile():
    zero = Profile(0.0, 1 / 128, np.zeros(129), (0.0, 1.0))
    res = field.finite_mode_oracle(zero, n_modes=512, omega_max=40.0)
    assert res.overlap == pytest.approx(1.0, abs=1e-15)
    assert res.prob_plus == pytest.approx(0.5, abs=1e-15)


def test_oracle_prob_half_and_convergence():
    prof = sin2(0.15, 0.5, 1.0, 513)
    coarse = field.finite_mode_oracle(prof, n_modes=4096, omega_max=80.0)
    fine = field.finite_mode_oracle(prof, n_modes=16384, omega_max=160.0)
    finer = field.finite_mode_oracle(prof, n_modes=32768, omega_max=240.0)
    assert coarse.prob_plus == pytest.approx(0.5, abs=1e-8)
    assert fine.prob_plus == pytest.approx(0.5, abs=1e-8)
    # refinement shrinks the change in the overlap value
    d1 = abs(fine.overlap - coarse.overlap)
    d2 = abs(finer.overlap - fine.overlap)
    assert d2 < d1


def test_oracle_rejects_too_few_modes():
    with pytest.raises(ValueError):
        field.finite_mode_oracle(sin2(), n_modes=64)


def test_oracle_refinement_gate():
    prof = sin2(0.1, 0.0, 1.0, 513)
    res = field.finite_mode_oracle(prof, refinement_tol=1e-4)
    assert 0 < res.overlap < 1
    with pytest.raises(ValueError, match="not converged"):
        # a severely truncated mode tower fails the refinement gate
        field.finite_mode_oracle(prof, n_modes=256, omega_max=4.0,
                                 refinement_tol=1e-6)


def _direct_mode_variance(lambda_a, n_modes, omega_max):
    """Reference: every mode's trapezoid transform from explicit phases."""
    dom = omega_max / n_modes
    x = lambda_a.x
    weighted = lambda_a.dx * lambda_a.values
    weighted[[0, -1]] *= 0.5
    variance = 0.0
    for start in range(0, n_modes, 2048):  # 2048-row phase blocks
        om = (np.arange(start, min(start + 2048, n_modes)) + 1.0) * dom
        transform = np.exp(1j * om[:, None] * x[None, :]) @ weighted
        variance += float(np.sum(om * np.abs(transform) ** 2))
    return variance * dom / math.pi


def _rough_oracle_profile():
    rng = np.random.default_rng(4097)
    vals = np.zeros(257)
    vals[1:-1] = 0.05 * rng.standard_normal(255)
    return Profile(-1.3, 0.0031, vals, (-1.3, -1.3 + 0.0031 * 256))


MODE_VARIANCE_PROFILES = [
    sin2(0.1, x0, 1.0, n) for n in (257, 1025) for x0 in (-5.0, 0.0, 4.7)
] + [_rough_oracle_profile()]


@pytest.mark.parametrize("n_modes", [256, 4097, 16384])
def test_mode_variance_matches_direct_sum(n_modes):
    for prof in MODE_VARIANCE_PROFILES:
        omega_max = 160.0 / prof.width
        # the full tower and the refinement pass's half tower
        for modes, top in ((n_modes, omega_max),
                           (n_modes // 2, omega_max / math.sqrt(2.0))):
            want = _direct_mode_variance(prof, modes, top)
            got = field._mode_variance(prof, modes, top)
            assert got == pytest.approx(want, rel=1e-12), (
                prof.values.size, prof.x0, modes)


def test_profile_coarsening():
    prof = sin2(0.1, 0.0, 1.0, 513)
    half = prof.coarsened(2)
    assert half.values.size == 257
    assert half.dx == pytest.approx(2 * prof.dx)
    assert field.input_energy(half) == pytest.approx(
        field.input_energy(prof), rel=1e-3)
    with pytest.raises(ValueError):
        prof.coarsened(0)


def _padded_fft_overlap(profile, pad_factor):
    """Reference: trapezoid over the explicit zero-padded rfft spectrum."""
    n_fft = 1
    while n_fft < profile.values.size * pad_factor:
        n_fft *= 2
    spectrum = np.fft.rfft(profile.values, n_fft)
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=profile.dx)
    integrand = omega * (profile.dx * np.abs(spectrum)) ** 2
    weight = np.trapezoid(integrand, dx=omega[1] - omega[0])
    return math.exp(-2.0 / math.pi * weight)


def _rough_profile():
    rng = np.random.default_rng(20111)
    vals = np.zeros(257)
    vals[1:-1] = 0.05 * rng.standard_normal(255)
    return Profile(-0.4, 1 / 256, vals, (-0.4, 0.6))


OVERLAP_PROFILES = [
    sin2(amp, 0.0, 1.0, n)
    for n in (129, 257, 513) for amp in (0.05, 0.1, 0.25, 0.5, 1.0)
] + [_rough_profile()]


@pytest.mark.parametrize("pad_factor", [1, 2, 3, 16])
def test_overlap_matches_padded_fft(pad_factor):
    for prof in OVERLAP_PROFILES:
        want = _padded_fft_overlap(prof, pad_factor)
        got = field.vacuum_overlap(prof, pad_factor)
        assert got == pytest.approx(want, rel=1e-11), (prof.values.size,
                                                       prof.values.max())


@pytest.mark.parametrize("pad_factor", [0, -4])
def test_overlap_rejects_pad_factor_below_one(pad_factor):
    with pytest.raises(ValueError, match="pad factor"):
        field.vacuum_overlap(sin2(), pad_factor)


def test_overlap_agrees_with_oracle_ten_profiles():
    for eps, start, width in TEN_PROFILES:
        prof = sin2(eps, start, width)
        analytic = field.vacuum_overlap(prof)
        oracle = field.finite_mode_oracle(prof)
        rel = abs(analytic - oracle.overlap) / oracle.overlap
        assert rel < 1e-6, (eps, start, width, rel)


def test_overlap_discrepancy_helper():
    analytic, oracle, rel = field.overlap_discrepancy(sin2())
    assert rel < 1e-6
    assert analytic == pytest.approx(oracle, rel=1e-6)


# --------------------------------------------------------------- eta and xi


def make_spec(eps_a=0.1, eps_b=0.1, gap=2.0, delay=3.0, n=257, theta=None):
    lam = sin2(eps_a, 0.0, 1.0, n)
    p_b = sin2(eps_b, 1.0 + gap, 1.0, n)
    return FieldProtocolSpec(lam, p_b, delay, theta)


def test_spec_validation():
    lam = sin2(0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        FieldProtocolSpec(lam, sin2(0.1, 0.5, 1.0), 1.0)  # overlapping supports
    with pytest.raises(ValueError):
        FieldProtocolSpec(lam, sin2(0.1, 3.0, 1.0), -1.0)  # negative delay


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_delay_and_angle(bad):
    lam, p_b = sin2(0.1, 0.0, 1.0), sin2(0.1, 3.0, 1.0)
    with pytest.raises(ValueError, match="delay must be finite"):
        FieldProtocolSpec(lam, p_b, bad)
    with pytest.raises(ValueError, match="angle must be finite"):
        FieldProtocolSpec(lam, p_b, 3.0, bad)


def test_eta_zero_without_measurement():
    spec = make_spec()
    zero = Profile(0.0, spec.lambda_a.dx, np.zeros(257), (0.0, 1.0))
    res = field.output_energy(FieldProtocolSpec(zero, spec.p_b, spec.delay))
    assert res.eta == pytest.approx(0.0, abs=1e-15)
    assert res.xi > 0


def test_xi_positive_even_for_plateau_window():
    x = np.linspace(0.0, 1.0, 257)
    vals = np.minimum(1.0, 4 * np.sin(math.pi * x) ** 2) * 0.1
    plateau = Profile(0.0, x[1] - x[0], vals, (0.0, 1.0))
    lam = sin2(0.1, -3.0, 1.0)
    assert field.output_energy(FieldProtocolSpec(lam, plateau, 2.0)).xi > 0


def test_eta_sign_and_kernel_decay():
    spec = make_spec(delay=3.0)
    eta1 = field.output_energy(spec).eta
    assert eta1 < 0  # positive profiles, positive kernel, leading minus
    eta2 = field.output_energy(make_spec(delay=6.0)).eta
    assert abs(eta2) < abs(eta1)


def test_eta_xi_refinement_stability():
    vals = {}
    for n in (257, 513, 1025):
        spec = make_spec(n=n)
        res = field.output_energy(spec)
        vals[n] = (res.eta, res.xi)
    eta_rel = abs(vals[513][0] - vals[1025][0]) / abs(vals[1025][0])
    xi_rel = abs(vals[513][1] - vals[1025][1]) / abs(vals[1025][1])
    assert eta_rel < 1e-6
    assert xi_rel < 1e-4  # second-order derivative functional converges slower


def test_joint_translation_invariance():
    spec = make_spec()
    base = field.output_energy(spec)
    shifted = FieldProtocolSpec(
        spec.lambda_a.shifted(2.5), spec.p_b.shifted(2.5), spec.delay)
    moved = field.output_energy(shifted)
    assert moved.e_b_max == pytest.approx(base.e_b_max, abs=1e-10)
    assert moved.eta == pytest.approx(base.eta, abs=1e-10)
    assert moved.xi == pytest.approx(base.xi, abs=1e-10)
    assert moved.e_a == pytest.approx(base.e_a, abs=1e-10)


# ------------------------------------------------------------ output energy


def test_output_energy_optimum_and_identity():
    spec = make_spec()
    res = field.output_energy(spec)
    assert res.theta_opt == pytest.approx(res.eta / (2 * res.xi), rel=1e-12)
    assert res.e_b_max == pytest.approx(res.eta**2 / (4 * res.xi), rel=1e-12)
    assert res.e_b_max > 0
    assert res.e_b_at_theta == pytest.approx(res.e_b_max, rel=1e-12)


def test_output_energy_explicit_angle():
    spec = make_spec(theta=0.0)
    res = field.output_energy(spec)
    assert res.e_b_at_theta == 0.0
    half = field.output_energy(make_spec(theta=None))
    off = field.output_energy(make_spec(theta=half.theta_opt / 2))
    # quadratic form: half the optimal angle gives 3/4 of the maximum
    assert off.e_b_at_theta == pytest.approx(0.75 * half.e_b_max, rel=1e-10)


def test_output_energy_decreases_with_delay():
    values = [field.output_energy(make_spec(delay=t)).e_b_max
              for t in (2.0, 4.0, 8.0)]
    assert values[0] > values[1] > values[2] > 0


def test_output_energy_zero_measurement():
    spec = make_spec()
    zero = Profile(0.0, spec.lambda_a.dx, np.zeros(257), (0.0, 1.0))
    res = field.output_energy(FieldProtocolSpec(zero, spec.p_b, spec.delay))
    assert res.e_b_max == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("amp_a, amp_b, name", [
    (1e200, 0.1, "lambda_A"), (0.1, 1e200, "p_B"),
    # each profile alone stays in range; only their kernel product overflows
    (1e151, 1e151, "pair lambda_A, p_B"),
])
def test_output_energy_names_the_overflowing_profile(amp_a, amp_b, name):
    spec = FieldProtocolSpec(sin2(amp_a), sin2(amp_b, start=1.1), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^profile {name} is out of range"):
            field.output_energy(spec)
