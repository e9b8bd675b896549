"""Core toolkit: embedding, spectra, partial traces, measurements."""

import math

import numpy as np
import pytest

from qetsim import core
from qetsim.core import (
    LocalOperator,
    PovmMeasurement,
    StateVector,
    apply_local,
    embed_local,
)


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    sv = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    assert sv.amplitudes.flags.writeable is False


def test_state_vector_rejects_nan():
    with pytest.raises(ValueError, match="norm nan"):
        StateVector(1, np.array([math.nan, 0.0]))


def test_hermitize_rejects_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        core.hermitize(np.full((2, 2), math.nan))


def test_hermitize_keeps_largest_doubles():
    big = 1e308 * (core.PAULI_Z + core.PAULI_X)
    assert np.array_equal(core.hermitize(big), big)


def test_local_operator_dimension_checked():
    with pytest.raises(ValueError):
        LocalOperator((0, 1), np.eye(2))
    with pytest.raises(ValueError):
        LocalOperator((0, 0), np.eye(4))


def test_embed_identity_case():
    op = LocalOperator((0,), np.eye(2))
    assert np.allclose(embed_local(op, 3), np.eye(8))


def test_embed_bit_order_convention():
    # site 0 is the most significant bit: sigma_z there acts on the front half
    op = LocalOperator((0,), core.PAULI_Z)
    assert np.allclose(embed_local(op, 2), np.diag([1, 1, -1, -1]))
    op1 = LocalOperator((1,), core.PAULI_Z)
    assert np.allclose(embed_local(op1, 2), np.diag([1, -1, 1, -1]))


def test_embed_matches_plain_kron():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    two = LocalOperator((0, 1), np.kron(a, b))
    direct = np.kron(np.kron(a, b), np.eye(2))
    assert np.allclose(embed_local(two, 3), direct)
    # non-contiguous and reordered supports
    swapped = LocalOperator((1, 0), np.kron(b, a))
    assert np.allclose(embed_local(swapped, 3), direct)
    gap = LocalOperator((0, 2), np.kron(a, b))
    full = np.kron(np.kron(a, np.eye(2)), b)
    assert np.allclose(embed_local(gap, 3), full)


def test_disjoint_support_commutation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ea = embed_local(LocalOperator((0,), a), 2)
        eb = embed_local(LocalOperator((1,), b), 2)
        assert np.abs(ea @ eb - eb @ ea).max() < 1e-12


def test_embed_out_of_range():
    with pytest.raises(ValueError):
        embed_local(LocalOperator((3,), np.eye(2)), 3)


def test_apply_local_agrees_with_embedding():
    rng = np.random.default_rng(5)
    n = 4
    for support in [(0,), (2,), (1, 3), (3, 0), (0, 1, 2)]:
        dim = 2 ** len(support)
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = LocalOperator(support, mat)
        psi = core.random_state(n, rng).amplitudes
        direct = embed_local(op, n) @ psi
        assert np.abs(apply_local(op, psi, n) - direct).max() < 1e-12


def test_ground_state_single_spin():
    gs = core.ground_state(np.asarray(core.PAULI_Z))
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert abs(gs.state.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
    assert not gs.degenerate


def test_ground_state_degenerate_flag():
    gs = core.ground_state(np.zeros((4, 4)))
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    assert gs.degenerate


@pytest.mark.parametrize("scale", [0.0, 3.0])
def test_ground_state_multiple_of_identity_is_degenerate(scale):
    import scipy.sparse as sp

    gs = core.ground_state(scale * sp.identity(1024, format="csr"))
    assert gs.energy == pytest.approx(scale, abs=1e-9)
    assert gs.degenerate


def test_ground_state_rejects_non_hermitian():
    with pytest.raises(ValueError):
        core.ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ground_state_krylov_matches_dense():
    import scipy.sparse as sp

    rng = np.random.default_rng(17)
    dim = 512
    assert dim > core.DENSE_DIM_LIMIT  # so the Krylov solver runs
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    vals, vecs = np.linalg.eigh(h)
    krylov = core.ground_state(sp.csr_matrix(h))
    assert krylov.energy == pytest.approx(vals[0], abs=1e-9)
    overlap = abs(np.vdot(vecs[:, 0], krylov.state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_expectation_trivial_cases():
    plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    assert core.expectation(plus, core.PAULI_X) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    with pytest.raises(ValueError):
        core.expectation(plus, np.eye(4))


def test_partial_trace_product_state():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    state = StateVector(2, np.kron(zero, one))
    rho = core.reduced_density(state, (1,))
    assert np.allclose(rho, np.outer(one, one), atol=1e-12)


def test_partial_trace_bell_state():
    bell = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    rho = core.reduced_density(bell, (1,))
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_empty_keep_rejected():
    bell = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    with pytest.raises(ValueError):
        core.reduced_density(bell, ())


def test_entropy_pure_and_mixed():
    pure = np.diag([1.0, 0.0])
    assert core.von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    mixed = 0.5 * np.eye(2)
    assert core.von_neumann_entropy(mixed) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_bounds_random_states():
    rng = np.random.default_rng(23)
    for _ in range(25):
        state = core.random_state(4, rng)
        keep = (0, 2)
        s = core.von_neumann_entropy(core.reduced_density(state, keep))
        assert -1e-12 <= s <= len(keep) * math.log(2) + 1e-10


def test_projective_measurement_on_plus_state():
    plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    meas = core.projective_pauli_measurement((0.0, 0.0, 1.0), 0)
    outcomes = core.apply_measurement(plus, meas)
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(outcome.state.amplitudes) == pytest.approx(1.0)


def test_trivial_measurement_identity():
    meas = PovmMeasurement(0, ((1.0, LocalOperator((0,), np.eye(2))),))
    state = core.random_state(2, np.random.default_rng(1))
    outcomes = core.apply_measurement(state, meas)
    assert len(outcomes) == 1
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(outcomes[0].state.amplitudes, state.amplitudes)


def test_measurement_completeness_enforced():
    half = LocalOperator((0,), 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        PovmMeasurement(0, ((1.0, half),))


def test_measurement_rejects_nan_element():
    nan = LocalOperator((0,), np.array([[math.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="completeness violated"):
        PovmMeasurement(0, ((1.0, nan),))


def test_measurement_zero_probability_dropped():
    down = StateVector(1, np.array([0.0, 1.0]))
    meas = core.projective_pauli_measurement((0.0, 0.0, 1.0), 0)
    outcomes = core.apply_measurement(down, meas)
    assert [o.label for o in outcomes] == [-1.0]


def test_probability_conservation_random_states():
    rng = np.random.default_rng(31)
    # random 3-outcome POVM from a QR-orthonormalized stack
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(z)
    ops = tuple(
        (float(i), LocalOperator((1,), q[2 * i:2 * i + 2, :]))
        for i in range(3)
    )
    meas = PovmMeasurement(1, ops)
    for _ in range(100):
        state = core.random_state(3, rng)
        total = sum(o.probability for o in core.apply_measurement(state, meas))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_spectral_sanity_ground_below_random_states():
    rng = np.random.default_rng(37)
    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = h + h.conj().T
    gs = core.ground_state(h)
    for _ in range(100):
        psi = core.random_state(4, rng)
        assert core.expectation(psi, h) >= gs.energy - 1e-10


def test_pauli_component_axes_and_involution():
    assert np.allclose(core.pauli_component((0, 0, 1.0), 0).matrix, core.PAULI_Z)
    assert np.allclose(core.pauli_component((1.0, 0, 0), 0).matrix, core.PAULI_X)
    tilted = core.pauli_component(tuple(np.ones(3) / math.sqrt(3)), 0)
    vals = np.linalg.eigvalsh(tilted.matrix)
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert tilted.is_involution()
    with pytest.raises(ValueError):
        core.pauli_component((1.0, 1.0, 0.0), 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pauli_component_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="direction norm"):
        core.pauli_component((bad, 0.0, 1.0), 0)


def test_su2_unitary_matches_pauli_form():
    # U = q0 I - i(q1 X + q2 Y + q3 Z), entry by entry; each entry is one
    # product and at most one sum, so 1e-15 per entry
    rng = np.random.default_rng(71)
    for _ in range(2000):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        got = core.su2_unitary(q)
        want = q[0] * core.PAULI_I - 1j * (q[1] * core.PAULI_X
                                           + q[2] * core.PAULI_Y
                                           + q[3] * core.PAULI_Z)
        assert got.dtype == complex and got.shape == (2, 2)
        assert np.abs(got - want).max() <= 1e-15
        assert np.abs(got.conj().T @ got - np.eye(2)).max() <= 1e-15
        assert abs(np.linalg.det(got) - 1.0) <= 1e-15


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(43)
    u = core.haar_unitary(4, rng)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_parse_pauli_expression():
    assert np.allclose(core.parse_pauli_expression("z"), core.PAULI_Z)
    combo = core.parse_pauli_expression("-1*z + 0.5*x")
    assert np.allclose(combo, -core.PAULI_Z + 0.5 * core.PAULI_X)
    assert np.allclose(core.parse_pauli_expression("2*1 - x"),
                       2 * np.eye(2) - core.PAULI_X)
    with pytest.raises(ValueError):
        core.parse_pauli_expression("q + z")
    with pytest.raises(ValueError):
        core.parse_pauli_expression("e-3*z")
    with pytest.raises(ValueError):
        core.parse_pauli_expression("")


@pytest.mark.parametrize("text, want", [
    ("1e-3*z", 1e-3 * core.PAULI_Z),
    ("2.5E+1*x", 25.0 * core.PAULI_X),
    ("-1e-3*z + x", -1e-3 * core.PAULI_Z + core.PAULI_X),
])
def test_parse_pauli_expression_signed_exponent(text, want):
    assert np.array_equal(core.parse_pauli_expression(text), want)


CHECKS = [core.check_close, core.check_at_most]


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["got", "want"])
def test_checks_fail_on_non_finite(check, bad, side):
    got, want = (bad, 1.0) if side == "got" else (1.0, bad)
    # a huge scale must not let an infinity through
    with pytest.raises(core.InvariantViolation, match="^energy "):
        check("energy", got, want, 1e-9, 1e300)


@pytest.mark.parametrize("check", CHECKS)
def test_checks_pass_at_the_scaled_bound(check):
    # 0.25 * 2.0 is exact, so the deviation equals tol * scale exactly
    check("energy", 1.5, 1.0, 0.25, 2.0)
    with pytest.raises(core.InvariantViolation):
        check("energy", np.nextafter(1.5, 2.0), 1.0, 0.25, 2.0)


@pytest.mark.parametrize("check", CHECKS)
def test_checks_at_scale_zero_demand_exact_equality(check):
    check("energy", 1.0, 1.0, 1e-9, 0.0)
    with pytest.raises(core.InvariantViolation):
        check("energy", np.nextafter(1.0, 2.0), 1.0, 1e-9, 0.0)


def test_check_close_is_two_sided_and_reports_plain_floats():
    core.check_close("energy", np.float64(1.0), 1.0 + 5e-10, 1e-9)
    with pytest.raises(core.InvariantViolation,
                       match=r"^energy 0\.5 differs from 1\.0 by more than 0\.1$"):
        core.check_close("energy", np.float64(0.5), np.float64(1.0), 0.1)
    # the one-sided twin accepts anything below the bound
    core.check_at_most("energy", -1e300, 1.0, 0.0)
