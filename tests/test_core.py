"""Core toolkit: embedding, spectra, partial traces, measurements."""

import math

import numpy as np
import pytest

from qetsim import chain, core, ising, minimal
from qetsim.core import (
    InvariantViolation,
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


def _random_matrix(rng, shape, complex_entries=True):
    mat = rng.standard_normal(shape)
    return mat + 1j * rng.standard_normal(shape) if complex_entries else mat


@pytest.mark.parametrize("shape_a, shape_b, complex_a", [
    ((2, 2), (2, 2), True), ((4, 4), (2, 2), True), ((2, 2), (8, 8), True),
    ((2, 2), (4, 4), False), ((3, 2), (2, 5), True), ((1, 4), (3, 1), False)])
def test_kron_matches_numpy_kron(shape_a, shape_b, complex_a):
    rng = np.random.default_rng(17)
    a = _random_matrix(rng, shape_a, complex_a)
    b = _random_matrix(rng, shape_b)
    got = core.kron(a, b)
    want = np.kron(a, b)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros included
    # and a real right factor under a complex left one
    assert np.array_equal(core.kron(b, a.real), np.kron(b, a.real))


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
    assert dim > chain.DENSE_DIM_LIMIT  # a size that chains build as a CSR
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    vals, vecs = np.linalg.eigh(h)
    krylov = core.ground_state(sp.csr_matrix(h))
    assert krylov.energy == pytest.approx(vals[0], abs=1e-9)
    overlap = abs(np.vdot(vecs[:, 0], krylov.state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def _random_hermitian(rng, dim, real=False):
    h = rng.standard_normal((dim, dim))
    if not real:
        h = h + 1j * rng.standard_normal((dim, dim))
    return h + h.conj().T


DENSE_CASES = {
    "complex256": lambda rng: (_random_hermitian(rng, 256), 1.0),
    "real256": lambda rng: (_random_hermitian(rng, 256, real=True), 1.0),
    "complex64": lambda rng: (_random_hermitian(rng, 64), 1.0),
    "complex4": lambda rng: (_random_hermitian(rng, 4), 1.0),
    # the ground level first in index order, and last
    "diagonal": lambda rng: (np.diag(np.arange(16.0) - 5.0), 1.0),
    "diagonal_last": lambda rng: (np.diag(-np.arange(16.0)), 15.0),
    "degenerate": lambda rng: (
        core.kron(_random_hermitian(rng, 32), np.eye(2)), 1.0),
    "zero_scale0": lambda rng: (np.zeros((8, 8)), 0.0),
    "zero_scale1": lambda rng: (np.zeros((8, 8), dtype=complex), 1.0),
    # parity conserving: solved as two blocks
    "ising8": lambda rng: (
        ising.build(ising.IsingParams(1.0, 8)).hamiltonian, 1.0),
    "scaled1e-300": lambda rng: (1e-300 * _random_hermitian(rng, 16), 1e-300),
    "scaled1e300": lambda rng: (1e300 * _random_hermitian(rng, 16), 1e300),
}


@pytest.mark.parametrize("case", DENSE_CASES)
def test_dense_ground_state_matches_eigh(case):
    h, scale = DENSE_CASES[case](np.random.default_rng(41))
    gs = core.ground_state(h, scale)
    vals, vecs = np.linalg.eigh(h / (scale or 1.0))
    vals = vals * (scale or 1.0)
    assert abs(gs.energy - vals[0]) <= 1e-12 * scale
    assert abs(gs.gap - (vals[1] - vals[0])) <= 1e-10 * scale
    assert gs.degenerate == (case in ("degenerate", "zero_scale0",
                                      "zero_scale1"))
    ground = vecs[:, vals - vals[0] <= 1e-8 * scale]
    weight = np.linalg.norm(ground.conj().T @ gs.state.amplitudes) ** 2
    assert weight >= 1 - 1e-12
    again = core.ground_state(h, scale)
    assert np.array_equal(again.state.amplitudes, gs.state.amplitudes)
    assert again.energy == gs.energy and again.gap == gs.gap


# two dimensions: one entry per parity block, so the ground block has no
# complement for a gap pass, or (pauli_x) no parity split
TWO_DIMENSION_CASES = {
    "pauli_z": (core.PAULI_Z, 1.0, -1.0, 2.0),
    "diagonal": (np.diag([-2.0, 0.5]), 2.0, -2.0, 2.5),
    "pauli_x": (core.PAULI_X, 1.0, -1.0, 2.0),
}


@pytest.mark.parametrize("case", TWO_DIMENSION_CASES)
def test_ground_state_one_dimensional_blocks(case):
    h, scale, energy, gap = TWO_DIMENSION_CASES[case]
    gs = core.ground_state(h, scale)
    assert abs(gs.energy - energy) <= 1e-12 * scale
    assert abs(gs.gap - gap) <= 1e-10 * scale
    assert not gs.degenerate
    ground = np.linalg.eigh(h)[1][:, 0]
    assert abs(np.vdot(ground, gs.state.amplitudes)) == pytest.approx(
        1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_ground_state_refuses_a_dimension_not_a_power_of_two(dim, monkeypatch):
    def unreached(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(core, "_krylov_lowest_pair", unreached)
    with pytest.raises(ValueError, match=f"dimension {dim} is not 2\\*\\*n"):
        core.ground_state(np.eye(dim))


def test_dense_ground_state_takes_even_block_on_a_tie():
    # h/k = 1e-300: both parity blocks of the two-qubit Hamiltonian are the
    # same matrix in double precision, and the closed form is the even one
    model = minimal.build(minimal.MinimalParams(1e-300, 1.0))
    gs = core.ground_state(np.asarray(model.hamiltonian), 1.0)
    assert gs.degenerate
    assert abs(np.vdot(gs.state.amplitudes, model.ground.amplitudes)) \
        == pytest.approx(1.0, abs=1e-15)


def test_ground_state_computes_no_eigenvector_matrix(monkeypatch):
    # eigh sees only the tridiagonal Lanczos bands; eigvalsh and solve see
    # nothing, so neither H nor one of its blocks is diagonalized
    import scipy.sparse as sp

    cases = [DENSE_CASES[name](np.random.default_rng(5))
             for name in ("complex256", "real256", "complex4", "ising8")]
    cases.append((sp.csr_matrix(cases[0][0]), 1.0))
    lowest = [np.linalg.eigvalsh(h.toarray() if sp.issparse(h) else h)[0]
              for h, _ in cases]
    eigh = np.linalg.eigh

    def banded(a, *args, **kwargs):
        assert not np.triu(a, 2).any() and not np.tril(a, -2).any(), \
            f"eigh on a {np.shape(a)} matrix that is not tridiagonal"
        return eigh(a, *args, **kwargs)

    def refused(name):
        def call(a, *args, **kwargs):
            raise AssertionError(f"{name} on a {np.shape(a)} matrix")
        return call

    monkeypatch.setattr(np.linalg, "eigh", banded)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused("eigvalsh"))
    monkeypatch.setattr(np.linalg, "solve", refused("solve"))
    for (h, scale), want in zip(cases, lowest):
        assert core.ground_state(h, scale).energy == pytest.approx(
            want, abs=1e-12 * scale)


def _krylov_against_dense(h, scale=1.0):
    assert h.shape[0] > chain.DENSE_DIM_LIMIT  # a size that chains build as a CSR
    gs = core.ground_state(h, scale)
    vals, vecs = np.linalg.eigh(h.toarray())
    assert gs.energy == pytest.approx(vals[0], abs=1e-9 * scale)
    assert gs.gap == pytest.approx(vals[1] - vals[0], abs=1e-8 * scale)
    ground = vecs[:, vals - vals[0] <= 1e-8 * scale]
    weight = np.linalg.norm(ground.conj().T @ gs.state.amplitudes)
    assert weight == pytest.approx(1.0, abs=1e-8)
    return gs


def test_lanczos_breaks_off_on_few_levels(lanczos_matvecs):
    # the uncoupled chain x = -1*z: ten distinct levels -9, -7, ..., 9,
    # five in each parity block, so each pass reaches an invariant subspace
    # within ten steps; the gap of 2 lies between the blocks.  A breakdown
    # ends pass 1 on the residual test, so the ground (even) block, its
    # pass 1 within ten products, has no resume.
    import scipy.sparse as sp

    from qetsim.chain import ChainModel

    h = ChainModel(9, "open", tuple(-core.PAULI_Z for _ in range(9)), (),
                   tuple(0.0 for _ in range(9))).hamiltonian
    assert sp.issparse(h)
    gs = _krylov_against_dense(h)
    assert gs.energy == pytest.approx(-9.0, abs=1e-12)
    assert gs.gap == pytest.approx(2.0, abs=1e-12)
    assert not gs.degenerate
    assert [(name, dim) for name, dim, _ in lanczos_matvecs] == [
        ("pass 1", 256), ("pass 1", 256), ("replay", 256), ("gap pass", 256)]
    even, odd, _, gap = (count for _, _, count in lanczos_matvecs)
    assert even <= 10 and odd <= 10 and gap <= 9


def test_lanczos_resume_repeats_one_run():
    # a pass stopped at eigenvalue accuracy and resumed ends bit for bit
    # where one run to the residual test does
    rng = np.random.default_rng(3)
    half = rng.standard_normal((300, 300))
    op = (half + half.T) / 60.0

    def apply(v):
        return op @ v

    start = core._unit(rng.standard_normal(300))
    tol = 1e-11
    whole = core._lanczos(apply, start, tol)
    first = core._lanczos(apply, start, tol, values_only=True)
    assert whole[2].converged and not first[2].converged
    assert len(first[2].alphas) < len(whole[2].alphas)
    resumed = core._lanczos(apply, start, tol, resume=first[2])
    assert resumed[0] == whole[0]
    assert np.array_equal(resumed[1], whole[1])
    assert resumed[2].alphas == whole[2].alphas
    assert resumed[2].betas == whole[2].betas
    assert np.array_equal(resumed[2].w, whole[2].w)


def test_lanczos_repeated_ground_level_complex():
    import scipy.sparse as sp

    rng = np.random.default_rng(29)
    dim = 256
    half = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = sp.csr_matrix(np.kron(half + half.conj().T, np.eye(2)))
    assert np.iscomplexobj(h.data)
    gs = _krylov_against_dense(h)
    assert gs.degenerate
    assert gs.gap == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_lanczos_zero_operator(scale):
    import scipy.sparse as sp

    gs = _krylov_against_dense(sp.csr_matrix((512, 512), dtype=complex), scale)
    assert (gs.energy, gs.gap, gs.degenerate) == (0.0, 0.0, True)


def test_lanczos_step_cap_raises_one_line(monkeypatch):
    import scipy.sparse as sp

    from qetsim import ising

    h = ising.build(ising.IsingParams(1.0, 10)).hamiltonian
    assert sp.issparse(h)
    monkeypatch.setattr(core, "_LANCZOS_MAX_STEPS", 5)
    with pytest.raises(core.EigensolverError) as info:
        core.ground_state(h)
    assert str(info.value) == \
        "Lanczos eigensolver did not converge in 5 steps"


def test_expectation_trivial_cases():
    plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    assert core.expectation(plus, core.PAULI_X) == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_hermitian_operator_is_real_at_any_scale():
    # the imaginary rounding of <psi|O|psi> grows with the entries of O
    for h in 10.0 ** np.arange(0, 151, 15):
        for k in (h, 1.857 * h, 0.3 * h):
            params = minimal.MinimalParams(float(h), float(k))
            t = 0.3 / params.k
            hb, v = minimal.evolved_local_energies(params, t)
            assert type(hb) is float and type(v) is float
            assert hb == pytest.approx(minimal.hb_evolution(params, t),
                                       rel=1e-9)


def test_expectation_keeps_imaginary_part_of_non_hermitian_operator():
    plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
    val = core.expectation(plus, 1e9j * core.PAULI_X)
    assert type(val) is complex and val == pytest.approx(1e9j, rel=1e-15)


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


def _reference_haar_unitary(dim, rng):
    # one matrix at a time, as the single draw was first written
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dim", [2, 4])
def test_haar_unitary_stack_equals_single_draws(dim):
    want_rng, single_rng, stack_rng = (np.random.default_rng(47) for _ in range(3))
    want = np.array([_reference_haar_unitary(dim, want_rng) for _ in range(200)])
    single = np.array([core.haar_unitary(dim, single_rng) for _ in range(200)])
    stack = core.haar_unitary(dim, stack_rng, 200)
    assert stack.shape == (200, dim, dim)
    assert single.tobytes() == want.tobytes()
    assert stack.tobytes() == want.tobytes()
    # the three generators stand at the same place afterwards
    assert want_rng.random() == single_rng.random() == stack_rng.random()


def test_interleaved_gaussian_draws_give_the_single_haar_draws():
    # a site drawn before each unitary, as in verify's passivity check
    want_rng, rng = np.random.default_rng(59), np.random.default_rng(59)
    want_sites, want = zip(*[(want_rng.integers(0, 2),
                              _reference_haar_unitary(2, want_rng))
                             for _ in range(50)])
    sites, gaussians = zip(*[(rng.integers(0, 2), core.complex_gaussian(2, rng))
                             for _ in range(50)])
    assert sites == want_sites
    got = core.haar_from_gaussian(np.array(gaussians))
    assert got.tobytes() == np.array(want).tobytes()


def test_check_close_each_names_the_first_failing_element():
    core.check_close_each("x", np.array([1.0, 2.0]), np.array([1.0, 2.0 + 1e-13]),
                          1e-12)
    for bad in (np.nan, np.inf, 1.0 + 1e-11):
        got = np.array([1.0, 1.0, bad, np.nan])
        with pytest.raises(InvariantViolation, match=r"^x \[2\] "):
            core.check_close_each("x", got, 1.0, 1e-12)


def test_expectations_match_single_expectations():
    rng = np.random.default_rng(53)
    vectors = _random_matrix(rng, (6, 4))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    herm = _random_matrix(rng, (4, 4))
    for op in (herm + herm.conj().T, 1j * core.kron(core.PAULI_X, core.PAULI_Z)):
        got = core.expectations(vectors, op)
        want = [core.expectation(StateVector(2, v), op) for v in vectors]
        assert got.dtype == np.array(want).dtype
        assert np.abs(got - want).max() <= 1e-15 * np.abs(op).max()


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
