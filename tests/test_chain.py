"""Chain engine: normalization, protocol routes, cooling, distribution."""

import decimal
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qetsim import chain, core, ising, minimal
from qetsim.chain import Channel, ChainModel, ChainProtocolSpec
from qetsim.core import InvariantViolation, LocalOperator


def as_dense(ham):
    """A chain Hamiltonian as an ndarray, whether it is stored dense or CSR."""
    return ham if isinstance(ham, np.ndarray) else ham.toarray()


def minimal_as_chain(h=1.0, k=1.0):
    """The two-qubit model written as an open 2-site chain."""
    r = math.hypot(h, k)
    const = (h * h + k * k) / r
    x = h * core.PAULI_Z + const * np.eye(2)
    return ChainModel(
        2, "open", (x, x),
        (Channel((core.PAULI_X, core.PAULI_X), (2.0 * k,)),),
        (0.0, 0.0),
    )


def decoupled_chain(n=6):
    """Uncoupled spins with a gapped product ground state."""
    x = core.PAULI_Z + np.eye(2)
    return ChainModel(
        n, "open", tuple(x for _ in range(n)),
        (Channel(tuple(core.PAULI_X for _ in range(n)),
                 tuple(0.0 for _ in range(n - 1))),),
        tuple(0.0 for _ in range(n)),
    )


# ---------------------------------------------------------------- assembly


def test_terms_sum_to_hamiltonian(ising8):
    total = sum(core.embed_local(t, 8) for t in ising8.terms)
    assert np.abs(total - as_dense(ising8.hamiltonian)).max() < 1e-12


def test_apply_matches_dense(ising8):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    dense = as_dense(ising8.hamiltonian)
    assert np.abs(ising8.apply_hamiltonian(v) - dense @ v).max() < 1e-10


@pytest.mark.parametrize("n", [8, 9])
def test_real_hamiltonian_applied_on_re_im_pairs(n):
    # a real H takes a complex vector as one real product on its (re, im)
    # pairs: bit for bit the CSR product at 9 sites, within rounding dense
    model = ising.build(ising.IsingParams(1.0, n))
    ham = model.hamiltonian
    assert not np.iscomplexobj(ham)
    assert isinstance(ham, np.ndarray) == (n == 8)
    rng = np.random.default_rng(n)
    v = core.random_state(n, rng).amplitudes
    got = model.apply_hamiltonian(v)
    assert got.dtype == complex and got.shape == v.shape
    if n == 9:
        assert np.array_equal(got, ham @ v)
    else:
        want = ham.astype(complex) @ v
        assert np.abs(got - want).max() <= 1e-15 * model.energy_scale
    real = v.real.copy()
    assert np.array_equal(model.apply_hamiltonian(real), ham @ real)


PRIMITIVE_CASES = {
    "ising8": lambda request: request.getfixturevalue("ising8"),
    "complex7_open_two_channels":
        lambda request: _random_hermitian_chain(7, "open", 2, 0.7, 11),
}


def _primitive_inputs(case, request):
    """The model, unnormalized complex and real vectors, and dense densities."""
    model = PRIMITIVE_CASES[case](request)
    rng = np.random.default_rng(31)
    dim = 2**model.n_sites
    vectors = [norm * v / np.linalg.norm(v) for norm, v in (
        (0.5, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
        (1.3, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
        (2.0, rng.standard_normal(dim)))]
    dense = [core.embed_local(t, model.n_sites) for t in model.terms]
    return model, vectors, dense


@pytest.mark.parametrize("case", PRIMITIVE_CASES)
def test_site_energies_match_dense_densities(case, request):
    model, vectors, dense = _primitive_inputs(case, request)
    tol = 1e-12 * model.energy_scale
    want = [sum(np.vdot(v, t @ v).real for v in vectors) for t in dense]
    got = model.site_energies(np.stack(vectors, axis=1))
    assert got.shape == (model.n_sites,)
    assert np.abs(got - want).max() <= tol
    with pytest.raises(ValueError, match="amplitudes per vector"):
        model.site_energies(vectors)  # vectors as rows, not columns
    ham = as_dense(model.hamiltonian)
    for v in vectors:
        assert abs(model.site_energies(v).sum()
                   - np.vdot(v, ham @ v).real) <= tol


@pytest.mark.parametrize("case", PRIMITIVE_CASES)
def test_local_energy_matches_dense_region_sum(case, request):
    model, vectors, dense = _primitive_inputs(case, request)
    tol = 1e-12 * model.energy_scale
    if model.boundary == "open":
        assert len(model.region(0)) == len(model.region(model.n_sites - 1)) == 2
    for site in range(model.n_sites):
        h_local = sum(dense[m] for m in model.region(site))
        for v in vectors:
            assert np.abs(model.local_energy(site, v) - h_local @ v).max() <= tol


def _kron_pieces(model):
    """Each site and bond piece, embedded by ``sp.kron`` per identity run."""
    pieces = [{n: model.x_ops[n] - model.shifts[n] * np.eye(2)}
              for n in range(model.n_sites)]
    for ch in model.channels:
        for bond in range(model.n_bonds):
            a, b = model.bond_sites(bond)
            pieces.append({a: ch.couplings[bond] * ch.y_ops[a], b: ch.y_ops[b]})
    for factors in pieces:
        acc, done = sp.identity(1, dtype=complex, format="coo"), 0
        for site in sorted(factors):
            acc = sp.kron(acc, sp.identity(2**(site - done)), format="coo")
            acc = sp.kron(acc, sp.coo_matrix(factors[site]), format="coo")
            done = site + 1
        yield sp.kron(acc, sp.identity(2**(model.n_sites - done)), format="coo")


def _kron_sparse_hamiltonian(model):
    """Reference assembly: the kron pieces summed by one COO-to-CSR conversion."""
    pieces = list(_kron_pieces(model))
    dim = 2**model.n_sites
    ham = sp.coo_matrix(
        (np.concatenate([p.data for p in pieces]),
         (np.concatenate([p.row for p in pieces]),
          np.concatenate([p.col for p in pieces]))),
        shape=(dim, dim)).tocsr()
    ham.eliminate_zeros()
    return ham.real if not np.any(ham.data.imag) else ham


def _kron_dense_hamiltonian(model):
    """Reference assembly: the kron pieces summed densely, in piece order."""
    dim = 2**model.n_sites
    ham = sum((p.toarray() for p in _kron_pieces(model)),
              np.zeros((dim, dim), dtype=complex))
    return ham.real if not np.any(ham.imag) else ham


def _random_hermitian_chain(n, boundary, n_channels, shift_scale, seed,
                            real=False):
    """Unnormalized complex (or real) chain with site-dependent operators."""
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.standard_normal((2, 2))
        if not real:
            a = a + 1j * rng.standard_normal((2, 2))
        return a + a.conj().T

    n_bonds = n if boundary == "periodic" else n - 1
    return ChainModel(
        n, boundary, tuple(hermitian() for _ in range(n)),
        tuple(Channel(tuple(hermitian() for _ in range(n)),
                      tuple(rng.uniform(-1.0, 1.0, size=n_bonds)))
              for _ in range(n_channels)),
        tuple(shift_scale * rng.standard_normal(n)))


ASSEMBLY_CASES = {
    "ising12": lambda request: request.getfixturevalue("ising12"),
    "complex10_two_channels":
        lambda request: _random_hermitian_chain(10, "open", 2, 0.0, 3),
    "shifted7": lambda request: _random_hermitian_chain(7, "periodic", 1, 1.5, 4),
    "two_sites": lambda request: minimal_as_chain(),
    "zero": lambda request: ChainModel(
        5, "open", tuple(np.zeros((2, 2)) for _ in range(5)),
        (Channel(tuple(core.PAULI_X for _ in range(5)), (0.0,) * 4),),
        (0.0,) * 5),
    # 8 sites are stored dense and 9 as CSR
    **{f"{kind}{n}_{boundary}": (
        lambda request, n=n, boundary=boundary, kind=kind:
        _random_hermitian_chain(n, boundary, 2, 0.5, n, real=kind == "real"))
       for n in (8, 9) for boundary in ("open", "periodic")
       for kind in ("real", "complex")},
}


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_sparse_hamiltonian_matches_kron_assembly(case, request):
    built = ASSEMBLY_CASES[case](request)
    # a fresh model, so the normalized Ising chain is assembled, not shifted
    model = ChainModel(built.n_sites, built.boundary, built.x_ops,
                       built.channels, built.shifts)
    got = model.hamiltonian
    dense = 2**model.n_sites <= core.DENSE_DIM_LIMIT
    want = (_kron_dense_hamiltonian if dense else _kron_sparse_hamiltonian)(model)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if dense:
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous
        assert np.array_equal(got != 0, want != 0)
        assert np.abs(got - want).max(initial=0.0) <= 1e-15
    else:
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max(initial=0.0) <= 1e-15


def test_minimal_chain_already_normalized():
    model = minimal_as_chain()
    amp = model.ground.state.amplitudes
    shifted = chain.normalize(model)
    assert max(abs(s) for s in shifted.shifts) < 1e-12
    assert np.abs(model.site_energies(amp)).max() < 1e-12


def test_normalize_ising(ising8):
    eps = ising8.site_energies(ising8.ground.state.amplitudes)
    assert np.abs(eps).max() < 1e-9
    assert abs(ising8.ground.energy) < 1e-9
    assert eps.sum() < 1e-9


@pytest.mark.parametrize("case", ["ising8", "complex8_shifted"])
def test_normalize_carries_shifted_terms(case, request):
    if case == "ising8":
        model = request.getfixturevalue("ising8")
    else:
        model = chain.normalize(
            _random_hermitian_chain(8, "periodic", 2, 0.7, 11))
    for n, carried in enumerate(model.terms):
        fresh = model.term(n)
        assert carried.support == fresh.support
        assert np.abs(carried.matrix - fresh.matrix).max() <= 1e-14


def test_normalize_rejects_degenerate():
    zeros = np.zeros((2, 2))
    model = ChainModel(
        4, "open", tuple(zeros for _ in range(4)),
        (Channel(tuple(core.PAULI_X for _ in range(4)), (0.0, 0.0, 0.0)),),
        (0.0,) * 4,
    )
    with pytest.raises(InvariantViolation):
        chain.normalize(model)


def test_nonnegative_after_normalize(random_chains10):
    for model in random_chains10:
        assert model.ground.energy > -1e-9
        amp = model.ground.state.amplitudes
        assert np.abs(model.site_energies(amp)).max() < 1e-9


# ------------------------------------------------------- density witnesses


def test_witness_negative_on_critical_chain(ising8):
    for n in (0, 3, 5):
        w = chain.negative_density_witness(ising8, n)
        assert w.epsilon_minus < 0
        assert w.factorization_broken
        val = ising8.site_energies(w.witness_state.amplitudes)[n]
        assert abs(val - w.epsilon_minus) < 1e-10


def test_witness_zero_on_decoupled_chain():
    model = chain.normalize(decoupled_chain())
    w = chain.negative_density_witness(model, 2)
    assert w.epsilon_minus == pytest.approx(0.0, abs=1e-12)
    assert not w.factorization_broken


def test_witness_small_n_dense_oracle(ising8):
    # lowest eigenvalue of the embedded density equals the full-space minimum
    n = 4
    embedded = core.embed_local(ising8.terms[n], 8)
    direct = np.linalg.eigvalsh(embedded)[0]
    w = chain.negative_density_witness(ising8, n)
    assert w.epsilon_minus == pytest.approx(direct, abs=1e-12)


def _witness_by_bits(model, n):
    """Reference embedding: set each global index bit by bit."""
    term = model.terms[n]
    local_vec = np.linalg.eigh(term.matrix)[1][:, 0]
    full = np.zeros(2**model.n_sites, dtype=complex)
    k = term.n_support
    for idx in range(2**k):
        amp = local_vec[idx]
        if amp == 0:
            continue
        g_idx = 0
        for pos, site in enumerate(term.support):
            bit = (idx >> (k - 1 - pos)) & 1
            g_idx |= bit << (model.n_sites - 1 - site)
        full[g_idx] = amp
    return full / np.linalg.norm(full)


@pytest.mark.parametrize("case", ["ising8", "complex8_two_channels"])
def test_witness_state_matches_bitwise_embedding(case, request):
    if case == "ising8":
        model = request.getfixturevalue("ising8")
    else:
        model = chain.normalize(
            _random_hermitian_chain(8, "open", 2, 0.0, 3))
    for n in range(model.n_sites):
        w = chain.negative_density_witness(model, n)
        assert np.array_equal(w.witness_state.amplitudes,
                              _witness_by_bits(model, n))


@pytest.mark.parametrize("n_sites, boundary, site", [
    (2, "open", 0), (2, "open", 1), (3, "open", 1),
    (3, "periodic", 0), (3, "periodic", 1), (3, "periodic", 2)])
def test_witness_without_probe_site_raises(n_sites, boundary, site):
    model = chain.random_chain_model(n_sites, np.random.default_rng(5),
                                     boundary=boundary)
    with pytest.raises(ValueError, match=f"site {site} has no probe site "
                       f"two or more sites away on a {n_sites}-site chain"):
        chain.negative_density_witness(model, site)


@pytest.mark.parametrize("site", [-1, 6])
def test_witness_site_out_of_range_raises(site):
    model = chain.random_chain_model(6, np.random.default_rng(3),
                                     boundary="open")
    with pytest.raises(ValueError,
                       match=f"site {site} out of range for a 6-site chain"):
        chain.negative_density_witness(model, site)


@pytest.mark.parametrize("n_sites, boundary, probes", [
    (3, "open", {0: 2, 2: 0}),
    (4, "open", {0: 2, 1: 3, 2: 0, 3: 1}),
    (4, "periodic", {0: 2, 1: 3, 2: 0, 3: 1})])
def test_witness_probe_two_sites_away(n_sites, boundary, probes):
    model = chain.random_chain_model(n_sites, np.random.default_rng(5),
                                     boundary=boundary)
    for site, probe in probes.items():
        assert chain.negative_density_witness(model, site).probe_site == probe


# ------------------------------------------------------------ protocol runs


def test_protocol_zero_angle_extracts_nothing(ising8):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    g_b = LocalOperator((5,), core.PAULI_Y)
    run = chain.run_protocol(ising8, ChainProtocolSpec(1, 5, meas, g_b, 0.0))
    assert run.e_b == pytest.approx(0.0, abs=1e-14)
    measured = {o.label: o.state for o in
                core.apply_measurement(ising8.ground.state, meas)}
    assert sorted(measured) == sorted(o.label for o in run.outcomes)
    for rec in run.outcomes:
        assert np.abs(rec.state.amplitudes
                      - measured[rec.label].amplitudes).max() < 1e-14


def test_protocol_routes_and_closed_form(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    sigma_a = core.pauli_component((1.0, 0, 0), 1)
    g_b = LocalOperator((7,), core.PAULI_Y)
    eta, xi = chain.eta_xi(ising12, sigma_a, g_b)
    theta_opt, e_b_max = chain.optimal_angle(eta, xi)
    thetas = np.linspace(-0.02, 0.02, 21)
    best_sweep = -math.inf
    for theta in thetas:
        run = chain.run_protocol(
            ising12, ChainProtocolSpec(1, 7, meas, g_b, float(theta)))
        closed = chain.qubit_closed_form(eta, xi, float(theta))
        assert abs(run.e_b - closed) < 1e-10
        best_sweep = max(best_sweep, run.e_b)
    assert best_sweep <= e_b_max + 1e-9
    run_opt = chain.run_protocol(
        ising12, ChainProtocolSpec(1, 7, meas, g_b, theta_opt))
    assert abs(run_opt.e_b - e_b_max) < 1e-10
    assert run_opt.local_energy_b == pytest.approx(-run_opt.e_b, abs=1e-10)


def test_protocol_random_chains_route_equivalence(random_chains10):
    for model in random_chains10:
        meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
        sigma_a = core.pauli_component((1.0, 0, 0), 0)
        g_b = LocalOperator((5,), core.PAULI_Y)
        eta, xi = chain.eta_xi(model, sigma_a, g_b)
        theta_opt, e_b_max = chain.optimal_angle(eta, xi)
        run = chain.run_protocol(
            model, ChainProtocolSpec(0, 5, meas, g_b, theta_opt))
        assert abs(run.e_b - e_b_max) < 1e-10
        assert -1e-12 <= run.e_b <= run.e_a + 1e-12


def test_protocol_binary_povm_closed_form(ising8):
    # non-projective +-1 labeled measurement still matches the closed form
    rng = np.random.default_rng(55)
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(z)
    meas = core.PovmMeasurement(1, (
        (1.0, LocalOperator((1,), q[:2, :])),
        (-1.0, LocalOperator((1,), q[2:, :])),
    ))
    d_a = chain.measurement_bias_operator(meas)
    g_b = LocalOperator((5,), core.PAULI_Y)
    eta, xi = chain._eta_xi_general(ising8, d_a, g_b)
    theta_opt, e_b_max = chain.optimal_angle(eta, xi)
    run = chain.run_protocol(
        ising8, ChainProtocolSpec(1, 5, meas, g_b, theta_opt))
    assert abs(run.e_b - e_b_max) < 1e-10


def test_protocol_small_theta_linearization(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    sigma_a = core.pauli_component((1.0, 0, 0), 1)
    g_b = LocalOperator((7,), core.PAULI_Y)
    eta, xi = chain.eta_xi(ising12, sigma_a, g_b)
    thetas = np.geomspace(1e-4, 1e-2, 9)
    devs = np.array([
        chain.qubit_closed_form(eta, xi, float(t)) - t * eta for t in thetas
    ])
    # quadratic remainder: fit dev = c theta^2; the fit must explain the data
    c_fit = float(np.sum(devs * thetas**2) / np.sum(thetas**4))
    residual = np.abs(devs - c_fit * thetas**2)
    assert np.all(residual <= 0.02 * np.abs(devs) + 1e-15)
    assert abs(c_fit) < 2 * xi
    assert np.all(np.abs(devs) <= 1.5 * abs(c_fit) * thetas**2 + 1e-15)
    # sign rule: matching the sign of eta gives positive output
    s = math.copysign(1e-3, eta)
    assert chain.qubit_closed_form(eta, xi, s) > 0


def test_protocol_rejects_overlapping_regions(ising8):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    g_b = LocalOperator((3,), core.PAULI_Y)
    with pytest.raises(ValueError):
        chain.run_protocol(ising8, ChainProtocolSpec(1, 3, meas, g_b, 0.1))


def test_protocol_warns_below_five(ising8):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    g_b = LocalOperator((4,), core.PAULI_Y)
    with pytest.warns(UserWarning):
        chain.run_protocol(ising8, ChainProtocolSpec(1, 4, meas, g_b, 0.01))


def test_locality_commutators(ising8):
    # operators outside both regions commute with measurement and rotation
    site_a, site_b = 1, 5
    h_rest = np.zeros((256, 256), dtype=complex)
    covered = set(ising8.region(site_a)) | set(ising8.region(site_b))
    for n in range(8):
        if n not in covered:
            h_rest += core.embed_local(ising8.terms[n], 8)
    meas = core.projective_pauli_measurement((1.0, 0, 0), site_a)
    for _, mop in meas.operators:
        full = core.embed_local(mop, 8)
        assert np.abs(h_rest @ full - full @ h_rest).max() < 1e-12
    u = core.embed_local(LocalOperator((site_b,), core.PAULI_Y), 8)
    assert np.abs(h_rest @ u - u @ h_rest).max() < 1e-12


def test_eta_xi_decoupled_chain_zero_eta():
    model = chain.normalize(decoupled_chain(8))
    sigma_a = core.pauli_component((1.0, 0, 0), 0)
    g_b = LocalOperator((5,), core.PAULI_Y)
    eta, xi = chain.eta_xi(model, sigma_a, g_b)
    assert abs(eta) < 1e-12
    assert xi > 0


def test_eta_xi_requires_involutions(ising8):
    bad = LocalOperator((1,), 2.0 * core.PAULI_X)
    g_b = LocalOperator((5,), core.PAULI_Y)
    with pytest.raises(ValueError):
        chain.eta_xi(ising8, bad, g_b)


def test_qubit_closed_form_reference_values():
    theta, e_max = chain.optimal_angle(1.0, 1.0)
    assert theta == pytest.approx(math.pi / 8, abs=1e-14)
    assert e_max == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-14)
    assert chain.optimal_angle(0.0, 1.0)[1] == 0.0
    with pytest.raises(ValueError):
        chain.optimal_angle(1.0, 0.0)
    # sign convention: the optimal angle carries the sign of eta
    theta_neg, e_neg = chain.optimal_angle(-1.0, 1.0)
    assert theta_neg == pytest.approx(-math.pi / 8, abs=1e-14)
    assert e_neg == pytest.approx(e_max, abs=1e-15)


def test_closed_form_matches_50_digit_reference():
    dec = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=50)):
        for xi in (1e-9, 1.0, 1e9):
            for power in range(-12, 7):
                for sign in (1.0, -1.0):
                    eta = sign * 10.0**power * xi
                    want = float(((dec(eta)**2 + dec(xi)**2).sqrt() - dec(xi)) / 2)
                    theta, e_max = chain.optimal_angle(eta, xi)
                    assert type(theta) is float and type(e_max) is float
                    assert e_max == pytest.approx(want, rel=4e-15, abs=0)
                    assert chain.qubit_closed_form(eta, xi, theta) == (
                        pytest.approx(want, rel=1e-14, abs=0))
        # two-qubit model: (sqrt(a^2 + h^2 k^2) - a) / r, a = h^2 + 2k^2
        h, k = dec(1.0), dec(1e-7)
        a = h * h + 2 * k * k
        want = float(((a * a + (h * k)**2).sqrt() - a) / (h * h + k * k).sqrt())
    _, e_b = minimal.optimize(minimal.MinimalParams(1.0, 1e-7))
    assert e_b == pytest.approx(want, rel=1e-14, abs=0)


def test_best_teleportable_energy_matches_eta_xi_scan():
    model = chain.random_chain_model(6, np.random.default_rng(43),
                                     boundary="open")
    u_a = np.array([0.48, -0.6, 0.64])
    meas = core.projective_pauli_measurement(u_a, 0)
    sigma_a = core.pauli_component(u_a, 0)
    best, best_site = -math.inf, None
    dirs = np.vstack([np.eye(3), chain._fibonacci_sphere(192)])
    for site in (3, 4, 5):
        for u in dirs:
            eta, xi = chain.eta_xi(model, sigma_a, core.pauli_component(u, site))
            if xi > 0 and chain.optimal_angle(eta, xi)[1] > best:
                best, best_site = chain.optimal_angle(eta, xi)[1], site
    value, site = chain.best_teleportable_energy(model, meas)
    assert value == pytest.approx(best, abs=1e-10)
    assert site == best_site


def test_best_teleportable_energy_rejects_nan_hamiltonian(ising8, monkeypatch):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    _nan_hamiltonian(monkeypatch)
    with pytest.raises(InvariantViolation):
        chain.best_teleportable_energy(ising8, meas)


# -------------------------------------------------------- residual energy


def _pauli_site_decomposition(hamiltonian, site, n_sites, psi):
    """Oracle: exact unitary-cooling minimum via the rotation linearity.

    The expectation of ``U^t H U`` over single-site unitaries is affine in
    the corresponding SO(3) rotation, so the minimum follows from an SVD.
    """
    dims = (2,) * n_sites
    rest = [s for s in range(n_sites) if s != site]
    perm = [site] + rest
    psi_p = psi.reshape(dims).transpose(perm).reshape(2, -1)
    h_t = hamiltonian.reshape(dims + dims)
    h_p = h_t.transpose(perm + [n_sites + p for p in perm])
    d = 2 ** (n_sites - 1)
    h_p = h_p.reshape(2, d, 2, d)
    paulis = [np.eye(2), core.PAULI_X, core.PAULI_Y, core.PAULI_Z]
    b_ops = [0.5 * np.einsum("ab,aXbY->XY", p.conj(), h_p) for p in paulis]
    t = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            out = np.einsum("ab,XY,bY->aX", paulis[j], b_ops[i], psi_p)
            t[i, j] = np.vdot(psi_p, out).real
    c0 = t[0, 0]
    a = t[1:, 1:]
    u, s, vt = np.linalg.svd(a)
    sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    return c0 - (s[0] + s[1] - sign * s[2])


def test_residual_energy_decoupled_chain_recoverable():
    model = chain.normalize(decoupled_chain(6))
    meas = core.projective_pauli_measurement((1.0, 0, 0), 2)
    res = chain.residual_energy(model, 2, meas)
    assert res.e_r == pytest.approx(0.0, abs=1e-9)


def test_residual_energy_minimal_model_positive():
    model = minimal_as_chain()
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    res = chain.residual_energy(model, 0, meas)
    assert res.e_r > 0.01
    assert res.e_r <= res.e_a + 1e-12
    # independent closed-form oracle per outcome
    g = model.ground.state.amplitudes
    expect = 0.0
    for _, mop in meas.operators:
        branch = core.apply_local(mop, g, 2)
        p = float(np.vdot(branch, branch).real)
        expect += p * _pauli_site_decomposition(
            as_dense(model.hamiltonian).astype(complex), 0, 2,
            branch / math.sqrt(p))
    assert res.e_r == pytest.approx(expect, abs=1e-12 * model.energy_scale)


def test_residual_energy_oracle_random_chain():
    rng = np.random.default_rng(77)
    model = chain.random_chain_model(6, rng, boundary="open")
    meas = core.projective_pauli_measurement((0.0, 0, 1.0), 3)
    res = chain.residual_energy(model, 3, meas)
    g = model.ground.state.amplitudes
    expect = 0.0
    for _, mop in meas.operators:
        branch = core.apply_local(mop, g, 6)
        p = float(np.vdot(branch, branch).real)
        expect += p * _pauli_site_decomposition(
            as_dense(model.hamiltonian).astype(complex), 3, 6,
            branch / math.sqrt(p))
    assert res.e_r == pytest.approx(expect, abs=1e-12 * model.energy_scale)


@pytest.mark.parametrize("case", ["ising8", "complex6"])
def test_lowest_unitary_energy_is_exact(case, request):
    if case == "ising8":
        model = request.getfixturevalue("ising8")
    else:
        model = chain.random_chain_model(6, np.random.default_rng(41),
                                         boundary="open")
        assert np.iscomplexobj(model.hamiltonian)
    n, scale = model.n_sites, model.energy_scale
    dense = as_dense(model.hamiltonian).astype(complex)
    g = model.ground.state.amplitudes
    rng = np.random.default_rng(19)
    haar = np.array([core.haar_unitary(2, rng).ravel() for _ in range(2000)])
    for site in range(n):
        for _, mop in core.projective_pauli_measurement(
                (0.6, 0.0, 0.8), site).operators:
            branch = core.apply_local(mop, g, n)
            psi = branch / np.linalg.norm(branch)
            gram = core.one_site_gram(model.hamiltonian, site, psi)
            low, q = core.lowest_unitary_energy(gram)
            oracle = _pauli_site_decomposition(dense, site, n, psi)
            assert abs(low - oracle) <= 1e-12 * scale
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-15
            again = core.one_site_energy(gram, (core.su2_unitary(q),))
            assert abs(again - low) <= 1e-12 * scale
            sampled = np.einsum("ki,ij,kj->k", haar.conj(), gram, haar).real
            assert sampled.min() >= low - 1e-12 * scale


def test_residual_energy_kraus_never_worse():
    model = minimal_as_chain()
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    unit = chain.residual_energy(model, 0, meas)
    kraus = chain.residual_energy(model, 0, meas, search_space="kraus2")
    assert kraus.e_r <= unit.e_r + 1e-10 * model.energy_scale
    # two sites leave no extraction site three apart, so no certificate value
    assert kraus.e_b_max is None


def test_residual_energy_ordering_ising(ising8):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    res = chain.residual_energy(ising8, 1, meas)
    assert res.e_b_max is not None
    assert res.e_b_max <= res.e_r + 1e-9
    assert res.e_r <= res.e_a + 1e-12
    assert res.e_r > 0


def test_residual_energy_trend_toward_infinite_chain(ising8, ising12):
    # finite-size residuals for the critical chain, reported against the
    # infinite-chain reference (trend only, no equality assertion)
    from qetsim import ising as isg
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    values = {
        8: chain.residual_energy(ising8, 1, meas).e_r,
        10: chain.residual_energy(
            isg.build(isg.IsingParams(1.0, 10)), 1, meas).e_r,
        12: chain.residual_energy(ising12, 1, meas).e_r,
    }
    reference = 6 / math.pi - 1
    assert all(v > 0 for v in values.values())
    for v in values.values():
        assert v < reference  # finite sizes stay below the infinite-chain value
    print(f"  residual cooling energy by size: {values!r} "
          f"(infinite-chain reference {reference:.6f}, different measurement "
          "scheme; trend only)")


def _random_isometry_halves(rng):
    """The two 2x2 halves of a random 4x2 isometry ``q``: ``q[:2]`` and
    ``q[2:]`` form a complete Kraus pair (or two-outcome POVM)."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 2))
                        + 1j * rng.standard_normal((4, 2)))
    return q[:2], q[2:]


def _random_povm(rng, site):
    plus, minus = _random_isometry_halves(rng)
    return core.PovmMeasurement(site, ((1.0, LocalOperator((site,), plus)),
                                       (-1.0, LocalOperator((site,), minus))))


def _branch_grams(model, measurement):
    """``(label, gram)`` of each measured branch of the ground state."""
    g = model.ground.state.amplitudes
    out = []
    for label, mop in measurement.operators:
        branch = core.apply_local(mop, g, model.n_sites)
        out.append((label, core.one_site_gram(
            model.hamiltonian, measurement.site,
            branch / np.linalg.norm(branch))))
    return out


@pytest.mark.parametrize("case", ["ising8", "complex6", "minimal"])
def test_channel_cooling_of_projective_branches_is_unitary(case, request):
    # a projective measurement leaves the measured site pure, and then no
    # channel cools below the best unitary
    model = {"ising8": lambda: request.getfixturevalue("ising8"),
             "complex6": lambda: chain.random_chain_model(
                 6, np.random.default_rng(41), boundary="open"),
             "minimal": minimal_as_chain}[case]()
    scale = model.energy_scale
    for site in range(model.n_sites):
        meas = core.projective_pauli_measurement((0.6, 0.0, 0.8), site)
        for _, gram in _branch_grams(model, meas):
            upper, lower = core.lowest_channel_energy(gram, scale)
            unitary = core.lowest_unitary_energy(gram)[0]
            assert abs(upper - unitary) <= 1e-10 * scale
            assert abs(upper - lower) <= 1e-10 * scale


def test_channel_cooling_certified_on_random_povms():
    rng = np.random.default_rng(61)
    vecs = np.array([np.reshape(_random_isometry_halves(rng), (2, 4))
                     for _ in range(1000)])
    for seed in range(6):
        model = chain.random_chain_model(6, np.random.default_rng(seed),
                                         boundary="open")
        scale = model.energy_scale
        meas = _random_povm(rng, int(rng.integers(6)))
        for _, gram in _branch_grams(model, meas):
            upper, lower = core.lowest_channel_energy(gram, scale)
            assert abs(upper - lower) <= 1e-10 * scale
            assert upper <= core.lowest_unitary_energy(gram)[0] + 1e-12 * scale
            # the dual bound holds for every sampled channel
            sampled = np.einsum("nki,ij,nkj->n", vecs.conj(), gram, vecs).real
            assert sampled.min() >= lower - 1e-12 * scale


def test_channel_beats_every_unitary_on_pinned_branch():
    model = chain.random_chain_model(6, np.random.default_rng(423),
                                     boundary="open")
    meas = _random_povm(np.random.default_rng(523), 5)
    gram = dict(_branch_grams(model, meas))[-1.0]
    upper, lower = core.lowest_channel_energy(gram, model.energy_scale)
    assert core.lowest_unitary_energy(gram)[0] == pytest.approx(0.214065,
                                                                abs=1e-6)
    assert upper == pytest.approx(0.158463, abs=1e-6)
    assert upper - lower <= 1e-10 * model.energy_scale


@pytest.mark.parametrize("seed", range(4))
def test_residual_energy_kraus_not_above_unitary(seed):
    model = chain.random_chain_model(6, np.random.default_rng(300 + seed),
                                     boundary="open")
    meas = _random_povm(np.random.default_rng(400 + seed), 5)
    unit = chain.residual_energy(model, 5, meas)
    kraus = chain.residual_energy(model, 5, meas, search_space="kraus2")
    assert kraus.e_r <= unit.e_r + 1e-12 * model.energy_scale
    assert kraus.e_a == unit.e_a


@pytest.mark.parametrize("search_space", ["unitary", "kraus2"])
def test_residual_energy_of_zero_chain_ends_in_invariant(search_space):
    zero = np.zeros((2, 2))
    model = ChainModel(6, "open", (zero,) * 6,
                       (Channel((core.PAULI_X,) * 6, (0.0,) * 5),), (0.0,) * 6)
    assert model.energy_scale == 0.0
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    with pytest.raises(InvariantViolation, match="no extraction direction"):
        chain.residual_energy(model, 0, meas, search_space=search_space)


def _direct_cooling_energy(op, n_sites, site, psi, kraus):
    """Reference objective: ``sum_k <K_k psi|O|K_k psi>`` on the full state."""
    val = 0.0
    for kmat in kraus:
        w = core.apply_local(LocalOperator((site,), kmat), psi, n_sites)
        val += np.vdot(w, op @ w).real
    return val


@pytest.mark.parametrize("search_space", ["unitary", "kraus2"])
@pytest.mark.parametrize("case", ["ising8", "complex6", "minimal"])
def test_cooling_gram_matches_direct_energy(case, search_space, request):
    if case == "minimal":
        # the two-qubit "general" family: H_B + V after a measurement at A,
        # searched at B
        model = minimal.build(minimal.MinimalParams(1.0, 1.0))
        op, n_sites = model.h_b + model.v, 2
        meas = minimal.random_commuting_povm(np.random.default_rng(5), 3)
        branches = [(1, core.apply_local(mop, model.ground.amplitudes, 2))
                    for _, mop in meas.operators]
    else:
        if case == "ising8":
            model, sites = request.getfixturevalue("ising8"), (1, 4)
        else:
            model = chain.random_chain_model(6, np.random.default_rng(31),
                                             boundary="open")
            assert np.iscomplexobj(model.hamiltonian)
            sites = (0, 3, 5)
        op, n_sites = model.hamiltonian, model.n_sites
        g = model.ground.state.amplitudes
        branches = [
            (site, core.apply_local(mop, g, n_sites))
            for site in sites
            for _, mop in core.projective_pauli_measurement(
                (0.6, 0.0, 0.8), site).operators]
    rng = np.random.default_rng(13)
    for site, branch in branches:
        psi = branch / np.linalg.norm(branch)
        gram = core.one_site_gram(op, site, psi)
        got, want = [], []
        for _ in range(50):
            if search_space == "unitary":
                q = rng.standard_normal(4)
                kraus = (core.su2_unitary(q / np.linalg.norm(q)),)
            else:
                kraus = _random_isometry_halves(rng)
            got.append(core.one_site_energy(gram, kraus))
            want.append(_direct_cooling_energy(op, n_sites, site, psi, kraus))
        got, want = np.array(got), np.array(want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _nan_hamiltonian(monkeypatch):
    monkeypatch.setattr(ChainModel, "apply_hamiltonian",
                        lambda self, vec: np.full(np.shape(vec), np.nan))


def test_residual_energy_rejects_nan_hamiltonian(ising8, monkeypatch):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    _nan_hamiltonian(monkeypatch)
    with pytest.raises(InvariantViolation):
        chain.residual_energy(ising8, 1, meas)


def test_residual_energy_ordering_fails_on_nan(ising8, monkeypatch):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    monkeypatch.setattr(chain, "best_teleportable_energy",
                        lambda model, measurement: (math.nan, 5))
    with pytest.raises(InvariantViolation, match="teleportable energy nan"):
        chain.residual_energy(ising8, 1, meas)


_X_AT_0 = core.projective_pauli_measurement((1.0, 0, 0), 0)
_Y_AT_4 = LocalOperator((4,), core.PAULI_Y)
NAN_ROUTES = {
    "run_protocol": lambda model: chain.run_protocol(
        model, ChainProtocolSpec(0, 4, _X_AT_0, _Y_AT_4, 0.1)),
    "eta_xi": lambda model: chain.eta_xi(
        model, core.pauli_component((1.0, 0, 0), 0), _Y_AT_4),
    "energy_distribution": lambda model: chain.energy_distribution(
        model, 0, _X_AT_0, (4,), thetas=(0.1,)),
}


@pytest.mark.parametrize("route", sorted(NAN_ROUTES))
def test_nan_hamiltonian_fails_every_route(ising8, monkeypatch, route):
    _nan_hamiltonian(monkeypatch)
    with pytest.raises(InvariantViolation, match="nan"):
        NAN_ROUTES[route](ising8)


# ---------------------------------------------------- energy distribution


def test_distribution_single_site_reduces_to_protocol(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    g_b = LocalOperator((6,), core.PAULI_Y)
    sigma_a = core.pauli_component((1.0, 0, 0), 0)
    eta, xi = chain.eta_xi(ising12, sigma_a, g_b)
    theta_opt, _ = chain.optimal_angle(eta, xi)
    run = chain.run_protocol(
        ising12, ChainProtocolSpec(0, 6, meas, g_b, theta_opt))
    dist = chain.energy_distribution(ising12, 0, meas, (6,), (theta_opt,))
    # one engine: a one-site distribution is the protocol run itself
    assert dist.entries[0][2] == run.e_b
    assert dist.e_a == run.e_a


@pytest.mark.parametrize("sites, thetas", [
    ((3, 9), "auto"),
    ((3, 6, 9), (0.02, -0.3, 0.7)),
])
def test_distribution_entries_sum_to_total_drop(ising12, sites, thetas):
    meas = core.projective_pauli_measurement((0.6, 0.0, 0.8), 0)
    dist = chain.energy_distribution(ising12, 0, meas, sites, thetas)
    tol = 1e-12 * ising12.energy_scale
    energies = [e for _, _, e in dist.entries]
    assert [s for s, _, _ in dist.entries] == list(sites)
    assert abs(math.fsum(energies) - (dist.e_a - dist.residual_total)) <= tol
    assert dist.total_extracted == sum(energies)


NONFINITE_ANGLES = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("theta", NONFINITE_ANGLES)
def test_protocol_refuses_nonfinite_angle(ising8, theta):
    with pytest.raises(ValueError, match=f"^angle must be finite, got {theta}$"):
        chain.run_protocol(
            ising8, ChainProtocolSpec(0, 4, _X_AT_0, _Y_AT_4, theta))


@pytest.mark.parametrize("theta", NONFINITE_ANGLES)
def test_distribution_refuses_nonfinite_angle(ising8, theta):
    with pytest.raises(ValueError, match=f"^angle must be finite, got {theta}$"):
        chain.energy_distribution(ising8, 0, _X_AT_0, (4,), (theta,))


def test_distribution_checks_input_energy():
    # a constant added to the density at A moves the local input energy
    # but not the Hamiltonian, so the two input routes disagree
    model = ising.build(ising.IsingParams(1.0, 8))
    terms = list(model.terms)
    term = terms[0]
    terms[0] = LocalOperator(
        term.support, term.matrix + 1e-6 * np.eye(term.matrix.shape[0]))
    model.__dict__["terms"] = tuple(terms)
    with pytest.raises(InvariantViolation, match="input energy around A"):
        chain.energy_distribution(model, 0, _X_AT_0, (4,), (0.1,))


def test_distribution_symmetric_sites_equal(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    dist = chain.energy_distribution(ising12, 0, meas, (3, 9))
    energies = {site: e for site, _, e in dist.entries}
    assert energies[3] == pytest.approx(energies[9], abs=1e-10)
    assert dist.total_extracted <= dist.e_a + 1e-10


def test_distribution_bound_random_configurations(random_chains10):
    rng = np.random.default_rng(99)
    count = 0
    for model in random_chains10:
        for _ in range(4):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            site_a = int(rng.integers(0, model.n_sites))
            meas = core.projective_pauli_measurement(tuple(u), site_a)
            sites = ((site_a + 3) % 10, (site_a + 6) % 10)
            thetas = tuple(rng.uniform(-0.5, 0.5, size=2))
            dist = chain.energy_distribution(model, site_a, meas, sites, thetas)
            assert dist.total_extracted <= dist.e_a + 1e-10
            count += 1
    assert count == 20


@pytest.mark.filterwarnings("ignore:separation 3")
def test_distribution_takes_angles_as_array(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 3)
    as_tuple = chain.energy_distribution(ising12, 3, meas, (6, 9), (0.1, 0.2))
    as_array = chain.energy_distribution(ising12, 3, meas, (6, 9),
                                         np.array([0.1, 0.2]))
    assert as_array.entries == as_tuple.entries
    assert as_array.total_extracted == as_tuple.total_extracted
    with pytest.raises(ValueError,
                       match="^angles must be numbers or 'auto', got '0.1'$"):
        chain.energy_distribution(ising12, 3, meas, (6,), "0.1")


def test_distribution_rejects_overlap(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    with pytest.raises(ValueError):
        chain.energy_distribution(ising12, 0, meas, (4, 5), (0.1, 0.1))


@pytest.mark.parametrize("site_a, sites, thetas", [
    (0, (2,), (0.1,)),         # extraction region overlaps the measured one
    (0, (10,), (0.1,)),        # two apart across the periodic wrap
    (0, (12,), (0.1,)),        # extraction site out of range
    (0, (-1,), (0.1,)),
    (0, (6, 6), (0.1, 0.1)),   # repeated extraction site
    (0, (6,), (0.1, 0.2)),     # one angle per site
    (12, (), ()),              # measured site out of range, no extraction
    (12, (), "auto"),
    (12, (6,), (0.1,)),
])
def test_distribution_rejects_bad_sites(ising12, site_a, sites, thetas):
    meas = core.projective_pauli_measurement((1.0, 0, 0), site_a)
    with pytest.raises(ValueError):
        chain.energy_distribution(ising12, site_a, meas, sites, thetas)


def test_distribution_warns_below_separation_five(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    with pytest.warns(UserWarning, match="separation 4 < 5"):
        chain.energy_distribution(ising12, 0, meas, (4,), (0.1,))


def test_distribution_warns_once_per_site_outside_chain(ising12):
    meas = core.projective_pauli_measurement((1.0, 0, 0), 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chain.energy_distribution(ising12, 0, meas, (4, 8))
    # thetas="auto" also computes eta and xi; the pair warns only once
    assert [str(w.message).split(":")[0] for w in caught] == [
        "separation 4 < 5"] * 2
    assert all(Path(w.filename) == Path(__file__) for w in caught)


def test_general_two_channel_site_dependent_model():
    # fully general density: two channels, different operator at every site
    rng = np.random.default_rng(4242)

    def rand_herm():
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        return a * core.PAULI_X + b * core.PAULI_Y + c * core.PAULI_Z

    n = 8
    channels = []
    for _ in range(2):
        y_ops = tuple(rand_herm() for _ in range(n))
        couplings = tuple(rng.uniform(0.2, 0.6) * rng.choice([-1.0, 1.0])
                          for _ in range(n - 1))
        channels.append(Channel(y_ops, couplings))
    model = ChainModel(
        n, "open",
        tuple(rand_herm() + 0.5 * core.PAULI_Z for _ in range(n)),
        tuple(channels), (0.0,) * n,
    )
    assert not model.ground.degenerate
    model = chain.normalize(model)

    total = sum(core.embed_local(t, n) for t in model.terms)
    assert np.abs(total - as_dense(model.hamiltonian)).max() < 1e-12

    meas = core.projective_pauli_measurement((0.0, 0.0, 1.0), 1)
    sigma_a = core.pauli_component((0.0, 0.0, 1.0), 1)
    g_b = LocalOperator((5,), core.PAULI_Y)
    eta, xi = chain.eta_xi(model, sigma_a, g_b)
    theta_opt, e_b_max = chain.optimal_angle(eta, xi)
    run = chain.run_protocol(
        model, ChainProtocolSpec(1, 5, meas, g_b, theta_opt))
    assert abs(run.e_b - e_b_max) < 1e-10
    assert run.local_energy_b == pytest.approx(-run.e_b, abs=1e-10)

    w = chain.negative_density_witness(model, 3)
    val = model.site_energies(w.witness_state.amplitudes)[3]
    assert abs(val - w.epsilon_minus) < 1e-10


# ------------------------------------------------- beyond the dense limit


def test_krylov_ground_beyond_dense_limit():
    rng = np.random.default_rng(5)
    model = chain.random_chain_model(13, rng, boundary="open")
    assert abs(model.ground.energy) < 1e-9  # normalized through the Krylov path
    # independent sparse-matrix route to the ground energy
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    def embedded(factors):
        acc = sp.identity(1, dtype=complex, format="csr")
        for s in range(13):
            blk = factors.get(s)
            blk = sp.identity(2, dtype=complex, format="csr") if blk is None \
                else sp.csr_matrix(blk)
            acc = sp.kron(acc, blk, format="csr")
        return acc

    total = sp.csr_matrix((2**13, 2**13), dtype=complex)
    for n in range(13):
        total = total + embedded({n: model.x_ops[n] - model.shifts[n] * np.eye(2)})
    for ch in model.channels:
        for bond in range(model.n_bonds):
            a, b = model.bond_sites(bond)
            total = total + embedded(
                {a: ch.couplings[bond] * ch.y_ops[a], b: ch.y_ops[b]})
    ref = eigsh(total, k=1, which="SA", return_eigenvectors=False)[0]
    assert abs(ref - model.ground.energy) < 1e-9


def free_spin_chain(n, seed):
    """Random open chain on ``n - 1`` sites plus one uncoupled zero-field site.

    Every level is exactly doubly degenerate; the levels are otherwise
    generic (complex, ``2**(n - 1)`` distinct values).
    """
    base = chain.random_chain_model(n - 1, np.random.default_rng(seed),
                                    boundary="open")
    return ChainModel(
        n, "open", base.x_ops + (np.zeros((2, 2)),),
        tuple(Channel(ch.y_ops + (ch.y_ops[0],), ch.couplings + (0.0,))
              for ch in base.channels),
        tuple(0.0 for _ in range(n)))


def xyz_chain(n, seed):
    """Real open XYZ chain with random couplings and no field.

    For odd ``n`` the global spin flips about x and z anticommute, so every
    level is exactly doubly degenerate.
    """
    rng = np.random.default_rng(seed)
    return ChainModel(
        n, "open", tuple(np.zeros((2, 2)) for _ in range(n)),
        tuple(Channel(tuple(p for _ in range(n)),
                      tuple(rng.uniform(-1.0, 1.0, size=n - 1)))
              for p in (core.PAULI_X, core.PAULI_Y, core.PAULI_Z)),
        tuple(0.0 for _ in range(n)))


@pytest.fixture
def krylov_calls(monkeypatch):
    calls = []
    solve = core._krylov_lowest_pair

    def counted(*args):
        calls.append(args[1])
        return solve(*args)

    monkeypatch.setattr(core, "_krylov_lowest_pair", counted)
    return calls


def _check_against_dense(model, krylov_calls):
    ham = model.hamiltonian
    assert ham.shape[0] > core.DENSE_DIM_LIMIT
    krylov_calls.clear()
    gs = core.ground_state(ham)
    assert krylov_calls == [ham.shape[0]]
    vals, vecs = np.linalg.eigh(as_dense(ham))
    assert gs.energy == pytest.approx(vals[0], abs=1e-9)
    assert gs.degenerate == (vals[1] - vals[0] < core.GAP_DEGENERATE)
    return gs, vals, vecs


@pytest.mark.parametrize("index", range(5))
def test_krylov_matches_dense_eigh_complex(random_chains10, index, krylov_calls):
    model = random_chains10[index]
    assert np.iscomplexobj(model.hamiltonian)
    gs, vals, vecs = _check_against_dense(model, krylov_calls)
    assert not gs.degenerate
    assert gs.gap == pytest.approx(vals[1] - vals[0], abs=1e-8)
    overlap = abs(np.vdot(vecs[:, 0], gs.state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_krylov_matches_dense_eigh_real(n, krylov_calls):
    model = ising.build(ising.IsingParams(1.0, n))
    assert not np.iscomplexobj(model.hamiltonian)
    gs, vals, vecs = _check_against_dense(model, krylov_calls)
    assert not gs.degenerate
    assert gs.gap == pytest.approx(vals[1] - vals[0], abs=1e-8)
    overlap = abs(np.vdot(vecs[:, 0], gs.state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("build,n,seed", [
    (free_spin_chain, 10, 0), (free_spin_chain, 10, 1),
    (free_spin_chain, 10, 2),
    (xyz_chain, 9, 0), (xyz_chain, 11, 1), (xyz_chain, 11, 2),
])
def test_krylov_sees_repeated_ground_level(build, n, seed, krylov_calls):
    # one Lanczos start vector spans only one direction of a repeated level
    gs, vals, _ = _check_against_dense(build(n, seed), krylov_calls)
    assert gs.degenerate
    assert 0.0 <= gs.gap < core.GAP_DEGENERATE


def test_krylov_ground_is_deterministic():
    # the Krylov start vector is seeded: identical solves agree bit for bit
    first, second = (
        chain.random_chain_model(13, np.random.default_rng(5), boundary="open")
        for _ in range(2))
    assert first.shifts == second.shifts
    ham = first.hamiltonian
    assert core.ground_state(ham).energy == core.ground_state(ham).energy


@pytest.mark.parametrize("n", [10, 13])
def test_decoupled_chain_exact_null_vector(n):
    # every eigenvalue is an even integer and the unique ground energy is 0
    gs = decoupled_chain(n).ground
    assert gs.energy == pytest.approx(0.0, abs=1e-9)
    assert gs.gap == pytest.approx(2.0, abs=1e-9)
    assert not gs.degenerate


def test_protocol_multi_outcome_povm(ising8):
    # three-outcome measurement with numeric labels drives the same checks
    rng = np.random.default_rng(61)
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(z)
    meas = core.PovmMeasurement(1, (
        (-1.0, LocalOperator((1,), q[0:2, :])),
        (0.0, LocalOperator((1,), q[2:4, :])),
        (1.0, LocalOperator((1,), q[4:6, :])),
    ))
    g_b = LocalOperator((5,), core.PAULI_Y)
    run = chain.run_protocol(ising8, ChainProtocolSpec(1, 5, meas, g_b, 0.07))
    assert len(run.outcomes) == 3
    assert sum(o.probability for o in run.outcomes) == pytest.approx(
        1.0, abs=1e-10)
    assert run.local_energy_b == pytest.approx(-run.e_b, abs=1e-10)


def test_povm_outcome_limit():
    ident = LocalOperator((0,), np.eye(2) / 3.0)
    ops = tuple((float(i), ident) for i in range(9))
    with pytest.raises(ValueError):
        core.PovmMeasurement(0, ops)


# ------------------------------------------------------------- model files


def test_chain_file_round_trip(tmp_path):
    text = """
# critical chain, four sites
n_sites  = 4
boundary = open
x        = -1*z
bond     = x ; -1.0
"""
    path = tmp_path / "model.chain"
    path.write_text(text)
    model = chain.load_chain_model(path)
    assert model.n_sites == 4
    assert model.boundary == "open"
    assert np.allclose(model.x_ops[0], -core.PAULI_Z)
    assert model.channels[0].couplings == (-1.0, -1.0, -1.0)


def test_chain_file_per_site_and_per_bond(tmp_path):
    text = """
n_sites  = 4
boundary = periodic
x        = -1*z
x[2]     = -1*z + 0.25*x
bond     = x ; -1.0, -0.5, -1.0, -0.25
"""
    path = tmp_path / "model.chain"
    path.write_text(text)
    model = chain.load_chain_model(path)
    assert np.allclose(model.x_ops[2], -core.PAULI_Z + 0.25 * core.PAULI_X)
    assert model.channels[0].couplings == (-1.0, -0.5, -1.0, -0.25)


def test_chain_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.chain"
    path.write_text("n_sites = 4\nbond = x\n")
    with pytest.raises(ValueError, match="line 2"):
        chain.load_chain_model(path)
    path.write_text("n_sites = 4\nx = q+z\n")
    with pytest.raises(ValueError, match="line 2"):
        chain.load_chain_model(path)
    path.write_text("boundary = open\nx = z\n")
    with pytest.raises(ValueError, match="n_sites"):
        chain.load_chain_model(path)
    for site in (6, -1):
        path.write_text(f"n_sites = 6\nx = -1*z\nx[{site}] = z\nbond = x ; -1\n")
        with pytest.raises(ValueError, match=f"line 3: site {site} out of range"):
            chain.load_chain_model(path)
