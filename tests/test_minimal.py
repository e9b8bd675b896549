"""Two-qubit model: closed forms against direct 4x4 numerics."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qetsim
from qetsim import core, minimal, verify
from qetsim.core import LocalOperator, PovmMeasurement
from qetsim.minimal import MinimalParams

RNG_BOX = (0.1, 10.0)


def random_params(rng):
    h, k = rng.uniform(*RNG_BOX, size=2)
    return MinimalParams(float(h), float(k))


def test_params_validated():
    with pytest.raises(ValueError):
        MinimalParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        MinimalParams(1.0, 0.0)


@pytest.mark.parametrize("h, k", [(math.inf, 1.0), (1.0, math.inf),
                                  (math.nan, 1.0)])
def test_params_reject_non_finite(h, k):
    with pytest.raises(ValueError, match="finite"):
        MinimalParams(h, k)


def test_build_symmetric_point():
    model = minimal.build(MinimalParams(1.0, 1.0))
    vals = np.linalg.eigvalsh(model.hamiltonian)
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    # amplitudes in the (++, +-, -+, --) basis
    expected = np.array([
        math.sqrt(1 - 1 / math.sqrt(2)) / math.sqrt(2), 0.0, 0.0,
        -math.sqrt(1 + 1 / math.sqrt(2)) / math.sqrt(2),
    ])
    assert np.abs(model.ground.amplitudes - expected).max() < 1e-14


def test_build_memoized_and_read_only():
    minimal.build.cache_clear()
    model = minimal.build(MinimalParams(1.5, 0.5))
    assert minimal.build(MinimalParams(1.5, 0.5)) is model
    assert minimal.build.cache_info().misses == 1
    for arr in (model.h_a, model.h_b, model.v, model.hamiltonian,
                model.ground.amplitudes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_suite_minimal_builds_each_model_once(monkeypatch):
    # closed_form_ground runs once per uncached build
    built = []
    closed_form_ground = minimal.closed_form_ground

    def spy(params):
        built.append(params)
        return closed_form_ground(params)

    monkeypatch.setattr(minimal, "closed_form_ground", spy)
    minimal.build.cache_clear()
    verify.suite_minimal(0)
    assert len(built) == len(set(built)) <= 46
    assert minimal.build.cache_info().misses == len(built)
    # the sampled checks build once per check or parameter draw, not
    # once per sample
    assert minimal.build.cache_info().hits > 20


def test_import_leaves_model_caches_empty():
    src = str(Path(qetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import qetsim; from qetsim import ising, minimal; "
         "print(minimal.build.cache_info().currsize, "
         "ising.log_h.cache_info().currsize)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "0 0\n"), proc.stderr


def test_build_zero_expectations_random():
    rng = np.random.default_rng(101)
    for _ in range(20):
        model = minimal.build(random_params(rng))
        for op in (model.h_a, model.h_b, model.v):
            assert abs(core.expectation(model.ground, op)) < 1e-12


def test_ground_state_marginal_spectrum():
    # squared Schmidt coefficients (1 -+ h/sqrt(h^2+k^2))/2 of the ground state
    model = minimal.build(MinimalParams(1.0, 1.0))
    rho_b = core.reduced_density(model.ground, (1,))
    eigs = np.linalg.eigvalsh(rho_b)
    expected = [0.5 * (1 - 1 / math.sqrt(2)), 0.5 * (1 + 1 / math.sqrt(2))]
    assert eigs == pytest.approx(expected, abs=1e-12)
    assert eigs[0] == pytest.approx(0.146447, abs=1e-6)
    assert eigs[1] == pytest.approx(0.853553, abs=1e-6)
    assert core.expectation(model.ground, model.hamiltonian) == pytest.approx(
        0.0, abs=1e-10)


def test_input_energy_values():
    assert minimal.input_energy(MinimalParams(1.0, 1.0)) == pytest.approx(
        1 / math.sqrt(2), abs=1e-14)
    assert minimal.input_energy(MinimalParams(3.0, 4.0)) == pytest.approx(
        1.8, abs=1e-14)
    # k -> 0 limit approaches h
    assert minimal.input_energy(MinimalParams(1.0, 1e-8)) == pytest.approx(
        1.0, abs=1e-8)


def test_input_energy_matches_brute_force():
    rng = np.random.default_rng(103)
    for _ in range(30):
        params = random_params(rng)
        run = minimal.run_protocol(params, 0.3)
        assert abs(run.e_a - minimal.input_energy(params)) < 1e-12


def test_output_energy_zero_angle():
    assert minimal.output_energy(MinimalParams(2.0, 0.7), 0.0) == 0.0


def test_output_energy_at_optimum_matches_reference():
    params = MinimalParams(1.0, 1.0)
    assert minimal.output_energy(params, 0.160875) == pytest.approx(
        0.114748, abs=1e-6)


def test_output_energy_small_angle_slope():
    params = MinimalParams(1.0, 1.0)
    for theta in (1e-5, 1e-4):
        expected = 2 * theta / math.sqrt(2) * 1.0  # 2hk|th|/sqrt(h^2+k^2)
        assert minimal.output_energy(params, theta) == pytest.approx(
            expected, rel=1e-3)
        assert minimal.output_energy(params, theta) > 0


def test_optimize_symmetric_point():
    theta, e_b = minimal.optimize(MinimalParams(1.0, 1.0))
    assert theta == pytest.approx(0.5 * math.atan2(1.0, 3.0), abs=1e-14)
    assert e_b == pytest.approx(0.1147476339401472, abs=1e-13)


def test_optimize_consistency_random():
    rng = np.random.default_rng(107)
    for _ in range(50):
        params = random_params(rng)
        theta, e_b = minimal.optimize(params)
        assert minimal.output_energy(params, theta) == pytest.approx(
            e_b, abs=1e-12)
        assert 0 < 2 * theta < math.pi / 2
        assert 0 <= e_b < minimal.input_energy(params)


def test_optimize_vanishing_coupling():
    _, e_b = minimal.optimize(MinimalParams(1.0, 1e-7))
    assert e_b < 1e-13


def test_run_protocol_probabilities_and_order():
    params = MinimalParams(1.0, 1.0)
    theta, e_b_max = minimal.optimize(params)
    run = minimal.run_protocol(params, theta)
    assert sorted(o.label for o in run.outcomes) == [-1.0, 1.0]
    for outcome in run.outcomes:
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
    assert run.e_a == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert run.e_b == pytest.approx(e_b_max, abs=1e-12)
    assert run.e_a >= run.e_b >= 0
    assert run.residual_total_energy == pytest.approx(run.e_a - run.e_b, abs=1e-12)


def test_run_protocol_zero_angle_leaves_measured_state():
    params = MinimalParams(2.0, 1.0)
    run = minimal.run_protocol(params, 0.0)
    assert run.e_b == pytest.approx(0.0, abs=1e-14)
    measured = {o.label: o.state for o in core.apply_measurement(
        minimal.build(params).ground, minimal.sigma_x_measurement())}
    assert sorted(measured) == sorted(o.label for o in run.outcomes)
    for outcome in run.outcomes:
        assert np.abs(outcome.state.amplitudes
                      - measured[outcome.label].amplitudes).max() < 1e-14


def test_closed_form_brute_force_equivalence_sweep():
    rng = np.random.default_rng(109)
    for _ in range(100):
        params = random_params(rng)
        theta, e_b_max = minimal.optimize(params)
        run = minimal.run_protocol(params, theta)
        assert abs(run.e_a - minimal.input_energy(params)) < 1e-11
        assert abs(run.e_b - e_b_max) < 1e-11


def test_negative_local_energy_at_optimum():
    params = MinimalParams(1.3, 0.8)
    model = minimal.build(params)
    theta, e_b_max = minimal.optimize(params)
    run = minimal.run_protocol(params, theta)
    rho = sum(
        o.probability * np.outer(o.state.amplitudes, o.state.amplitudes.conj())
        for o in run.outcomes
    )
    local_b = np.trace(rho @ (model.h_b + model.v)).real
    assert local_b == pytest.approx(-e_b_max, abs=1e-12)
    assert local_b < 0


def test_local_cooling_identity_is_zero():
    deficit = minimal.local_cooling_deficit(
        MinimalParams(1.0, 1.0), LocalOperator((1,), np.eye(2)))
    assert deficit == pytest.approx(0.0, abs=1e-14)


def test_local_cooling_pauli_y_not_positive():
    deficit = minimal.local_cooling_deficit(
        MinimalParams(1.0, 1.0), LocalOperator((1,), core.PAULI_Y))
    assert deficit <= 1e-12


def test_local_cooling_random_unitaries_never_positive():
    rng = np.random.default_rng(113)
    params = MinimalParams(1.0, 1.0)
    for _ in range(200):
        w = LocalOperator((1,), core.haar_unitary(2, rng))
        assert minimal.local_cooling_deficit(params, w) <= 1e-12


def test_local_cooling_rejects_non_unitary():
    with pytest.raises(ValueError):
        minimal.local_cooling_deficit(
            MinimalParams(1.0, 1.0), LocalOperator((1,), np.diag([1.0, 2.0])))


def test_local_cooling_stack_equals_single_calls():
    rng = np.random.default_rng(137)
    params = random_params(rng)
    stack = core.haar_unitary(2, rng, 200)
    got = minimal.local_cooling_deficit(params, stack)
    want = [minimal.local_cooling_deficit(params, LocalOperator((1,), w))
            for w in stack]
    assert got.shape == (200,)
    assert np.abs(got - want).max() <= 1e-15 * params.coupling_scale
    assert got.max() <= 1e-12
    with pytest.raises(ValueError, match="stack"):
        minimal.local_cooling_deficit(params, stack[0])


@pytest.mark.parametrize("member", [np.diag([1.0, 2.0]), 1e200 * np.eye(2),
                                    np.full((2, 2), np.nan)],
                         ids=["non-unitary", "overflowing", "nan"])
def test_local_cooling_stack_rejects_one_non_unitary_member(member):
    stack = core.haar_unitary(2, np.random.default_rng(139), 20)
    stack[13] = member
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one ValueError, no numpy warnings
        with pytest.raises(ValueError, match=r"W_B \[13\] is not unitary"):
            minimal.local_cooling_deficit(MinimalParams(1.0, 1.0), stack)


def test_local_unitary_energies_match_direct_products():
    rng = np.random.default_rng(149)
    params = random_params(rng)
    model = minimal.build(params)
    sites = rng.integers(0, 2, size=50)
    stack = core.haar_unitary(2, rng, 50)
    got = minimal.local_unitary_energies(params, sites, stack)
    for energy, site, u in zip(got, sites, stack):
        full = np.kron(u, np.eye(2)) if site == 0 else np.kron(np.eye(2), u)
        vec = full @ model.ground.amplitudes
        want = np.vdot(vec, model.hamiltonian @ vec).real
        assert abs(energy - want) <= 1e-14 * params.coupling_scale
    assert got.min() >= -1e-12
    with pytest.raises(ValueError, match="sites"):
        minimal.local_unitary_energies(params, sites[:-1], stack)
    for bad in (sites + 1, sites - 1, sites + 0.5):
        with pytest.raises(ValueError, match="sites"):
            minimal.local_unitary_energies(params, bad, stack)


def test_passivity_random_local_unitaries():
    rng = np.random.default_rng(127)
    model = minimal.build(MinimalParams(1.0, 1.0))
    for _ in range(200):
        site = int(rng.integers(0, 2))
        u = core.haar_unitary(2, rng)
        full = np.kron(u, np.eye(2)) if site == 0 else np.kron(np.eye(2), u)
        val = np.vdot(full @ model.ground.amplitudes,
                      model.hamiltonian @ (full @ model.ground.amplitudes)).real
        assert val >= -1e-12


def test_hb_evolution_closed_form_points():
    params = MinimalParams(1.0, 1.0)
    assert minimal.hb_evolution(params, 0.0) == 0.0
    assert minimal.hb_evolution(params, math.pi / 4) == pytest.approx(
        1 / math.sqrt(2), abs=1e-14)
    assert minimal.hb_evolution(params, math.pi / 2) == pytest.approx(
        0.0, abs=1e-14)


def test_hb_evolution_matches_spectral_evolution():
    rng = np.random.default_rng(131)
    for _ in range(10):
        params = random_params(rng)
        for t in np.linspace(0.0, math.pi / params.k, 20):
            hb, v = minimal.evolved_local_energies(params, float(t))
            assert abs(hb - minimal.hb_evolution(params, float(t))) < 1e-10
            assert abs(v) < 1e-10


def test_evolved_energies_on_a_time_grid_equal_single_calls():
    rng = np.random.default_rng(151)
    for _ in range(5):
        params = random_params(rng)
        times = np.linspace(0.0, math.pi / params.k, 20)
        hb, v = minimal.evolved_local_energies(params, times)
        assert hb.shape == v.shape == (20,)
        for t, hb_t, v_t in zip(times, hb, v):
            single_hb, single_v = minimal.evolved_local_energies(params, float(t))
            assert type(single_hb) is float and type(single_v) is float
            assert abs(hb_t - single_hb) <= 1e-13
            assert abs(v_t - single_v) <= 1e-13


def test_entanglement_bound_projective_reference_case():
    params = MinimalParams(1.0, 1.0)
    bound = minimal.entanglement_bound(params, minimal.sigma_x_measurement())
    assert bound.delta_s == pytest.approx(0.41652, abs=5e-5)
    assert bound.bound_rhs == pytest.approx(0.30341, abs=5e-5)
    assert bound.max_e_b == pytest.approx(0.1147476339401472, abs=1e-9)
    assert bound.holds


def test_entanglement_bound_projective_post_states_product():
    params = MinimalParams(1.0, 1.0)
    model = minimal.build(params)
    for outcome in core.apply_measurement(model.ground,
                                          minimal.sigma_x_measurement()):
        rho_b = core.reduced_density(outcome.state, (1,))
        assert core.von_neumann_entropy(rho_b) < 1e-12


def test_entanglement_bound_trivial_measurement():
    meas = PovmMeasurement(0, ((1.0, LocalOperator((0,), np.eye(2))),))
    bound = minimal.entanglement_bound(MinimalParams(1.0, 1.0), meas)
    assert bound.delta_s == pytest.approx(0.0, abs=1e-12)
    assert bound.max_e_b == pytest.approx(0.0, abs=1e-12)
    assert bound.holds


def test_entanglement_bound_random_commuting_povms():
    rng = np.random.default_rng(137)
    for trial in range(50):
        params = random_params(rng)
        n_out = int(rng.integers(2, 5))
        meas = minimal.random_commuting_povm(rng, n_out)
        bound = minimal.entanglement_bound(params, meas)
        assert bound.delta_s >= -1e-12
        assert bound.holds, (
            f"trial {trial}: delta_s={bound.delta_s} rhs={bound.bound_rhs}"
        )


def test_entanglement_bound_rejects_non_commuting():
    meas = core.projective_pauli_measurement((0.0, 0.0, 1.0), 0)
    with pytest.raises(ValueError):
        minimal.entanglement_bound(MinimalParams(1.0, 1.0), meas)


def test_general_unitary_family_matches_rotation_at_projective_point():
    params = MinimalParams(1.0, 1.0)
    rot = minimal.max_teleported_energy(
        params, minimal.sigma_x_measurement(), "rotation")
    gen = minimal.max_teleported_energy(
        params, minimal.sigma_x_measurement(), "general")
    assert gen >= rot - 1e-9
    assert gen == pytest.approx(rot, abs=1e-7)


def test_general_family_converges_at_large_coupling(monkeypatch):
    # the SU(2) minimum is one exact eigendecomposition: no descent runs, and
    # the output scales with the couplings
    import scipy.optimize
    meas = minimal.random_commuting_povm(np.random.default_rng(3), 3)
    unit = minimal.max_teleported_energy(MinimalParams(1.0, 0.7), meas, "general")

    def refuse(*args, **kwargs):
        raise AssertionError("the general family ran a numerical descent")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    c = 1e9
    big = minimal.max_teleported_energy(MinimalParams(c, 0.7 * c), meas, "general")
    assert abs(big - c * unit) <= 1e-9 * c


def test_general_family_bound_still_holds():
    rng = np.random.default_rng(139)
    for _ in range(5):
        params = random_params(rng)
        meas = minimal.random_commuting_povm(rng, 2)
        bound = minimal.entanglement_bound(params, meas, "general")
        assert bound.holds
