"""Seeded invariant suites for every module, runnable from the CLI.

Each check returns a pass flag plus a short deterministic detail string
(no timings, no addresses), so repeated runs with the same seed produce
byte-identical reports.  Worsts use numpy's max and min, over a running
pair or over a whole stack of samples; both keep a NaN that the builtins
would skip after a number, so a NaN anywhere fails its check.  The sampled
minimal checks (no local extraction, time evolution, passivity) draw their
samples in the order one-at-a-time draws would take them, then evaluate
them as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chain, core, field, ising, minimal
from .chain import ChainProtocolSpec
from .core import LocalOperator
from .field import FieldProtocolSpec, Profile


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _check(results, suite, name, passed, detail=""):
    results.append(CheckResult(suite, name, bool(passed), detail))


def suite_core(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    worst = 0.0
    for _ in range(20):
        n_out = int(rng.integers(2, 5))
        z = rng.standard_normal((2 * n_out, 2)) + 1j * rng.standard_normal((2 * n_out, 2))
        q, _ = np.linalg.qr(z)
        total = sum(q[2 * i:2 * i + 2, :].conj().T @ q[2 * i:2 * i + 2, :]
                    for i in range(n_out))
        worst = np.max([worst, float(np.abs(total - np.eye(2)).max())])
    _check(out, "core", "povm-completeness", worst < 1e-10, f"max dev {worst:.3e}")

    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(z)
    meas = core.PovmMeasurement(1, tuple(
        (float(i), LocalOperator((1,), q[2 * i:2 * i + 2, :])) for i in range(3)))
    worst = 0.0
    for _ in range(100):
        state = core.random_state(3, rng)
        outcomes = core.apply_measurement(state, meas)
        worst = np.max([worst, abs(sum(o.probability for o in outcomes) - 1.0)])
    _check(out, "core", "probability-conservation", worst < 1e-10,
           f"max |sum p - 1| {worst:.3e}")

    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ea = core.embed_local(LocalOperator((0,), a), 3)
        eb = core.embed_local(LocalOperator((2,), b), 3)
        worst = np.max([worst, float(np.abs(ea @ eb - eb @ ea).max())])
    _check(out, "core", "locality-commutators", worst < 1e-12, f"max {worst:.3e}")

    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = h + h.conj().T
    gs = core.ground_state(h)
    ok = all(core.expectation(core.random_state(4, rng), h) >= gs.energy - 1e-10
             for _ in range(100))
    _check(out, "core", "spectral-sanity", ok, "100 random states")

    ok = True
    for _ in range(25):
        s = core.von_neumann_entropy(
            core.reduced_density(core.random_state(4, rng), (0, 2)))
        ok = ok and -1e-12 <= s <= 2 * math.log(2) + 1e-10
    _check(out, "core", "entropy-bounds", ok, "25 random states")
    return out


def suite_minimal(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    worst_a = worst_b = worst_id = 0.0
    order_ok = True
    for _ in range(20):
        h, k = rng.uniform(0.1, 10.0, size=2)
        params = minimal.MinimalParams(float(h), float(k))
        theta, e_b_max = minimal.optimize(params)
        run = minimal.run_protocol(params, theta)
        worst_a = np.max([worst_a, abs(run.e_a - minimal.input_energy(params))])
        worst_b = np.max([worst_b, abs(run.e_b - e_b_max)])
        worst_id = np.max([worst_id,
                           abs(minimal.output_energy(params, theta) - e_b_max)])
        order_ok = order_ok and 0 <= e_b_max < minimal.input_energy(params)
    _check(out, "minimal", "closed-form-equivalence",
           worst_a < 1e-11 and worst_b < 1e-11,
           f"max dev E_A {worst_a:.3e} E_B {worst_b:.3e}")
    _check(out, "minimal", "angle-identity", worst_id < 1e-12,
           f"max dev {worst_id:.3e}")
    _check(out, "minimal", "energy-order", order_ok, "20 parameter draws")

    params = minimal.MinimalParams(1.0, 1.0)
    deficits = minimal.local_cooling_deficit(params, core.haar_unitary(2, rng, 200))
    worst = np.max(deficits)
    _check(out, "minimal", "no-local-extraction", worst <= 1e-12,
           f"max deficit {worst:.3e}")

    worst = 0.0
    for _ in range(5):
        h, k = rng.uniform(0.1, 3.0, size=2)
        p = minimal.MinimalParams(float(h), float(k))
        times = np.linspace(0.0, math.pi / p.k, 20)
        hb, v = minimal.evolved_local_energies(p, times)
        closed = [minimal.hb_evolution(p, float(t)) for t in times]
        worst = np.max([worst, np.max(np.abs(hb - closed)), np.max(np.abs(v))])
    _check(out, "minimal", "time-evolution", worst < 1e-9, f"max dev {worst:.3e}")

    sites = np.empty(200, dtype=int)
    gaussians = np.empty((200, 2, 2), dtype=complex)
    for i in range(200):  # each sample draws its site, then its unitary
        sites[i] = rng.integers(0, 2)
        gaussians[i] = core.complex_gaussian(2, rng)
    energies = minimal.local_unitary_energies(params, sites,
                                              core.haar_from_gaussian(gaussians))
    worst = np.min(energies)
    _check(out, "minimal", "passivity", worst >= -1e-12, f"min energy {worst:.3e}")

    bound = minimal.entanglement_bound(params, minimal.sigma_x_measurement())
    ok = bound.holds and abs(bound.delta_s - 0.41652) < 5e-5
    for _ in range(20):
        meas = minimal.random_commuting_povm(rng, int(rng.integers(2, 5)))
        h, k = rng.uniform(0.1, 10.0, size=2)
        b = minimal.entanglement_bound(
            minimal.MinimalParams(float(h), float(k)), meas)
        ok = ok and b.holds
    _check(out, "minimal", "entanglement-bound", ok,
           f"projective delta_S {bound.delta_s:.6f} rhs {bound.bound_rhs:.6f}")
    return out


def suite_chain(seed: int) -> list[CheckResult]:
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*separation.*")
        return _suite_chain_inner(seed)


def _suite_chain_inner(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    model = ising.build(ising.IsingParams(1.0, 8))
    amp = model.ground.state.amplitudes
    worst = np.max(np.abs(model.site_energies(amp)))
    _check(out, "chain", "normalization", worst < 1e-9 and
           abs(model.ground.energy) < 1e-9,
           f"max density {worst:.3e} ground {model.ground.energy:.3e}")

    meas = core.projective_pauli_measurement((1.0, 0, 0), 1)
    sigma_a = core.pauli_component((1.0, 0, 0), 1)
    g_b = LocalOperator((5,), core.PAULI_Y)
    eta, xi = chain.eta_xi(model, sigma_a, g_b)
    theta_opt, e_b_max = chain.optimal_angle(eta, xi)
    worst = 0.0
    for theta in (0.0, theta_opt, 0.01, -0.01):
        run = chain.run_protocol(model, ChainProtocolSpec(1, 5, meas, g_b, theta))
        worst = np.max([worst, abs(run.e_b - chain.qubit_closed_form(eta, xi, theta))])
    _check(out, "chain", "route-equivalence", worst < 1e-10,
           f"max dev {worst:.3e}")

    lin_ok = True
    for theta in (1e-4, 1e-3, 1e-2):
        dev = abs(chain.qubit_closed_form(eta, xi, theta) - theta * eta)
        lin_ok = lin_ok and dev <= 2 * xi * theta**2
    sign_ok = chain.qubit_closed_form(eta, xi, math.copysign(1e-3, eta)) > 0
    _check(out, "chain", "small-angle", lin_ok and sign_ok,
           "linearization and sign rule")

    w = chain.negative_density_witness(model, 3)
    _check(out, "chain", "negative-density", w.epsilon_minus < 0
           and w.factorization_broken, f"eps_- {w.epsilon_minus:.6f}")

    res = chain.residual_energy(model, 1, meas)
    ok = (res.e_b_max is not None and res.e_b_max <= res.e_r + 1e-9
          and res.e_r <= res.e_a + 1e-12 and res.e_r > 0)
    _check(out, "chain", "residual-ordering", ok,
           f"E_B {res.e_b_max:.3e} E_r {res.e_r:.6f} E_A {res.e_a:.6f}")

    rmodel = chain.random_chain_model(8, rng, boundary="periodic")
    ok = True
    for _ in range(5):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        site_a = int(rng.integers(0, 8))
        m2 = core.projective_pauli_measurement(tuple(u), site_a)
        sites = ((site_a + 3) % 8,)
        thetas = (float(rng.uniform(-0.5, 0.5)),)
        dist = chain.energy_distribution(rmodel, site_a, m2, sites, thetas)
        ok = ok and dist.total_extracted <= dist.e_a + 1e-10
    _check(out, "chain", "distribution-bound", ok, "5 seeded configurations")

    worst = math.inf
    for _ in range(100):
        site = int(rng.integers(0, 8))
        u = LocalOperator((site,), core.haar_unitary(2, rng))
        vec = core.apply_local(u, amp, 8)
        worst = np.min([worst, float(np.vdot(vec, model.apply_hamiltonian(vec)).real)])
    _check(out, "chain", "passivity", worst >= -1e-12, f"min {worst:.3e}")
    return out


def suite_ising(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    d1 = ising.delta_log(1)
    d2 = ising.delta_log(2)
    r1 = abs(d1.log_abs - math.log(2 / (3 * math.pi))) / abs(math.log(2 / (3 * math.pi)))
    r2 = abs(d2.log_abs - math.log(16 / (45 * math.pi**2))) / abs(
        math.log(16 / (45 * math.pi**2)))
    _check(out, "ising", "delta-exact", r1 < 1e-14 and r2 < 1e-14,
           f"rel {r1:.2e} {r2:.2e}")

    n = 200
    asc = ising.log_h(n)
    dsc = math.fsum((n - k) * math.log(k) for k in reversed(range(1, n)))
    _check(out, "ising", "log-accumulation-stability",
           abs(asc - dsc) <= 1e-9 * abs(asc), f"rel {abs(asc - dsc) / abs(asc):.2e}")

    values = [ising.analytic_energies(1.0, k).e_b for k in range(1, 61)]
    e_a = 6.0 / math.pi
    ok = (all(v > 0 for v in values)
          and all(a > b for a, b in zip(values, values[1:]))
          and all(v < e_a for v in values))
    _check(out, "ising", "output-energy-shape", ok, "n = 1..60")

    devs = []
    for k in (5, 20, 80):
        e_b = ising.analytic_energies(1.0, k).e_b
        approx = math.pi / 4 * math.exp(2 * ising.delta_log(k).log_abs)
        devs.append(abs(e_b - approx) / e_b)
    _check(out, "ising", "small-delta-taylor",
           devs[0] > devs[1] > devs[2] and devs[2] < 1e-9,
           f"rel devs {devs[0]:.2e} {devs[1]:.2e} {devs[2]:.2e}")

    fit = ising.asymptote_check(range(30, 101))
    ok = (abs(fit.exponent + 4.5) < 0.05
          and abs(fit.c_implied - 1.28) / 1.28 < 0.05
          and fit.exponential_residual > 100 * fit.power_law_residual)
    _check(out, "ising", "power-law-asymptote", ok,
           f"exponent {fit.exponent:.4f} c {fit.c_implied:.4f}")
    return out


def suite_field(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    profiles = [
        Profile.sin_squared(0.1, 0.0, 1.0),
        Profile.sin_squared(0.25, -0.7, 0.9),
        Profile.sin_squared(0.08, 1.0, 0.8),
    ]
    worst = 0.0
    prob_dev = 0.0
    for prof in profiles:
        analytic = field.vacuum_overlap(prof)
        oracle = field.finite_mode_oracle(prof)
        worst = np.max([worst, abs(analytic - oracle.overlap) / oracle.overlap])
        prob_dev = np.max([prob_dev, abs(oracle.prob_plus - 0.5)])
    _check(out, "field", "overlap-oracle-agreement", worst < 1e-6,
           f"max rel {worst:.3e}")
    _check(out, "field", "outcome-probability-half", prob_dev < 1e-8,
           f"max dev {prob_dev:.3e}")

    prof = profiles[0]
    base_e = field.input_energy(prof)
    base_o = field.vacuum_overlap(prof)
    ok = (abs(field.input_energy(prof.scaled(2.0)) - 4 * base_e) < 1e-10
          and abs(field.vacuum_overlap(prof.scaled(2.0)) - base_o**4) < 1e-8)
    _check(out, "field", "scaling-laws", ok, "s = 2")

    exact = 0.1**2 * math.pi**2 / 2.0
    errors = [abs(field.input_energy(Profile.sin_squared(0.1, 0.0, 1.0, n)) - exact)
              for n in (129, 257, 513)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    _check(out, "field", "quadrature-order",
           all(abs(o - 2.0) < 0.3 for o in orders),
           f"orders {orders[0]:.2f} {orders[1]:.2f}")

    lam = Profile.sin_squared(0.1, 0.0, 1.0)
    p_b = Profile.sin_squared(0.1, 3.0, 1.0)
    spec = FieldProtocolSpec(lam, p_b, 3.0)
    res = field.output_energy(spec)
    shifted = field.output_energy(FieldProtocolSpec(
        lam.shifted(1.5), p_b.shifted(1.5), 3.0))
    _check(out, "field", "translation-invariance",
           abs(shifted.e_b_max - res.e_b_max) < 1e-10,
           f"dev {abs(shifted.e_b_max - res.e_b_max):.3e}")
    _check(out, "field", "output-identities",
           res.e_b_max > 0
           and abs(res.theta_opt - res.eta / (2 * res.xi)) < 1e-15
           and abs(res.e_b_at_theta - res.e_b_max) < 1e-15,
           f"E_B {res.e_b_max:.6e}")
    return out


SUITES = {
    "core": suite_core,
    "minimal": suite_minimal,
    "chain": suite_chain,
    "ising": suite_ising,
    "field": suite_field,
}


def run_suites(names, seed: int) -> tuple[list[CheckResult], bool]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results, all(r.passed for r in results)
