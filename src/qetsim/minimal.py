"""Two-qubit energy-teleportation model: closed forms and brute-force runs.

The model couples qubits A (site 0) and B (site 1) through an x-x interaction
in a transverse z field, with constants chosen so every piece of the
Hamiltonian has zero ground-state expectation.  Closed-form input/output
energies, the optimal rotation angle, the no-local-extraction theorem, free
time evolution and the entanglement-consumption bound are all implemented
next to a direct 4x4 numerical protocol run that must reproduce them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import chain, core
from .core import (
    ATOL_CONSTRUCT,
    LocalOperator,
    Outcome,
    PovmMeasurement,
    StateVector,
    check_at_most,
    check_close,
)

_I4 = np.eye(4, dtype=complex)
_SZ_A = core.kron(core.PAULI_Z, core.PAULI_I)
_SZ_B = core.kron(core.PAULI_I, core.PAULI_Z)
_SX_A = core.kron(core.PAULI_X, core.PAULI_I)
_SX_B = core.kron(core.PAULI_I, core.PAULI_X)
_SY_B = core.kron(core.PAULI_I, core.PAULI_Y)


@dataclass(frozen=True)
class MinimalParams:
    """Field strength ``h`` and coupling ``k``, both positive energies."""

    h: float
    k: float

    def __post_init__(self):
        if not (all(math.isfinite(v) and v > 0 for v in (self.h, self.k))
                and math.isfinite(self.h * self.h + 2 * self.k * self.k)):
            raise ValueError(f"h and k must be finite and positive, with finite "
                             f"h*h/r and 2*k*k/r, got h={self.h}, k={self.k}")
        core.require_normal_scale("max(h, k)", self.coupling_scale)

    @property
    def energy_scale(self) -> float:
        """sqrt(h^2 + k^2), the recurring normalization."""
        return math.hypot(self.h, self.k)

    @property
    def coupling_scale(self) -> float:
        """max(h, k), the declared coupling that tolerances scale with."""
        return max(self.h, self.k)


@dataclass(frozen=True, eq=False)
class MinimalModel:
    params: MinimalParams
    h_a: np.ndarray
    h_b: np.ndarray
    v: np.ndarray
    hamiltonian: np.ndarray
    ground: StateVector


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    e_a: float
    e_b: float
    theta: float
    outcomes: tuple[Outcome, ...]
    residual_total_energy: float


@dataclass(frozen=True, eq=False)
class EntanglementBound:
    delta_s: float
    bound_rhs: float
    holds: bool
    max_e_b: float
    unitary_family: str


def closed_form_ground(params: MinimalParams) -> StateVector:
    """Ground state in the (++, +-, -+, --) basis with A as the first factor."""
    r = params.energy_scale
    up = math.sqrt(1.0 - params.h / r) / math.sqrt(2.0)
    dn = math.sqrt(1.0 + params.h / r) / math.sqrt(2.0)
    return StateVector(2, np.array([up, 0.0, 0.0, -dn], dtype=complex))


@functools.lru_cache(maxsize=8)
def build(params: MinimalParams) -> MinimalModel:
    """Construct operators and the closed-form ground state, verified.

    The last 8 models are kept, so a run that asks again for the same
    (h, k) gets the same read-only model without rebuilding or rechecking
    it; a build that raises is not kept.
    """
    r = params.energy_scale
    h, k = params.h, params.k
    h_a = h * _SZ_A + h * (h / r) * _I4
    h_b = h * _SZ_B + h * (h / r) * _I4
    v = 2 * k * (_SX_A @ _SX_B) + 2 * k * (k / r) * _I4
    ham = h_a + h_b + v
    ground = closed_form_ground(params)

    scale = params.coupling_scale
    for name, op in (("H_A", h_a), ("H_B", h_b), ("V", v)):
        check_close(f"<g|{name}|g> =", core.expectation(ground, op), 0.0,
                    ATOL_CONSTRUCT, scale)
    # The spectrum and the closed form's eigen-equation, in units of the
    # scale: no level below zero, and |H g| small.  When h >> k the closed
    # form's 1 - h/r cancels and |H g| reaches 3e-8 (h/k near 7e7); 1e-7
    # still pins g within 2.5e-8 rad of the ground vector of its parity
    # block, whose gap is 4r.
    unit = ham / scale
    check_at_most("minus the lowest eigenvalue / scale",
                  -np.linalg.eigvalsh(unit)[0], 0.0, 1e-10)
    check_at_most("|H g| / scale of the closed-form ground state",
                  np.linalg.norm(unit @ ground.amplitudes), 0.0, 1e-7)
    for arr in (h_a, h_b, v, ham):
        arr.flags.writeable = False
    return MinimalModel(params, h_a, h_b, v, ham, ground)


def input_energy(params: MinimalParams) -> float:
    """Average energy deposited by the projective x measurement on A."""
    return params.h * (params.h / params.energy_scale)


def _eta_xi(params: MinimalParams) -> tuple[float, float]:
    """``eta = 2hk/r`` and ``xi = 2(h^2 + 2k^2)/r``; each ``ab/r`` is
    evaluated as ``a(b/r)``, which neither underflows nor overflows."""
    h, k = params.h, params.k
    r = params.energy_scale
    return 2 * h * (k / r), 2 * (h * (h / r) + 2 * k * (k / r))


def output_energy(params: MinimalParams, theta: float) -> float:
    """Average energy extracted at B for rotation angle ``theta``."""
    return chain.qubit_closed_form(*_eta_xi(params), theta)


@functools.cache
def _check_grid() -> tuple[np.ndarray, np.ndarray]:
    """``sin(2 theta)`` and ``sin(theta)**2`` on the 10,000-point grid of
    [0, pi) that :func:`optimize` checks its maximum on, computed once."""
    thetas = np.linspace(0.0, math.pi, 10_000, endpoint=False)
    grid = np.sin(2 * thetas), np.sin(thetas) ** 2
    for values in grid:
        values.flags.writeable = False
    return grid


def optimize(params: MinimalParams) -> tuple[float, float]:
    """Optimal angle (2 theta in the first quadrant) and the maximal output."""
    eta, xi = _eta_xi(params)
    theta, e_b_max = chain.optimal_angle(eta, xi)
    sin_2theta, sin_theta_sq = _check_grid()
    sweep = 0.5 * eta * sin_2theta - xi * sin_theta_sq
    check_at_most("theta sweep maximum", sweep.max(), e_b_max, 1e-12,
                  params.coupling_scale)
    return theta, e_b_max


def _projector(alpha: float) -> np.ndarray:
    return 0.5 * (_I4 + alpha * _SX_A)


def _rotation(alpha: float, theta: float) -> np.ndarray:
    return math.cos(theta) * _I4 - 1j * alpha * math.sin(theta) * _SY_B


def run_protocol(params: MinimalParams, theta: float) -> ProtocolResult:
    """Measure x on A, rotate B by the announced sign: direct 4x4 execution.

    The brute-force energies are checked against the closed forms within
    1e-12 max(h, k) before returning.
    """
    model = build(params)
    g = model.ground.amplitudes
    e_a = 0.0
    records = []
    rho = np.zeros((4, 4), dtype=complex)
    for alpha in (1.0, -1.0):
        branch = _projector(alpha) @ g
        p = float(np.vdot(branch, branch).real)
        e_a += np.vdot(branch, model.hamiltonian @ branch).real
        rotated = _rotation(alpha, theta) @ branch
        rho += np.outer(rotated, rotated.conj())
        records.append(Outcome(alpha, p, StateVector(2, rotated / math.sqrt(p))))
    total_after = float(np.trace(rho @ model.hamiltonian).real)
    e_b = e_a - total_after
    scale = params.coupling_scale
    check_close("brute-force input energy", e_a, input_energy(params), 1e-12, scale)
    check_close("brute-force output energy", e_b, output_energy(params, theta),
                1e-12, scale)
    check_at_most("minus the total energy after the protocol", -total_after, 0.0,
                  1e-12, scale)
    return ProtocolResult(e_a, e_b, theta, tuple(records), total_after)


def _unitary_stack(name: str, unitaries) -> np.ndarray:
    """``unitaries`` as a (k, 2, 2) array, each tested for unitarity
    within 1e-10; a product that overflows fails the test."""
    stack = np.asarray(unitaries)
    if stack.ndim != 3 or stack.shape[1:] != (2, 2):
        raise ValueError(f"{name} must be a (k, 2, 2) stack of one-qubit "
                         f"unitaries, got shape {stack.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(2))
    bad = np.flatnonzero(~(dev.max(axis=(1, 2)) <= core.ATOL_ALGEBRA))
    if bad.size:
        raise ValueError(f"{name} [{bad[0]}] is not unitary within 1e-10")
    return stack


def local_cooling_deficit(params: MinimalParams, w_b):
    """Energy change from an outcome-independent unitary on B (never positive).

    ``w_b`` is a :class:`LocalOperator` on site 1, giving a float, or a
    (k, 2, 2) stack of unitaries on B, giving a (k,) array of deficits; a
    single operator is evaluated as a stack of one.  Each deficit is
    E_A - Tr[omega H], where omega is the post-measurement average state
    transformed by the unitary W.  Every unitary is tested for unitarity,
    and every deficit is cross-checked against the equivalent ground-state
    expectation -<g|W^dag (H_B + V) W|g> within 1e-12 max(h, k), before
    returning.
    """
    single = isinstance(w_b, LocalOperator)
    if single and w_b.support != (1,):
        raise ValueError("the cooling unitary must act on qubit B (site 1)")
    stack = _unitary_stack("W_B", w_b.matrix[None] if single else w_b)
    model = build(params)
    g = model.ground.amplitudes
    # a two-qubit vector as the 2x2 array [bit of A, bit of B]: a unitary W
    # on B multiplies it from the right by W^T
    w_t = stack.transpose(0, 2, 1)
    measured = np.stack([_projector(a) @ g for a in (1.0, -1.0)]).reshape(2, 2, 2)
    # row alpha of ``branches[i]``: W_i P_alpha |g>, alpha = +1, -1
    branches = (measured @ w_t[:, None]).reshape(-1, 2, 4)
    # Tr[omega H] with omega the sum of the branches' projectors
    total = core.expectations(branches, model.hamiltonian).real.sum(axis=1)
    deficits = input_energy(params) - total
    direct = -core.expectations((g.reshape(2, 2) @ w_t).reshape(-1, 4),
                                model.h_b + model.v).real
    core.check_close_each("cooling deficit", deficits, direct, 1e-12,
                          params.coupling_scale)
    return deficits.item() if single else deficits


def hb_evolution(params: MinimalParams, t: float) -> float:
    """Closed-form <H_B(t)> of the average post-measurement state."""
    r = params.energy_scale
    return params.h * (params.h / r) / 2 * (1 - math.cos(4 * params.k * t))


def evolved_local_energies(params: MinimalParams, t):
    """(<H_B(t)>, <V(t)>) by spectral evolution of the measured branches.

    ``t`` is a float, giving two floats, or an array of times, giving two
    arrays of its shape; a float is evaluated as an array of one time.  The
    Hamiltonian is diagonalized once per call, and every evolved branch is
    checked to keep its norm within 1e-10.
    """
    times = np.asarray(t, dtype=float)
    model = build(params)
    vals, vecs = np.linalg.eigh(model.hamiltonian)
    # row j of ``phases @ diag(c) @ vecs.T`` is exp(-i H t_j) applied to
    # the branch with eigenbasis coefficients c
    phases = np.exp(-1j * np.multiply.outer(times.ravel(), vals))
    hb = vv = 0.0
    for alpha in (1.0, -1.0):
        branch = _projector(alpha) @ model.ground.amplitudes
        p = float(np.vdot(branch, branch).real)
        out = (phases * (vecs.conj().T @ (branch / math.sqrt(p)))) @ vecs.T
        norm = np.linalg.norm(out, axis=1)
        core.check_close_each("norm after evolution", norm, 1.0, core.ATOL_ALGEBRA)
        states = out / norm[:, None]
        hb = hb + p * core.expectations(states, model.h_b)
        vv = vv + p * core.expectations(states, model.v)
    hb, vv = hb.reshape(times.shape), vv.reshape(times.shape)
    return (hb.item(), vv.item()) if times.ndim == 0 else (hb, vv)


def local_unitary_energies(params: MinimalParams, sites, unitaries) -> np.ndarray:
    """Ground-state energies after one local unitary each: the (k,) array
    of <g|U_i^dag H U_i|g> for the (k, 2, 2) stack ``unitaries`` acting on
    the qubits ``sites`` (k entries, 0 for A and 1 for B).

    The ground state is passive (Pusz and Woronowicz, Commun. Math. Phys.
    58, 273 (1978)): no entry is below the ground energy 0.
    """
    stack = _unitary_stack("U", unitaries)
    sites = np.asarray(sites)
    if (sites.shape != stack.shape[:1] or sites.dtype.kind not in "iu"
            or sites.min() < 0 or sites.max() > 1):
        raise ValueError(f"sites must hold one 0 (A) or 1 (B) per unitary, "
                         f"got {sites!r}")
    model = build(params)
    # the ground state as the 2x2 array [bit of A, bit of B]: U on A
    # multiplies it from the left, U on B from the right by U^T
    ground = model.ground.amplitudes.reshape(2, 2)
    on_site = np.stack([stack @ ground, ground @ stack.transpose(0, 2, 1)])
    moved = on_site[sites, np.arange(len(sites))]
    return core.expectations(moved.reshape(-1, 4), model.hamiltonian).real


def _min_rotation_family(branch: np.ndarray, op: np.ndarray) -> float:
    """Exact minimum of <psi|exp(i th sy) O exp(-i th sy)|psi> over th."""
    def val(theta):
        w = _rotation(1.0, theta) @ branch
        return float(np.vdot(w, op @ w).real)

    f0, f90, f45 = val(0.0), val(math.pi / 2), val(math.pi / 4)
    mean = 0.5 * (f0 + f90)
    amp = math.hypot(0.5 * (f0 - f90), f45 - mean)
    return mean - amp


def max_teleported_energy(params: MinimalParams, m: PovmMeasurement,
                          unitary_family: str = "rotation") -> float:
    """Best average output over outcome-dependent local unitaries on B.

    ``"rotation"`` restricts B to y-axis rotations with a free angle per
    outcome (closed-form optimum); ``"general"`` takes the exact minimum
    over all of SU(2) of each outcome's Gram form
    (:func:`core.lowest_unitary_energy`).
    """
    if unitary_family not in ("rotation", "general"):
        raise ValueError(f"unknown unitary family {unitary_family!r}")
    model = build(params)
    g = model.ground.amplitudes
    op = model.h_b + model.v
    total = 0.0
    for _, mop in m.operators:
        branch = core.kron(mop.matrix, np.eye(2)) @ g
        p = float(np.vdot(branch, branch).real)
        if p < core.PROB_FLOOR:
            continue
        branch = branch / math.sqrt(p)
        if unitary_family == "rotation":
            low = _min_rotation_family(branch, op)
        else:
            low, _ = core.lowest_unitary_energy(
                core.one_site_gram(op, 1, branch))
        total += -p * low
    return total


def entanglement_bound(params: MinimalParams, m: PovmMeasurement,
                       unitary_family: str = "rotation") -> EntanglementBound:
    """Entanglement consumed by a V-commuting measurement vs the energy bound.

    ``delta_s`` is the ground-state entanglement entropy minus the averaged
    post-measurement entanglement; it must dominate a coupling-dependent
    multiple of the best teleportable energy.
    """
    if m.site != 0:
        raise ValueError("the measurement must act on qubit A (site 0)")
    for label, op in m.operators:
        comm = op.matrix @ core.PAULI_X - core.PAULI_X @ op.matrix
        if np.abs(comm).max() > core.ATOL_ALGEBRA:
            raise ValueError(
                f"measurement operator {label} does not commute with the coupling"
            )
    model = build(params)
    rho_b = core.reduced_density(model.ground, (1,))
    s_before = core.von_neumann_entropy(rho_b)
    s_after = 0.0
    for outcome in core.apply_measurement(model.ground, m):
        rho_mu = core.reduced_density(outcome.state, (1,))
        s_after += outcome.probability * core.von_neumann_entropy(rho_mu)
    delta_s = s_before - s_after

    r = params.energy_scale
    cos_s = params.h / r
    sin_s = params.k / r
    # Far from h ~ k the prefactor leaves double range: cos_s**3 underflows
    # for h below about 1e-102 k, and 1 - cos_s rounds to 0 for k below
    # about 1e-8 h.
    try:
        prefactor = ((1 + sin_s**2) / (2 * cos_s**3)
                     * math.log((1 + cos_s) / (1 - cos_s)))
    except ZeroDivisionError:
        prefactor = math.inf
    if not math.isfinite(prefactor):
        raise ValueError(f"the entanglement-bound prefactor is not finite "
                         f"at h={params.h}, k={params.k}")
    max_e_b = max_teleported_energy(params, m, unitary_family)
    rhs = prefactor * max_e_b / r
    return EntanglementBound(delta_s, rhs, delta_s >= rhs - 1e-9,
                             max_e_b, unitary_family)


def sigma_x_measurement() -> PovmMeasurement:
    """The projective x measurement on A used by the basic protocol."""
    return core.projective_pauli_measurement((1.0, 0.0, 0.0), 0)


def random_commuting_povm(rng: np.random.Generator,
                          n_outcomes: int = 2) -> PovmMeasurement:
    """Random POVM on A whose operators commute with the x-x coupling.

    Operators are simultaneously diagonal in the x basis; completeness holds
    by normalizing the diagonal coefficient vectors.
    """
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    proj_p = np.outer(plus, plus)
    proj_m = np.outer(minus, minus)
    c = rng.standard_normal(n_outcomes) + 1j * rng.standard_normal(n_outcomes)
    d = rng.standard_normal(n_outcomes) + 1j * rng.standard_normal(n_outcomes)
    c /= np.linalg.norm(c)
    d /= np.linalg.norm(d)
    ops = []
    for mu in range(n_outcomes):
        mat = c[mu] * proj_p + d[mu] * proj_m
        ops.append((float(mu), LocalOperator((0,), mat)))
    return PovmMeasurement(0, tuple(ops))
