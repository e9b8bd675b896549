"""Finite-dimensional qubit toolkit: states, operators, measurements, spectra.

One-site cooling is exact: the lowest energy over SU(2) is one 4x4
eigenvalue (:func:`lowest_unitary_energy`), and over all channels one 4x4
semidefinite program whose dual bound certifies it
(:func:`lowest_channel_energy`); neither draws random numbers.

Conventions
-----------
Site 0 is the most significant bit of the amplitude index, so a basis state
``|b_0 b_1 ... b_{N-1}>`` has index ``sum(b_s << (N-1-s))`` and operators on
ordered sites compose by plain ``numpy.kron``.  All tolerances follow a three
level scheme: 1e-12 for construction invariants, 1e-10 for algebraic
identities, 1e-9 for eigensolver residuals.  :func:`check_close` and
:func:`check_at_most` multiply the level by the model's declared coupling
and fail on any NaN or inf.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

ATOL_CONSTRUCT = 1e-12
ATOL_ALGEBRA = 1e-10
ATOL_RESIDUAL = 1e-9
GAP_DEGENERATE = 1e-8
PROB_FLOOR = 1e-14

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"1": PAULI_I, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


class InvariantViolation(RuntimeError):
    """A numerical identity that must hold by construction failed."""


class EigensolverError(RuntimeError):
    """Extremal eigensolver did not converge to the requested residual."""


def check_close(name: str, got, want, tol: float, scale: float = 1.0) -> None:
    """Require ``|got - want| <= tol * scale`` with both sides finite."""
    if not (cmath.isfinite(got) and cmath.isfinite(want)
            and abs(got - want) <= tol * scale):
        raise InvariantViolation(
            f"{name} {got} differs from {want} by more than {tol * scale:.3g}")


def check_at_most(name: str, got, bound, tol: float, scale: float = 1.0) -> None:
    """Require ``got <= bound + tol * scale`` with both sides finite."""
    if not (math.isfinite(got) and math.isfinite(bound)
            and got <= bound + tol * scale):
        raise InvariantViolation(
            f"{name} {got} exceeds {bound} by more than {tol * scale:.3g}")


def require_normal_scale(name: str, scale: float) -> float:
    """Return a declared energy scale unless its finest tolerance, ``1e-12
    * scale``, falls below the smallest normal float: a subnormal tolerance
    loses digits and an underflowed one is zero.  A zero scale (the zero
    operator) is kept, since its checks are exact; NaN is refused."""
    if scale != 0 and not ATOL_CONSTRUCT * scale >= sys.float_info.min:
        raise ValueError(
            f"{name} {scale!r} is too small: {ATOL_CONSTRUCT:g} times it is "
            f"below the smallest normal float {sys.float_info.min:.4g}")
    return scale


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix, rejecting real asymmetry."""
    anti = matrix - matrix.conj().T
    if not np.abs(anti).max() <= ATOL_CONSTRUCT:
        raise ValueError(
            f"matrix is not Hermitian within {ATOL_CONSTRUCT:g} "
            f"(antisymmetric part {np.abs(anti).max():.3g})"
        )
    return 0.5 * matrix + 0.5 * matrix.conj().T


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``n_sites`` qubits, unit norm within 1e-12."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if self.n_sites < 1 or amp.shape != (2**self.n_sites,):
            raise ValueError(
                f"need 2**{self.n_sites} amplitudes, got shape {amp.shape}"
            )
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Operator acting on an ordered tuple of sites, identity elsewhere."""

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        support = tuple(int(s) for s in self.support)
        if len(set(support)) != len(support):
            raise ValueError(f"support {support} has repeated sites")
        mat = np.asarray(self.matrix)
        dim = 2 ** len(support)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match support of {len(support)} sites"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_support(self) -> int:
        return len(self.support)

    def is_hermitian(self) -> bool:
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= ATOL_ALGEBRA)

    def is_unitary(self) -> bool:
        dim = self.matrix.shape[0]
        return bool(np.abs(self.matrix.conj().T @ self.matrix - np.eye(dim)).max()
                    <= ATOL_ALGEBRA)

    def is_involution(self) -> bool:
        dim = self.matrix.shape[0]
        return bool(np.abs(self.matrix @ self.matrix - np.eye(dim)).max()
                    <= ATOL_ALGEBRA)


@dataclass(frozen=True, eq=False)
class PovmMeasurement:
    """Generalized measurement at one site: operators M(alpha), sum M^t M = I."""

    site: int
    operators: tuple[tuple[float, LocalOperator], ...]

    def __post_init__(self):
        ops = tuple((label, op) for label, op in self.operators)
        if not 1 <= len(ops) <= 8:
            raise ValueError("between 1 and 8 measurement outcomes are supported")
        total = np.zeros((2, 2), dtype=complex)
        for _, op in ops:
            if op.support != (self.site,):
                raise ValueError(
                    f"operator support {op.support} must be ({self.site},)"
                )
            total += op.matrix.conj().T @ op.matrix
        if not np.abs(total - np.eye(2)).max() <= ATOL_ALGEBRA:
            raise ValueError(
                "completeness violated: sum M^t M deviates from identity by "
                f"{np.abs(total - np.eye(2)).max():.3g}"
            )
        object.__setattr__(self, "operators", ops)

    @property
    def labels(self) -> tuple[float, ...]:
        return tuple(label for label, _ in self.operators)


def _axis_order(support: tuple[int, ...], n_total: int) -> list[int]:
    rest = [s for s in range(n_total) if s not in support]
    return list(support) + rest


def embed_local(op: LocalOperator, n_total: int) -> np.ndarray:
    """Full-space matrix acting as ``op`` on its support and identity elsewhere."""
    if any(s < 0 or s >= n_total for s in op.support):
        raise ValueError(f"support {op.support} out of range for {n_total} sites")
    k = op.n_support
    rest = n_total - k
    full = np.kron(op.matrix, np.eye(2**rest, dtype=op.matrix.dtype))
    if k == n_total and op.support == tuple(range(n_total)):
        return full
    order = _axis_order(op.support, n_total)
    inv = np.argsort(order)
    tens = full.reshape((2,) * (2 * n_total))
    perm = list(inv) + [n_total + i for i in inv]
    return tens.transpose(perm).reshape(2**n_total, 2**n_total)


def apply_local(op: LocalOperator, amplitudes: np.ndarray, n_total: int) -> np.ndarray:
    """Apply a local operator to a full-space amplitude vector, matrix free."""
    if any(s < 0 or s >= n_total for s in op.support):
        raise ValueError(f"support {op.support} out of range for {n_total} sites")
    k = op.n_support
    psi = np.asarray(amplitudes).reshape((2,) * n_total)
    gate = op.matrix.reshape((2,) * (2 * k))
    out = np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), list(op.support)))
    order = _axis_order(op.support, n_total)
    return out.transpose(np.argsort(order)).reshape(-1)


@dataclass(frozen=True, eq=False)
class GroundState:
    """Lowest eigenpair with spectral-gap degeneracy flag."""

    energy: float
    state: StateVector
    gap: float
    degenerate: bool


DENSE_DIM_LIMIT = 256


def ground_state(H, scale: float = 1.0) -> GroundState:
    """Lowest eigenvalue and eigenvector of a Hermitian operator.

    ``H`` is a dense ndarray or a ``scipy.sparse`` matrix, of any size;
    nothing else is accepted.  Up to 256 dimensions (8 sites) the full
    dense eigendecomposition runs, which is measured to be no slower than
    Krylov there; above, a seeded Krylov solver runs.  A dense ndarray of
    at most 256 dimensions goes straight to ``numpy.linalg.eigh`` and never
    imports scipy.  ``scale`` is the operator's energy scale: ``H`` must be
    Hermitian within ``1e-10 * scale``, the eigenpair must satisfy
    ``|H v - E v| <= 1e-9 * scale``, and a gap not above ``1e-8 * scale``
    (so any gap of a zero operator) is reported as degenerate.
    """
    dim = H.shape[0]
    sparse = not isinstance(H, np.ndarray)
    if not np.isfinite(H.data if sparse else H).all():
        raise ValueError("Hamiltonian has non-finite entries")
    if not abs(H - H.conj().T).max() <= ATOL_ALGEBRA * scale:
        raise ValueError(
            f"Hamiltonian is not Hermitian within {ATOL_ALGEBRA * scale:.3g}")
    if dim <= DENSE_DIM_LIMIT:
        vals, vecs = np.linalg.eigh(H.toarray() if sparse else H)
        energy, vec = float(vals[0]), vecs[:, 0]
        gap = float(vals[1] - vals[0]) if dim > 1 else math.inf
    else:
        energy, vec, gap = _krylov_lowest_pair(H, dim)
    residual = np.linalg.norm(H @ vec - energy * vec)
    if not residual <= ATOL_RESIDUAL * scale:
        raise EigensolverError(
            f"eigensolver residual {residual:.3g} > {ATOL_RESIDUAL * scale:.3g}")
    n = int(round(math.log2(dim)))
    return GroundState(energy, StateVector(n, vec / np.linalg.norm(vec)),
                       gap, not gap > GAP_DEGENERATE * scale)


def _krylov_lowest_pair(H, dim: int) -> tuple[float, np.ndarray, float]:
    """Lowest eigenvalue, its vector and the gap above it, by ARPACK.

    Runs on ``H - c*I``, ``c`` twice the Gershgorin row-sum bound, so every
    eigenvalue it sees is strictly negative and restarts cannot lose an
    exact null vector of ``H``.  One Krylov space holds a single direction
    of a repeated eigenvalue, so the gap comes from a second run on the
    complement of the ground vector.  Start vectors are seeded, so repeated
    solves are bit-identical.
    """
    shift = 2.0 * float(abs(H).sum(axis=1).max())
    if shift == 0.0:
        vec = np.zeros(dim)
        vec[0] = 1.0
        return 0.0, vec, 0.0
    rng = np.random.default_rng(0)
    lowest, vec = _arpack_lowest(lambda v: H @ v - shift * v, dim, H.dtype, rng)

    conj = vec.conj()

    # Product-sums, not np.vdot: numpy's threaded BLAS competes with ARPACK's.
    def deflated(v):
        v = v - vec * (conj * v).sum()
        w = H @ v - shift * v
        return w - vec * (conj * w).sum()

    second, _ = _arpack_lowest(deflated, dim, H.dtype, rng)
    return lowest + shift, vec, max(second - lowest, 0.0)


def _arpack_lowest(matvec, dim: int, dtype, rng) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a negative definite Hermitian operator."""
    import scipy.sparse.linalg as spla
    op = spla.LinearOperator((dim, dim), dtype=dtype, matvec=matvec)
    v0 = rng.standard_normal(dim).astype(dtype)
    try:
        vals, vecs = spla.eigsh(op, k=1, which="SA", tol=1e-12,
                                maxiter=5000, v0=v0)
    except spla.ArpackNoConvergence as exc:
        if exc.eigenvalues.size:
            vec = exc.eigenvectors[:, 0]
            res = np.linalg.norm(matvec(vec) - exc.eigenvalues[0] * vec)
            raise EigensolverError(
                f"Krylov eigensolver did not converge (residual {res:.3g})"
            ) from exc
        raise EigensolverError("Krylov eigensolver did not converge") from exc
    except spla.ArpackError as exc:
        raise EigensolverError(f"Krylov eigensolver failed: {exc}") from exc
    return float(vals[0]), vecs[:, 0]


def expectation(state: StateVector, op: np.ndarray):
    """``<psi|O|psi>``; tiny imaginary parts are truncated."""
    op = np.asarray(op)
    if op.shape[0] != state.amplitudes.size:
        raise ValueError("operator dimension does not match the state")
    val = np.vdot(state.amplitudes, op @ state.amplitudes)
    if abs(val.imag) < ATOL_ALGEBRA:
        return float(val.real)
    return complex(val)


def reduced_density(state: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a pure state down to the ``keep`` sites, in that
    order: a Hermitian ``2**len(keep)`` matrix."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(s < 0 or s >= state.n_sites for s in keep):
        raise ValueError(f"keep sites {keep} out of range")
    rest = [s for s in range(state.n_sites) if s not in keep]
    psi = state.amplitudes.reshape((2,) * state.n_sites)
    psi = psi.transpose(list(keep) + rest).reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr[rho ln rho] in nats of a density matrix such as
    :func:`reduced_density` returns; eigenvalues below 1e-14 contribute 0."""
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log(vals)))


@dataclass(frozen=True, eq=False)
class Outcome:
    """One measurement outcome: its label, its probability and the
    normalized state it leaves (after any label-dependent operation)."""

    label: float
    probability: float
    state: StateVector


def apply_measurement(state: StateVector, m: PovmMeasurement) -> tuple[Outcome, ...]:
    """All outcomes (label, probability, normalized post state) of a POVM.

    Outcomes with probability below 1e-14 are omitted.  Probabilities sum
    to one within 1e-10.
    """
    outcomes = []
    total = 0.0
    for label, op in m.operators:
        branch = apply_local(op, state.amplitudes, state.n_sites)
        p = float(np.vdot(branch, branch).real)
        total += p
        if p >= PROB_FLOOR:
            outcomes.append(
                Outcome(label, p, StateVector(state.n_sites, branch / math.sqrt(p))))
    check_close("outcome probability sum", total, 1.0, ATOL_ALGEBRA)
    return tuple(outcomes)


def pauli_component(u, site: int) -> LocalOperator:
    """The spin component u . sigma at ``site`` for a unit 3-vector u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    norm = float(np.linalg.norm(u))
    if not abs(norm - 1.0) <= ATOL_CONSTRUCT:
        raise ValueError(f"direction norm {norm!r} deviates from 1")
    mat = u[0] * PAULI_X + u[1] * PAULI_Y + u[2] * PAULI_Z
    return LocalOperator((site,), hermitize(mat))


def projective_pauli_measurement(u, site: int) -> PovmMeasurement:
    """Projective measurement of u . sigma at ``site`` with outcomes +1/-1."""
    comp = pauli_component(u, site)
    ops = []
    for alpha in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + alpha * comp.matrix)
        ops.append((alpha, LocalOperator((site,), proj)))
    return PovmMeasurement(site, tuple(ops))


def apply_matrix(op, vecs: np.ndarray) -> np.ndarray:
    """``op @ vecs`` for an ndarray or ``scipy.sparse`` ``op`` and a vector
    or a block of column vectors.  A real ``op`` takes complex ``vecs`` as
    one real product on their (re, im) pairs, so ``op`` is never cast to
    complex.  On a sparse ``op`` this is bit for bit the complex product."""
    if np.iscomplexobj(op) or not np.iscomplexobj(vecs):
        return op @ vecs
    vecs = np.ascontiguousarray(vecs)
    pairs = vecs.view(np.float64).reshape(vecs.shape[0], -1)
    return (op @ pairs).view(complex).reshape(vecs.shape)


def one_site_gram(op, site: int, psi: np.ndarray) -> np.ndarray:
    """The 4x4 matrix ``G[(ab),(cd)] = <E_ab psi|O|E_cd psi>``, ``E_cd = |c><d|``.

    ``op`` is the full-space ``O``, an ndarray or a ``scipy.sparse`` matrix.
    For any 2x2 operator ``K`` at ``site``, ``<K psi|O|K psi> = vec(K)^H G
    vec(K)`` with ``vec(K) = K.ravel()``.  A non-finite entry raises.
    """
    part = np.asarray(psi).reshape(2**site, 2, -1)
    moved = np.zeros((4,) + part.shape, dtype=complex)
    for c in range(2):
        for d in range(2):
            moved[2 * c + d, :, c, :] = part[:, d, :]
    moved = moved.reshape(4, -1)
    gram = moved.conj() @ apply_matrix(op, moved.T)
    if not np.isfinite(gram).all():
        raise InvariantViolation("cooling Gram matrix has non-finite entries")
    return gram


def one_site_energy(gram: np.ndarray, kraus) -> float:
    """``sum_k vec(K_k)^H G vec(K_k)`` over the 2x2 operators ``kraus``."""
    vecs = np.reshape(kraus, (-1, 4))
    return float(np.einsum("ki,ij,kj->", vecs.conj(), gram, vecs).real)


# Columns vec(I), vec(-iX), vec(-iY), vec(-iZ): vec(U) = _SU2_BASIS @ q for
# U = q0 I - i(q1 X + q2 Y + q3 Z) and a real unit 4-vector q.
_SU2_BASIS = np.stack([PAULI_I.ravel(), -1j * PAULI_X.ravel(),
                       -1j * PAULI_Y.ravel(), -1j * PAULI_Z.ravel()], axis=1)


def su2_unitary(q) -> np.ndarray:
    """The 2x2 unitary ``q0 I - i(q1 X + q2 Y + q3 Z)`` of a unit quaternion."""
    return (_SU2_BASIS @ np.asarray(q, dtype=float)).reshape(2, 2)


def lowest_unitary_energy(gram: np.ndarray) -> tuple[float, np.ndarray]:
    """(exact minimum of :func:`one_site_energy` over SU(2), its quaternion).

    With ``vec(U) = B q`` (``B`` the columns ``vec(I)``, ``vec(-iX)``,
    ``vec(-iY)``, ``vec(-iZ)``, ``q`` a real unit 4-vector) the energy is
    ``q^T Re(B^H G B) q``, so its minimum over SU(2) is the lowest
    eigenvalue of that real symmetric 4x4 matrix.  One minimizing ``q`` is
    returned, an arbitrary one when that eigenvalue repeats (as on
    projective branches); :func:`su2_unitary` turns it into the matrix.
    """
    form = (_SU2_BASIS.conj().T @ gram @ _SU2_BASIS).real
    vals, vecs = np.linalg.eigh(0.5 * (form + form.T))
    return float(vals[0]), vecs[:, 0]


# I (x) sigma_k for sigma_0 = I, X, Y, Z: the slack of the channel-cooling
# dual is G - sum_k y_k (I (x) sigma_k), acting on the Kraus input index.
_PAULI_BASIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
_INPUT_PAULIS = np.stack([np.kron(PAULI_I, s) for s in _PAULI_BASIS])


def lowest_channel_energy(gram: np.ndarray, scale: float) -> tuple[float, float]:
    """(upper, lower): bounds on the minimum of :func:`one_site_energy` over
    all one-site channels, the Kraus sets with ``sum_k K_k^H K_k = I``.

    With ``C = sum_k vec(K_k) vec(K_k)^H`` the energy is ``Tr(G C)``, and
    trace preservation reads ``sum_a C[(a,b),(a,d)] = delta_bd``.  The dual
    is ``max Tr Y`` subject to ``S = G - I (x) Y >= 0`` over Hermitian 2x2
    ``Y``.  A damped-Newton log-barrier method solves it, starting at
    ``Y = (lambda_min(G) - scale) I`` and stopping once the barrier gap
    ``4/t`` is at most ``1e-12 * scale``; ``scale`` is the energy scale of
    the operator behind ``gram``, and a zero scale keeps the start point.

    ``lower`` is ``Tr Y``, lowered by any negative eigenvalue of ``S``.
    ``upper`` is the lower of the exact :func:`lowest_unitary_energy` and a
    two-Kraus channel from complementary slackness: ``C = V Z V^H`` on the
    two lowest eigenvectors ``V`` of ``S``, with ``Z`` solving the real 4x4
    trace-preserving system, used when its Kraus set is complete within
    1e-12.  Two Kraus operators reach every extreme qubit channel (Ruskai,
    Szarek and Werner 2002), so ``upper - lower`` certifies the minimum.
    """
    upper = lowest_unitary_energy(gram)[0]
    y = np.array([np.linalg.eigvalsh(gram)[0] - scale, 0.0, 0.0, 0.0])
    gap = 4.0 * scale
    while gap > 1e-12 * scale:
        gap /= 20.0
        for _ in range(50):
            # Newton step on -t Tr Y - log det S, t = 4/gap, Tr Y = 2 y_0,
            # in units of scale
            w = np.linalg.inv((gram - np.tensordot(y, _INPUT_PAULIS, 1)) / scale)
            wa = w @ _INPUT_PAULIS
            grad = np.einsum("kii->k", wa).real
            grad[0] -= 8.0 * scale / gap
            step = -np.linalg.solve(np.einsum("kij,lji->kl", wa, wa).real, grad)
            decrement = -grad @ step
            if decrement <= 1e-4:
                break
            y += scale * step / (1.0 + math.sqrt(decrement))
    vals, vecs = np.linalg.eigh(gram - np.tensordot(y, _INPUT_PAULIS, 1))
    lower = 2.0 * (y[0] + min(vals[0], 0.0))
    v = vecs[:, :2]
    traced = [np.einsum("abad->bd", (v @ s @ v.conj().T).reshape(2, 2, 2, 2))
              for s in _PAULI_BASIS]
    system = np.einsum("kdb,jbd->kj", _PAULI_BASIS, traced).real
    # singular on some exactly structured branches (an uncoupled chain's);
    # the completeness test below then decides
    z = np.linalg.lstsq(system, [2.0, 0.0, 0.0, 0.0], rcond=None)[0]
    zvals, zvecs = np.linalg.eigh(np.tensordot(z, _PAULI_BASIS, 1))
    kraus = (v @ (zvecs * np.sqrt(np.clip(zvals, 0.0, None)))).T.reshape(2, 2, 2)
    complete = np.einsum("kab,kac->bc", kraus.conj(), kraus)
    if np.abs(complete - PAULI_I).max() <= ATOL_CONSTRUCT:
        upper = min(upper, one_site_energy(gram, kraus))
    return upper, float(lower)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(n_sites: int, rng: np.random.Generator) -> StateVector:
    v = rng.standard_normal(2**n_sites) + 1j * rng.standard_normal(2**n_sites)
    return StateVector(n_sites, v / np.linalg.norm(v))


def key_value_lines(lines, path):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line.

    ``#`` starts a comment and blank lines are skipped; any other line
    without ``=`` raises ``ValueError`` naming ``path`` and the line.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


_PAULI_TERM = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+)?)\s*\*?\s*(1|id|x|y|z)\s*$"
)


def parse_pauli_expression(text: str) -> np.ndarray:
    """Parse ``"a*z + b*x"`` style expressions into a 2x2 matrix.

    Symbols: ``1`` (or ``id``), ``x``, ``y``, ``z``.  Coefficients are real.
    """
    expr = text.strip()
    if not expr:
        raise ValueError("empty operator expression")
    # split before each sign, except the sign of an exponent such as 1e-3
    chunks = re.split(r"(?<![eE])(?=[+-])", expr.replace(" ", ""))
    mat = np.zeros((2, 2), dtype=complex)
    seen = False
    for chunk in chunks:
        if not chunk:
            continue
        match = _PAULI_TERM.match(chunk)
        if match is None:
            raise ValueError(f"cannot parse operator term {chunk!r} in {text!r}")
        coef_text, sym = match.groups()
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
            if not math.isfinite(coef):
                raise ValueError(
                    f"non-finite coefficient {coef_text!r} in {text!r}")
        mat += coef * PAULIS["1" if sym == "id" else sym]
        seen = True
    if not seen:
        raise ValueError(f"no terms found in operator expression {text!r}")
    return mat
