"""Finite-dimensional qubit toolkit: states, operators, measurements, spectra.

One-site cooling is exact: the lowest energy over SU(2) is one 4x4
eigenvalue (:func:`lowest_unitary_energy`), and over all channels one 4x4
semidefinite program whose dual bound certifies it
(:func:`lowest_channel_energy`); neither draws random numbers.

Conventions
-----------
Site 0 is the most significant bit of the amplitude index, so a basis state
``|b_0 b_1 ... b_{N-1}>`` has index ``sum(b_s << (N-1-s))`` and operators on
ordered sites compose by :func:`kron`, bit-identical to ``numpy.kron``.
All tolerances follow a three level scheme: 1e-12 for construction
invariants, 1e-10 for algebraic identities, 1e-9 for eigensolver residuals.
:func:`check_close` and :func:`check_at_most` multiply the level by the
model's declared coupling and fail on any NaN or inf.
"""

from __future__ import annotations

import cmath
import functools
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


def check_close_each(name: str, got, want, tol: float, scale: float = 1.0) -> None:
    """:func:`check_close` on every element of ``got`` against ``want``
    (broadcast), as one array test; the first element that fails raises
    :func:`check_close`'s message with its index after ``name``."""
    got, want = np.broadcast_arrays(got, want)
    ok = np.isfinite(got) & np.isfinite(want) & (np.abs(got - want) <= tol * scale)
    for i in np.flatnonzero(~ok):
        check_close(f"{name} [{i}]", got.flat[i], want.flat[i], tol, scale)


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D arrays: one multiply per entry, as in
    ``numpy.kron``, so bit for bit its result, without its n-d bookkeeping."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


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

    # a product that overflows fails the <= test: numpy's warnings add nothing
    def is_involution(self) -> bool:
        dim = self.matrix.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
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
    full = kron(op.matrix, np.eye(2**rest, dtype=op.matrix.dtype))
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
_LANCZOS_MAX_STEPS = 1000
_LANCZOS_CHECK_EVERY = 6
# inverse iteration: the shift below the lowest eigenvalue and the residual
# it stops at, both relative to the spectral radius; the factor its solves
# must have damped the excited levels by; its solve cap
_INVERSE_SHIFT = 1e-15
_INVERSE_TARGET = 1e-13
_INVERSE_DAMPING = 1e-8
_INVERSE_MAX_SOLVES = 4


def ground_state(H, scale: float = 1.0) -> GroundState:
    """Lowest eigenvalue and eigenvector of a Hermitian operator.

    ``H`` is a dense ndarray or a CSR matrix; nothing else is accepted.  A
    dense ``H``, and a CSR up to 256 dimensions (8 sites), is solved dense
    for its lowest pair only (:func:`_dense_lowest_pair`): the eigenvalues
    without eigenvectors, then the vector by inverse iteration.  A larger
    CSR gets a seeded Lanczos solver in plain numpy
    (:func:`_krylov_lowest_pair`), on the two half-length bit-parity blocks
    when every stored entry conserves parity: pass 1 in each block, a
    replay of the recorded coefficients for the vector, and a gap pass that
    stops at eigenvalue accuracy; the vector comes back embedded in the
    full space.  ``scale`` is the operator's energy scale: ``H`` must be
    finite and Hermitian within ``1e-10 * scale`` (checked here when dense,
    on the mask diagonals by ``ChainModel.hamiltonian`` for a CSR), the
    eigenpair must satisfy ``|H v - E v| <= 1e-9 * scale`` on the full
    ``H``, and a gap not above ``1e-8 * scale`` (so any gap of a zero
    operator) is reported as degenerate.  Both solvers and the residual
    work in units of ``scale``, so nothing overflows or underflows for
    couplings from 1e-300 to 1e300.
    """
    dim = H.shape[0]
    sparse = not isinstance(H, np.ndarray)
    if not np.isfinite(H.data if sparse else H).all():
        raise ValueError("Hamiltonian has non-finite entries")
    if not sparse and not _hermitian_defect(H) <= ATOL_ALGEBRA * scale:
        raise ValueError(
            f"Hamiltonian is not Hermitian within {ATOL_ALGEBRA * scale:.3g}")
    if sparse and dim > DENSE_DIM_LIMIT:
        energy, vec, gap = _krylov_lowest_pair(H, dim, scale)
    else:
        energy, vec, gap = _dense_lowest_pair(H.toarray() if sparse else H, scale)
    unit = scale if scale > 0 else 1.0
    residual = unit * np.linalg.norm((H @ vec - energy * vec) / unit)
    if not residual <= ATOL_RESIDUAL * scale:
        raise EigensolverError(
            f"eigensolver residual {residual:.3g} > {ATOL_RESIDUAL * scale:.3g}")
    n = int(round(math.log2(dim)))
    return GroundState(energy, StateVector(n, vec / np.linalg.norm(vec)),
                       gap, not gap > GAP_DEGENERATE * scale)


def _hermitian_defect(H: np.ndarray) -> float:
    """``max |H - H^H|``, computed in one n x n buffer."""
    buf = np.conjugate(H.T, order="C")
    np.subtract(H, buf, out=buf)
    return float(np.abs(buf, out=buf).real.max())


def _dense_lowest_pair(H: np.ndarray, scale: float
                       ) -> tuple[float, np.ndarray, float]:
    """Lowest eigenvalue, its vector and the gap above it of a dense ``H``.

    In units of ``scale``, ``A = H / scale`` (a zero ``scale`` counts as
    1).  When no entry joins basis states of unequal bit parity, the even
    and the odd block of ``A`` (:func:`_parity_halves`) are solved side by
    side and the block with the lower lowest eigenvalue holds the vector
    (the even one on a tie), as on the Krylov path; otherwise ``A`` is one
    block.  The eigenvalues come from ``eigvalsh``, with no eigenvector
    matrix, and the vector from inverse iteration (Ipsen, SIAM Rev. 39, 254
    (1997)) in its block ``B``, solving ``(B - s*I) x = d*v`` from a start
    vector fixed per dimension (:func:`_start_vector`).  The shift ``s``
    lies ``d = 1e-15 * r`` below the lowest eigenvalue, ``r`` the spectral
    radius of ``A`` (several units in the last place of every eigenvalue),
    so ``B - s*I`` is not singular even when ``B`` is diagonal.  A solve
    keeps the lowest level's part of its unit right side and shrinks every
    other part, so its solution ``y`` satisfies ``|B y - lowest*y| <= d``,
    and each solve damps the excited levels against the lowest by ``d /
    (d + gap)`` or more.  The iteration stops once the residual bound
    ``d / |y|`` of the normalized vector is at most ``1e-13 * r`` and the
    solves have damped by 1e-8, or after four solves; the caller's residual
    gate decides.  One solve meets the damping unless the gap is below
    about 1e-7 * r, where a small residual still allows a large excited
    part; a start vector with less than a hundredth of its weight on the
    ground state takes a second solve for the residual.  Every vector is an
    eigenvector of the zero operator: it gets the start vector.
    """
    dim = H.shape[0]
    unit = scale if scale > 0 else 1.0
    rows, cross = _parity_halves(dim)
    if rows is not None and not H[cross].any():
        blocks = H[rows[:, :, None], rows[:, None, :]] / unit
    else:
        rows, blocks = None, (H / unit)[None]
    spectra = np.linalg.eigvalsh(blocks)
    lows = spectra[:, 0].tolist()
    pick = lows.index(min(lows))
    lowest = lows.pop(pick)
    above = lows + spectra[pick, 1:2].tolist()
    gap = min(above) - lowest if above else math.inf
    radius = max(-lowest, float(spectra[:, -1].max()))
    block = blocks[pick]
    size = block.shape[0]
    vec = _start_vector(size)
    if radius > 0:
        delta = _INVERSE_SHIFT * radius
        block.flat[::size + 1] -= lowest - delta
        damped = 1.0
        for _ in range(_INVERSE_MAX_SOLVES):
            vec = np.linalg.solve(block, delta * vec)
            norm = math.sqrt(np.vdot(vec, vec).real)
            vec /= norm
            damped *= delta / (delta + gap)
            if (delta / norm <= _INVERSE_TARGET * radius
                    and damped <= _INVERSE_DAMPING):
                break
    if rows is None:
        return unit * lowest, vec, unit * gap
    full = np.zeros(dim, dtype=vec.dtype)
    full[rows[pick]] = vec
    return unit * lowest, full, unit * gap


@functools.lru_cache(maxsize=16)
def _parity_halves(dim: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The even and the odd bit-parity basis states of ``dim`` dimensions,
    as the two rows of an array (each pair ``2i, 2i + 1`` has one of each),
    and the mask of the matrix entries that join unequal parities; both
    read-only, and both ``None`` for an odd ``dim``."""
    if dim % 2:
        return None, None
    odd = np.bitwise_count(np.arange(dim)) & 1
    rows = np.argsort(odd, kind="stable").reshape(2, dim // 2)
    cross = odd[:, None] != odd
    rows.setflags(write=False)
    cross.setflags(write=False)
    return rows, cross


@functools.lru_cache(maxsize=16)
def _start_vector(dim: int) -> np.ndarray:
    """The unit start vector of inverse iteration in ``dim`` dimensions:
    Gaussian, from a generator seeded by ``dim``, so a solve repeats bit for
    bit; made once per dimension and read-only."""
    vec = _unit(np.random.default_rng(dim).standard_normal(dim))
    vec.setflags(write=False)
    return vec


def _krylov_lowest_pair(H, dim: int, scale: float
                        ) -> tuple[float, np.ndarray, float]:
    """Lowest eigenvalue, its vector and the gap above it of a CSR ``H``,
    by Lanczos on ``(H - s*I) / s``, ``s`` twice the Gershgorin row-sum
    bound, so every eigenvalue it sees lies in [-1.5, -0.5]; the bound is
    summed in units of ``scale`` and refused beyond the double range.

    When every stored entry of ``H`` joins two basis states of equal bit
    parity (z fields and xx, yy or zz bonds do), ``H`` is solved as its
    even and odd blocks, each half as long (:func:`_parity_rows`);
    otherwise as one block.  Pass 1 runs in each block and stops at
    eigenvalue accuracy.  The block with the lower Ritz value resumes its
    recurrence until the Ritz residual estimate falls to
    ``1e-2 * 1e-9 * scale``, with the same steps and checks as one
    uninterrupted run; a replay of the recorded coefficients then sums the
    Ritz vector, so no basis is stored and repeated solves are
    bit-identical.  One Krylov space holds a single direction of a
    repeated eigenvalue, so a gap pass runs on the complement of the
    ground vector in that block and stops at eigenvalue accuracy; the gap
    is the lower of its value and the other block's lowest.  A block is
    built when a pass needs it and dropped after, so at most one is held.
    """
    unit = scale if scale > 0 else 1.0
    # the row sums of |H| / unit on the index arrays of H, not a copy of them
    bound = float(type(H)((np.abs(H.data) / unit, H.indices, H.indptr),
                          shape=H.shape).sum(axis=1).max())
    if not math.isfinite(unit * bound):
        raise ValueError(f"Hamiltonian row sum {bound:.3g} x {unit:.3g} overflows")
    if bound == 0.0:
        return 0.0, np.eye(1, dim)[0], 0.0
    c = 2.0 * bound
    tol = 1e-2 * ATOL_RESIDUAL / c
    rng = np.random.default_rng(0)

    def shifted(rows):
        block = _parity_block(H, rows)

        def apply(v):
            w = block @ v
            w *= (1.0 / unit) / c
            w -= v
            return w

        return apply

    def first_pass(rows):
        size = dim if rows is None else dim // 2
        start = _unit(rng.standard_normal(size).astype(H.dtype))
        return _lanczos(shifted(rows), start, tol, values_only=True), start, rows

    passes = sorted(map(first_pass, _parity_rows(H)), key=lambda p: p[0][0])
    (lowest, ritz, run), start, rows = passes[0]
    other = [p[0][0] for p in passes[1:]]
    del passes  # the other block's vectors
    apply = shifted(rows)
    if not run.converged:
        lowest, ritz, run = _lanczos(apply, start, tol, resume=run)
    vec = _unit(_ritz_vector(apply, start, ritz, run.alphas, run.betas))
    del run  # its last two vectors

    def deflated(v):
        w = apply(v)
        w -= vec * _dot(vec, w)
        return w

    rest = rng.standard_normal(vec.size).astype(H.dtype)
    second = _lanczos(deflated, _unit(rest - vec * _dot(vec, rest)), tol,
                      values_only=True)[0]
    second = min([second] + other)
    if rows is not None:
        vec, block_vec = np.zeros(dim, dtype=vec.dtype), vec
        vec[rows] = block_vec
    return unit * (c * (1.0 + lowest)), vec, unit * (c * max(second - lowest, 0.0))


def _parity_rows(H) -> list:
    """The row masks of the even and odd bit-parity blocks of a CSR ``H``,
    or ``[None]`` when a stored entry joins basis states of unequal parity."""
    odd = np.bitwise_count(np.arange(H.shape[0], dtype=H.indices.dtype)) & 1
    if not np.array_equal(np.repeat(odd, np.diff(H.indptr)),
                          np.bitwise_count(H.indices) & 1):
        return [None]
    return [odd == 0, odd == 1]


def _parity_block(H, rows):
    """The block of a CSR ``H`` on the parity rows ``rows`` (``H`` itself
    for ``None``).  Basis state ``i`` is entry ``i >> 1`` of its block, so
    the block keeps the data of its rows and their columns shifted right
    by one, still sorted; no scipy indexing is used."""
    if rows is None:
        return H
    lengths, half = np.diff(H.indptr), H.shape[0] // 2
    keep = np.repeat(rows, lengths)
    return type(H)((H.data[keep], H.indices[keep] >> 1,
                    np.r_[0, np.cumsum(lengths[rows])]), shape=(half, half))


def _dot(a: np.ndarray, b: np.ndarray):
    """``<a|b>`` as a product-sum: no BLAS call, so no thread pool."""
    return (a.conj() * b).sum()


def _unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(_dot(v, v).real)


@dataclass(frozen=True, eq=False)
class _Recurrence:
    """Where a :func:`_lanczos` run stopped: its last Lanczos vector ``v``,
    that step's residual ``w`` (``betas[-1]`` times the next vector), the
    recorded coefficients, and whether the residual test held."""
    v: np.ndarray
    w: np.ndarray
    alphas: list
    betas: list
    converged: bool


def _lanczos(apply, v: np.ndarray, tol: float, values_only: bool = False,
             resume: _Recurrence | None = None):
    """Lowest Ritz value of the Hermitian map ``apply`` from the unit vector
    ``v``, by the three-term Lanczos recurrence without reorthogonalization.

    Returns the Ritz value, its eigenvector ``s`` of the tridiagonal matrix
    and the :class:`_Recurrence` where the run stopped (its ``alphas`` and
    ``betas`` feed :func:`_ritz_vector`).  The tridiagonal matrix is solved
    every few steps and at a breakdown.  The run stops when the residual
    estimate ``r = |beta_j s_j|`` is at most ``tol``; with ``values_only``,
    also when the Ritz value's error estimate ``r**2 / delta`` is, ``delta``
    the distance to the next Ritz value (Parlett, The Symmetric Eigenvalue
    Problem, ch. 11).  The extreme Ritz pair stays accurate after
    orthogonality is lost (Paige 1980).  ``resume``, the recurrence of an
    earlier run from ``v``, continues that run with the same step count
    and check schedule, so it ends exactly where one run would have.
    """
    if resume is None:
        alphas, betas = [], []
        prev, beta = np.zeros_like(v), 0.0
    else:
        alphas, betas = resume.alphas, resume.betas
        beta = betas[-1]
        prev, v = resume.v, resume.w / beta
    for step in range(len(alphas), _LANCZOS_MAX_STEPS):
        w = apply(v)
        alpha = _dot(v, w).real
        w -= alpha * v
        w -= beta * prev
        beta = math.sqrt(_dot(w, w).real)
        alphas.append(alpha)
        betas.append(beta)
        if beta <= tol or (step + 1) % _LANCZOS_CHECK_EVERY == 0:
            band = np.diag(alphas) + np.diag(betas[:-1], 1) \
                + np.diag(betas[:-1], -1)
            vals, vecs = np.linalg.eigh(band)
            r = abs(beta * vecs[-1, 0])
            if r <= tol or (values_only and step > 0
                            and r * r <= tol * (vals[1] - vals[0])):
                return float(vals[0]), vecs[:, 0], _Recurrence(
                    v, w, alphas, betas, r <= tol)
        prev, v = v, w / beta
    raise EigensolverError(
        f"Lanczos eigensolver did not converge in {_LANCZOS_MAX_STEPS} steps")


def _ritz_vector(apply, v: np.ndarray, ritz, alphas, betas) -> np.ndarray:
    """``sum_j ritz[j] v_j`` over the Lanczos vectors of :func:`_lanczos`
    from ``v``, rebuilt from its recorded ``alphas`` and ``betas`` with no
    inner product: the same operations on the same numbers, so the vectors
    are bit-identical to those of the recorded run."""
    prev, beta = np.zeros_like(v), 0.0
    out = ritz[0] * v
    for coef, alpha, beta_next in zip(ritz[1:], alphas, betas):
        w = apply(v)
        w -= alpha * v
        w -= beta * prev
        prev, v, beta = v, w / beta_next, beta_next
        out += coef * v
    return out


def expectation(state: StateVector, op: np.ndarray):
    """``<psi|O|psi>``, a float when its imaginary part is at most 1e-10
    times the largest entry of ``O`` (as for any Hermitian ``O``)."""
    op = np.asarray(op)
    if op.shape[0] != state.amplitudes.size:
        raise ValueError("operator dimension does not match the state")
    val = np.vdot(state.amplitudes, op @ state.amplitudes)
    if abs(val.imag) <= ATOL_ALGEBRA * np.abs(op).max():
        return float(val.real)
    return complex(val)


def expectations(vectors: np.ndarray, op: np.ndarray) -> np.ndarray:
    """``<psi|O|psi>`` for each vector ``psi`` along the last axis of
    ``vectors`` (shape (..., dim), giving shape (...)): real when every
    imaginary part is at most 1e-10 times the largest entry of ``O``, as in
    :func:`expectation`, else complex."""
    op = np.asarray(op)
    vals = (vectors.conj() * (vectors @ op.T)).sum(axis=-1)
    if (np.abs(vals.imag) <= ATOL_ALGEBRA * np.abs(op).max()).all():
        return vals.real
    return vals


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
_INPUT_PAULIS = np.stack([kron(PAULI_I, s) for s in _PAULI_BASIS])


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


def complex_gaussian(dim: int, rng: np.random.Generator,
                     count: int | None = None) -> np.ndarray:
    """A ``dim`` x ``dim`` matrix of independent standard complex normals,
    or with ``count`` a (count, dim, dim) stack of them: the matrices
    ``count`` single calls would return, from the same normals drawn in the
    same order (each matrix's real part, then its imaginary part)."""
    normals = rng.standard_normal((1 if count is None else count, 2, dim, dim))
    z = normals[:, 0] + 1j * normals[:, 1]
    return z[0] if count is None else z


def haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """The Haar-random unitary Q diag(R_jj / |R_jj|) of the QR decomposition
    z = QR of a complex Gaussian matrix (Mezzadri, Notices AMS 54, 592
    (2007)), for one matrix or for each of a (k, dim, dim) stack; a stack
    gives, bit for bit, the unitaries of its matrices one at a time."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator,
                 count: int | None = None) -> np.ndarray:
    """Haar-random ``dim`` x ``dim`` unitary, or with ``count`` a
    (count, dim, dim) stack: bit for bit the unitaries of ``count`` single
    calls, from the same normals in the same order."""
    return haar_from_gaussian(complex_gaussian(dim, rng, count))


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
        with np.errstate(over="ignore"):
            mat += coef * PAULIS["1" if sym == "id" else sym]
        seen = True
    if not seen:
        raise ValueError(f"no terms found in operator expression {text!r}")
    if not np.isfinite(mat).all():
        raise ValueError(f"operator expression {text!r} overflows")
    return mat
