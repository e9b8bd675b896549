"""Nearest-neighbor qubit chains: energy densities, measurement protocols.

A chain is defined by per-site on-site operators, interaction channels
(one shared 2x2 operator per site per channel plus per-bond couplings) and
per-site constant shifts.  The energy density at site ``n`` is the on-site
piece plus half of each adjacent bond, so the densities sum to the full
Hamiltonian.  After :func:`normalize` every density has zero ground-state
expectation and the Hamiltonian is nonnegative with ground eigenvalue zero.

The local route of the dual-route energy accounting runs through
:meth:`ChainModel.site_energies`, the density profile (or some of its
sites) summed over a vector or a block of column vectors,
:meth:`ChainModel.local_energy`, the local energy around a site applied to
a vector, and :meth:`ChainModel.local_gram`, its one-site Gram form.  The
global route runs through the Hamiltonian.

One engine measures at A and feeds the announced label back: the measured
branches are the columns of one block, rotated at every feedback site and
checked on every route.  :func:`run_protocol` is its one-site call and
:func:`energy_distribution` its several-site call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np

from . import core
from .core import (
    GroundState,
    InvariantViolation,
    LocalOperator,
    Outcome,
    PovmMeasurement,
    StateVector,
    apply_local,
    check_at_most,
    check_close,
    hermitize,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


# Largest chain the engine builds: with its 2**n-dimensional Hamiltonian and
# vectors, `ising --mode numeric --N 18` took 2.1 to 3.6 s and a 185 MB peak
# as a subprocess on 2 cores.
SITE_LIMIT = 18


@dataclass(frozen=True, eq=False)
class Channel:
    """One interaction channel: a site operator reused by both adjacent bonds."""

    y_ops: tuple[np.ndarray, ...]
    couplings: tuple[float, ...]


def bond_count(n_sites: int, boundary: str) -> int:
    """Bonds of an open or periodic chain of ``n_sites`` sites."""
    return n_sites if boundary == "periodic" else n_sites - 1


@dataclass(frozen=True, eq=False)
class ChainModel:
    n_sites: int
    boundary: str
    x_ops: tuple[np.ndarray, ...]
    channels: tuple[Channel, ...]
    shifts: tuple[float, ...]

    def __post_init__(self):
        if self.n_sites > SITE_LIMIT:
            raise ValueError(f"a chain of {self.n_sites} sites is above the "
                             f"{SITE_LIMIT}-site limit")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be open or periodic, not {self.boundary!r}")
        if self.n_sites < 2:
            raise ValueError("a chain needs at least two sites")
        if self.boundary == "periodic" and self.n_sites < 3:
            raise ValueError("periodic chains need at least three sites")
        if len(self.x_ops) != self.n_sites or len(self.shifts) != self.n_sites:
            raise ValueError("per-site data length mismatch")
        x_ops = tuple(hermitize(np.asarray(m, dtype=complex)) for m in self.x_ops)
        channels = []
        for ch in self.channels:
            if len(ch.y_ops) != self.n_sites or len(ch.couplings) != self.n_bonds:
                raise ValueError("channel data length mismatch")
            channels.append(Channel(
                tuple(hermitize(np.asarray(m, dtype=complex)) for m in ch.y_ops),
                tuple(float(g) for g in ch.couplings),
            ))
        object.__setattr__(self, "x_ops", x_ops)
        object.__setattr__(self, "channels", tuple(channels))
        object.__setattr__(self, "shifts", tuple(float(s) for s in self.shifts))

    @property
    def n_bonds(self) -> int:
        return bond_count(self.n_sites, self.boundary)

    def bond_sites(self, bond: int) -> tuple[int, int]:
        return bond, (bond + 1) % self.n_sites

    def _adjacent_bonds(self, n: int) -> tuple[int, ...]:
        """The bonds at site n, the left one first."""
        if self.boundary == "periodic":
            return (n - 1) % self.n_sites, n
        return tuple(b for b in (n - 1, n) if 0 <= b < self.n_bonds)

    def separation(self, a: int, b: int) -> int:
        d = abs(a - b)
        if self.boundary == "periodic":
            return min(d, self.n_sites - d)
        return d

    def region(self, n: int) -> tuple[int, ...]:
        """Sites whose densities contribute to the local energy around n."""
        if self.boundary == "periodic":
            sites = {(n - 1) % self.n_sites, n, (n + 1) % self.n_sites}
        else:
            sites = {m for m in (n - 1, n, n + 1) if 0 <= m < self.n_sites}
        return tuple(sorted(sites))

    def term(self, n: int) -> LocalOperator:
        """Energy density T_n on the sites of :meth:`region`.

        The on-site operator minus its shift, plus half of each adjacent
        bond of every channel; the densities sum to the Hamiltonian.
        """
        if not 0 <= n < self.n_sites:
            raise ValueError(f"site {n} out of range")
        support = self.region(n)
        dim = 2 ** len(support)
        mat = np.zeros((dim, dim), dtype=complex)

        def place(factors: dict[int, np.ndarray]) -> np.ndarray:
            return reduce(core.kron, [factors.get(s, np.eye(2, dtype=complex))
                                      for s in support])

        mat += place({n: self.x_ops[n] - self.shifts[n] * np.eye(2)})
        for ch in self.channels:
            for bond in self._adjacent_bonds(n):
                a, b = self.bond_sites(bond)
                mat += 0.5 * ch.couplings[bond] * place(
                    {a: ch.y_ops[a], b: ch.y_ops[b]})
        return LocalOperator(support, hermitize(mat))

    @cached_property
    def terms(self) -> tuple[LocalOperator, ...]:
        """The density :meth:`term` of every site, in site order."""
        return tuple(self.term(n) for n in range(self.n_sites))

    @cached_property
    def hamiltonian(self) -> np.ndarray | sp.csr_matrix:
        """The Hamiltonian, real when the model is real: a dense ndarray up
        to ``core.DENSE_DIM_LIMIT`` dimensions (8 sites), above a canonical
        CSR matrix (sorted columns, no stored zeros), which imports scipy.

        Each site and bond piece is a sum of terms ``diag(d) X^m``, ``m``
        the basis bits a term flips; the pieces add, in piece order, into
        one diagonal per mask, ``H[i, i ^ m] = d_m[i]``, read off by both
        views.  The diagonals must be finite and satisfy ``d_m[i ^ m] =
        conj(d_m[i])`` within 1e-10 times the energy scale.
        """
        n, dim = self.n_sites, 2**self.n_sites
        pieces = [((s,), self.x_ops[s] - self.shifts[s] * np.eye(2))
                  for s in range(n)]
        for ch in self.channels:
            for bond, g in enumerate(ch.couplings):
                a, b = self.bond_sites(bond)
                pieces.append(((a, b), core.kron(g * ch.y_ops[a], ch.y_ops[b])))
        index = np.arange(dim, dtype=np.int32)
        diags = {}
        # an overflowing sum is left to the non-finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            for sites, local in pieces:
                k, flips = len(sites), np.arange(2 ** len(sites))
                # table[r, f] = local[r, r ^ f]: the local flip f at local index r
                table = local[flips[:, None], flips[:, None] ^ flips]
                table = table if np.any(table.imag) else table.real
                # each site's bit in the local and in the basis index
                bits = [(k - 1 - pos, n - 1 - s) for pos, s in enumerate(sites)]
                r = sum(((index >> bit) & 1) << loc for loc, bit in bits)
                for f in np.flatnonzero(table.any(axis=0)):
                    m = sum(1 << bit for loc, bit in bits if f >> loc & 1)
                    diags[m] = diags.get(m, 0) + table[r, f]
        if not all(np.isfinite(d).all() for d in diags.values()):
            raise ValueError("Hamiltonian has non-finite entries")
        tol = core.ATOL_ALGEBRA * self.energy_scale
        if not all(np.abs(d[index ^ m] - d.conj()).max() <= tol
                   for m, d in diags.items()):
            raise ValueError(f"Hamiltonian is not Hermitian within {tol:.3g}")
        data = np.array(list(diags.values())).reshape(-1, dim).T  # [i, slot]
        cols = index[:, None] ^ np.array(list(diags), dtype=np.int32)
        del diags
        if np.iscomplexobj(data) and not np.any(data.imag):
            data = data.real
        if dim <= core.DENSE_DIM_LIMIT:
            ham = np.zeros((dim, dim), dtype=data.dtype)
            ham[index[:, None], cols] = data
            return ham
        import scipy.sparse as sp
        keep = data != 0  # no stored zeros; the columns are sorted in place
        ham = sp.csr_matrix((data[keep], cols[keep], np.r_[0, keep.sum(1).cumsum()]),
                            shape=(dim, dim))
        ham.sort_indices()
        return ham

    def apply_hamiltonian(self, vec: np.ndarray) -> np.ndarray:
        return core.apply_matrix(self.hamiltonian, vec)

    @cached_property
    def energy_scale(self) -> float:
        """Declared coupling: the largest on-site entry or bond product
        ``|g| max|y_a| max|y_b|``; shifts are left out, so normalizing keeps it.
        A scale too small for its tolerances is refused."""
        peaks = [np.abs(x).max() for x in self.x_ops]
        for ch in self.channels:
            for bond, g in enumerate(ch.couplings):
                a, b = self.bond_sites(bond)
                peaks.append(abs(g) * np.abs(ch.y_ops[a]).max()
                             * np.abs(ch.y_ops[b]).max())
        return core.require_normal_scale("energy scale", float(max(peaks)))

    @cached_property
    def ground(self) -> GroundState:
        return core.ground_state(self.hamiltonian, self.energy_scale)

    def site_energies(self, vectors: np.ndarray, sites=None) -> np.ndarray:
        """The densities ``sum_v <v|T_m|v>`` (real part) at the sites m of
        ``sites``, in that order (every site by default), summed over
        ``vectors``: one vector or a block of column vectors, as for
        :func:`core.apply_matrix`.

        Each density acts on the amplitudes with its support axes moved
        first, and the product is contracted in that order, so no vector
        is transposed back.  The columns are taken one at a time, so each
        product stays below OpenBLAS's threading threshold up to 14 sites;
        a two-column block crosses it from 12 sites on.
        """
        vectors = np.asarray(vectors)
        if vectors.shape[0] != 2**self.n_sites:
            raise ValueError(f"expected {2**self.n_sites} amplitudes per vector, "
                             f"got shape {vectors.shape}")
        sites = range(self.n_sites) if sites is None else sites
        out = np.zeros(len(sites))
        for vec in vectors.reshape(vectors.shape[0], -1).T:
            psi = vec.reshape((2,) * self.n_sites)
            for i, m in enumerate(sites):
                term = self.terms[m]
                moved = psi.transpose(self._support_first[m]).reshape(
                    2**term.n_support, -1)
                out[i] += np.vdot(moved, term.matrix @ moved).real
        return out

    @cached_property
    def _support_first(self) -> tuple[tuple[int, ...], ...]:
        """Per density, the axis order that puts its support first."""
        return tuple(tuple(core._axis_order(term.support, self.n_sites))
                     for term in self.terms)

    def local_energy(self, site: int, vec: np.ndarray) -> np.ndarray:
        """``H_site vec`` for the local energy ``H_site``, the sum of the
        densities of :meth:`region`, applied one by one in region order."""
        return sum(apply_local(self.terms[m], vec, self.n_sites)
                   for m in self.region(site))

    def local_gram(self, site: int, vectors: np.ndarray) -> np.ndarray:
        """:func:`core.one_site_gram` of the local energy around ``site``,
        one 4x4 form per column of ``vectors`` (one vector or a block of
        column vectors); on unitaries it differs from the full-H form by a
        constant.  Each density meets the reduced block of the moved
        amplitudes ``M``, ``M M^H``, of each column; for up to 14 sites each
        product stays below OpenBLAS's threading threshold."""
        vectors = np.asarray(vectors)
        n, width = self.n_sites, vectors.size // 2**self.n_sites
        tensor = vectors.reshape((2,) * n + (width,))
        gram = np.zeros((width, 2, 2, 2, 2), dtype=complex)
        for order, t in self._gram_densities(site):
            moved = tensor.transpose((n,) + order).reshape(
                width, t.shape[0] * t.shape[1], -1)
            rho = (moved @ moved.conj().transpose(0, 2, 1)).reshape(
                (width,) + t.shape)
            # G[(ab),(cd)] = sum T[(a x),(c y)] rho[(d y),(b x)]
            gram += np.einsum("axcy,ndybx->nabcd", t, rho)
        if not np.isfinite(gram).all():
            raise InvariantViolation(f"local Gram form at site {site} is not finite")
        return gram.reshape(vectors.shape[1:] + (4, 4))

    @cached_property
    def _gram_cache(self) -> dict:
        return {}

    def _gram_densities(self, site: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Per density of :meth:`region` around ``site``: the axis order
        that puts ``site`` first and the rest of the density's support after
        it, and the density on those axes as ``T[a, x, c, y]`` (``a``, ``c``
        the site's bit); computed once per site and model."""
        if site not in self._gram_cache:
            forms = []
            for term in (self.terms[m] for m in self.region(site)):
                k, p = term.n_support, term.support.index(site)
                support = (site,) + tuple(s for s in term.support if s != site)
                t = np.moveaxis(term.matrix.reshape((2,) * 2 * k), (p, k + p),
                                (0, k)).reshape((2, 2 ** (k - 1)) * 2)
                forms.append((tuple(core._axis_order(support, self.n_sites)), t))
            self._gram_cache[site] = forms
        return self._gram_cache[site]


def normalize(model: ChainModel) -> ChainModel:
    """Shift each on-site operator so all densities average to zero.

    The returned model has ground eigenvalue zero and ``<g|T_n|g> = 0`` at
    every site within 1e-9 times the energy scale; its densities are the
    input's minus ``eps_n`` times the identity on their supports.  Its
    Hamiltonian is the input's with ``sum eps_n`` taken off the diagonal,
    and its ground state is the input's: a dense Hamiltonian is one shifted
    copy, a CSR one shares its index arrays when it can
    (:func:`_shift_diagonal`).
    """
    gs = model.ground
    if gs.degenerate:
        raise InvariantViolation(
            f"degenerate ground state (gap {gs.gap:.3g}); normalization undefined"
        )
    amp = gs.state.amplitudes
    eps = model.site_energies(amp)
    shifted = replace(
        model, shifts=tuple(s + e for s, e in zip(model.shifts, eps))
    )
    # H only changes by a multiple of the identity: reuse the spectral data.
    drop = math.fsum(eps)
    ham = model.hamiltonian
    if isinstance(ham, np.ndarray):
        ham = ham.copy()
        with np.errstate(over="ignore"):  # refused below, as on a CSR
            ham.flat[::ham.shape[0] + 1] -= drop
    else:
        ham = _shift_diagonal(ham, drop)
    if not np.isfinite(ham.diagonal()).all():
        raise ValueError(f"shifting the Hamiltonian by {-drop:.3g} is not finite")
    shifted.__dict__["hamiltonian"] = ham
    shifted.__dict__["ground"] = GroundState(
        gs.energy - drop, gs.state, gs.gap, gs.degenerate
    )
    shifted.__dict__["terms"] = tuple(
        LocalOperator(op.support, op.matrix - e * np.eye(op.matrix.shape[0]))
        for op, e in zip(model.terms, eps))
    for n, val in enumerate(shifted.site_energies(amp)):
        check_close(f"shifted density at site {n}",
                    val, 0.0, 1e-9, model.energy_scale)
    check_close("ground eigenvalue after normalization", shifted.ground.energy,
                0.0, 1e-9, model.energy_scale)
    return shifted


def _shift_diagonal(ham: sp.csr_matrix, drop: float) -> sp.csr_matrix:
    """``ham - drop * I`` for a CSR ``ham``.  When ``ham`` is canonical and
    every diagonal entry is nonzero, so stored, a copy of ``data`` takes
    the shift at those entries and shares ``indices`` and ``indptr`` with
    ``ham`` (it keeps an entry the shift makes zero); ``setdiag`` then only
    writes data, and no scipy call sorts or prunes the shared arrays.
    Otherwise (a row whose diagonal entry is zero is not stored, as in an
    Ising chain of even length) scipy's subtraction.  The test reads only
    the diagonal, so it adds no temporary as long as ``data``."""
    import scipy.sparse as sp
    n, diagonal = ham.shape[0], ham.diagonal()
    if not (ham.has_canonical_format and np.count_nonzero(diagonal) == n):
        return ham - drop * sp.identity(n, format="csr")
    shifted = sp.csr_matrix((ham.data.copy(), ham.indices, ham.indptr),
                            shape=ham.shape)
    with np.errstate(over="ignore"):  # refused by the caller
        shifted.setdiag(diagonal - drop)
    return shifted


@dataclass(frozen=True, eq=False)
class DensityWitness:
    epsilon_minus: float
    witness_state: StateVector
    factorization_broken: bool
    probe_site: int


def negative_density_witness(model: ChainModel, n: int) -> DensityWitness:
    """Lowest eigenvalue of the density at ``n`` and a state attaining it.

    When the ground state is entangled across sigma_z two sites away (broken
    two-point factorization) the lowest eigenvalue is strictly negative; for
    separable ground states a nonnegative value is returned, flag cleared.
    """
    if not 0 <= n < model.n_sites:
        raise ValueError(f"site {n} out of range for a {model.n_sites}-site chain")
    term = model.terms[n]
    vals, vecs = np.linalg.eigh(term.matrix)
    eps_minus = float(vals[0])
    # The local vector times |0> on every other site; the support is sorted,
    # so its axes keep their order in the full tensor.
    full = np.zeros((2,) * model.n_sites, dtype=complex)
    full[tuple(slice(None) if s in term.support else 0
               for s in range(model.n_sites))] = (
        vecs[:, 0].reshape((2,) * term.n_support))
    full = full.reshape(-1)
    witness = StateVector(model.n_sites, full / np.linalg.norm(full))

    probe_site = next((p for p in (n + 2, n - 2) if 0 <= p < model.n_sites
                       and model.separation(n, p) >= 2), None)
    if probe_site is None:
        raise ValueError(f"site {n} has no probe site two or more sites away "
                         f"on a {model.n_sites}-site chain")
    amp = model.ground.state.amplitudes
    probe = LocalOperator((probe_site,), core.PAULI_Z)
    t_amp = apply_local(term, amp, model.n_sites)
    joint = np.vdot(amp, apply_local(probe, t_amp, model.n_sites))
    t_only = np.vdot(amp, t_amp)
    o_only = np.vdot(amp, apply_local(probe, amp, model.n_sites))
    broken = abs(joint - t_only * o_only) > 1e-8 * model.energy_scale
    return DensityWitness(eps_minus, witness, broken, probe_site)


@dataclass(frozen=True, eq=False)
class ChainProtocolSpec:
    site_a: int
    site_b: int
    measurement: PovmMeasurement
    g_b: LocalOperator
    theta: float

    def __post_init__(self):
        if self.measurement.site != self.site_a:
            raise ValueError("measurement must act at site_a")
        if self.g_b.support != (self.site_b,):
            raise ValueError("g_b must act at site_b")
        if not self.g_b.is_hermitian():
            raise ValueError("g_b must be Hermitian")
        if not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta}")


@dataclass(frozen=True, eq=False)
class ChainProtocolResult:
    e_a: float
    e_b: float
    theta: float
    outcomes: tuple[Outcome, ...]
    site_energies: tuple[float, ...]
    local_energy_b: float


def _check_separation(model: ChainModel, site_a: int, site_b: int) -> None:
    """Reject sites out of range or closer than 3; warn below 5.

    Only the public entry points call it, so the warning names their caller.
    """
    for site in (site_a, site_b):
        if not 0 <= site < model.n_sites:
            raise ValueError(f"site {site} out of range for {model.n_sites} sites")
    sep = model.separation(site_a, site_b)
    if sep < 3:
        raise ValueError(
            f"sites {site_a} and {site_b} are {sep} apart; the local energy "
            "regions overlap and the protocol bookkeeping breaks down"
        )
    if sep < 5:
        warnings.warn(
            f"separation {sep} < 5: semi-local commutation holds but the "
            "theory assumes a wider gap", stacklevel=3)


def _branches(model: ChainModel, measurement: PovmMeasurement
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """The measured branches ``M_a g`` of the ground state as the columns of
    one block, their probabilities and the input energy by the global route,
    ``sum_a <M_a g|H|M_a g>``."""
    g = model.ground.state.amplitudes
    block = np.stack([apply_local(mop, g, model.n_sites)
                      for _, mop in measurement.operators], axis=1)
    probs = np.einsum("ik,ik->k", block.conj(), block).real
    return block, probs, float(np.vdot(block, model.apply_hamiltonian(block)).real)


def _rotate_columns(columns: np.ndarray, site: int,
                    gates: np.ndarray) -> np.ndarray:
    """Column k of ``columns`` with the 2x2 matrix ``gates[k]`` at ``site``."""
    out = np.empty_like(columns)
    for k, gate in enumerate(gates):
        out[:, k] = (gate @ columns[:, k].reshape(2**site, 2, -1)).reshape(-1)
    return out


def _feedback(model: ChainModel, measurement: PovmMeasurement,
              feedback: tuple[tuple[LocalOperator, float], ...]):
    """Measure at A, then rotate each branch at every feedback site; check
    every energy route.

    ``feedback`` holds one ``(G, theta)`` per site, a Hermitian one-site
    generator and an angle: the branch of label ``a`` is rotated by
    ``U_a = exp(-i a theta G)`` there.  Checked within 1e-10 times the
    energy scale: the input energy around A by its densities against the
    global route; every density two or more sites from A at zero after the
    measurement; at each feedback site, the extracted energy by the density
    profile against the route through the measurement elements,
    ``-sum_a <Pi_a g|U_a^H H_site U_a|g>`` with ``Pi_a = M_a^H M_a``; their
    sum against the drop of the total energy; the sum at most the input
    energy.

    Returns the input energy, the energy extracted at each site, the total
    energy left, the density profile, the rotated branches and their
    probabilities.  The profile recomputes only the densities on the
    feedback sites' regions and copies the rest, which no rotation
    touches, from the measured branches.
    """
    if model.ground.degenerate:
        raise InvariantViolation("degenerate ground state; protocol undefined")
    scale, site_a = model.energy_scale, measurement.site
    block, probs, e_a_global = _branches(model, measurement)
    measured = model.site_energies(block)
    e_a = float(sum(measured[m] for m in model.region(site_a)))
    check_close("input energy around A", e_a, e_a_global, 1e-10, scale)
    # densities away from A must stay exactly at zero after the measurement
    for m, val in enumerate(measured):
        if model.separation(m, site_a) >= 2:
            check_close(f"measured density at site {m}", val, 0.0, 1e-10, scale)

    g = model.ground.state.amplitudes
    ground = np.broadcast_to(g[:, None], block.shape)
    pi_g = np.stack([apply_local(LocalOperator(
        (site_a,), mop.matrix.conj().T @ mop.matrix), g, model.n_sites)
        for _, mop in measurement.operators], axis=1)
    labels = np.array(measurement.labels)
    density_route = []
    for op, theta in feedback:
        site = op.support[0]
        vals, vecs = np.linalg.eigh(op.matrix)
        phases = np.exp(-1j * np.multiply.outer(labels * theta, vals))
        gates = (vecs * phases[:, None, :]) @ vecs.conj().T
        block = _rotate_columns(block, site, gates)
        # <Pi_a g|U_a^H H_site U_a|g> = <U_a Pi_a g|H_site U_a g>
        pairs = zip(_rotate_columns(pi_g, site, gates).T,
                    _rotate_columns(ground, site, gates).T)
        density_route.append(-sum(np.vdot(p, model.local_energy(site, u_g)).real
                                  for p, u_g in pairs))
    residual = float(np.vdot(block, model.apply_hamiltonian(block)).real)
    # a one-site rotation leaves every density off its support unchanged
    touched = sorted({m for op, _ in feedback for m in model.region(op.support[0])})
    profile = measured.copy()
    profile[touched] = model.site_energies(block, touched)
    extracted = tuple(-float(sum(profile[m] for m in model.region(op.support[0])))
                      for op, _ in feedback)
    for (op, _), e, d in zip(feedback, extracted, density_route):
        check_close(f"energy extracted at site {op.support[0]} by the density "
                    "profile", e, d, 1e-10, scale)
    total = sum(extracted)
    check_close("sum of the site energies", total, e_a - residual, 1e-10, scale)
    check_at_most("extracted energy", total, e_a, 1e-10, scale)
    return e_a, extracted, residual, profile, block, probs


def run_protocol(model: ChainModel, spec: ChainProtocolSpec) -> ChainProtocolResult:
    """Measure at A, rotate at B by the announced label; verify every route.

    The one-site case of the feedback engine: the output energy is read
    from the density profile around B and checked against the route
    through the measurement elements and against the drop of the total
    energy, within 1e-10 times the model's energy scale.
    """
    _check_separation(model, spec.site_a, spec.site_b)
    e_a, (e_b,), _, profile, block, probs = _feedback(
        model, spec.measurement, ((spec.g_b, spec.theta),))
    records = tuple(
        Outcome(label, float(p), StateVector(model.n_sites, col / math.sqrt(p)))
        for label, col, p in zip(spec.measurement.labels, block.T, probs)
        if p > core.PROB_FLOOR)
    return ChainProtocolResult(e_a, e_b, spec.theta, records,
                               tuple(float(v) for v in profile), -e_b)


def is_traceless_involution(op: LocalOperator) -> bool:
    """Hermitian, squaring to the identity and traceless, like a Pauli
    component; ``+-1`` is only a phase and fails."""
    return (op.is_hermitian() and op.is_involution()
            and abs(np.trace(op.matrix)) <= core.ATOL_ALGEBRA)


def eta_xi(model: ChainModel, sigma_a: LocalOperator,
           sigma_b: LocalOperator) -> tuple[float, float]:
    """Correlation and fluctuation coefficients of the qubit-chain output.

    ``eta`` is the ground-state correlation of the measured component at A
    with the velocity of the generator at B, computed both from the local
    energy around B and from the full Hamiltonian (agreeing within 1e-10 times
    the energy scale); ``xi`` is the generator's positive fluctuation at B.
    Both must be traceless Hermitian involutions (``+-1`` is only a phase).
    """
    for name, op in (("sigma_a", sigma_a), ("sigma_b", sigma_b)):
        if not is_traceless_involution(op):
            raise ValueError(f"{name} must be a traceless Hermitian involution")
    _check_separation(model, sigma_a.support[0], sigma_b.support[0])
    return _eta_xi_general(model, sigma_a, sigma_b)


def _global_eta_xi(model: ChainModel, d_a: LocalOperator,
                   gens: list[LocalOperator]) -> tuple[np.ndarray, np.ndarray]:
    """η and ξ of generators ``G_i`` at one site, by the global route.

    ``eta[i] = <g|D_A i[H, G_i]|g>`` and ``xi[i] = <G_i g|H|G_i g>``, both
    complex, for the ground state ``g``.  The vectors ``G_i g`` are the
    columns of one block ``W``, so ``H`` is applied once to it and once to
    ``g``: ``eta = i (D_A g)^H (H W - G H g)``, taken column by column.
    """
    g = model.ground.state.amplitudes
    n = model.n_sites
    w = np.stack([apply_local(op, g, n) for op in gens], axis=1)
    hw, h_g = model.apply_hamiltonian(w), model.apply_hamiltonian(g)
    # D_A is Hermitian, so <g|D_A x> = <D_A g|x>; column by column, as in
    # ChainModel.site_energies
    d_g = apply_local(d_a, g, n)
    eta = np.array([1j * np.vdot(d_g, col - apply_local(op, h_g, n))
                    for op, col in zip(gens, hw.T)])
    return eta, np.array([np.vdot(a, b) for a, b in zip(w.T, hw.T)])


def _eta_xi_general(model: ChainModel, d_a: LocalOperator,
                    g_b: LocalOperator) -> tuple[float, float]:
    site_b = g_b.support[0]
    g = model.ground.state.amplitudes
    n = model.n_sites
    (eta,), (xi,) = _global_eta_xi(model, d_a, [g_b])

    # the velocity i[H_B, G] applied to g, by the local energy around B
    gg = apply_local(g_b, g, n)
    w = 1j * (model.local_energy(site_b, gg)
              - apply_local(g_b, model.local_energy(site_b, g), n))
    eta_local = np.vdot(g, apply_local(d_a, w, n))
    scale = model.energy_scale
    check_close("eta by the local route", eta_local, eta, 1e-10, scale)
    check_close("eta", eta_local, eta_local.real, 1e-10, scale)
    check_close("xi", xi, xi.real, 1e-10, scale)
    return float(eta_local.real), float(xi.real)


def qubit_closed_form(eta: float, xi: float, theta: float) -> float:
    """Output energy ``eta/2 sin(2 theta) - xi sin(theta)^2`` of the
    involution protocol at angle ``theta``; a ``2 theta`` that overflows is
    refused."""
    if not math.isfinite(2 * theta):
        raise ValueError(f"theta {theta!r} is too large: 2*theta overflows")
    return float(0.5 * eta * math.sin(2 * theta) - xi * math.sin(theta) ** 2)


def optimal_angle(eta: float, xi: float) -> tuple[float, float]:
    """Maximizing angle and maximal output; requires ``xi > 0``.

    ``E_max = (hypot(eta, xi) - xi) / 2`` is evaluated as ``eta/2
    tan(theta_opt)``: nothing near-equal is subtracted, and
    ``|tan(theta_opt)| < 1``, so nothing overflows."""
    if not xi > 0:
        raise ValueError(f"xi must be positive, got {xi}")
    theta = 0.5 * math.atan2(eta, xi)
    return theta, float(0.5 * eta * math.tan(theta))


def measurement_bias_operator(m: PovmMeasurement) -> LocalOperator:
    """Label-weighted sum of the measurement elements (Hermitian)."""
    mat = np.zeros((2, 2), dtype=complex)
    for label, op in m.operators:
        mat += label * (op.matrix.conj().T @ op.matrix)
    return LocalOperator((m.site,), hermitize(mat))


def best_teleportable_energy(model: ChainModel,
                             measurement: PovmMeasurement) -> tuple[float, int]:
    """``(value, site)``: exactly the most energy one site B, 3 or more from
    A, extracts by a unitary chosen from the announced label (any labels).

    ``value = sum_mu <psi_mu|H|psi_mu> - min_U <U psi_mu|H|U psi_mu>`` over
    the branches, one :func:`core.lowest_unitary_energy` on each
    :meth:`ChainModel.local_gram`.  Checked within 1e-10 times the energy
    scale: the drop of the total energy under the optimal gates equals it;
    for labels -1 and +1, no Pauli axis's involution closed form exceeds it.
    """
    sites = [s for s in range(model.n_sites)
             if model.separation(s, measurement.site) >= 3]
    if not sites:
        raise ValueError("no extraction site is far enough from the measurement")
    if model.ground.degenerate:
        raise InvariantViolation("no extraction direction: degenerate ground state")
    block, _, e_in = _branches(model, measurement)
    best = (-math.inf,)
    for site in sites:
        grams = model.local_gram(site, block)
        lows = [core.lowest_unitary_energy(gram) for gram in grams]
        value = sum(core.one_site_energy(gram, (core.PAULI_I,)) - low
                    for gram, (low, _) in zip(grams, lows))
        if value > best[0]:
            best = value, site, np.array([core.su2_unitary(q) for _, q in lows])
    value, site, gates = best
    scale = model.energy_scale
    rotated = _rotate_columns(block, site, gates)
    check_close(f"extracted energy at site {site} by the global route", value,
                e_in - np.vdot(rotated, model.apply_hamiltonian(rotated)).real,
                1e-10, scale)
    if sorted(measurement.labels) == [-1.0, 1.0]:
        eta, xi = _global_eta_xi(model, measurement_bias_operator(measurement),
                                 [LocalOperator((site,), core.PAULIS[axis])
                                  for axis in "xyz"])
        for axis, e, x in zip("xyz", eta.real, xi.real):
            if x > 0:
                check_at_most(f"{axis}-axis closed form at site {site}",
                              optimal_angle(e, x)[1], value, 1e-10, scale)
    return float(value), site


@dataclass(frozen=True, eq=False)
class ResidualEnergyResult:
    e_r: float
    e_a: float
    e_b_max: float | None


def residual_energy(model: ChainModel, site_a: int, measurement: PovmMeasurement,
                    search_space: str = "unitary", n_starts: int = 16,
                    seed: int = 7) -> ResidualEnergyResult:
    """Minimal energy left after label-dependent local cooling at A.

    Each outcome's branch gives a 4x4 Gram form (:func:`core.one_site_gram`)
    with exact minima: ``"unitary"`` by :func:`core.lowest_unitary_energy`;
    ``"kraus2"``, over all channels at A, by the 4x4 semidefinite program of
    :func:`core.lowest_channel_energy`, whose upper and dual bounds must
    agree within 1e-10 times the energy scale.  ``n_starts`` and ``seed``
    are ignored.  ``E_B`` is :func:`best_teleportable_energy`, ``None`` only
    when no site is 3 or more from A.  ``E_B <= E_r <= E_A`` is certified
    for every POVM (``H >= 0``, and A and B touch disjoint densities); a NaN
    fails it.
    """
    if search_space not in ("unitary", "kraus2"):
        raise ValueError(f"unknown search space {search_space!r}")
    if measurement.site != site_a:
        raise ValueError("measurement must act at site_a")
    block, probs, e_a = _branches(model, measurement)
    scale, e_r = model.energy_scale, 0.0
    for branch, p in zip(block.T, probs):
        if p < core.PROB_FLOOR:
            continue
        gram = core.one_site_gram(model.hamiltonian, site_a,
                                  branch / math.sqrt(p))
        if search_space == "unitary":
            best = core.lowest_unitary_energy(gram)[0]
        else:
            best, lower = core.lowest_channel_energy(gram, scale)
            check_close("channel cooling dual bound", best, lower, 1e-10, scale)
        e_r += p * best

    far = any(model.separation(s, site_a) >= 3 for s in range(model.n_sites))
    e_b_max = best_teleportable_energy(model, measurement)[0] if far else None
    check_at_most("residual energy", e_r, e_a, 1e-12, scale)
    if e_b_max is not None:
        check_at_most("teleportable energy", e_b_max, e_r, 1e-9, scale)
    return ResidualEnergyResult(float(e_r), float(e_a), e_b_max)


@dataclass(frozen=True, eq=False)
class DistributionResult:
    e_a: float
    entries: tuple[tuple[int, float, float], ...]  # (site, theta, energy)
    total_extracted: float
    residual_total: float


def energy_distribution(model: ChainModel, site_a: int,
                        measurement: PovmMeasurement,
                        sites: tuple[int, ...],
                        thetas: tuple[float, ...] | str = "auto"
                        ) -> DistributionResult:
    """Simultaneous label-dependent extraction at several sites.

    Each site rotates about its sigma_y axis.  Every extraction region must
    be disjoint from the others and from the measured site.  The run is
    the feedback engine of :func:`run_protocol` with one rotation per site,
    so it checks the same routes: the input energy around A, the zero
    densities away from A, each site's energy against the route through
    the measurement elements, and their sum against the drop of the total,
    which can never exceed the input energy.
    """
    if measurement.site != site_a:
        raise ValueError("measurement must act at site_a")
    sites = tuple(sites)
    if len(set(sites)) != len(sites):
        raise ValueError("extraction sites must be distinct")
    for i, s in enumerate(sites):
        _check_separation(model, site_a, s)
        for t in sites[i + 1:]:
            if model.separation(s, t) < 3:
                raise ValueError(f"extraction regions at {s} and {t} overlap")
    g_ops = tuple(LocalOperator((s,), core.PAULI_Y) for s in sites)

    if isinstance(thetas, str):
        if thetas != "auto":
            raise ValueError(f"angles must be numbers or 'auto', got {thetas!r}")
        if sorted(measurement.labels) != [-1.0, 1.0]:
            raise ValueError("automatic angles need labels -1 and +1")
        d_a = measurement_bias_operator(measurement)
        thetas = tuple(optimal_angle(*_eta_xi_general(model, d_a, op))[0]
                       for op in g_ops)
    else:
        thetas = tuple(float(t) for t in thetas)
        if len(thetas) != len(sites):
            raise ValueError("need one angle per extraction site")
        for theta in thetas:
            if not math.isfinite(theta):
                raise ValueError(f"angle must be finite, got {theta}")

    # the engine's apply_local rejects a measured site out of range, also
    # with no extraction sites
    e_a, extracted, residual, *_ = _feedback(
        model, measurement, tuple(zip(g_ops, thetas)))
    return DistributionResult(e_a, tuple(zip(sites, thetas, extracted)),
                              float(sum(extracted)), residual)


def random_chain_model(n_sites: int, rng: np.random.Generator,
                       boundary: str = "periodic", n_channels: int = 1
                       ) -> ChainModel:
    """Random nondegenerate qubit chain for property tests (20 draws at most)."""
    for _ in range(20):
        x_ops = []
        for _ in range(n_sites):
            a, b, c = rng.uniform(-1.0, 1.0, size=3)
            x_ops.append(a * core.PAULI_Z + b * core.PAULI_X + c * core.PAULI_Y)
        channels = []
        for _ in range(n_channels):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            y = u[0] * core.PAULI_X + u[1] * core.PAULI_Y + u[2] * core.PAULI_Z
            n_bonds = bond_count(n_sites, boundary)
            couplings = rng.uniform(0.3, 1.0, size=n_bonds) * rng.choice([-1.0, 1.0],
                                                                         size=n_bonds)
            channels.append(Channel(tuple(y for _ in range(n_sites)),
                                    tuple(couplings)))
        model = ChainModel(n_sites, boundary, tuple(x_ops), tuple(channels),
                           tuple(0.0 for _ in range(n_sites)))
        if not model.ground.degenerate:
            return normalize(model)
    raise RuntimeError("could not draw a nondegenerate random chain")


def load_chain_model(path) -> ChainModel:
    """Parse the plain-text chain definition format.

    Grammar (one ``key = value`` per line, ``#`` comments)::

        n_sites  = 8
        boundary = periodic            # open | periodic
        x        = -1*z                # on-site operator, all sites
        x[3]     = -1*z + 0.2*x        # optional per-site override
        bond     = x ; -1.0            # channel: site operator ; coupling
        bond     = y ; 0.1, 0.2, ...   # or one coupling per bond

    Operator expressions combine ``1``, ``x``, ``y``, ``z`` with real
    coefficients.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    n_sites = None
    boundary = "open"
    x_default = None
    x_overrides: dict[int, tuple[int, np.ndarray]] = {}
    bonds: list[tuple[int, np.ndarray, list[float] | float]] = []
    for lineno, key, value in core.key_value_lines(text.splitlines(), path):
        try:
            if key == "n_sites":
                n_sites = int(value)
            elif key == "boundary":
                boundary = value
            elif key == "x":
                x_default = core.parse_pauli_expression(value)
            elif key.startswith("x[") and key.endswith("]"):
                x_overrides[int(key[2:-1])] = (
                    lineno, core.parse_pauli_expression(value))
            elif key == "bond":
                parts = [p.strip() for p in value.split(";")]
                if len(parts) != 2:
                    raise ValueError("bond needs 'operator ; coupling'")
                y = core.parse_pauli_expression(parts[0])
                gs = [float(v) for v in parts[1].split(",")]
                if not all(math.isfinite(g) for g in gs):
                    raise ValueError(f"non-finite coupling in {parts[1]!r}")
                bonds.append((lineno, y, gs[0] if len(gs) == 1 else gs))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if n_sites is None:
        raise ValueError(f"{path}: missing n_sites")
    if n_sites > SITE_LIMIT:
        raise ValueError(f"{path}: n_sites = {n_sites} is above the "
                         f"{SITE_LIMIT}-site limit")
    if x_default is None and not x_overrides:
        raise ValueError(f"{path}: missing on-site operator 'x'")
    for site, (lineno, _) in x_overrides.items():
        if not 0 <= site < n_sites:
            raise ValueError(f"{path}: line {lineno}: site {site} out of range "
                             f"for {n_sites} sites")
    if x_default is None:
        x_default = np.zeros((2, 2), dtype=complex)
    x_ops = tuple(x_overrides[s][1] if s in x_overrides else x_default
                  for s in range(n_sites))
    n_bonds = bond_count(n_sites, boundary)
    channels = []
    for lineno, y, gs in bonds:
        if isinstance(gs, float):
            couplings = tuple(gs for _ in range(n_bonds))
        else:
            if len(gs) != n_bonds:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_bonds} couplings, "
                    f"got {len(gs)}"
                )
            couplings = tuple(gs)
        channels.append(Channel(tuple(y for _ in range(n_sites)), couplings))
    return ChainModel(n_sites, boundary, x_ops, tuple(channels),
                      tuple(0.0 for _ in range(n_sites)))
