"""Measurement-and-feedback energy extraction for a 1D massless chiral field.

All reported quantities reduce to functionals of two compactly supported
real profiles: the measurement smearing on the left and the displacement
window on the right.  The vacuum-coherent overlap entering the correlation
coefficient is a trapezoid integral over the spectrum of the zero-padded
smearing profile, evaluated exactly as a sum over the lags of the sample
autocorrelation, and is gated, in the verification suites, against an
independent finite-mode Gaussian oracle.  The oracle evaluates the
trapezoid transform of the profile at every mode of a discretized tower by
a chirp-z transform run as overlap-save over blocks of modes, in FFTs of
L <= 4096 points for a profile of up to 2048 samples, and never forms the
autocorrelation, so the two routes share no intermediate.  The kernel
double integral entering the correlation coefficient is summed over the
samples inside the declared supports only, as one lag sum against the
convolution of the two profiles when their grids share a spacing.  No
field kernel allocates more than O(n_A + n_B) memory, and the oracle
O(n + L) per transform, whatever the number of modes.  Natural units
throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import check_at_most, check_close

MIN_SUPPORT_SAMPLES = 64
ZERO_TOL = 1e-14


def _inside_support(x: np.ndarray, support: tuple[float, float]) -> np.ndarray:
    """Mask of the grid points ``x`` inside ``support``, 1e-12 margin each side."""
    lo, hi = support
    return (x >= lo - 1e-12) & (x <= hi + 1e-12)


@dataclass(frozen=True, eq=False)
class Profile:
    """Real function sampled on a uniform grid with compact support."""

    x0: float
    dx: float
    values: np.ndarray
    support: tuple[float, float]

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.dx)):
            raise ValueError(
                f"grid origin and spacing must be finite, got x0={self.x0}, "
                f"dx={self.dx}"
            )
        if not self.dx > 0:
            raise ValueError(f"grid spacing must be positive, got {self.dx}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("profile needs a 1D array of at least two samples")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(
                f"profile sample {bad} is not finite ({vals[bad]})")
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"support interval {self.support} is not finite")
        if not lo < hi:
            raise ValueError(f"empty support interval {self.support}")
        outside = ~_inside_support(
            self.x0 + self.dx * np.arange(vals.size), (lo, hi))
        if np.any(np.abs(vals[outside]) >= ZERO_TOL):
            worst = np.abs(vals[outside]).max()
            raise ValueError(
                f"samples outside the declared support reach {worst:.3g}"
            )
        inside = int(np.count_nonzero(~outside))
        if inside < MIN_SUPPORT_SAMPLES:
            raise ValueError(
                f"under-resolved profile: {inside} samples across the support, "
                f"need at least {MIN_SUPPORT_SAMPLES}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", (float(lo), float(hi)))

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    @property
    def width(self) -> float:
        return self.support[1] - self.support[0]

    @classmethod
    def from_points(cls, x, values, support=None) -> "Profile":
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.size != values.size or x.size < 2:
            raise ValueError("x and value columns must match and hold >= 2 rows")
        if not np.all(np.isfinite(x)):
            raise ValueError("grid points must be finite")
        dx = float(x[1] - x[0])
        if dx <= 0:
            raise ValueError("grid must be increasing")
        gaps = np.diff(x)
        if np.abs(gaps - dx).max() > 1e-9 * dx:
            raise ValueError(
                f"grid spacing is not uniform within 1e-9 relative "
                f"(max deviation {np.abs(gaps - dx).max():.3g})"
            )
        if support is None:
            nz = np.nonzero(np.abs(values) >= ZERO_TOL)[0]
            if nz.size == 0:
                raise ValueError("profile is identically zero")
            support = (float(x[nz[0]]), float(x[nz[-1]]))
        return cls(float(x[0]), dx, values, support)

    @classmethod
    def sin_squared(cls, amplitude: float, x_start: float, width: float,
                    n_samples: int = 257) -> "Profile":
        """Smooth window ``amplitude * sin^2(pi (x - x_start)/width)``."""
        if width <= 0:
            raise ValueError("width must be positive")
        x = np.linspace(x_start, x_start + width, n_samples)
        u = (x - x_start) / width
        vals = amplitude * np.sin(math.pi * u) ** 2
        vals[0] = vals[-1] = 0.0
        return cls(float(x[0]), float(x[1] - x[0]), vals,
                   (x_start, x_start + width))

    def scaled(self, factor: float) -> "Profile":
        return Profile(self.x0, self.dx, factor * np.asarray(self.values),
                       self.support)

    def shifted(self, delta: float) -> "Profile":
        lo, hi = self.support
        return Profile(self.x0 + delta, self.dx, np.asarray(self.values),
                       (lo + delta, hi + delta))

    def coarsened(self, stride: int) -> "Profile":
        """Keep every ``stride``-th sample (for data-driven refinement runs)."""
        if stride < 1:
            raise ValueError("stride must be at least 1")
        return Profile(self.x0, self.dx * stride,
                       np.asarray(self.values)[::stride], self.support)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for xi, vi in zip(self.x, self.values):
                handle.write(f"{float(xi)!r},{float(vi)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "Profile":
        xs, vs = [], []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(
                        f"{path}: line {lineno}: expected 'x,value'"
                    )
                try:
                    xs.append(float(parts[0]))
                    vs.append(float(parts[1]))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: cannot parse numbers"
                    ) from None
        return cls.from_points(np.array(xs), np.array(vs))


def derivative_squared_integral(profile: Profile) -> float:
    """Integral of the squared spatial derivative (central differences)."""
    vals = np.concatenate([[0.0, 0.0], profile.values, [0.0, 0.0]])
    deriv = (vals[2:] - vals[:-2]) / (2.0 * profile.dx)
    return float(np.trapezoid(deriv * deriv, dx=profile.dx))


def input_energy(lambda_a: Profile) -> float:
    """Average excitation energy deposited by the smeared measurement."""
    return derivative_squared_integral(lambda_a)


def _fourier_weight_integral(profile: Profile, pad_factor: int) -> float:
    """integral_0^inf omega |profile~(omega)|^2 domega on a padded FFT grid.

    The value is the trapezoid rule over the rfft spectrum of the samples
    zero-padded to ``n_fft``, the first power of two >= ``n * pad_factor``.
    Writing |spectrum|^2 through the autocorrelation r_m of the samples, the
    frequency sum closes for every lag: r_0 carries pi^2/2, an even lag
    carries nothing and an odd lag m carries -(2 pi / n_fft)^2 /
    sin^2(pi m / n_fft).  The lag sum costs O(n^2) instead of an
    O(n_fft log n_fft) transform; it is independent of the grid spacing.
    """
    if pad_factor < 1:
        raise ValueError(f"pad factor must be at least 1, got {pad_factor}")
    v = profile.values
    n_fft = 1
    while n_fft < v.size * pad_factor:
        n_fft *= 2
    autocorr = np.correlate(v, v, "full")[v.size - 1:]
    odd = np.arange(1, v.size, 2)
    odd_kernel = (2.0 * math.pi / n_fft / np.sin(math.pi * odd / n_fft)) ** 2
    return float(autocorr[0] * math.pi**2 / 2.0 - autocorr[1::2] @ odd_kernel)


def vacuum_overlap(lambda_a: Profile, pad_factor: int = 4096) -> float:
    """Overlap magnitude between the vacuum and the doubled coherent state.

    Computed as ``exp(-(2/pi) * integral_0^inf omega |lambda~(omega)|^2)``.
    The integral is the trapezoid rule over the spectrum of the profile
    zero-padded to the first power of two >= ``n * pad_factor`` samples,
    evaluated exactly as a lag sum over the sample autocorrelation, so no
    transform of that length is taken.  The exponent coefficient follows
    from the displacement the smearing generates on each plane-wave mode;
    the verification suites gate it against :func:`finite_mode_oracle`.
    """
    weight = _fourier_weight_integral(lambda_a, pad_factor)
    return math.exp(-2.0 / math.pi * weight)


@dataclass(frozen=True)
class OracleResult:
    overlap: float
    prob_plus: float
    variance: float
    n_modes: int
    omega_max: float


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT factors into radix 2-5."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        five *= 5
    return best


# longest FFT of the oracle's chirp-z transform for profiles of up to half
# its length: 4096 complex values are 64 KB, half of glibc's 128 KB mmap
# threshold, so each block's buffers are reused from the heap instead of
# being mapped, zero-filled and unmapped on every call
BLOCK_FFT = 4096


def _mode_variance(lambda_a: Profile, n_modes: int, omega_max: float) -> float:
    """Vacuum variance sum_k omega_k |T_k|^2 domega / pi on the mode tower.

    T_k = sum_j w_j v_j exp(i omega_k x_j) is the trapezoid transform of the
    samples at omega_k = (k + 1) domega.  The grid origin contributes only
    the phase exp(i omega_k x0), which drops out of |T_k|^2; the rest is
    sum_j a_j z^(j (k + 1)) with z = exp(i theta), theta = domega dx.  With
    j k = (j^2 + k^2 - (k - j)^2) / 2 this is a linear convolution with the
    chirp exp(-i theta m^2 / 2), m = -(n - 1) .. M - 1 (Bluestein's chirp-z
    transform), run as overlap-save: the chirped samples are transformed
    once at length L, and each block of B = L - n + 1 modes k0 .. k0 + B - 1
    takes the FFT of its chirp segment m = k0 - (n - 1) .. k0 + B - 1 and
    one inverse FFT, whose last B outputs are valid.  L is the smallest
    2^a 3^b 5^c >= min(n + M - 1, max(BLOCK_FFT, 2 n)): a tower that fits
    one such transform keeps it, and each block of a longer profile holds
    at least n + 1 modes.  Cost: O((n + M) log L) time, O(n + L) memory.
    """
    dom = omega_max / n_modes
    theta = dom * lambda_a.dx
    n = lambda_a.values.size
    j = np.arange(n, dtype=float)
    a = _trapezoid_weights(n, lambda_a.dx) * lambda_a.values
    n_fft = _fft_length(min(n + n_modes - 1, max(BLOCK_FFT, 2 * n)))
    chirped = np.fft.fft(a * np.exp(1j * theta * (j + 0.5 * j * j)), n_fft)
    block = n_fft - n + 1
    total = 0.0
    for k0 in range(0, n_modes, block):
        k1 = min(k0 + block, n_modes)
        m = np.arange(k0 - (n - 1), k1, dtype=float)
        # |exp(i theta k^2 / 2)| = 1, so the closing chirp drops out of |T_k|^2
        transform = np.fft.ifft(
            chirped * np.fft.fft(np.exp(-0.5j * theta * m * m), n_fft)
        )[n - 1:n - 1 + k1 - k0]
        om = (np.arange(k0, k1) + 1.0) * dom
        total += float(om @ np.abs(transform) ** 2)
    return total * dom / math.pi


def finite_mode_oracle(lambda_a: Profile, n_modes: int = 16384,
                       omega_max: float | None = None,
                       refinement_tol: float | None = None) -> OracleResult:
    """Gaussian-moment evaluation on a discretized tower of field modes.

    The smeared chiral momentum becomes a linear combination of mode
    quadratures; its vacuum variance gives both the coherent overlap (via
    the Gaussian characteristic function) and the outcome probability.
    Each mode's trapezoid transform is evaluated explicitly by Bluestein's
    chirp-z transform in blocks of modes (see :func:`_mode_variance`):
    O((n + M) log L) for n samples, M modes and FFT length L.  Up to 2048
    samples L <= 4096, so no buffer exceeds 64 KB, half of glibc's mmap
    threshold, and repeated calls reuse heap memory instead of faulting in
    fresh mappings; the default 16384 modes on 1025 samples take six
    blocks of 3072 modes.  The variance is summed over the modes, not taken
    from the autocorrelation lag sum of :func:`vacuum_overlap`, so the
    oracle stays an independent check of that route.
    With ``refinement_tol`` set, a half-resolution pass must agree with the
    full pass to that relative tolerance or the run is rejected as
    under-resolved.
    """
    if n_modes < 256:
        raise ValueError("need at least 256 modes")
    if omega_max is None:
        omega_max = 160.0 / lambda_a.width
    variance = _mode_variance(lambda_a, n_modes, omega_max)
    if refinement_tol is not None:
        coarse = _mode_variance(lambda_a, n_modes // 2,
                                omega_max / math.sqrt(2.0))
        scale = max(abs(variance), 1e-300)
        if abs(variance - coarse) / scale > refinement_tol:
            raise ValueError(
                f"mode tower is not converged: variance moved by "
                f"{abs(variance - coarse) / scale:.3g} under refinement"
            )
    # <e^{2iO}> = exp(-2 Var O) for the zero-mean Gaussian vacuum
    characteristic = complex(math.exp(-2.0 * variance))
    overlap = abs(characteristic)
    prob_plus = 0.5 * (1.0 + (1j * characteristic).real)
    return OracleResult(overlap, prob_plus, variance, n_modes, float(omega_max))


@dataclass(frozen=True, eq=False)
class FieldProtocolSpec:
    """Smearing profile, displacement profile, signal delay, optional angle."""

    lambda_a: Profile
    p_b: Profile
    delay: float
    theta: float | None = None

    def __post_init__(self):
        gap = self.p_b.support[0] - self.lambda_a.support[1]
        if gap <= 0:
            raise ValueError(
                "the displacement support must lie strictly to the right of "
                f"the smearing support (gap {gap})"
            )
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(
                f"delay must be finite and nonnegative, got {self.delay}")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta}")
        min_arg = gap + self.delay
        grid = max(self.lambda_a.dx, self.p_b.dx)
        if min_arg < 4.0 * grid:
            raise ValueError(
                f"kernel argument reaches {min_arg:.3g}, under four grid "
                "spacings; the cubic kernel is not resolved"
            )


def _trapezoid_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _weighted_support(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Grid points inside the declared support and their weighted samples.

    The trapezoid weights are those of the full grid.  Samples outside the
    support are zero and are dropped, so no kernel value is taken at them;
    on a uniform grid the kept samples are one contiguous run.
    """
    inside = np.flatnonzero(_inside_support(profile.x, profile.support))
    keep = slice(inside[0], inside[-1] + 1)
    weighted = _trapezoid_weights(profile.values.size, profile.dx) * profile.values
    return profile.x[keep], weighted[keep]


# largest kernel block, in bytes, of the direct sum on unequal spacings
KERNEL_BLOCK_BYTES = 1 << 20


def kernel_double_integral(spec: FieldProtocolSpec) -> float:
    """Double integral of p_B(x) (x - y + T)^(-3) lambda_A(y).

    The trapezoid rule in both variables, summed over the samples inside
    the two declared supports only: a zero sample outside them may sit
    where x - y + T vanishes.  When both grids share one spacing the kernel
    depends on the index lag i - j alone, so it is evaluated once per lag
    (n_A + n_B - 1 values) and contracted with the convolution of the
    weighted p_B samples with the reversed weighted lambda_A samples.
    Otherwise the direct double sum runs over row blocks of p_B whose
    kernel blocks hold at most ``KERNEL_BLOCK_BYTES``.  Either way no
    n_B x n_A array is formed.
    """
    xa, a = _weighted_support(spec.lambda_a)
    xb, b = _weighted_support(spec.p_b)
    if spec.lambda_a.dx == spec.p_b.dx:
        lags = np.arange(1 - a.size, b.size)
        kernel = (xb[0] - xa[0] + spec.delay + spec.p_b.dx * lags) ** -3.0
        return float(np.convolve(b, a[::-1]) @ kernel)
    rows = max(1, KERNEL_BLOCK_BYTES // (a.itemsize * a.size))
    buffer = np.empty((min(rows, b.size), a.size))
    total = 0.0
    for start in range(0, b.size, rows):
        block = buffer[:min(rows, b.size - start)]
        np.subtract.outer(xb[start:start + rows], xa, out=block)
        block += spec.delay
        np.power(block, -3.0, out=block)
        total += b[start:start + rows] @ block @ a
    return float(total)


@dataclass(frozen=True, eq=False)
class FieldProtocolResult:
    theta_opt: float
    e_b_max: float
    eta: float
    xi: float
    overlap: float
    e_a: float
    theta: float
    e_b_at_theta: float


def _check_functionals(name: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"profile {name} is out of range: its energy "
                         "functionals are not finite")


def _delay_free_terms(lambda_a: Profile,
                      p_b: Profile) -> tuple[float, float, float]:
    """(overlap, E_A, xi): the output-energy terms that no delay enters."""
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = vacuum_overlap(lambda_a)
        e_a = input_energy(lambda_a)
        xi = derivative_squared_integral(p_b)
    _check_functionals("lambda_A", overlap, e_a)
    _check_functionals("p_B", xi)
    return overlap, e_a, xi


def output_energy(spec: FieldProtocolSpec) -> FieldProtocolResult:
    """Optimal angle and extracted energy; ``theta = None`` means optimal.

    The extracted energy is checked against the fully expanded profile
    functional and a dense angle sweep before returning.  A profile whose
    functionals leave double range is rejected by name, and so is an angle
    whose output energy does.
    """
    return _output_energy(spec, *_delay_free_terms(spec.lambda_a, spec.p_b))


def delay_sweep(lambda_a: Profile, p_b: Profile, delays):
    """Yield :func:`output_energy` at the optimal angle for each delay.

    The overlap, the input energy and xi do not depend on the delay; they
    are computed once, after the first delay's spec validates, so every
    result and every error are those of :func:`output_energy` on that
    delay's spec.
    """
    terms = None
    for delay in delays:
        spec = FieldProtocolSpec(lambda_a, p_b, delay)
        if terms is None:
            terms = _delay_free_terms(lambda_a, p_b)
        yield _output_energy(spec, *terms)


def _output_energy(spec: FieldProtocolSpec, overlap: float, e_a: float,
                   xi: float) -> FieldProtocolResult:
    """:func:`output_energy` from its checked delay-free terms."""
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = kernel_double_integral(spec)
    eta = -4.0 / math.pi * overlap * kernel
    _check_functionals("pair lambda_A, p_B", kernel * kernel, eta * eta)
    if xi <= 0:
        raise ValueError(f"displacement fluctuation must be positive, got {xi}")
    theta_opt = eta / (2.0 * xi)
    e_b_max = eta * eta / (4.0 * xi)
    expanded = (4.0 * overlap**2 / math.pi**2) * kernel**2 / xi
    scale = max(1.0, abs(e_b_max))
    check_close("expanded output energy", expanded, e_b_max, 1e-12, scale)
    half_span = 2.0 * abs(theta_opt) + 1e-6
    sweep_thetas = np.linspace(-half_span, half_span, 2001)
    sweep = sweep_thetas * eta - sweep_thetas**2 * xi
    grid_step = sweep_thetas[1] - sweep_thetas[0]
    check_at_most("angle sweep maximum", sweep.max(), e_b_max, 1e-12, scale)
    check_close("angle sweep peak", sweep_thetas[int(np.argmax(sweep))],
                theta_opt, grid_step)
    theta = theta_opt if spec.theta is None else float(spec.theta)
    e_b_at_theta = theta * eta - theta * theta * xi
    if not math.isfinite(e_b_at_theta):
        raise ValueError(f"theta {theta!r} is too large: the output energy "
                         "theta*eta - theta**2*xi is not finite")
    return FieldProtocolResult(
        float(theta_opt), float(e_b_max), float(eta), float(xi),
        float(overlap), e_a, theta, float(e_b_at_theta),
    )


def overlap_discrepancy(lambda_a: Profile) -> tuple[float, float, float]:
    """(analytic, default oracle, relative gap); warns when the gate fails."""
    analytic = vacuum_overlap(lambda_a)
    oracle = finite_mode_oracle(lambda_a)
    rel = abs(analytic - oracle.overlap) / oracle.overlap
    if rel > 1e-6:
        warnings.warn(
            f"analytic overlap {analytic!r} disagrees with the mode oracle "
            f"{oracle.overlap!r} (relative {rel:.3g}); trust the oracle",
            stacklevel=2,
        )
    return analytic, oracle.overlap, rel
