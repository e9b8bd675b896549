"""Kernel probes: one call on a fixed input, timed after a warm-up.

Each probe reports the median per-call time of five batches, a batch being
as many calls as take at least 50 ms.  Probes run in the traced run of every
workload on the same fixed inputs, so they read the same kernel whichever
workload carries them.  Counts labelled "computed" follow from array sizes
and the program's defaults; they are not measured.
"""

from __future__ import annotations

import inspect
import statistics
import time

import numpy as np

from qetsim import chain, core, field

BATCH_SECONDS = 0.05
BATCHES = 5
AMPLITUDE_BYTES = np.dtype(complex).itemsize
COMPUTED = frozenset((
    "chain.matvec.n14_amp_updates", "chain.matvec.n14_bytes",
    "field.vacuum_overlap.p1025_fft_len",
    "field.finite_mode_oracle.p1025_mode_samples",
))


def per_call_seconds(call) -> float:
    call()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        elapsed = time.perf_counter() - start
        if elapsed >= BATCH_SECONDS:
            break
        calls *= 2
    samples = [elapsed / calls]
    for _ in range(BATCHES - 1):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def ising_chain(workdir, n: int) -> chain.ChainModel:
    """Unnormalized critical Ising chain, loaded without a ground state."""
    path = workdir / f"ising{n}.txt"
    path.write_text(f"n_sites = {n}\nboundary = periodic\nx = -1*z\n"
                    "bond = x ; -1.0\n", encoding="utf-8")
    return chain.load_chain_model(path)


def default(func, name: str):
    return inspect.signature(func).parameters[name].default


def run_probes(workdir) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    rng = np.random.default_rng(2011)
    for n in (14, 8):
        model = ising_chain(workdir, n)
        # a normalized complex vector has the ground vector's shape and dtype
        vec = core.random_state(n, rng).amplitudes
        bond = core.LocalOperator((n // 2, n // 2 + 1),
                                  np.kron(core.PAULI_X, core.PAULI_X))
        metrics[f"core.apply_local.n{n}_us"] = (
            1e6 * per_call_seconds(lambda: core.apply_local(bond, vec, n)),
            "us")
        metrics[f"chain.matvec.n{n}_us"] = (
            1e6 * per_call_seconds(lambda: model.apply_hamiltonian(vec)), "us")
        if n == 14:
            # computed: every site and bond piece reads the input vector and
            # reads and writes the accumulator once
            pieces = model.n_sites + len(model.channels) * model.n_bonds
            metrics["chain.matvec.n14_amp_updates"] = (
                float(pieces * 2**n), "count")
            metrics["chain.matvec.n14_bytes"] = (
                float(3 * pieces * 2**n * AMPLITUDE_BYTES), "bytes")

    pad = default(field.vacuum_overlap, "pad_factor")
    modes = default(field.finite_mode_oracle, "n_modes")
    for n in (257, 1025):
        lam = field.Profile.sin_squared(0.1, 0.0, 1.0, n)
        metrics[f"field.vacuum_overlap.p{n}_ms"] = (
            1e3 * per_call_seconds(lambda: field.vacuum_overlap(lam)), "ms")
    lam = field.Profile.sin_squared(0.1, 0.0, 1.0, 1025)
    p_b = field.Profile.sin_squared(0.1, 3.0, 1.0, 1025)
    spec = field.FieldProtocolSpec(lam, p_b, 3.0)
    metrics["field.kernel_double_integral.p1025_ms"] = (
        1e3 * per_call_seconds(lambda: field.kernel_double_integral(spec)),
        "ms")
    # computed: zero-padded FFT length and the oracle's mode-sample products
    metrics["field.vacuum_overlap.p1025_fft_len"] = (
        float(1 << (1025 * pad - 1).bit_length()), "count")
    metrics["field.finite_mode_oracle.p1025_mode_samples"] = (
        float(modes * 1025), "count")
    return metrics
