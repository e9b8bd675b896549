"""The benchmark's three workloads: seeded inputs, fixed job lists, checks.

Each workload is a closed loop: one process runs one job at a time and
waits for it, as a researcher's script does.  A pass is the workload's fixed
job list; jobs call the public functions of the qetsim layers in the order
the CLI handlers call them, and CLI jobs run ``qetsim.cli.main`` in-process.

Every job's output is checked outside the timed region:

* a CLI job must exit 0;
* a brute-force output energy must meet its closed form within 1e-10;
* outputs of fixed inputs must match ``reference.json``, recorded with
  ``record_reference.py``, within the tolerance the package states for the
  quantity (1e-12 construction, 1e-10 algebraic identities, 1e-9 for
  anything derived from an eigensolver, the 1e-6 overlap-oracle gate);
* outputs of seeded inputs are checked once against an independent route
  (a dense Hamiltonian built here, exact amplitude scaling of the field
  functionals) and every later pass must reproduce the first within 1e-9.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qetsim import chain, cli, core, field, ising

EIGEN_TOL = 1e-9
ALGEBRA_TOL = 1e-10
CONSTRUCT_TOL = 1e-12
ORACLE_GATE = 1e-6


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Job:
    """One unit of work: ``run(state)`` is timed, ``check(out, first)`` not.

    ``state`` carries models between the jobs of one pass; ``first`` is the
    job's output from the warm-up pass, or None during the warm-up pass.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, object], None]


def expect_close(what: str, got: float, want: float, rtol: float,
                 atol: float = 0.0) -> None:
    if not abs(got - want) <= max(rtol * abs(want), atol):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def expect_at_least(what: str, got: float, floor: float) -> None:
    if not got >= floor - ALGEBRA_TOL:
        raise CheckFailed(f"{what}: got {got!r}, want at least {floor!r}")


def expect_same(out: dict, want: dict, keys, tol: float) -> None:
    """Energies compared at ``tol`` relative to max(1, |value|)."""
    for key in keys:
        expect_close(key, out[key], want[key], tol, tol)


# ---------------------------------------------------------------- CLI jobs

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect_exit_zero(result) -> str:
    code, out, err = result
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.strip()}")
    return out


def expect_same_text(got: str, want: str, rtol: float, atol: float) -> None:
    """Same text with every number replaced; numbers within tolerance."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        raise CheckFailed("output layout differs from the reference")
    for i, (g, w) in enumerate(zip(_NUMBER.findall(got), _NUMBER.findall(want))):
        expect_close(f"number {i}", float(g), float(w), rtol, atol)


def suite_lines(text: str) -> list[str]:
    """Status and check name of each verify line, without its detail."""
    return [line.split(" (", 1)[0] for line in text.splitlines()
            if not line.startswith("#")]


def expect_suite(text: str, want: list[str]) -> None:
    lines = suite_lines(text)
    failed = [line for line in lines if not line.startswith("ok ")]
    if failed:
        raise CheckFailed(f"failed checks: {failed}")
    if lines != want:
        raise CheckFailed(f"checks {lines} differ from the reference {want}")


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def number(text: str) -> float:
    """Parse a CSV cell, which may read ``np.float64(x)``."""
    return float(_NUMBER.findall(text)[-1])


# ------------------------------------------------- independent dense route

def dense_ground_energy(onsite, channels, boundary: str) -> float:
    """Lowest eigenvalue of the chain Hamiltonian, assembled from krons.

    ``onsite`` holds one 2x2 matrix per site; ``channels`` holds pairs of
    per-site 2x2 matrices and per-bond couplings.  Site 0 is the most
    significant bit.  This shares no code with ``qetsim.chain``.
    """
    n = len(onsite)
    eye = np.eye(2)

    def embed(factors: dict[int, np.ndarray]) -> np.ndarray:
        out = np.ones((1, 1))
        for site in range(n):
            out = np.kron(out, factors.get(site, eye))
        return out

    ham = sum(embed({s: op}) for s, op in enumerate(onsite))
    n_bonds = n if boundary == "periodic" else n - 1
    for y_ops, couplings in channels:
        for bond in range(n_bonds):
            a, b = bond, (bond + 1) % n
            ham = ham + couplings[bond] * embed({a: y_ops[a], b: y_ops[b]})
    return float(np.linalg.eigvalsh(ham)[0])


def model_ground_energy(model: chain.ChainModel) -> float:
    onsite = [x - s * np.eye(2) for x, s in zip(model.x_ops, model.shifts)]
    channels = [(ch.y_ops, ch.couplings) for ch in model.channels]
    return dense_ground_energy(onsite, channels, model.boundary)


# ------------------------------------------------------- chain protocol jobs

def protocol(model: chain.ChainModel, u, site_a: int, site_b: int) -> dict:
    """The ``qetsim chain`` sequence: eta/xi, optimal angle, brute force."""
    meas = core.projective_pauli_measurement(u, site_a)
    sigma_a = core.pauli_component(u, site_a)
    g_b = core.LocalOperator((site_b,), core.PAULI_Y)
    eta, xi = chain.eta_xi(model, sigma_a, g_b)
    theta, e_b_closed = chain.optimal_angle(eta, xi)
    run = chain.run_protocol(
        model, chain.ChainProtocolSpec(site_a, site_b, meas, g_b, theta))
    return {"e_a": run.e_a, "eta": eta, "xi": xi,
            "e_b_closed": e_b_closed, "e_b": run.e_b}


PROTOCOL_KEYS = ("e_a", "eta", "xi", "e_b_closed", "e_b")


def check_protocol(out: dict) -> None:
    expect_close("brute-force E_B against the closed form", out["e_b"],
                 out["e_b_closed"], 0.0, ALGEBRA_TOL)


X_AXIS = (1.0, 0.0, 0.0)


class ChainEd:
    """Exact diagonalization at 12, 14 and 10 (complex) sites."""

    name = "chain_ed"
    SIZES = ("n12", "n14", "n10c")

    def __init__(self, workdir, seed: int, reference: dict | None):
        self.reference = reference["chain_ed"] if reference else None
        rng = np.random.default_rng([seed, 10])
        onsite, channels, text = random_complex_chain(rng, 10)
        self.chain_file = workdir / "chain10c.txt"
        self.chain_file.write_text(text, encoding="utf-8")
        self.e0_dense = dense_ground_energy(onsite, channels, "periodic")

    def want(self, label: str, job: str, first):
        """Recorded reference for the Ising sizes, warm-up output otherwise."""
        if label == "n10c":
            return first
        return self.reference[label][job]

    def jobs(self) -> list[Job]:
        jobs = []
        for label in self.SIZES:
            jobs.append(Job(f"{label}.build", self._build(label),
                            self._check_build(label)))
            for dir_label, u in ising.DEFAULT_DIRECTIONS:
                jobs.append(Job(f"{label}.protocol.{dir_label}",
                                self._protocol(label, u),
                                self._check_protocol(label, dir_label)))
            jobs.append(Job(f"{label}.best_teleportable_energy",
                            self._best(label), self._check_best(label)))
            jobs.append(Job(f"{label}.energy_distribution",
                            self._distribution(label),
                            self._check_distribution(label)))
        return jobs

    def _build(self, label):
        def run(state):
            if label == "n10c":
                model = chain.load_chain_model(self.chain_file)
                energy = model.ground.energy
                model = chain.normalize(model)
            else:
                model = ising.build(ising.IsingParams(1.0, int(label[1:])))
                # normalization moved the ground energy into the shifts
                energy = math.fsum(model.shifts)
            state[label] = model
            return {"ground_energy": energy}

        return run

    def _check_build(self, label):
        def check(out, first):
            want = ({"ground_energy": self.e0_dense} if label == "n10c"
                    else self.reference[label]["build"])
            expect_same(out, want, ("ground_energy",), EIGEN_TOL)

        return check

    def _protocol(self, label, u):
        def run(state):
            model = state[label]
            out = protocol(model, u, 0, model.n_sites // 2)
            state[label, u] = out
            return out

        return run

    def _check_protocol(self, label, dir_label):
        def check(out, first):
            check_protocol(out)
            want = self.want(label, f"protocol.{dir_label}", first)
            if want is not None:
                expect_same(out, want, PROTOCOL_KEYS, EIGEN_TOL)

        return check

    def _best(self, label):
        def run(state):
            meas = core.projective_pauli_measurement(X_AXIS, 0)
            value, _ = chain.best_teleportable_energy(state[label], meas)
            return {"value": value, "x_protocol": state[label, X_AXIS]}

        return run

    def _check_best(self, label):
        def check(out, first):
            # the search covers the y generator at B that the x run used
            expect_at_least("best energy against the x-direction run",
                            out["value"], out["x_protocol"]["e_b_closed"])
            want = self.want(label, "best_teleportable_energy", first)
            if want is not None:
                expect_same(out, want, ("value",), EIGEN_TOL)

        return check

    def _distribution(self, label):
        def run(state):
            model = state[label]
            meas = core.projective_pauli_measurement(X_AXIS, 0)
            sites = (3, model.n_sites - 3)
            dist = chain.energy_distribution(model, 0, meas, sites)
            out = {"e_a": dist.e_a, "total": dist.total_extracted,
                   "x_protocol_e_a": state[label, X_AXIS]["e_a"]}
            for i, (_, _, energy) in enumerate(dist.entries):
                out[f"site{i}"] = energy
            return out

        return run

    def _check_distribution(self, label):
        def check(out, first):
            expect_close("input energy against the x-direction run",
                         out["e_a"], out["x_protocol_e_a"], 0.0, ALGEBRA_TOL)
            want = self.want(label, "energy_distribution", first)
            if want is not None:
                expect_same(out, want, ("e_a", "total", "site0", "site1"),
                            EIGEN_TOL)

        return check

    def reference_record(self, outputs: dict) -> dict:
        record = {}
        for label in ("n12", "n14"):
            record[label] = {}
            for key, out in outputs.items():
                if key.startswith(label + "."):
                    out = {k: v for k, v in out.items()
                           if isinstance(v, float)}
                    record[label][key[len(label) + 1:]] = out
        return record


def random_complex_chain(rng: np.random.Generator, n: int):
    """Seeded periodic chain whose on-site operators have ``y`` parts.

    Returns the on-site matrices, the channels and the chain file text; the
    coefficients are rounded so the file states them exactly.
    """
    def coef(lo, hi):
        return round(float(rng.uniform(lo, hi)), 12)

    lines = [f"n_sites = {n}", "boundary = periodic"]
    onsite = []
    for site in range(n):
        z, x, y = coef(-1.2, -0.6), coef(-0.3, 0.3), coef(0.1, 0.4)
        lines.append(f"x[{site}] = {z:+.12f}*z {x:+.12f}*x {y:+.12f}*y")
        onsite.append(z * core.PAULI_Z + x * core.PAULI_X + y * core.PAULI_Y)
    channels = []
    for pauli, name, lo, hi in ((core.PAULI_X, "x", -1.0, -0.6),
                                (core.PAULI_Z, "z", -0.3, 0.3)):
        couplings = [coef(lo, hi) for _ in range(n)]
        lines.append(f"bond = {name} ; "
                     + ", ".join(f"{g:.12f}" for g in couplings))
        channels.append(([pauli] * n, couplings))
    return onsite, channels, "\n".join(lines) + "\n"


# ------------------------------------------------------------ small runs

class SmallRuns:
    """Short CLI commands, small random chains and one cooling search."""

    name = "small_runs"
    # (span name, argv, comparison): "suite" compares check names, a
    # (rtol, atol) pair compares every number of the output text
    CLI_JOBS = (
        ("cli.minimal", ["minimal", "--h", "1", "--k", "1"],
         (ALGEBRA_TOL, CONSTRUCT_TOL)),
        ("cli.sweep_minimal", ["sweep", "minimal", "--param", "k", "--range",
                               "0.1:10:50", "--log"],
         (ALGEBRA_TOL, CONSTRUCT_TOL)),
        ("cli.ising_analytic", ["ising", "--J", "1", "--n", "1:100", "--fit"],
         (ALGEBRA_TOL, 0.0)),
        ("cli.ising_numeric", ["ising", "--mode", "numeric", "--N", "8"],
         (EIGEN_TOL, EIGEN_TOL)),
        ("cli.verify_core", ["verify", "--suite", "core"], "suite"),
        ("cli.verify_minimal", ["verify", "--suite", "minimal"], "suite"),
        ("cli.verify_chain", ["verify", "--suite", "chain"], "suite"),
        ("cli.verify_ising", ["verify", "--suite", "ising"], "suite"),
    )
    RANDOM_SIZES = (6, 8)
    COOLING_SITES = 8
    COOLING_STARTS = 4

    def __init__(self, workdir, seed: int, reference: dict | None):
        self.reference = reference["small_runs"] if reference else None
        self.seed = seed
        self.cooling_seed = int(np.random.default_rng([seed, 0]).integers(2**31))

    def jobs(self) -> list[Job]:
        jobs = [Job(name, self._cli(argv), self._check_cli(name, compare))
                for name, argv, compare in self.CLI_JOBS]
        jobs += [Job(f"random.n{n}", self._random(n), self._check_random)
                 for n in self.RANDOM_SIZES]
        jobs.append(Job("residual.n8", self._residual, self._check_residual))
        return jobs

    @staticmethod
    def _cli(argv):
        return lambda state: run_cli(argv)

    def _check_cli(self, name, compare):
        def check(result, first):
            out = expect_exit_zero(result)
            want = self.reference[name]
            if compare == "suite":
                expect_suite(out, want)
            else:
                expect_same_text(out, want, *compare)
            routes = _CLI_ROUTES.get(name)
            if routes:
                routes(out)

        return check

    def _random(self, n):
        def run(state):
            rng = np.random.default_rng([self.seed, n])
            model = chain.random_chain_model(n, rng)
            out = protocol(model, X_AXIS, 0, n // 2)
            meas = core.projective_pauli_measurement(X_AXIS, 0)
            out["best"], _ = chain.best_teleportable_energy(model, meas)
            out["model"] = model
            return out

        return run

    @staticmethod
    def _check_random(out, first):
        check_protocol(out)
        expect_at_least("best energy against the x-direction run",
                        out["best"], out["e_b_closed"])
        if first is None:
            expect_close("dense ground energy of the normalized chain",
                         model_ground_energy(out["model"]), 0.0, 0.0,
                         EIGEN_TOL)
        else:
            expect_same(out, first, PROTOCOL_KEYS + ("best",), EIGEN_TOL)

    def _residual(self, state):
        model = ising.build(ising.IsingParams(1.0, self.COOLING_SITES))
        meas = core.projective_pauli_measurement(X_AXIS, 0)
        res = chain.residual_energy(model, 0, meas,
                                    n_starts=self.COOLING_STARTS,
                                    seed=self.cooling_seed)
        return {"e_a": res.e_a, "e_r": res.e_r, "e_b_max": res.e_b_max}

    def _check_residual(self, out, first):
        if not out["e_b_max"] <= out["e_r"] + EIGEN_TOL:
            raise CheckFailed(f"E_B {out['e_b_max']!r} above E_r {out['e_r']!r}")
        if not out["e_r"] <= out["e_a"] + CONSTRUCT_TOL:
            raise CheckFailed(f"E_r {out['e_r']!r} above E_A {out['e_a']!r}")
        expect_same(out, self.reference["residual.n8"], ("e_a", "e_b_max"),
                    EIGEN_TOL)
        if first is not None:
            expect_same(out, first, ("e_r",), EIGEN_TOL)

    def reference_record(self, outputs: dict) -> dict:
        record = {}
        for name, _, compare in self.CLI_JOBS:
            text = outputs[name][1]
            record[name] = suite_lines(text) if compare == "suite" else text
        record["residual.n8"] = {k: outputs["residual.n8"][k]
                                 for k in ("e_a", "e_b_max")}
        return record


def _minimal_routes(out: str) -> None:
    payload = json.loads(out)
    expect_close("minimal E_B against E_B_max", payload["E_B"],
                 payload["E_B_max"], 0.0, ALGEBRA_TOL)


def _sweep_minimal_routes(out: str) -> None:
    for row in csv_rows(out):
        expect_close(f"sweep row {row['index']} E_B against E_B_max",
                     number(row["E_B"]), number(row["E_B_max"]), 0.0,
                     ALGEBRA_TOL)


def _ising_numeric_routes(out: str) -> None:
    for row in csv_rows(out):
        expect_close(f"direction {row['direction']} brute-force E_B",
                     number(row["E_B_numeric"]), number(row["E_B_closed"]),
                     0.0, ALGEBRA_TOL)


_CLI_ROUTES = {
    "cli.minimal": _minimal_routes,
    "cli.sweep_minimal": _sweep_minimal_routes,
    "cli.ising_numeric": _ising_numeric_routes,
}


# ------------------------------------------------------------ field scan

class FieldScan:
    """Field sweep, refined oracle run and the field verify suite."""

    name = "field_scan"
    # amplitudes of lambda_A and p_B and a common shift; the reference is
    # recorded at BASE and every output scales exactly with the amplitudes
    BASE = (0.1, 0.1, 0.0)
    SAMPLES = (257, 1025)

    def __init__(self, workdir, seed: int, reference: dict | None,
                 inputs: tuple[float, float, float] | None = None):
        self.reference = reference["field_scan"] if reference else None
        if inputs is None:
            rng = np.random.default_rng([seed, 1])
            inputs = (float(rng.uniform(0.05, 0.25)),
                      float(rng.uniform(0.05, 0.25)),
                      float(rng.uniform(-5.0, 5.0)))
        self.amp_a, self.amp_b, shift = inputs
        self.files = {}
        for n in self.SAMPLES:
            lam = field.Profile.sin_squared(self.amp_a, shift, 1.0, n)
            p_b = field.Profile.sin_squared(self.amp_b, shift + 3.0, 1.0, n)
            self.files[n] = (workdir / f"lambda{n}.csv", workdir / f"pb{n}.csv")
            lam.to_csv(self.files[n][0])
            p_b.to_csv(self.files[n][1])

    def jobs(self) -> list[Job]:
        lam257, pb257 = (str(p) for p in self.files[257])
        lam1025, pb1025 = (str(p) for p in self.files[1025])
        sweep = ["sweep", "field", "--param", "T", "--range", "2:8:13",
                 "--lambda-file", lam257, "--p-file", pb257]
        single = ["field", "--lambda-file", lam1025, "--p-file", pb1025,
                  "--T", "3", "--refine", "1", "--oracle"]
        return [
            Job("cli.sweep_field", lambda state: run_cli(sweep),
                self._check_sweep),
            Job("cli.field_oracle", lambda state: run_cli(single),
                self._check_single),
            Job("cli.verify_field",
                lambda state: run_cli(["verify", "--suite", "field"]),
                self._check_verify),
        ]

    def _scale(self, base: dict, overlap: float) -> dict:
        """Outputs at the seeded amplitudes from those at BASE.

        The overlap is exp(-c a^2), the kernel integral is bilinear in the
        two amplitudes and xi is quadratic in the displacement amplitude.
        """
        ra, rb = self.amp_a / self.BASE[0], self.amp_b / self.BASE[1]
        scaled_overlap = overlap ** (ra * ra)
        eta = base["eta"] * ra * rb * scaled_overlap / overlap
        xi = base["xi"] * rb * rb
        return {"eta": eta, "xi": xi, "theta_opt": eta / (2.0 * xi),
                "E_B_max": eta * eta / (4.0 * xi), "overlap": scaled_overlap}

    def _check_sweep(self, result, first):
        rows = csv_rows(expect_exit_zero(result))
        ref = self.reference["cli.sweep_field"]
        if len(rows) != len(ref["rows"]):
            raise CheckFailed(f"{len(rows)} sweep rows, want {len(ref['rows'])}")
        for row, base in zip(rows, ref["rows"]):
            want = self._scale(base, ref["overlap"])
            expect_close("T", number(row["T"]), base["T"], 0.0, 0.0)
            for key in ("eta", "xi", "theta_opt", "E_B_max"):
                expect_close(f"T={row['T']} {key}", number(row[key]),
                             want[key], ALGEBRA_TOL)

    def _check_single(self, result, first):
        payload = json.loads(expect_exit_zero(result))
        ref = self.reference["cli.field_oracle"]
        ra = self.amp_a / self.BASE[0]
        want = self._scale(ref, ref["overlap"])
        want["E_A"] = ref["E_A"] * ra * ra
        for key in ("eta", "xi", "theta_opt", "E_B_max", "overlap", "E_A"):
            expect_close(key, payload[key], want[key], ALGEBRA_TOL)
        coarse = payload["refinement"][0]
        want = self._scale(ref["refinement"], ref["refinement"]["overlap"])
        for key in ("eta", "xi", "E_B_max"):
            expect_close(f"stride-2 {key}", coarse[key], want[key],
                         ALGEBRA_TOL)
        oracle = payload["oracle"]
        expect_close("oracle overlap", oracle["overlap_oracle"],
                     ref["overlap_oracle"] ** (ra * ra), ALGEBRA_TOL)
        if not oracle["relative_gap"] <= ORACLE_GATE:
            raise CheckFailed(
                f"overlap-oracle gap {oracle['relative_gap']!r} > 1e-6")

    def _check_verify(self, result, first):
        expect_suite(expect_exit_zero(result),
                     self.reference["cli.verify_field"])

    def reference_record(self, outputs: dict) -> dict:
        rows = [{"T": number(r["T"]), "eta": number(r["eta"]),
                 "xi": number(r["xi"])}
                for r in csv_rows(outputs["cli.sweep_field"][1])]
        overlap257 = field.vacuum_overlap(
            field.Profile.from_csv(self.files[257][0]))
        payload = json.loads(outputs["cli.field_oracle"][1])
        single = {k: payload[k] for k in ("eta", "xi", "overlap", "E_A")}
        single["overlap_oracle"] = payload["oracle"]["overlap_oracle"]
        single["refinement"] = {k: payload["refinement"][0][k]
                                for k in ("eta", "xi")}
        single["refinement"]["overlap"] = field.vacuum_overlap(
            field.Profile.from_csv(self.files[1025][0]).coarsened(2))
        return {
            "cli.sweep_field": {"overlap": overlap257, "rows": rows},
            "cli.field_oracle": single,
            "cli.verify_field": suite_lines(outputs["cli.verify_field"][1]),
        }


WORKLOADS = {w.name: w for w in (ChainEd, SmallRuns, FieldScan)}


def _model_is_complex(model: chain.ChainModel) -> bool:
    ops = list(model.x_ops) + [y for ch in model.channels for y in ch.y_ops]
    return any(np.any(op.imag) for op in ops)


def install_layer_spans(tracer) -> None:
    """Wrap the public layer functions the workloads reach, for one pass."""
    tracer.patch(ising, "build",
                 lambda params, *a, **k: f"ising.build.n{params.n_sites}")
    tracer.patch(chain.ChainModel, "ground",
                 lambda model: f"chain.ground.n{model.n_sites}"
                 + ("c" if _model_is_complex(model) else ""))
    for name in ("load_chain_model", "normalize", "eta_xi", "optimal_angle",
                 "run_protocol", "best_teleportable_energy",
                 "energy_distribution", "random_chain_model",
                 "residual_energy"):
        tracer.patch(chain, name, _fixed_name(f"chain.{name}"))
    for name in ("vacuum_overlap", "kernel_double_integral", "output_energy",
                 "finite_mode_oracle"):
        tracer.patch(field, name, _fixed_name(f"field.{name}"))


def _fixed_name(name: str):
    return lambda *args, **kwargs: name
