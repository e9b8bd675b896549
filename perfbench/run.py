"""qetsim benchmark: one workload, one process, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain_ed --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory.  The process
generates the workload's inputs from ``--seed``, runs one untimed warm-up
pass, then repeats timed passes until ``--seconds`` have elapsed.  Every
job's output is checked (see ``jobs.py``).  Human-readable lines come first;
the last line of standard output is the result object.

End-to-end metrics (``--trace 0``):

* ``pass_s``: median wall time of one pass;
* ``setup_s``: from the start of this script to the first timed pass:
  imports, input generation and independent reference routes, and the
  warm-up pass that absorbs the first-BLAS-call and first-pass costs;
* ``peak_rss_mb``: peak resident set of this process.

Failed jobs over attempted jobs, ``fail_ratio``, is printed and carried by the
``failed`` and ``attempted`` fields.

With ``--trace 1`` the timed passes alternate untraced and traced; spans of
the traced passes give each layer's seconds, self seconds and calls per
pass, kernel probes run afterwards, and the spans are written to
``.perfbench_out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Spans reported per layer; each gives X.s, X.self_s and X.calls per pass.
SPAN_METRICS = (
    "ising.build.n12", "ising.build.n14",
    "chain.ground.n12", "chain.ground.n14", "chain.ground.n10c",
    "chain.normalize", "chain.eta_xi", "chain.run_protocol",
    "chain.best_teleportable_energy", "chain.energy_distribution",
    "chain.random_chain_model", "chain.residual_energy",
    "field.vacuum_overlap", "field.kernel_double_integral",
    "field.output_energy", "field.finite_mode_oracle",
    "cli.minimal", "cli.sweep_minimal", "cli.ising_analytic",
    "cli.ising_numeric", "cli.verify_core", "cli.verify_minimal",
    "cli.verify_chain", "cli.verify_ising",
    "cli.sweep_field", "cli.field_oracle", "cli.verify_field",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_libraries() -> dict[str, int]:
    """Loaded OpenBLAS libraries and their thread counts."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return found


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    import qetsim
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_libraries(),
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get(
            "openblas configuration", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qetsim": qetsim.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs passes of a job list and checks every job's output."""

    def __init__(self, jobs, tracer):
        self.jobs = jobs
        self.tracer = tracer
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, index: int) -> float:
        state: dict = {}
        outputs = {}
        gc.collect()  # garbage of earlier passes is not this pass's cost
        start = time.perf_counter()
        for job in self.jobs:
            with self.tracer.span(job.name):
                try:
                    outputs[job.name] = job.run(state)
                except Exception as exc:  # a failing job is counted, not fatal
                    outputs[job.name] = exc
        elapsed = time.perf_counter() - start
        for job in self.jobs:
            self.attempted += 1
            out = outputs[job.name]
            try:
                if isinstance(out, Exception):
                    raise out
                job.check(out, self.first.get(job.name))
            except Exception as exc:
                self.failed += 1
                print(f"FAIL pass {index} job {job.name}: {exc!r}",
                      file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
                continue
            if index < 0:
                self.first[job.name] = out
        return elapsed


def measure(runner, tracer, install, seconds: float, trace: bool):
    """Timed passes until ``seconds`` elapse; with tracing, alternate."""
    untraced, traced = [], []
    begin = time.perf_counter()
    index = 0
    while (time.perf_counter() - begin < seconds
           or (trace and not traced)):
        if trace and index % 2 == 1:
            with tracer.traced_pass(index, install):
                traced.append(runner.run_pass(index))
        else:
            untraced.append(runner.run_pass(index))
        index += 1
    return untraced, traced


def layer_metrics(tracer, untraced, traced) -> dict[str, tuple[float, str]]:
    metrics = {}
    per_pass = tracer.per_pass()
    for name in SPAN_METRICS:
        rows = per_pass.get(name, [(0.0, 0.0, 0)])
        metrics[f"{name}.s"] = (statistics.median(r[0] for r in rows), "s")
        metrics[f"{name}.self_s"] = (statistics.median(r[1] for r in rows), "s")
        metrics[f"{name}.calls"] = (
            float(statistics.median(r[2] for r in rows)), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qetsim" / "__init__.py").is_file():
        print(f"error: no qetsim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import jobs
    import probes
    import tracing
    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    env = environment(args)
    if max(env["blas_threads"].values(), default=0) > env["nproc"]:
        print("error: BLAS runs more threads than nproc", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = jobs.WORKLOADS[args.workload](workdir, args.seed, reference)
        tracer = tracing.Tracer(args.workload)
        runner = Runner(workload.jobs(), tracer)
        runner.run_pass(-1)
        setup_s = time.perf_counter() - START
        untraced, traced = measure(runner, tracer, jobs.install_layer_spans,
                                   args.seconds, bool(args.trace))
        if args.trace:
            metrics = layer_metrics(tracer, untraced, traced)
            metrics.update(probes.run_probes(workdir))
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"pass_s": (statistics.median(untraced), "s"),
                       "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak, "MB")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        outdir = ROOT / ".perfbench_out"
        outdir.mkdir(exist_ok=True)
        path = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"# spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for label, times in (("untraced", untraced), ("traced", traced)):
        if times:
            print(f"# {len(times)} {label} passes (s): "
                  + ", ".join(f"{t:.3f}" for t in times))
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in probes.COMPUTED else ""
        print(f"{name:48s} {value:14.6g} {unit}{label}")
    fail_ratio = runner.failed / runner.attempted
    print(f"{'fail_ratio':48s} {fail_ratio:14.6g} "
          f"({runner.failed} of {runner.attempted} jobs)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
