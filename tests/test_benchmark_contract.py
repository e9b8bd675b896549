"""The benchmark's output checks, run once per workload as a tier-1 test.

``perfbench/jobs.py`` is loaded by path, as ``perfbench/run.py`` loads it,
and each workload runs two passes of its jobs at one fixed seed, as
``perfbench/run.py`` runs a warm-up pass and then timed ones.  Every job's
output of the first pass goes through the check the benchmark applies to
its warm-up pass, against ``perfbench/reference.json``; the second pass is
checked as a timed pass is, against the first.  So a change that would make
the benchmark report wrong outputs, or outputs that differ between passes,
fails here first.
"""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _load_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


jobs = _load_jobs()


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_workload_pass_matches_reference(workload, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    bench = jobs.WORKLOADS[workload](tmp_path, SEED, reference)
    joblist = bench.jobs()
    first = {}
    with warnings.catch_warnings():
        # the benchmark runs with every warning ignored
        warnings.simplefilter("ignore")
        for _ in range(2):
            state = {}
            outputs = {job.name: job.run(state) for job in joblist}
            for job in joblist:
                job.check(outputs[job.name], first.get(job.name))
            first = first or outputs
