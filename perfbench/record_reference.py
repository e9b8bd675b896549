"""Record the reference outputs the benchmark checks its fixed jobs against.

Run from the repository root after a change that is meant to alter outputs::

    python3 perfbench/record_reference.py

It runs one pass of each workload (the field scan at its base amplitudes),
keeps the outputs of the jobs whose inputs do not depend on the seed, and
rewrites ``perfbench/reference.json``.
"""

import json
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore")
    workdir = HERE.parent / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = {}
        for cls in jobs.WORKLOADS.values():
            if cls is jobs.FieldScan:
                workload = cls(workdir, 0, None, inputs=cls.BASE)
            else:
                workload = cls(workdir, 0, None)
            state: dict = {}
            outputs = {job.name: job.run(state) for job in workload.jobs()}
            record[cls.name] = workload.reference_record(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
