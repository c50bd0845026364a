"""Record the output references the benchmark compares against.

    python3 perfbench/record_refs.py

Runs every workload's job once per reference seed and writes
``perfbench/refs/<workload>.json``.  Outputs that break a seed-independent
invariant are recorded as they are and reported.  References pin the outputs of the commit
that defined the benchmark; re-record them only when a change is meant to
alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import checks
import run

REFERENCE_SEEDS = range(10)


def main() -> int:
    run.pin_threads()
    workloads = run.import_program()
    checks.REFS_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        seeds = {}
        for seed in REFERENCE_SEEDS if workload.seeded_outputs else ["*"]:
            workdir = Path(tempfile.mkdtemp(prefix="work-", dir=run.BENCH_DIR))
            try:
                items = workload.setup(0 if seed == "*" else seed, workdir)
                jobdir = workdir / "job"
                jobdir.mkdir()
                outputs = [workload.run(item, jobdir) for item in items]
                refs = []
                for item, out in zip(items, outputs):
                    exact, approx = workload.record(item, out, jobdir)
                    for problem in workload.invariants(item, exact, approx):
                        print(f"{name} seed {seed} item {item.idx} ({item.group}): {problem}")
                    refs.append(checks.make_reference(exact, approx))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            seeds[str(seed)] = refs
        with open(checks.refs_path(name), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seeds": seeds}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
