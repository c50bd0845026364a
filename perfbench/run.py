"""Benchmark of the infolattice library and CLI.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload potts_sweep --seed 0 --seconds 20 --trace 0

Workloads: potts_sweep, dense_lattice, clifford_exact, cli_jobs (see
``workloads.py``).  A single closed-loop client issues one item at a time,
each after the previous one finished.  BLAS threads and INFOLATTICE_THREADS
are pinned to 1 before numpy is imported.

A job is the workload's fixed item list for the seed.  ``--seconds`` sets how
many jobs run, from each workload's nominal job time at the commit that
defined the benchmark, so the parent and a change do identical work and
their percentiles rank the same items.  The item mixes keep the median and
the tail item (10 items beyond it) inside one size group each.

``--trace 0`` prints the end-to-end metrics: job_s (median job wall time),
item_p50_s, item_tail_s, setup_s (median over several set-ups, each in a
fresh process: imports, input generation and one untimed warm-up item) and
peak_rss_mb.  ``--trace 1`` alternates untraced and traced jobs and prints
the per-layer metrics, per traced job.  Outputs are checked after each job,
outside the timed region; failed items count in ``failed``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "INFOLATTICE_THREADS")
SETUP_RUNS = 5  # set-ups per measured run: this process plus fresh ones
TAIL_BEYOND = 10  # items slower than the reported tail item


def pin_threads() -> None:
    for var in PINNED_ENV:
        os.environ[var] = "1"


def import_program():
    """Import the checkout's sources (never an installed copy) and the workloads."""
    if not (SRC / "infolattice" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no infolattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import infolattice

    if not Path(infolattice.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported infolattice from {infolattice.__file__}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# run record


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the program's sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    import infolattice

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pinned_env": {var: os.environ[var] for var in PINNED_ENV},
        "kernel_backend": infolattice.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
    }


# ---------------------------------------------------------------------------
# measurement


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) pairs reported by a traced run, in output order."""
    names = []
    for span in tracing.SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [(name, "count") for name in tracing.COUNTER_NAMES]
    names += [("cli.bytes_written", "bytes"), ("trace.overhead_s", "s"), ("bench.self_s", "s")]
    return names


def _setup_probe(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.split()[-1])


def _tail(latencies: list[float], groups: list[str]):
    """Item at the highest rank with TAIL_BEYOND items beyond it."""
    ranked = sorted(zip(latencies, groups))
    n = len(ranked)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ranked[k][0], ranked[k][1], 100.0 * (k + 1) / n


def _median_group(latencies: list[float], groups: list[str]) -> str:
    ranked = sorted(zip(latencies, groups))
    n = len(ranked)
    middle = {ranked[(n - 1) // 2][1], ranked[n // 2][1]}
    return "/".join(sorted(middle))


def run_jobs(workload, items, order, workdir: Path, jobs: int, trace: bool, refs):
    """Run the jobs, check outputs untimed; return timing, failures and tracer."""
    tracer = tracing.Tracer() if trace else None
    latencies: list[float] = []
    groups: list[str] = []
    job_s = {False: [], True: []}
    written: list[int] = []
    attempted = failed = 0
    for j in range(jobs):
        traced = trace and j % 2 == 1
        jobdir = workdir / f"job{j}"
        jobdir.mkdir()
        outputs = []
        ctx = tracer.installed() if traced else contextlib.nullcontext()
        with ctx:
            t_job = time.perf_counter()
            for item in order:
                t0 = time.perf_counter()
                try:
                    out, err = workload.run(item, jobdir), None
                except Exception as exc:  # an item failure is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
                groups.append(item.group)
                outputs.append((item, out, err))
            job_s[traced].append(time.perf_counter() - t_job)
        for item, out, err in outputs:
            attempted += 1
            problems = [err] if err else check_item(workload, item, out, jobdir, refs)
            if problems:
                failed += 1
                print(f"FAIL item {item.idx} ({item.group}): {'; '.join(problems)}", file=sys.stderr)
        if traced:
            written.append(sum(p.stat().st_size for p in jobdir.iterdir()))
        shutil.rmtree(jobdir)
    return latencies, groups, job_s, written, attempted, failed, tracer


def check_item(workload, item, output, jobdir: Path, refs) -> list[str]:
    """Compare with the seed's references if recorded, else check invariants."""
    try:
        exact, approx = workload.record(item, output, jobdir)
    except Exception as exc:  # unreadable output is a failed item
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
    if refs is not None:
        return checks.check_against(refs[item.idx], exact, approx)
    return workload.invariants(item, exact, approx)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    t_setup = time.perf_counter()
    wl_module = import_program()
    workload = wl_module.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    try:
        items = workload.setup(args.seed, workdir)
        warmdir = workdir / "warmup"
        warmdir.mkdir()
        workload.run(items[0], warmdir)
        setup_s = time.perf_counter() - t_setup
        if args.setup_only:
            print(repr(setup_s))
            return 0

        record = run_record(args.seed)
        print("run record: " + json.dumps(record, sort_keys=True))
        setups = [setup_s]
        if not args.trace:
            setups += [_setup_probe(args) for _ in range(SETUP_RUNS - 1)]
        refs = checks.load_refs(workload.name, args.seed)
        jobs = max(2, round(args.seconds / workload.nominal_job_s))
        order = workload.order(items, args.seed)
        latencies, groups, job_s, written, attempted, failed, tracer = run_jobs(
            workload, items, order, workdir, jobs, bool(args.trace), refs
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload {workload.name}: {jobs} jobs x {len(items)} items, "
        f"outputs checked against {'references' if refs else 'invariants only'}; "
        f"failed {failed}/{attempted}"
    )
    if args.trace:
        try:
            tracer.check_fired(workload.required_spans)
        except tracing.BindingError as exc:
            raise SystemExit(f"perfbench: {exc}")
        n = len(job_s[True])
        values = {}
        for span in tracing.SPANS:
            values[f"{span}.calls"] = tracer.calls[span] / n
            values[f"{span}.self_s"] = tracer.self_s[span] / n
        for name, v in tracer.counters.items():
            values[name] = v if name == "states.rdm_side_max" else v / n
        values["cli.bytes_written"] = statistics.fmean(written)
        values["trace.overhead_s"] = statistics.median(job_s[True]) - statistics.median(job_s[False])
        values["bench.self_s"] = (sum(job_s[True]) - tracer.covered_s) / n
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        tail, tail_group, tail_pct = _tail(latencies, groups)
        metrics = {
            "job_s": {"value": statistics.median(job_s[False]), "unit": "s"},
            "item_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "item_tail_s": {"value": tail, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        print(f"item_p50_s group {_median_group(latencies, groups)}; "
              f"item_tail_s at p{tail_pct:.1f} of {len(latencies)} items, group {tail_group}; "
              f"setup_s median of {len(setups)}")
        print("job times (s): " + " ".join(f"{t:.3f}" for t in job_s[False]))
    # fail_frac is zero on a healthy run, so it is carried by "failed" and
    # "attempted" in the result rather than as a metric
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
