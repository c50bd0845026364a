"""Self-tests of the benchmark's own gates.

    python3 perfbench/selftest.py

The output check must reject gamma off by 1e-9 and a flipped lattice
integer, and the dense invariants must reject a site below the noise floor;
the binding check must fail when a wrapper is missing.
"""

from __future__ import annotations

import copy
import tempfile
from pathlib import Path

import run

run.pin_threads()
workloads = run.import_program()

import checks  # noqa: E402
import tracing  # noqa: E402
from infolattice import cli, lattice, models, witness  # noqa: E402


def _first_record(name: str, seed: int = 0):
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        item = workload.setup(seed, Path(tmp))[0]
        exact, approx = workload.record(item, workload.run(item, Path(tmp)), Path(tmp))
    return workload, item, exact, approx


def _rejected(workload, item, ref, exact, approx) -> bool:
    return bool(workload.invariants(item, exact, approx) + checks.check_against(ref, exact, approx))


def test_output_check_rejects_gamma_off_by_1e9():
    workload, item, exact, approx = _first_record("potts_sweep")
    ref = checks.load_refs("potts_sweep", 0)[item.idx]
    assert not _rejected(workload, item, ref, exact, approx)
    off = dict(approx, gamma=approx["gamma"] + 1e-9)
    assert _rejected(workload, item, ref, exact, off)


def test_output_check_rejects_flipped_lattice_integer():
    workload, item, exact, approx = _first_record("clifford_exact")
    ref = checks.load_refs("clifford_exact", 0)[item.idx]
    assert not _rejected(workload, item, ref, exact, approx)
    flipped = copy.deepcopy(exact)
    flipped["rows"][1][0] = 1.0 - flipped["rows"][1][0]
    assert checks.check_against(ref, flipped, approx)
    # seeds without references still catch it through the invariants
    assert workload.invariants(item, flipped, approx)


def test_dense_invariants_reject_a_negative_site():
    workload, item, exact, approx = _first_record("dense_lattice")
    assert not workload.invariants(item, exact, approx)
    for value, rejected in ((-1e-6, True), (workloads.SITE_FLOOR * 2, True), (-5e-12, False)):
        moved = copy.deepcopy(approx)
        moved["sites"][1][0] = value
        moved["sites"][0][0] -= value - approx["sites"][1][0]  # keep the total
        assert bool(workload.invariants(item, exact, moved)) is rejected
    noisy = copy.deepcopy(approx)
    noisy["sites"][0][0] += 1e-9 + 1e-10
    assert workload.invariants(item, exact, noisy)


def _traced_run(spans: dict, name: str) -> tracing.Tracer:
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(spans)
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        item = workload.setup(0, Path(tmp))[0]
        with tracer.installed():
            workload.run(item, Path(tmp))
    return tracer


def test_binding_check_fails_without_a_wrapper():
    required = workloads.WORKLOADS["clifford_exact"].required_spans
    _traced_run(tracing.SPANS, "clifford_exact").check_fired(required)
    for span in required:
        spans = {k: v for k, v in tracing.SPANS.items() if k != span}
        tracer = _traced_run(spans, "clifford_exact")
        try:
            tracer.check_fired(required)
        except tracing.BindingError:
            continue
        raise AssertionError(f"binding check passed without the {span} wrapper")


def test_binding_check_fails_on_a_renamed_target():
    tracer = tracing.Tracer({"lattice.no_such": ("infolattice.lattice", "no_such")})
    try:
        with tracer.installed():
            pass
    except tracing.BindingError:
        return
    raise AssertionError("a missing target was not reported")


def test_names_imported_by_name_are_wrapped_and_restored():
    original = lattice.compute_lattice
    with tracing.Tracer().installed():
        assert cli.compute_lattice is lattice.compute_lattice is not original
        assert models.witness_long_range is cli.witness_long_range is witness.witness_long_range
    assert cli.compute_lattice is lattice.compute_lattice is original


def main() -> int:
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
