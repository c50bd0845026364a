"""The benchmark harness under perfbench/ binds to program names by string; a
renamed or moved name must fail here, in the tier-1 suite, not only in a
benchmark run.  Nothing under perfbench/ is modified."""

import types
from pathlib import Path

import infolattice
from infolattice import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # executed from its source, so that no bytecode cache is written there
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def test_every_traced_span_resolves():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    assert len(tracer.spans) == 28
    originals = {name: tracing._resolve(*target)[2] for name, target in tracer.spans.items()}
    with tracer.installed():  # raises BindingError for a span it cannot bind
        pass
    # every binding is restored on exit
    assert {name: tracing._resolve(*target)[2] for name, target in tracer.spans.items()} == originals


def test_names_read_by_the_harness_exist():
    # kept only because perfbench/run.py writes KERNEL_BACKEND into its run
    # records and perfbench/selftest.py checks that its tracer rebinds
    # cli.compute_lattice; nothing in the program reads either name
    assert infolattice.KERNEL_BACKEND == "pure"
    assert cli.compute_lattice is infolattice.compute_lattice
