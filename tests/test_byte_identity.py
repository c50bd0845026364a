"""Byte-identical output: a fixed invocation set, run in two fresh processes,
prints the same bytes.

The processes differ in ``PYTHONHASHSEED`` (``1`` and ``12345``), so output
that depends on set or dict iteration order shows up as a difference; the
set covers every subcommand and Potts ground states at N = 7, 8 and 9
(h = 0 included, where the sector matrix is diagonal).  The N = 9 lattice
takes reduced density matrices of side up to 512 from a blocked BLAS product.
Mirror-symmetric states (the Potts chains, GHZ at odd L) take the half-lattice
path and asymmetric ones (Neel at even L) the full one; Clifford sources take
the exact tableau lattice, at 30 and 64 sites too; a sweep that returns to
an earlier N reuses that N's cached Potts index tables.  A sweep that repeats a
size, ``--L`` given to a source that fixes its own length, and a JSON spec
that repeats a key must be rejected with the same error line in both
processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import infolattice
from infolattice.models import TDopedCircuitSpec, t_doped_state
from infolattice.states import amplitudes_text

SRC = str(Path(infolattice.__file__).resolve().parents[1])

# runs each argv list of the JSON in sys.argv[1] through the CLI in this one
# process and prints [exit code, stdout, stderr] per invocation as JSON
DRIVER = """
import contextlib, io, json, sys
from infolattice.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

# invocations that must exit 2 with one error line and print nothing else
REJECTED = [
    ["potts-sweep", "--sizes", "8,8", "--h", "0.3"],
    # --L where the source fixes its own length
    ["summarize", "--circuit", "{clifford}", "--L", "12"],
    ["mlgs", "--circuit", "{generators}", "--L", "4"],
    ["summarize", "--amplitudes", "{amps}", "--L", "9"],
    ["witness", "--potts", "N=3", "--L", "9"],
    # a JSON spec that repeats a key
    ["summarize", "--circuit", "{duplicate}"],
]

INVOCATIONS = [
    ["lattice", "--state", "ghz", "--L", "6", "--format", "pretty"],
    ["lattice", "--circuit", "{clifford}", "--fold"],
    ["summarize", "--state", "neel", "--L", "5"],
    ["fold", "--state", "ghz", "--L", "6", "--format", "json"],
    ["fold", "--potts", "N=3,h=0.4"],
    ["witness", "--potts", "N=7,h=0.3", "--json"],
    ["witness", "--potts", "N=8,h=0.3", "--json"],
    ["witness", "--circuit", "{magic}"],
    ["mlgs", "--circuit", "{ghz}", "--json"],
    ["mlgs", "--circuit", "{clifford}"],
    ["circuit-run", "--circuit", "{magic}"],
    ["circuit-run", "--circuit", "{generators}", "--format", "json"],
    ["potts-sweep", "--sizes", "6,14", "--h", "0,0.3,0.5", "--format", "json"],
    ["lattice", "--potts", "N=7,h=0.5"],
    ["lattice", "--potts", "N=9,h=0.5"],
    ["summarize", "--circuit", "{tdoped}", "--fold"],
    ["witness", "--amplitudes", "{amps}", "--json"],
    ["lattice", "--state", "ghz", "--L", "7"],
    ["summarize", "--state", "neel", "--L", "6"],
    ["potts-sweep", "--sizes", "8,6", "--h", "0,0.4", "--format", "json"],
    # Clifford sources on the exact engine, past the dense bridge's 20 sites
    # too; witness folds through the dense state
    ["summarize", "--circuit", "{clifford64}"],
    ["lattice", "--state", "ghz", "--L", "30"],
    ["witness", "--circuit", "{clifford12}", "--json"],
    # a Clifford source densified by fold, and a named reference through mlgs
    ["fold", "--circuit", "{clifford}", "--format", "json"],
    ["mlgs", "--state", "ghz", "--L", "5"],
    *REJECTED,
]


def write_sources(tmp_path: Path) -> dict[str, str]:
    files = {
        "ghz": ("ghz.qc", "H 0\nCNOT 0 1\nCNOT 1 2\nCNOT 2 3\n"),
        "magic": ("magic.qc", "H 0\nT 0\nCNOT 0 1\nH 2\nCNOT 2 3\nT 3\n"),
        "generators": ("gens.txt", "+XXXX\n+ZZII\n-IZZI\n+IIZZ\n"),
        "clifford": ("clifford.json", json.dumps({"type": "random_clifford", "L": 10, "seed": 4})),
        "clifford12": (
            "clifford12.json",
            json.dumps({"type": "random_clifford", "L": 12, "layers": 8, "seed": 1}),
        ),
        "clifford64": (
            "clifford64.json",
            json.dumps({"type": "random_clifford", "L": 64, "layers": 8, "seed": 1}),
        ),
        "duplicate": (
            "duplicate.json",
            '{"type": "random_clifford", "L": 6, "layers": 3, "seed": 1, "seed": 2}',
        ),
        "tdoped": (
            "tdoped.json",
            json.dumps({"type": "t_doped", "L": 8, "blocks": 1, "entangling_layers": 1, "seed": 3}),
        ),
    }
    paths = {}
    for key, (name, text) in files.items():
        (tmp_path / name).write_text(text)
        paths[key] = str(tmp_path / name)
    paths["amps"] = str(tmp_path / "amps.txt")
    spec = TDopedCircuitSpec(8, blocks=1, clifford_layers_per_block=4, seed=5, entangling_layers=1)
    Path(paths["amps"]).write_text(amplitudes_text(t_doped_state(spec)), encoding="ascii")
    return paths


# the two processes run side by side; BLAS on one thread each keeps them from
# oversubscribing the cores
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

SUBCOMMANDS = {"lattice", "summarize", "fold", "witness", "mlgs", "circuit-run", "potts-sweep"}


def test_fresh_processes_print_identical_bytes(tmp_path):
    assert {argv[0] for argv in INVOCATIONS} == SUBCOMMANDS
    paths = write_sources(tmp_path)
    argvs = [[a.format(**paths) for a in argv] for argv in INVOCATIONS]
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", DRIVER, json.dumps(argvs)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": pythonpath,
                 "PYTHONHASHSEED": hashseed},
        )
        for hashseed in ("1", "12345")
    ]
    runs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        runs.append(json.loads(out))
    for argv, one, two in zip(INVOCATIONS, *runs, strict=True):
        if argv in REJECTED:
            assert one[0] == 2 and not one[1] and one[2].startswith("error:"), (argv, one)
        else:
            assert one[0] == 0 and one[1], (argv, one)
        assert one == two, f"{argv} printed different bytes in the two processes"

