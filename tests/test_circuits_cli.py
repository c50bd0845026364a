"""Circuit files, generator files, and the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsonschema
from scipy.sparse.linalg import ArpackNoConvergence

import infolattice
from infolattice import circuits, gates, load_amplitudes
from infolattice.cli import main
from infolattice.errors import ConfigurationError, NonCliffordGateError
from infolattice.models import reference_state
from infolattice.pauli import PauliString
from infolattice.states import PureState
from infolattice.tableau import (
    StabilizerTableau,
    random_clifford_circuit,
    statevector_from_tableau,
)

GHZ_CIRCUIT = "H 0\nCNOT 0 1\nCNOT 1 2\nCNOT 2 3\n"
SRC = str(Path(infolattice.__file__).resolve().parents[1])


def run_python(*argv):
    """Run ``python argv...`` in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )


def schema():
    import importlib.resources as res

    with res.files("infolattice.schemas").joinpath("output.schema.json").open() as fh:
        return json.load(fh)


def validate(payload, def_name):
    full = schema()
    jsonschema.validate(
        payload, {"$ref": f"#/$defs/{def_name}", "$defs": full["$defs"]}
    )


class TestCircuitParsing:
    def test_basic(self):
        circ = circuits.parse_circuit_text("H 0\n# comment\n\nCNOT 0 1\nLAYER\nT 3\n")
        assert circ == [("H", (0,)), ("CNOT", (0, 1)), ("T", (3,))]

    def test_unknown_gate(self):
        with pytest.raises(ConfigurationError):
            circuits.parse_circuit_text("FOO 0\n")

    def test_bad_arity(self):
        with pytest.raises(ConfigurationError):
            circuits.parse_circuit_text("CNOT 0\n")

    def test_bad_index(self):
        with pytest.raises(ConfigurationError):
            circuits.parse_circuit_text("H x\n")

    def test_clifford_detection(self):
        assert circuits.circuit_is_clifford(circuits.parse_circuit_text(GHZ_CIRCUIT))
        assert not circuits.circuit_is_clifford(circuits.parse_circuit_text("T 0\n"))

    def test_tableau_and_dense_agree(self):
        circ = circuits.parse_circuit_text(GHZ_CIRCUIT)
        t = circuits.run_circuit_tableau(circ)
        psi_t = statevector_from_tableau(t)
        psi_d = circuits.run_circuit_dense(circ)
        assert abs(abs(np.vdot(psi_d.amps, psi_t.amps)) - 1.0) < 1e-10

    def test_tableau_rejects_t(self):
        with pytest.raises(NonCliffordGateError):
            circuits.run_circuit_tableau(circuits.parse_circuit_text("T 0\n"))

    def test_explicit_width(self):
        psi = circuits.run_circuit_dense(circuits.parse_circuit_text("H 0\n"), length=3)
        assert psi.num_sites == 3
        with pytest.raises(ConfigurationError):
            circuits.run_circuit_dense(circuits.parse_circuit_text("H 5\n"), length=2)


class TestGeneratorFiles:
    def test_roundtrip(self):
        t = StabilizerTableau.from_generators(
            [PauliString.from_label(s) for s in ["ZIII", "-IZII", "IIZI", "-IIIZ"]]
        )
        text = circuits.format_tableau(t)
        assert circuits.looks_like_generators(text)
        gens = circuits.parse_generator_lines(text)
        assert StabilizerTableau.from_generators(gens) == t

    def test_spec_detection(self):
        assert not circuits.looks_like_generators('{"type": "t_doped"}')
        assert not circuits.looks_like_generators("H 0\n")


class TestCircuitSpecs:
    def test_t_doped_spec(self, tmp_path):
        path = tmp_path / "tdoped.cfg"
        path.write_text(json.dumps({"type": "t_doped", "L": 10, "seed": 3}))
        kind, spec = circuits.load_circuit_file(str(path))
        assert kind == "t_doped" and spec.length == 10 and spec.seed == 3
        kind, spec = circuits.load_circuit_file(str(path), seed_override=9)
        assert spec.seed == 9

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps({"type": "random_clifford", "L": 8}))
        with pytest.raises(ConfigurationError):
            circuits.load_circuit_file(str(path))

    def test_unknown_type(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps({"type": "nope", "seed": 0}))
        with pytest.raises(ConfigurationError):
            circuits.load_circuit_file(str(path))


class TestCLI:
    def run(self, *argv):
        return main(list(argv))

    def test_lattice_ghz_json(self, tmp_path, capsys):
        out = tmp_path / "ghz.json"
        code = self.run("lattice", "--state", "ghz", "--L", "4", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        validate(payload, "lattice_dump")
        assert payload["L"] == 4
        apex = [rec for rec in payload["lattice"] if rec["l"] == 3]
        assert len(apex) == 1 and apex[0]["n"] == 1.5
        assert apex[0]["i"] == pytest.approx(1.0, abs=1e-10)
        assert payload["verdict"]["has_nonstabilizerness"] is False

    def test_lattice_neel_all_scale_zero(self, tmp_path):
        out = tmp_path / "neel.json"
        assert self.run("lattice", "--state", "neel", "--L", "4", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        for rec in payload["lattice"]:
            assert rec["i"] == (1.0 if rec["l"] == 0 else 0.0)
        assert payload["omega"] == 4.0 and payload["gamma"] == 0.0

    def test_pretty_marks_integers(self, capsys):
        assert self.run("lattice", "--state", "ghz", "--L", "4", "--format", "pretty") == 0
        text = capsys.readouterr().out
        assert "(1.00)" in text and "total information: 4" in text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        spec = tmp_path / "tdoped.cfg"
        spec.write_text(json.dumps({"type": "t_doped", "L": 8,
                                    "clifford_layers_per_block": 4,
                                    "t_gates_per_block": 2, "blocks": 1,
                                    "entangling_layers": 1}))
        for out in (a, b):
            code = self.run("lattice", "--circuit", str(spec), "--seed", "7",
                            "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["verdict"]["has_nonstabilizerness"] is True

    def test_exactly_one_source(self, capsys):
        code = self.run("lattice", "--state", "ghz", "--L", "4", "--amplitudes", "x")
        assert code == 2

    def test_mlgs_exactly_one_source(self, tmp_path, capsys):
        path = tmp_path / "ghz.qc"
        path.write_text(GHZ_CIRCUIT)
        assert self.run("mlgs", "--circuit", str(path), "--state", "neel", "--L", "4") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exactly one state source required (--state, --circuit)" in captured.err
        assert self.run("mlgs") == 2

    def test_missing_length(self):
        assert self.run("lattice", "--state", "ghz") == 2

    def test_summarize(self, tmp_path):
        out = tmp_path / "s.json"
        assert self.run("summarize", "--state", "ghz", "--L", "6", "--fold",
                        "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "summary")
        assert payload["gamma"] == pytest.approx(1.0)
        assert payload["gamma_folded"] == pytest.approx(1.0)

    def test_fold_roundtrip(self, tmp_path):
        out = tmp_path / "folded.txt"
        assert self.run("fold", "--state", "ghz", "--L", "4", "--out", str(out)) == 0
        from infolattice import fold

        expected = fold(reference_state("ghz", 4))
        back = load_amplitudes(str(out))
        assert back.dims == expected.dims
        np.testing.assert_allclose(back.amps, expected.amps, atol=0)

    def test_fold_json(self, tmp_path):
        out = tmp_path / "folded.json"
        assert self.run("fold", "--state", "ghz", "--L", "4", "--format", "json",
                        "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "state_dump")
        assert payload["dims"] == [4, 4]

    def test_witness_pretty_and_json(self, tmp_path, capsys):
        assert self.run("witness", "--potts", "N=4,h=0.0,J=1") == 0
        text = capsys.readouterr().out
        assert "gamma 1.58496" in text
        out = tmp_path / "v.json"
        assert self.run("witness", "--potts", "N=6,h=0.0", "--json",
                        "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "verdict")
        assert payload["long_range_witnessed"] is True
        assert payload["origin"] == "global"

    def test_mlgs_from_circuit(self, tmp_path, capsys):
        path = tmp_path / "ghz.qc"
        path.write_text(GHZ_CIRCUIT)
        assert self.run("mlgs", "--circuit", str(path)) == 0
        text = capsys.readouterr().out
        assert "ZZII" in text and "l=3" in text.replace(" ", "")

    def test_mlgs_json_schema(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("+ZIII\n-IZII\n+IIZI\n-IIIZ\n")
        out = tmp_path / "m.json"
        assert self.run("mlgs", "--circuit", str(path), "--json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "mlgs_dump")
        assert [g["label"] for g in payload["generators"]] == [
            "ZIII", "-IZII", "IIZI", "-IIIZ",
        ]
        assert all(g["l"] == 0 for g in payload["generators"])

    def test_mlgs_trivial_product_state(self, tmp_path, capsys):
        path = tmp_path / "empty.qc"
        path.write_text("# no gates\n")
        assert self.run("mlgs", "--circuit", str(path), "--L", "4") == 0
        text = capsys.readouterr().out
        assert text.count("l=0") == 4 and "ZIII" in text

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("neel", [("ZIII", 0, 0), ("-IZII", 1, 0), ("IIZI", 2, 0), ("-IIIZ", 3, 0)]),
            ("ghz", [("ZZII", 0.5, 1), ("IZZI", 1.5, 1), ("IIZZ", 2.5, 1), ("XXXX", 1.5, 3)]),
            ("bell", [("ZIII", 0, 0), ("-IIIZ", 3, 0), ("IXXI", 1.5, 1), ("-IZZI", 1.5, 1)]),
        ],
    )
    def test_mlgs_named_reference(self, tmp_path, capsys, name, expected):
        argv = ["mlgs", "--state", name, "--L", "4"]
        assert self.run(*argv) == 0
        lines = capsys.readouterr().out.splitlines()
        parsed = [re.fullmatch(r"(\S+) +@ \(n=(\S+), l=(\d+)\)", line).groups() for line in lines]
        assert [(g, float(n), int(l)) for g, n, l in parsed] == expected
        out = tmp_path / "m.json"
        assert self.run(*argv, "--json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "mlgs_dump")
        assert payload["L"] == 4
        assert [(g["label"], g["n"], g["l"]) for g in payload["generators"]] == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["mlgs", "--state", "ghz", "--L", "1"],
            ["lattice", "--state", "ghz", "--L", "1"],
            ["witness", "--state", "neel", "--L", "1"],
            ["lattice", "--state", "neel", "--L", "1", "--fold"],
        ],
    )
    def test_too_short_source_exits_config(self, capsys, argv):
        assert self.run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_mlgs_rejects_t(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("H 0\nT 0\n")
        assert self.run("mlgs", "--circuit", str(path)) == 2
        assert "not Clifford" in capsys.readouterr().err

    def test_circuit_run_tableau_dump(self, tmp_path):
        path = tmp_path / "ghz.qc"
        path.write_text(GHZ_CIRCUIT)
        out = tmp_path / "t.txt"
        assert self.run("circuit-run", "--circuit", str(path), "--out", str(out)) == 0
        assert out.read_text() == "+XXXX\n+ZZII\n+IZZI\n+IIZZ\n"

    def test_circuit_run_dense_dump(self, tmp_path):
        path = tmp_path / "magic.qc"
        path.write_text("H 0\nT 0\n")
        out = tmp_path / "amps.txt"
        assert self.run("circuit-run", "--circuit", str(path), "--out", str(out)) == 0
        state = load_amplitudes(str(out))
        np.testing.assert_allclose(np.abs(state.amps), [2**-0.5, 2**-0.5], atol=1e-12)

    def test_circuit_run_json_tableau(self, tmp_path):
        path = tmp_path / "ghz.qc"
        path.write_text(GHZ_CIRCUIT)
        out = tmp_path / "t.json"
        assert self.run("circuit-run", "--circuit", str(path), "--format", "json",
                        "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "tableau_dump")

    def test_inconsistent_generators_numerical_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("+XI\n+ZI\n")  # anticommuting pair
        assert self.run("circuit-run", "--circuit", str(path)) == 3

    def test_potts_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert self.run("potts-sweep", "--sizes", "8", "--h", "0.0,0.75",
                        "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "L,h,gamma,gamma_folded,omega,localized,long_range_witnessed,error"
        assert len(lines) == 3
        assert lines[1].startswith("8,0.0,1.5849625007")

    def test_potts_sweep_json_schema_and_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [8], "h": [0.0], "J": 1.0}))
        out = tmp_path / "sweep.json"
        assert self.run("potts-sweep", "--config", str(cfg), "--format", "json",
                        "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate(payload, "sweep_dump")
        assert payload[0]["origin"] == "not_applicable"  # L=8 gap too narrow

    def test_potts_sweep_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert self.run("potts-sweep", "--sizes", "8", "--h", "0.2",
                            "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_potts_sweep_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [8], "h": [0.5], "gap_threshold": 0.9}))
        out = tmp_path / "sweep.json"

        def verdict(*flags):
            argv = ["potts-sweep", "--config", str(cfg), "--format", "json", "--out", str(out)]
            assert self.run(*argv, *flags) == 0
            (row,) = json.loads(out.read_text())
            return row["localized"], row["long_range_witnessed"]

        assert verdict() == (True, True)  # the config's threshold
        # the default value, given explicitly, beats the config too
        assert verdict("--gap-threshold", "0.001") == (False, False)
        assert verdict("--gap-threshold", "0.0010001") == (False, False)

    @pytest.mark.parametrize(
        "flags,config",
        [
            (["--sizes", "8", "--h", "0:0.8:0"], None),
            (["--sizes", "8", "--h", ","], None),
            ([], {"sizes": [], "h": [0.1]}),
            ([], {"sizes": [8], "h": []}),
        ],
    )
    def test_empty_sweep_is_configuration_error(self, tmp_path, capsys, flags, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            flags = [*flags, "--config", str(path)]
        assert self.run("potts-sweep", *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "empty sweep" in captured.err

    @pytest.mark.parametrize(
        "flags,config",
        [
            ([], {"sizes": 8, "h": [0.1]}),
            ([], {"sizes": [8], "h": 0.5}),
            (["--sizes", "7", "--h", "0.1"], None),
            (["--sizes", "8", "--h", "-0.1"], None),
            (["--sizes", "8", "--h", "0.1"], {"granularity": "bogus"}),
            (["--sizes", "8", "--h", "0.1"], {"out": 1}),
        ],
    )
    def test_sweep_configuration_error_before_solving(self, tmp_path, flags, config):
        out = tmp_path / "sweep.csv"
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            flags = [*flags, "--config", str(path)]
        if "out" not in (config or {}):  # a given --out would beat the config's
            flags = [*flags, "--out", str(out)]
        proc = run_python("-m", "infolattice.cli", "potts-sweep", *flags)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "" and proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, infolattice.cli; print('scipy' in sys.modules)"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_amplitude_source(self, tmp_path):
        from infolattice import save_amplitudes

        path = tmp_path / "bell.txt"
        save_amplitudes(reference_state("bell", 4), str(path))
        out = tmp_path / "bell.json"
        assert self.run("lattice", "--amplitudes", str(path), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        center = [r for r in payload["lattice"] if r["l"] == 1 and r["n"] == 1.5]
        assert center[0]["i"] == pytest.approx(2.0, abs=1e-10)

    def test_missing_file(self, capsys):
        assert self.run("lattice", "--circuit", "/nonexistent.qc") == 2

    def test_nan_amplitudes_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("dims 2 2\nnan 0\n0 0\n0 0\n0 0\n")
        assert self.run("witness", "--amplitudes", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_malformed_amplitude_row_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text("dims 2\n1.0 0.0\n0.0\n")
        assert self.run("lattice", "--amplitudes", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}:3: ")

    @pytest.mark.parametrize(
        "text,where",
        [
            ("dims 2 x\n1.0 0.0\n0.0 0.0\n", ":1: "),
            ("dims 2 2\n1.0 0.0\n0.0 0.0\n", ": "),
            ("dims 2\n1 0\n1 0\n", ": state norm "),
            ("dims 2 2\nnan 0\n0 0\n0 0\n0 0\n", ": state norm "),
        ],
    )
    def test_malformed_amplitude_file_rejected(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert self.run("lattice", "--amplitudes", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}{where}")

    @pytest.mark.parametrize(
        "target,exc,argv",
        [
            (
                "infolattice.lattice.compute_lattice",
                np.linalg.LinAlgError("Eigenvalues did not converge"),
                ["lattice", "--state", "ghz", "--L", "4"],
            ),
            (
                "scipy.sparse.linalg.eigsh",
                ArpackNoConvergence("ARPACK did not converge", np.empty(0), np.empty((0, 0))),
                ["witness", "--potts", "N=7,h=0.3"],
            ),
        ],
    )
    def test_solver_failure_numerical_exit(self, monkeypatch, capsys, target, exc, argv):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, fail)
        assert self.run(*argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize(
        "target,argv",
        [
            ("infolattice.models.reference_state", ["lattice", "--state", "ghz", "--L", "40"]),
            ("infolattice.models.symmetric_ground_state", ["witness", "--potts", "N=25"]),
        ],
    )
    def test_memory_error_numerical_exit(self, monkeypatch, capsys, target, argv):
        def fail(*args, **kwargs):  # stands in for an allocation that fails
            raise MemoryError("Unable to allocate 16.0 TiB for an array")

        monkeypatch.setattr(target, fail)
        assert self.run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err

    # flags that subcommands used to parse without reading; the base
    # invocations are valid, so only the flag can make them fail
    DELETED_FLAGS = [
        ("summarize", ["--format", "json"]),
        ("summarize", ["--tol", "1e-3"]),
        ("fold", ["--tol", "1e-3"]),
        ("fold", ["--gap-threshold", "0.1"]),
        ("fold", ["--fold"]),
        ("fold", ["--threads", "2"]),
        ("witness", ["--fold"]),
        ("mlgs", ["--tol", "1e-3"]),
        ("mlgs", ["--gap-threshold", "0.1"]),
        ("mlgs", ["--fold"]),
        ("mlgs", ["--threads", "2"]),
        ("mlgs", ["--amplitudes", "{amps}"]),
        ("circuit-run", ["--tol", "1e-3"]),
        ("circuit-run", ["--gap-threshold", "0.1"]),
        ("circuit-run", ["--fold"]),
        ("circuit-run", ["--threads", "2"]),
        ("circuit-run", ["--state", "ghz"]),
        ("circuit-run", ["--amplitudes", "{amps}"]),
        ("potts-sweep", ["--seed", "1"]),
    ]

    @pytest.mark.parametrize(
        "command,flag", DELETED_FLAGS, ids=[f"{c} {f[0]}" for c, f in DELETED_FLAGS]
    )
    def test_deleted_flag_exits_config(self, tmp_path, capsys, command, flag):
        circuit = tmp_path / "ghz.qc"
        circuit.write_text(GHZ_CIRCUIT)
        amps = tmp_path / "amps.txt"
        amps.write_text("dims 2\n1.0 0.0\n0.0 0.0\n")
        base = {
            "circuit-run": ["--circuit", str(circuit)],
            "potts-sweep": ["--sizes", "8", "--h", "0.3"],
        }.get(command, ["--state", "ghz", "--L", "4"])
        flag = [tok.format(amps=amps) for tok in flag]
        with pytest.raises(SystemExit) as exc:
            self.run(command, *base, *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# The gate rule, one row per kind of bad gate, on every engine entry point.
# Columns: the tableau (apply_clifford and apply_circuit), the dense state
# (PureState.apply_gate), the circuit runners (run_circuit_tableau and
# run_circuit_dense, explicit length L) and the CLI exit code of circuit-run
# and lattice on a gate file; None means the gate runs.
GATE_L = 3
GATE_RULE = [
    ("unknown", ("FOO", (0,)), NonCliffordGateError, ValueError, NonCliffordGateError, ValueError, 2),
    ("T", ("T", (0,)), NonCliffordGateError, None, NonCliffordGateError, None, 0),
    ("arity", ("H", (0, 1)), ValueError, ValueError, ValueError, ValueError, 2),
    ("qubit=L", ("H", (GATE_L,)), IndexError, IndexError, ConfigurationError, ConfigurationError, 2),
    ("negative", ("H", (-1,)), IndexError, IndexError, IndexError, IndexError, 2),
    ("repeated", ("CNOT", (1, 1)), ValueError, ValueError, ValueError, ValueError, 2),
]


def raised(fn):
    """The exact type of the exception ``fn()`` raises, or None."""
    try:
        fn()
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "gate,tableau,dense,run_tableau,run_dense,exit_code",
    [row[1:] for row in GATE_RULE],
    ids=[row[0] for row in GATE_RULE],
)
def test_gate_rule_across_engines(
    tmp_path, capsys, gate, tableau, dense, run_tableau, run_dense, exit_code
):
    name, qubits = gate
    zero = StabilizerTableau.zero_state(GATE_L)
    circuit = [("H", (0,)), gate]
    assert raised(lambda: zero.apply_clifford(name, *qubits)) is tableau
    assert raised(lambda: zero.apply_circuit(circuit)) is tableau
    assert raised(lambda: PureState.from_label("0" * GATE_L).apply_gate(name, *qubits)) is dense
    assert raised(lambda: circuits.run_circuit_tableau(circuit, GATE_L)) is run_tableau
    assert raised(lambda: circuits.run_circuit_dense(circuit, GATE_L)) is run_dense
    path = tmp_path / "gates.qc"
    path.write_text(f"H 0\nLAYER\n{name} {' '.join(map(str, qubits))}\n")
    for command in ("circuit-run", "lattice"):
        assert main([command, "--circuit", str(path), "--L", str(GATE_L)]) == exit_code
        err = capsys.readouterr().err
        assert err.startswith("error:") if exit_code else err == ""


def test_apply_circuit_checks_distinct_gates_once(monkeypatch):
    checked = []
    real = gates.check_gates

    def counting(circuit, length, arity):
        checked.append(list(circuit))
        return real(checked[-1], length, arity)

    monkeypatch.setattr(gates, "check_gates", counting)
    sequence = random_clifford_circuit(16, 16, 5).gate_sequence()
    StabilizerTableau.zero_state(16).apply_circuit(sequence)
    assert len(checked) == 1
    assert len(checked[0]) == len(set(sequence)) < len(sequence)

    # one bad gate at the end of a 10,000-gate circuit is still rejected
    body = (sequence * (10_000 // len(sequence) + 1))[:10_000]
    for bad, error in ((("CNOT", (4, 4)), ValueError), (("H", (16,)), IndexError)):
        checked.clear()
        with pytest.raises(error):
            StabilizerTableau.zero_state(16).apply_circuit(body + [bad])
        assert len(checked) == 1
