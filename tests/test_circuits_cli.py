"""Circuit files, generator files, and the command-line interface."""

import json

import numpy as np
import pytest

import jsonschema
from scipy.sparse.linalg import ArpackNoConvergence

from infolattice import circuits, load_amplitudes
from infolattice.cli import main
from infolattice.errors import ConfigurationError, NonCliffordGateError
from infolattice.models import reference_state
from infolattice.pauli import PauliString
from infolattice.tableau import StabilizerTableau, statevector_from_tableau

GHZ_CIRCUIT = "H 0\nCNOT 0 1\nCNOT 1 2\nCNOT 2 3\n"


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
        assert circ == [("H", (0,)), ("CNOT", (0, 1)), ("LAYER", ()), ("T", (3,))]

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
        [("dims 2 x\n1.0 0.0\n0.0 0.0\n", ":1: "), ("dims 2 2\n1.0 0.0\n0.0 0.0\n", ": ")],
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
                "infolattice.cli.compute_lattice",
                np.linalg.LinAlgError("Eigenvalues did not converge"),
                ["lattice", "--state", "ghz", "--L", "4"],
            ),
            (
                "infolattice.models.spla.eigsh",
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
