"""Clifford sources on the exact engine: the CLI reads their lattice from the
tableau's clipped gauge, and that agrees with the dense engine on the same
state wherever both can run."""

import json

import pytest

from infolattice.cli import build_parser, lattice_dump, load_state, main, summary_dict
from infolattice.lattice import analyze
from infolattice.tableau import StabilizerTableau, statevector_from_tableau
from infolattice.witness import DEFAULT_TOL, witness_long_range

# every Clifford source kind, at L <= 12: random Clifford specs, a generator
# file, a Clifford gate file and the named references
FILES = {
    "clifford6.json": json.dumps({"type": "random_clifford", "L": 6, "layers": 3, "seed": 2}),
    "clifford9.json": json.dumps({"type": "random_clifford", "L": 9, "layers": 9, "seed": 5}),
    "clifford12.json": json.dumps({"type": "random_clifford", "L": 12, "layers": 4, "seed": 1}),
    "gens.txt": "+XXXX\n+ZZII\n-IZZI\n+IIZZ\n",
    "gates.qc": "H 0\nCNOT 0 1\nS 1\nH 2\nCZ 2 3\nCNOT 3 4\nX 4\nH 5\nCNOT 5 7\nZ 6\n",
}
SOURCES = [["--circuit", name] for name in FILES] + [
    ["--state", "neel", "--L", "7"],
    ["--state", "ghz", "--L", "8"],
    ["--state", "ghz", "--L", "11"],
    ["--state", "bell", "--L", "4"],
]


def with_paths(source, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in FILES else a for a in source]


def run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def assert_json_close(got, want, where="$"):
    """Floats within 1e-9; booleans, strings, None and keys exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{k}]")
    elif want is None or isinstance(want, (bool, str)):
        assert got == want and type(got) is type(want), where
    else:
        assert not isinstance(got, bool) and got == pytest.approx(want, abs=1e-9), where


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: "-".join(s[1:]))
def test_exact_route_matches_dense_engine(source, tmp_path):
    source = with_paths(source, tmp_path)
    tableau = load_state(build_parser().parse_args(["lattice", *source]))
    assert isinstance(tableau, StabilizerTableau)
    lat, summary = analyze(statevector_from_tableau(tableau), with_fold=True)
    verdict = witness_long_range(summary, DEFAULT_TOL)
    dims = (2,) * tableau.length
    # the dense engine's rounding: the exact route reads 0.0 and no site here
    dense_lattice = json.loads(json.dumps(lattice_dump(lat, summary, verdict, dims)))
    dense_summary = json.loads(json.dumps(summary_dict(summary)))
    for payload in (dense_lattice["verdict"], dense_summary):
        assert payload.pop("max_noninteger_deviation") < 1e-9
    dense_lattice["verdict"].pop("deviation_site")

    exact_lattice = run_json(["lattice", *source, "--fold"], tmp_path)
    exact_summary = run_json(["summarize", *source, "--fold"], tmp_path)
    assert exact_lattice["verdict"].pop("max_noninteger_deviation") == 0.0
    assert exact_lattice["verdict"].pop("deviation_site") is None
    assert exact_summary.pop("max_noninteger_deviation") == 0.0
    assert_json_close(exact_lattice, dense_lattice)
    assert_json_close(exact_summary, dense_summary)


def test_exact_route_runs_past_the_dense_bridge(tmp_path):
    spec = tmp_path / "clifford64.json"
    spec.write_text(json.dumps({"type": "random_clifford", "L": 64, "layers": 8, "seed": 1}))
    lattice = run_json(["lattice", "--circuit", str(spec)], tmp_path)
    sites = [site["i"] for site in lattice["lattice"]]
    assert all(v == int(v) >= 0 for v in sites) and sum(sites) == 64
    summary = run_json(["summarize", "--circuit", str(spec)], tmp_path)
    assert summary["info_per_scale"] == lattice["info_per_scale"]
    assert summary["total_information"] == 64.0
    assert summary["max_noninteger_deviation"] == 0.0
