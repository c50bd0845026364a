"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of items (the job), runs one item
at a time through the public API, and reduces each output to a record
``(exact, approx)`` for the untimed output check.  Items carry a size group
so that the report can say which group the median and the tail fall in; the
item mixes below keep both well inside one group (see ``run.py``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from infolattice import cli, lattice, models, states, tableau, witness


@dataclass
class Item:
    idx: int  # position in the canonical item list; references are keyed by it
    group: str  # size group
    params: dict  # JSON-able description of the input
    payload: object = None  # generated input handed to the program


class Workload:
    name = ""
    nominal_job_s = 1.0  # job wall time at the commit that defined the benchmark
    seeded_outputs = True  # False when the seed only reorders the items
    required_spans: tuple[str, ...] = ()

    def setup(self, seed: int, workdir: Path) -> list[Item]:
        raise NotImplementedError

    def order(self, items: list[Item], seed: int) -> list[Item]:
        perm = np.random.default_rng([seed, 1]).permutation(len(items))
        return [items[int(k)] for k in perm]

    def run(self, item: Item, jobdir: Path):
        raise NotImplementedError

    def record(self, item: Item, output, jobdir: Path) -> tuple[dict, dict]:
        raise NotImplementedError

    def invariants(self, item: Item, exact: dict, approx: dict) -> list[str]:
        return []


# Lowest acceptable dense lattice site.  Sites are conditional mutual
# informations, so never negative in exact arithmetic, but sites that are
# exactly 0 come out of the eigensolve as float noise of either sign: up to
# +-2.8e-12 on T-doped L=14 and +-4.6e-12 on L=16 (200 and 40 seeds).  A real
# error in an entropy moves a site by orders of magnitude more.
SITE_FLOOR = -1e-10


def _lattice_invariants(sites: list[float], total: float) -> list[str]:
    problems = []
    if min(sites) < SITE_FLOOR:
        problems.append(f"lattice site {min(sites)!r} below {SITE_FLOOR}")
    if abs(sum(sites) - total) > 1e-9:
        problems.append(f"lattice total {sum(sites)!r} != sum log2 d = {total!r}")
    return problems


# ---------------------------------------------------------------------------


class PottsSweep(Workload):
    """The paper's case study on the default potts-sweep grid."""

    name = "potts_sweep"
    nominal_job_s = 4.0
    seeded_outputs = False
    sizes = (8, 10, 12)
    required_spans = (
        "models.symmetric_ground_state",
        "models.potts_hamiltonian",
        "models.symmetric_sector_isometry",
        "models.charge_operator",
        "models.embed_qutrit_to_spins",
        "lattice.compute_lattice",
        "lattice.interleave",
        "lattice.summarize",
        "states.entropy_of_interval",
        "states.reduced_density",
        "states.complement_density",
        "states.entropy_bits",
        "witness.witness_long_range",
    )

    def setup(self, seed, workdir):
        # the CLI's default grid h = 0:0.8:17; the seed only sets the order.
        # Equal thirds per size: the median falls in L=10, the tail in L=12.
        fields = [round(float(h), 10) for h in np.linspace(0.0, 0.8, 17)]
        pairs = [(L, h) for L in self.sizes for h in fields]
        return [Item(k, f"L={L}", {"L": L, "h": h}) for k, (L, h) in enumerate(pairs)]

    def run(self, item, jobdir):
        return models.potts_point(item.params["L"], item.params["h"])

    def record(self, item, output, jobdir):
        point, verdict = output
        exact = {
            "L": point.length,
            "h": point.field,
            "localized": point.localized,
            "long_range_witnessed": point.long_range_witnessed,
            "origin": point.origin,
            "has_nonstabilizerness": verdict.has_nonstabilizerness,
            "gamma_is_integer": verdict.gamma_is_integer,
        }
        approx = {
            "gamma": point.gamma,
            "gamma_folded": point.gamma_folded,
            "omega": point.omega,
            "max_noninteger_deviation": verdict.max_noninteger_deviation,
        }
        return exact, approx

    def invariants(self, item, exact, approx):
        L = item.params["L"]
        problems = []
        if abs(approx["gamma"] + approx["omega"] - L) > 1e-9:
            problems.append(f"gamma + omega = {approx['gamma'] + approx['omega']!r} != L = {L}")
        if not -1e-9 <= approx["gamma_folded"] <= L + 1e-9:
            problems.append(f"gamma_folded {approx['gamma_folded']!r} outside [0, L]")
        return problems


# ---------------------------------------------------------------------------

# (kind, local dimension, L, items per job), by item cost.  With three jobs the
# median falls inside the haar L=14 group and the tail item inside tdoped L=14.
DENSE_MIX = (
    ("haar", 2, 12, 2),
    ("qutrit", 3, 9, 2),
    ("haar", 2, 14, 5),
    ("tdoped", 2, 14, 4),
    ("qutrit", 3, 10, 1),
    ("haar", 2, 16, 1),
    ("tdoped", 2, 16, 1),
)


class DenseLattice(Workload):
    """Full lattices of volume-law states: RDM contraction and eigensolve."""

    name = "dense_lattice"
    nominal_job_s = 6.5
    required_spans = (
        "lattice.compute_lattice",
        "lattice.summarize",
        "states.entropy_of_interval",
        "states.reduced_density",
        "states.complement_density",
        "states.entropy_bits",
        "states.apply_unitary",
        "models.t_doped_state",
        "witness.witness_nonstabilizerness",
    )

    def setup(self, seed, workdir):
        items = []
        for kind, d, L, count in DENSE_MIX:
            for _ in range(count):
                idx = len(items)
                params = {"kind": kind, "L": L}
                if kind == "tdoped":
                    params["seed"] = seed * 1000 + idx
                    payload = models.TDopedCircuitSpec(L, seed=params["seed"])
                else:
                    rng = np.random.default_rng([seed, idx])
                    payload = states.haar_random_state((d,) * L, rng)
                items.append(Item(idx, f"{kind} L={L}", params, payload))
        return items

    def run(self, item, jobdir):
        if item.params["kind"] == "tdoped":
            state = models.t_doped_state(item.payload)
        else:
            state = item.payload
        lat = lattice.compute_lattice(state)
        summary = lattice.summarize(lat)
        flag, dev, _ = witness.witness_nonstabilizerness(lat)
        return state.dims, lat, summary, flag, dev

    def record(self, item, output, jobdir):
        dims, lat, summary, flag, dev = output
        exact = {
            "kind": item.params["kind"],
            "dims": list(dims),
            "nonstabilizer": flag,
            "localized": summary.localized,
        }
        approx = {
            "sites": [[float(v) for v in row] for row in lat.rows],
            "gamma": summary.gamma,
            "omega": summary.omega,
            "max_noninteger_deviation": dev,
        }
        return exact, approx

    def invariants(self, item, exact, approx):
        total = sum(math.log2(d) for d in exact["dims"])
        return _lattice_invariants([v for row in approx["sites"] for v in row], total)


# ---------------------------------------------------------------------------

# (L, items per job).  With three jobs the median and the tail item both fall
# inside the L=32 group; L=48 stays within the compiled kernel's 64-site limit.
CLIFFORD_MIX = ((16, 5), (32, 10), (48, 1))


class CliffordExact(Workload):
    """The exact engine: tableau evolution, interval ranks, MLGS."""

    name = "clifford_exact"
    nominal_job_s = 6.5
    required_spans = (
        "tableau.apply_circuit",
        "tableau.integer_info_lattice",
        "tableau.restrict_subgroup",
        "tableau.maximally_local_generating_set",
        "kernels.reduce_pauli_rows",
        "kernels.reduce_vector_against",
        "lattice.summarize",
        "witness.witness_long_range",
    )

    def setup(self, seed, workdir):
        items = []
        for L, count in CLIFFORD_MIX:
            for _ in range(count):
                idx = len(items)
                circuit_seed = seed * 1000 + idx
                circuit = tableau.random_clifford_circuit(L, L, circuit_seed)
                items.append(Item(idx, f"L={L}", {"L": L, "seed": circuit_seed}, circuit))
        return items

    def run(self, item, jobdir):
        L = item.params["L"]
        t = item.payload.apply_to_tableau(tableau.StabilizerTableau.zero_state(L))
        lat = t.integer_info_lattice()
        mlgs = t.maximally_local_generating_set()
        summary = lattice.summarize(lat)
        verdict = witness.witness_long_range(summary, require_origin=False)
        return lat, mlgs, summary, verdict

    def record(self, item, output, jobdir):
        lat, mlgs, summary, verdict = output
        exact = {
            "L": lat.num_sites,
            "rows": [[float(v) for v in row] for row in lat.rows],
            "mlgs": [[e.generator.label(), e.center, e.scale] for e in mlgs],
            "gamma": summary.gamma,
            "omega": summary.omega,
            "verdict": verdict.to_dict(),
        }
        return exact, {}

    def invariants(self, item, exact, approx):
        L = item.params["L"]
        sites = [v for row in exact["rows"] for v in row]
        problems = []
        if any(v != round(v) for v in sites):
            problems.append("stabilizer lattice has a noninteger site")
        if sum(sites) != L:
            problems.append(f"stabilizer lattice total {sum(sites)!r} != L = {L}")
        if len(exact["mlgs"]) != L:
            problems.append(f"MLGS has {len(exact['mlgs'])} generators, expected {L}")
        if exact["verdict"]["has_nonstabilizerness"]:
            problems.append("Clifford state flagged nonstabilizer")
        return problems


# ---------------------------------------------------------------------------

# subcommand -> argv template; {inputs} holds the generated specs, {job} is the
# job's output directory; lattice and fold read the amplitudes circuit-run wrote
CLI_COMMANDS = {
    "circuit-run": ["circuit-run", "--circuit", "{inputs}/t_doped.json", "--out", "{job}/amps.txt"],
    "lattice": ["lattice", "--amplitudes", "{job}/amps.txt", "--out", "{out}"],
    "fold": ["fold", "--amplitudes", "{job}/amps.txt", "--out", "{out}"],
    "summarize": ["summarize", "--circuit", "{inputs}/clifford14.json", "--fold", "--out", "{out}"],
    "mlgs": ["mlgs", "--circuit", "{inputs}/clifford32.json", "--json", "--out", "{out}"],
    "witness": ["witness", "--potts", "N=6,h=0.25", "--json", "--out", "{out}"],
    "potts-sweep": ["potts-sweep", "--sizes", "8", "--h", "0:0.8:5", "--out", "{out}"],
}
# job order; circuit-run comes first because lattice and fold read its output.
# summarize runs twice so that, with twelve jobs, the tail item falls inside its
# group; the median falls among the ~0.1 s commands.
CLI_MIX = (
    "circuit-run",
    "witness",
    "lattice",
    "fold",
    "summarize",
    "mlgs",
    "potts-sweep",
    "summarize",
)

_FINGERPRINT_PROBES = 4


def _read_amplitudes(path: Path) -> tuple[list[int], np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if not header or header[0] != "dims":
            raise ValueError(f"{path.name}: missing dims header")
        data = np.loadtxt(fh, ndmin=2)
    dims = [int(tok) for tok in header[1:]]
    amps = data[:, 0] + 1j * data[:, 1]
    if math.prod(dims) != amps.size:
        raise ValueError(f"{path.name}: {amps.size} amplitudes for dims {dims}")
    return dims, amps


def fingerprint(amps: np.ndarray) -> list[float]:
    """Norm and a few fixed random projections: compares vectors compactly."""
    rng = np.random.default_rng(amps.size)
    w = rng.normal(size=(_FINGERPRINT_PROBES, amps.size)) + 1j * rng.normal(
        size=(_FINGERPRINT_PROBES, amps.size)
    )
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    proj = w.conj() @ amps
    return [float(np.linalg.norm(amps))] + [float(x) for p in proj for x in (p.real, p.imag)]


_VERDICT_EXACT = ("has_nonstabilizerness", "localized", "gamma_is_integer", "long_range_witnessed", "origin")


class CliJobs(Workload):
    """In-process CLI calls: source resolution, the dense bridge, serializers."""

    name = "cli_jobs"
    nominal_job_s = 1.65
    required_spans = (
        "cli.main",
        "cli.load_state",
        "circuits.load_circuit_file",
        "states.load_amplitudes",
        "tableau.statevector_from_tableau",
        "tableau.maximally_local_generating_set",
        "tableau.restrict_subgroup",
        "kernels.reduce_pauli_rows",
        "kernels.reduce_vector_against",
        "lattice.fold",
        "lattice.summarize",
        "witness.witness_long_range",
    )

    def setup(self, seed, workdir):
        inputs = workdir / "inputs"
        inputs.mkdir()
        specs = {
            "t_doped.json": {"type": "t_doped", "L": 13, "seed": seed},
            "clifford14.json": {"type": "random_clifford", "L": 14, "layers": 14, "seed": seed},
            "clifford32.json": {"type": "random_clifford", "L": 32, "layers": 32, "seed": seed},
        }
        for fname, spec in specs.items():
            (inputs / fname).write_text(json.dumps(spec), encoding="utf-8")
        return [
            Item(k, cmd, {}, inputs) for k, cmd in enumerate(CLI_MIX)
        ]

    def order(self, items, seed):
        return list(items)

    def _out(self, item: Item, jobdir: Path) -> Path:
        if item.group == "circuit-run":
            return jobdir / "amps.txt"
        return jobdir / f"{item.idx:02d}-{item.group}.out"

    def run(self, item, jobdir):
        fields = {"inputs": item.payload, "job": jobdir, "out": self._out(item, jobdir)}
        argv = [arg.format(**fields) for arg in CLI_COMMANDS[item.group]]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        return code

    def record(self, item, output, jobdir):
        path = self._out(item, jobdir)
        cmd = item.group
        if cmd in ("circuit-run", "fold"):
            dims, amps = _read_amplitudes(path)
            return {"dims": dims}, {"fingerprint": fingerprint(amps)}
        if cmd == "potts-sweep":
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            exact = {
                "rows": [
                    [int(r["L"]), float(r["h"]), r["localized"], r["long_range_witnessed"]]
                    for r in rows
                ]
            }
            approx = {
                key: [float(r[key]) for r in rows] for key in ("gamma", "gamma_folded", "omega")
            }
            return exact, approx
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if cmd == "mlgs":
            return {"L": doc["L"], "generators": doc["generators"]}, {}
        if cmd == "witness":
            return (
                {k: doc[k] for k in _VERDICT_EXACT},
                {k: doc[k] for k in ("gamma", "max_noninteger_deviation")},
            )
        if cmd == "summarize":
            exact = {"L": doc["L"], "localized": doc["localized"]}
            keys = ("info_per_scale", "gamma", "omega", "gamma_folded", "max_noninteger_deviation")
            return exact, {k: doc[k] for k in keys}
        # lattice
        exact = {
            "dims": doc["dims"],
            "sites": [[s["n"], s["l"]] for s in doc["lattice"]],
            "verdict": {k: doc["verdict"][k] for k in _VERDICT_EXACT},
        }
        approx = {
            "i": [s["i"] for s in doc["lattice"]],
            "gamma": doc["gamma"],
            "omega": doc["omega"],
            "max_noninteger_deviation": doc["verdict"]["max_noninteger_deviation"],
        }
        return exact, approx

    def invariants(self, item, exact, approx):
        cmd = item.group
        if cmd in ("circuit-run", "fold"):
            norm = approx["fingerprint"][0]
            return [] if abs(norm - 1.0) <= 1e-9 else [f"amplitude norm {norm!r} != 1"]
        if cmd == "lattice":
            total = sum(math.log2(d) for d in exact["dims"])
            return _lattice_invariants(approx["i"], total)
        if cmd == "summarize":
            problems = []
            if abs(sum(approx["info_per_scale"]) - exact["L"]) > 1e-9:
                problems.append("densified Clifford lattice total != L")
            if approx["max_noninteger_deviation"] > 1e-6:
                problems.append("Clifford state flagged nonstabilizer")
            return problems
        if cmd == "mlgs":
            L = exact["L"]
            return [] if len(exact["generators"]) == L else [f"MLGS size != L = {L}"]
        if cmd == "potts-sweep":
            return [
                f"sweep row {k}: gamma + omega != L"
                for k, (row, g, o) in enumerate(zip(exact["rows"], approx["gamma"], approx["omega"]))
                if abs(g + o - row[0]) > 1e-9
            ]
        return []


WORKLOADS = {w.name: w for w in (PottsSweep(), DenseLattice(), CliffordExact(), CliJobs())}
