"""Command-line interface.

Subcommands: lattice, summarize, fold, witness, mlgs, potts-sweep,
circuit-run; each parses only the flags it reads.  Exactly one state source
per invocation (named reference, circuit file, amplitude file, or Potts
spec); all randomness flows from the given seed, so outputs are
byte-identical across runs.  Exit codes: 0 on success, 2 on configuration
errors, 3 on numerical failures (running out of memory included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import circuits, models
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    MemoryCapError,
    NonCliffordGateError,
    NumericalError,
    TableauConsistencyError,
)
from .lattice import DEFAULT_GAP_THRESHOLD, InfoLattice, LatticeSummary, analyze, fold

# unused here, but perfbench/selftest.py checks that its tracer rebinds this
# name-imported function in the cli module too
from .lattice import compute_lattice  # noqa: F401
from .states import PureState, amplitudes_text, load_amplitudes
from .tableau import StabilizerTableau, random_clifford_circuit, statevector_from_tableau
from .witness import DEFAULT_TOL, GROUND_STATE_TOL, LatticeVerdict, witness_long_range

CONFIG_EXIT = 2
NUMERICAL_EXIT = 3


# ---------------------------------------------------------------------------
# output helpers


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def summary_dict(summary: LatticeSummary) -> dict:
    return {
        "L": summary.num_sites,
        "gap_threshold": summary.gap_threshold,
        "info_per_scale": list(summary.info_per_scale),
        "omega": summary.omega,
        "gamma": summary.gamma,
        "total_information": summary.total_information,
        "gap": None
        if summary.gap is None
        else {
            "start": summary.gap.start,
            "end": summary.gap.end,
            "max_inside": summary.gap.max_inside,
        },
        "localized": summary.localized,
        "gamma_from_gap": summary.gamma_from_gap,
        "max_noninteger_deviation": summary.max_noninteger_deviation,
        "gamma_folded": summary.gamma_folded,
        "gamma_edge_estimate": summary.gamma_edge_estimate,
    }


def lattice_dump(
    lat: InfoLattice,
    summary: LatticeSummary,
    verdict: LatticeVerdict,
    dims: tuple[int, ...],
) -> dict:
    payload = summary_dict(summary)
    del payload["max_noninteger_deviation"]  # the verdict carries it
    payload.update(dims=list(dims), lattice=lat.to_records(), verdict=verdict.to_dict())
    return payload


def _emit_amplitudes(state: PureState, args: argparse.Namespace) -> None:
    if args.format == "json":
        payload = {
            "dims": list(state.dims),
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(amplitudes_text(state), args.out)


def pretty_lattice(lat: InfoLattice, tol: float) -> str:
    """Triangle rendering, apex on top; integer-valued sites are bracketed
    (mirroring the bold circles of lattice figures)."""
    cell = 8
    lines = []
    for scale in range(lat.num_sites - 1, -1, -1):
        row = lat.rows[scale]
        body = ""
        for v in row:
            txt = f"({v:.2f})" if abs(v - round(v)) <= tol else f" {v:.2f} "
            body += txt.center(cell)
        indent = " " * (cell // 2 * scale)
        lines.append(f"l={scale:<3d}" + indent + body.rstrip())
    lines.append("")
    lines.append(f"total information: {lat.total():.6g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# state sources


def _parse_potts_arg(text: str) -> dict:
    spec = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigurationError(f"bad potts spec item {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        spec[key.strip()] = val.strip()
    return spec


def _reference(args: argparse.Namespace, build):
    """``build(name, length)`` for a named reference given by --state and --L."""
    if args.length is None:
        raise ConfigurationError("--state needs --L")
    return build(args.state, args.length)


def _check_one_source(args: argparse.Namespace) -> None:
    """Raise unless exactly one of the subcommand's state source flags is given."""
    flags = [f for f in ("state", "circuit", "amplitudes", "potts") if hasattr(args, f)]
    if sum(getattr(args, f) is not None for f in flags) != 1:
        listed = ", ".join(f"--{f}" for f in flags)
        raise ConfigurationError(f"exactly one state source required ({listed})")


def load_state(args: argparse.Namespace) -> PureState:
    """Resolve the configured state source to a dense state."""
    _check_one_source(args)
    if args.state is not None:
        return _reference(args, models.reference_state)
    if args.amplitudes is not None:
        return load_amplitudes(args.amplitudes)
    if args.potts is not None:
        spec = _parse_potts_arg(args.potts)
        try:
            n = int(spec["N"])
            h = float(spec.get("h", 0.0))
            j = float(spec.get("J", 1.0))
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"bad potts spec: {exc}") from None
        gs, _ = models.symmetric_ground_state(models.PottsSpec(n, j, h))
        return models.embed_qutrit_to_spins(gs)

    kind, payload = circuits.load_circuit_file(args.circuit, args.seed)
    t = _source_tableau(kind, payload, args.length)
    if t is not None:
        return statevector_from_tableau(t)
    return _dense_source_state(kind, payload, args.length)


def _source_tableau(
    kind: str, payload, length: Optional[int]
) -> Optional[StabilizerTableau]:
    """Tableau of a Clifford circuit-file source; None for a non-Clifford one."""
    if kind == "generators":
        return StabilizerTableau.from_generators(payload)
    if kind == "gates" and circuits.circuit_is_clifford(payload):
        return circuits.run_circuit_tableau(payload, length)
    if kind == "random_clifford":
        length, layers, seed = payload
        return random_clifford_circuit(length, layers, seed).apply_to_tableau(
            StabilizerTableau.zero_state(length)
        )
    return None


def _dense_source_state(kind: str, payload, length: Optional[int]) -> PureState:
    """Dense state of a non-Clifford circuit-file source."""
    if kind == "t_doped":
        return models.t_doped_state(payload)
    return circuits.run_circuit_dense(payload, length)


# ---------------------------------------------------------------------------
# subcommands


def _tol(args: argparse.Namespace) -> float:
    """--tol; iteratively converged ground states get the looser default."""
    if args.tol is not None:
        return args.tol
    return GROUND_STATE_TOL if args.potts is not None else DEFAULT_TOL


def cmd_lattice(args) -> int:
    state = load_state(args)
    lat, summary = analyze(state, args.gap_threshold, with_fold=args.fold, threads=args.threads)
    tol = _tol(args)
    verdict = witness_long_range(summary, tol, require_origin=args.fold)
    if args.format == "pretty":
        text = pretty_lattice(lat, tol)
        text += verdict.one_line() + "\n"
    else:
        text = _json_text(lattice_dump(lat, summary, verdict, state.dims))
    _emit(text, args.out)
    return 0


def cmd_summarize(args) -> int:
    state = load_state(args)
    _, summary = analyze(state, args.gap_threshold, with_fold=args.fold, threads=args.threads)
    _emit(_json_text(summary_dict(summary)), args.out)
    return 0


def cmd_fold(args) -> int:
    _emit_amplitudes(fold(load_state(args)), args)
    return 0


def cmd_witness(args) -> int:
    state = load_state(args)
    # origin classification always wants the folded total
    _, summary = analyze(state, args.gap_threshold, with_fold=True, threads=args.threads)
    verdict = witness_long_range(summary, _tol(args))
    if args.format == "json":
        _emit(_json_text(verdict.to_dict()), args.out)
    else:
        _emit(verdict.one_line() + "\n", args.out)
    return 0


def cmd_mlgs(args) -> int:
    _check_one_source(args)
    if args.state is not None:
        t = _reference(args, models.reference_tableau)
    else:
        kind, payload = circuits.load_circuit_file(args.circuit, args.seed)
        t = _source_tableau(kind, payload, args.length)
        if t is None:
            raise NonCliffordGateError(
                "mlgs needs a stabilizer state; the circuit source is not Clifford"
            )
    entries = t.maximally_local_generating_set()
    if args.format == "json":
        payload = {
            "L": t.length,
            "generators": [
                {"label": e.generator.label(), "n": e.center, "l": e.scale}
                for e in entries
            ],
        }
        _emit(_json_text(payload), args.out)
    else:
        width = max(len(e.generator.label()) for e in entries) + 1
        lines = [
            f"{e.generator.label():<{width}} @ (n={e.center:g}, l={e.scale})"
            for e in entries
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_h_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError("h grid syntax is start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return [round(float(h), 10) for h in np.linspace(start, stop, count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def cmd_potts_sweep(args) -> int:
    cfg = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"bad sweep config: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigurationError("bad sweep config: expected a JSON object")

    def setting(flag, key, default):
        """A flag that was given beats the config file, which beats the default."""
        return flag if flag is not None else cfg.get(key, default)

    def numbers(values, kind) -> bool:
        return isinstance(values, list) and all(
            isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v) for v in values
        )

    try:
        sizes = setting(
            None if args.sizes is None else [int(tok) for tok in args.sizes.split(",")],
            "sizes",
            [8, 10, 12],
        )
        fields = setting(None if args.h is None else _parse_h_grid(args.h), "h", None)
        if fields is None:
            fields = _parse_h_grid(cfg.get("h_grid", "0:0.8:17"))
        coupling = float(setting(args.coupling, "J", 1.0))
        gap_threshold = float(setting(args.gap_threshold, "gap_threshold", DEFAULT_GAP_THRESHOLD))
        tol = float(setting(args.tol, "tol", GROUND_STATE_TOL))
    except TypeError as exc:  # a JSON list or object where a string or number belongs
        raise ConfigurationError(f"bad sweep config: {exc}") from None
    if not numbers(sizes, int):
        raise ConfigurationError(f"sweep sizes must be a list of integers, got {sizes!r}")
    if not numbers(fields, (int, float)):
        raise ConfigurationError(f"sweep h must be a list of finite numbers, got {fields!r}")
    fields = [float(h) for h in fields]
    if not sizes or not fields:
        raise ConfigurationError("empty sweep: no sizes or no field values")
    granularity = setting(args.granularity, "granularity", "qubit")
    out = setting(args.out, "out", None)
    if not isinstance(out, (str, type(None))):  # open() would take an int as a descriptor
        raise ConfigurationError(f"sweep out must be a file name, got {out!r}")
    # every point is checked before the first (possibly long) solve
    for length in sizes:
        for h in fields:
            models.potts_point_spec(length, h, coupling, granularity)

    rows = models.potts_sweep(sizes, fields, coupling, gap_threshold, tol, granularity)
    failures = sum(1 for r in rows if r.error is not None)
    if args.format == "json":
        _emit(_json_text([r.to_dict() for r in rows]), out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(models.SWEEP_CSV_COLUMNS)
        for r in rows:
            writer.writerow(r.to_csv_row())
        _emit(buf.getvalue(), out)
    if failures:
        sys.stderr.write(f"{failures} sweep point(s) failed; see error rows\n")
    return 0 if failures < len(rows) else NUMERICAL_EXIT


def cmd_circuit_run(args) -> int:
    _check_one_source(args)
    kind, payload = circuits.load_circuit_file(args.circuit, args.seed)
    t = _source_tableau(kind, payload, args.length)
    if t is None:
        _emit_amplitudes(_dense_source_state(kind, payload, args.length), args)
        return 0
    if args.format == "json":
        _emit(_json_text({"L": t.length, "generators": t.labels()}), args.out)
    else:
        _emit(circuits.format_tableau(t), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_source_args(
    p: argparse.ArgumentParser, *, reference: bool = True, dense: bool = True
) -> None:
    """Circuit files, plus named references and the sources that have no
    tableau (amplitude files, Potts ground states) where asked."""
    p.add_argument("--circuit", help="circuit file (gates, generators, or JSON spec)")
    p.add_argument("--L", dest="length", type=int, help="chain length (named references, gate files)")
    p.add_argument("--seed", type=int, help="seed for randomized circuit sources")
    if reference:
        p.add_argument("--state", help="named reference state (neel, bell, ghz)")
    if dense:
        p.add_argument("--amplitudes", help="amplitude file (text format)")
        p.add_argument(
            "--potts",
            help="inline Potts spec, e.g. N=6,h=0.25,J=1 (symmetric GS, embedded)",
        )


def _add_output_args(
    p: argparse.ArgumentParser,
    formats: tuple[str, ...] = (),
    default: Optional[str] = None,
    json_help: Optional[str] = None,
) -> None:
    if formats:
        p.add_argument("--format", choices=formats, default=default)
    if json_help is not None:
        p.add_argument(
            "--json", dest="format", action="store_const", const="json", help=json_help
        )
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_analysis_args(
    p: argparse.ArgumentParser, *, tol: bool = False, fold: bool = False
) -> None:
    if tol:
        p.add_argument("--tol", type=float, default=None, help="integerness tolerance")
    p.add_argument(
        "--gap-threshold", dest="gap_threshold", type=float, default=DEFAULT_GAP_THRESHOLD
    )
    if fold:
        p.add_argument("--fold", action="store_true", help="also compute gamma_folded")
    p.add_argument("--threads", type=int, default=None, help="lattice worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infolattice",
        description="Information lattices, folding, and nonstabilizerness witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="full lattice dump with verdict")
    _add_source_args(p)
    _add_output_args(p, ("json", "pretty"), "json")
    _add_analysis_args(p, tol=True, fold=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("summarize", help="per-scale summary only (JSON)")
    _add_source_args(p)
    _add_output_args(p)
    _add_analysis_args(p, fold=True)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("fold", help="emit the folded state")
    _add_source_args(p)
    _add_output_args(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("witness", help="one-line or JSON verdict")
    _add_source_args(p)
    _add_output_args(p, ("json", "pretty"), "pretty", json_help="emit the verdict as JSON")
    _add_analysis_args(p, tol=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("mlgs", help="maximally local generating set")
    _add_source_args(p, dense=False)
    _add_output_args(
        p, ("json", "pretty"), "pretty", json_help="emit the generator list as JSON"
    )
    p.set_defaults(func=cmd_mlgs)

    p = sub.add_parser("potts-sweep", help="field sweep of the Potts ground state")
    p.add_argument("--config", help="JSON sweep config file")
    p.add_argument("--sizes", help="comma-separated qubit chain lengths (L = 2N)")
    p.add_argument("--h", help="field grid: start:stop:count or comma list")
    p.add_argument("--J", dest="coupling", type=float, default=None)
    p.add_argument("--gap-threshold", dest="gap_threshold", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--granularity", choices=("qubit", "qutrit"), default=None)
    _add_output_args(p, ("csv", "json"), "csv")
    p.set_defaults(func=cmd_potts_sweep)

    p = sub.add_parser("circuit-run", help="run a circuit file; dump tableau or state")
    _add_source_args(p, reference=False, dense=False)
    _add_output_args(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_circuit_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        # LinAlgError is a ValueError, so this clause comes first
        np.linalg.LinAlgError,
        NumericalError,
        TableauConsistencyError,
        MemoryCapError,
        MemoryError,
    ) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_EXIT
    except (
        ConfigurationError,
        NonCliffordGateError,
        DimensionMismatchError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
