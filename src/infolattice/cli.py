"""Command-line interface.

Subcommands: lattice, summarize, fold, witness, mlgs, potts-sweep,
circuit-run; each parses only the flags it reads, one flag per value.
Exactly one state source per invocation (named reference, circuit file,
amplitude file, or Potts spec).  ``--L`` is read by named references and gate
files only; the other sources fix their own length and reject it.  A random
circuit spec carries its own seed, so outputs are byte-identical across runs.
Every subcommand resolves its source with ``load_state``.  A Clifford source
(named reference, generator file, Clifford gate file or random Clifford spec)
stays a tableau: lattice, summarize and witness read its exact integer
lattice, mlgs and circuit-run its generators.  Only gamma_folded (``--fold``,
always for witness) and ``fold`` densify it, through the exact dense bridge.
Exit codes: 0 on success, 2 on configuration errors and unreadable or
unwritable paths, 3 on numerical failures (running out of memory included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import circuits, models
from .errors import NUMERICAL_FAILURES, ConfigurationError, NonCliffordGateError
from .lattice import (
    DEFAULT_GAP_THRESHOLD,
    InfoLattice,
    LatticeSummary,
    analyze,
    fold,
    gamma_folded,
    summarize,
)

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
    payload = asdict(summary)
    payload["L"] = payload.pop("num_sites")
    del payload["deviation_site"]  # the verdict carries it
    return payload


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


POTTS_KEYS = ("N", "h", "J")


def _parse_potts_arg(text: str) -> dict:
    """The key=value items of --potts; each key is one of POTTS_KEYS, given once."""
    spec = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigurationError(f"bad potts spec item {item!r} (expected key=value)")
        key, val = (part.strip() for part in item.split("=", 1))
        if key not in POTTS_KEYS:
            raise ConfigurationError(f"bad potts spec: unknown key {key!r} (expected N, h or J)")
        if key in spec:
            raise ConfigurationError(f"bad potts spec: key {key!r} given twice")
        spec[key] = val
    return spec


def _reject_length(args: argparse.Namespace, source: str) -> None:
    """Raise if --L is given to a source that fixes its own length."""
    if args.length is not None:
        raise ConfigurationError(f"--L is read only with --state or a gate file, not with {source}")


def _one_source(args: argparse.Namespace) -> str:
    """The source flag given; raise unless it is the only one of the subcommand's."""
    flags = [f for f in ("state", "circuit", "amplitudes", "potts") if hasattr(args, f)]
    given = [f for f in flags if getattr(args, f) is not None]
    if len(given) != 1:
        listed = ", ".join(f"--{f}" for f in flags)
        raise ConfigurationError(f"exactly one state source required ({listed})")
    return given[0]


def load_state(
    args: argparse.Namespace, clifford_only: bool = False
) -> StabilizerTableau | PureState:
    """Resolve the configured state source, the one resolver of every subcommand.

    A Clifford source, a named reference included, resolves to its tableau
    and any other source to its dense state.  With ``clifford_only`` a
    non-Clifford circuit file raises NonCliffordGateError before any dense
    state is built.
    """
    source = _one_source(args)
    if source == "state":
        if args.length is None:
            raise ConfigurationError("--state needs --L")
        return models.reference_tableau(args.state, args.length)
    if source == "amplitudes":
        _reject_length(args, "--amplitudes")
        return load_amplitudes(args.amplitudes)
    if source == "potts":
        _reject_length(args, "--potts")
        spec = _parse_potts_arg(args.potts)
        try:
            n = int(spec["N"])
            h = float(spec.get("h", 0.0))
            j = float(spec.get("J", 1.0))
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"bad potts spec: {exc}") from None
        gs, _ = models.symmetric_ground_state(models.PottsSpec(n, j, h))
        return models.embed_qutrit_to_spins(gs)
    kind, payload = circuits.load_circuit_file(args.circuit)
    if kind != "gates":
        _reject_length(args, f"a {kind} circuit file")
    if kind == "generators":
        return StabilizerTableau.from_generators(payload)
    if kind == "random_clifford":
        length, layers, seed = payload
        return random_clifford_circuit(length, layers, seed).apply_to_tableau(
            StabilizerTableau.zero_state(length)
        )
    if kind == "gates" and circuits.circuit_is_clifford(payload):
        return circuits.run_circuit_tableau(payload, args.length)
    if clifford_only:
        raise NonCliffordGateError(
            f"{args.command} needs a stabilizer state; the circuit source is not Clifford"
        )
    if kind == "t_doped":
        return models.t_doped_state(payload)
    return circuits.run_circuit_dense(payload, args.length)


# ---------------------------------------------------------------------------
# subcommands


def _tol(args: argparse.Namespace) -> float:
    """--tol; iteratively converged ground states get the looser default."""
    if args.tol is not None:
        return args.tol
    return GROUND_STATE_TOL if args.potts is not None else DEFAULT_TOL


def _analyze(
    source: StabilizerTableau | PureState, gap_threshold: float, with_fold: bool
) -> tuple[InfoLattice, LatticeSummary]:
    """:func:`analyze` for either engine: a tableau's lattice is its exact
    integer lattice, and only its gamma_folded needs the dense state."""
    if isinstance(source, PureState):
        return analyze(source, gap_threshold, with_fold=with_fold)
    lat = source.integer_info_lattice()
    summary = summarize(lat, gap_threshold)
    if with_fold:
        summary = summary.with_folded(gamma_folded(statevector_from_tableau(source)))
    return lat, summary


def cmd_lattice(args) -> int:
    source = load_state(args)
    lat, summary = _analyze(source, args.gap_threshold, args.fold)
    tol = _tol(args)
    verdict = witness_long_range(summary, tol, require_origin=args.fold)
    if args.format == "pretty":
        text = pretty_lattice(lat, tol)
        text += verdict.one_line() + "\n"
    else:
        dims = source.dims if isinstance(source, PureState) else (2,) * source.length
        text = _json_text(lattice_dump(lat, summary, verdict, dims))
    _emit(text, args.out)
    return 0


def cmd_summarize(args) -> int:
    _, summary = _analyze(load_state(args), args.gap_threshold, args.fold)
    _emit(_json_text(summary_dict(summary)), args.out)
    return 0


def cmd_fold(args) -> int:
    source = load_state(args)
    if isinstance(source, StabilizerTableau):
        source = statevector_from_tableau(source)
    _emit_amplitudes(fold(source), args)
    return 0


def cmd_witness(args) -> int:
    # origin classification always wants the folded total
    _, summary = _analyze(load_state(args), args.gap_threshold, with_fold=True)
    verdict = witness_long_range(summary, _tol(args))
    if args.json:
        _emit(_json_text(verdict.to_dict()), args.out)
    else:
        _emit(verdict.one_line() + "\n", args.out)
    return 0


def cmd_mlgs(args) -> int:
    t = load_state(args, clifford_only=True)
    entries = t.maximally_local_generating_set()
    if args.json:
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
    sizes = [int(tok) for tok in args.sizes.split(",")]
    fields = _parse_h_grid(args.h)
    if not fields:
        raise ConfigurationError("empty sweep: no sizes or no field values")
    for flag, values in (("--sizes", sizes), ("--h", fields)):
        for value in (v for i, v in enumerate(values) if v in values[:i]):
            raise ConfigurationError(f"sweep {flag} gives {value!r} twice")
    rows = models.potts_sweep(
        sizes, fields, args.coupling, args.gap_threshold, args.tol, args.granularity
    )
    failures = sum(1 for r in rows if r.error is not None)
    if args.format == "json":
        _emit(_json_text([r.to_dict() for r in rows]), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(models.SWEEP_CSV_COLUMNS)
        for r in rows:
            writer.writerow(r.to_csv_row())
        _emit(buf.getvalue(), args.out)
    if failures:
        sys.stderr.write(f"{failures} sweep point(s) failed; see error rows\n")
    return 0 if failures < len(rows) else NUMERICAL_EXIT


def cmd_circuit_run(args) -> int:
    source = load_state(args)
    if isinstance(source, PureState):
        _emit_amplitudes(source, args)
    elif args.format == "json":
        _emit(_json_text({"L": source.length, "generators": source.labels()}), args.out)
    else:
        _emit(circuits.format_tableau(source), args.out)
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
    if reference:
        p.add_argument("--state", help="named reference state (neel, bell, ghz)")
    if dense:
        p.add_argument("--amplitudes", help="amplitude file (text format)")
        p.add_argument(
            "--potts",
            help="inline Potts spec, e.g. N=6,h=0.25,J=1 (symmetric GS, embedded)",
        )


def _add_output_args(
    p: argparse.ArgumentParser, formats: tuple[str, ...] = (), json_help: Optional[str] = None
) -> None:
    """--format (the first choice is the default) or the --json switch, and --out."""
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    if json_help is not None:
        p.add_argument("--json", action="store_true", help=json_help)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infolattice",
        description="Information lattices, folding, and nonstabilizerness witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="full lattice dump with verdict")
    _add_source_args(p)
    _add_output_args(p, ("json", "pretty"))
    _add_analysis_args(p, tol=True, fold=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("summarize", help="per-scale summary only (JSON)")
    _add_source_args(p)
    _add_output_args(p)
    _add_analysis_args(p, fold=True)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("fold", help="emit the folded state")
    _add_source_args(p)
    _add_output_args(p, ("text", "json"))
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("witness", help="one-line or JSON verdict")
    _add_source_args(p)
    _add_output_args(p, json_help="emit the verdict as JSON")
    _add_analysis_args(p, tol=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("mlgs", help="maximally local generating set")
    _add_source_args(p, dense=False)
    _add_output_args(p, json_help="emit the generator list as JSON")
    p.set_defaults(func=cmd_mlgs)

    p = sub.add_parser("potts-sweep", help="field sweep of the Potts ground state")
    p.add_argument(
        "--sizes", default="8,10,12", help="comma-separated qubit chain lengths (L = 2N)"
    )
    p.add_argument("--h", default="0:0.8:17", help="field grid: start:stop:count or comma list")
    p.add_argument("--J", dest="coupling", type=float, default=1.0)
    _add_analysis_args(p)
    p.add_argument("--tol", type=float, default=GROUND_STATE_TOL)
    p.add_argument("--granularity", choices=("qubit", "qutrit"), default="qubit")
    _add_output_args(p, ("csv", "json"))
    p.set_defaults(func=cmd_potts_sweep)

    p = sub.add_parser("circuit-run", help="run a circuit file; dump tableau or state")
    _add_source_args(p, reference=False, dense=False)
    _add_output_args(p, ("text", "json"))
    p.set_defaults(func=cmd_circuit_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_FAILURES as exc:  # before ValueError, which LinAlgError is
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_EXIT
    # configuration errors, NonCliffordGateError and DimensionMismatchError
    # are ValueErrors; an unreadable or unwritable path is an OSError
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
