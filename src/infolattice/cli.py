"""Command-line interface.

Subcommands: lattice, summarize, fold, witness, mlgs, potts-sweep,
circuit-run.  Exactly one state source per invocation (named reference,
circuit file, amplitude file, or Potts spec); all randomness flows from the
given seed, so outputs are byte-identical across runs.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
from .lattice import (
    DEFAULT_GAP_THRESHOLD,
    InfoLattice,
    LatticeSummary,
    compute_lattice,
    fold,
    gamma_folded,
    summarize,
)
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
    return {
        "L": lat.num_sites,
        "dims": list(dims),
        "lattice": lat.to_records(),
        "info_per_scale": list(summary.info_per_scale),
        "omega": summary.omega,
        "gamma": summary.gamma,
        "gamma_from_gap": summary.gamma_from_gap,
        "gamma_folded": summary.gamma_folded,
        "gamma_edge_estimate": summary.gamma_edge_estimate,
        "gap": None
        if summary.gap is None
        else {
            "start": summary.gap.start,
            "end": summary.gap.end,
            "max_inside": summary.gap.max_inside,
        },
        "localized": summary.localized,
        "gap_threshold": summary.gap_threshold,
        "total_information": summary.total_information,
        "verdict": verdict.to_dict(),
    }


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


def load_state(args: argparse.Namespace) -> tuple[PureState, Optional[StabilizerTableau]]:
    """Resolve the configured state source to a dense state (and tableau if
    the source was Clifford)."""
    sources = [
        args.state is not None,
        args.circuit is not None,
        args.amplitudes is not None,
        getattr(args, "potts", None) is not None,
    ]
    if sum(sources) != 1:
        raise ConfigurationError(
            "exactly one state source required (--state, --circuit, --amplitudes, --potts)"
        )
    if args.state is not None:
        if args.length is None:
            raise ConfigurationError("--state needs --L")
        return models.reference_state(args.state, args.length), None
    if args.amplitudes is not None:
        return load_amplitudes(args.amplitudes), None
    if getattr(args, "potts", None) is not None:
        spec = _parse_potts_arg(args.potts)
        try:
            n = int(spec["N"])
            h = float(spec.get("h", 0.0))
            j = float(spec.get("J", 1.0))
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"bad potts spec: {exc}") from None
        gs, _ = models.symmetric_ground_state(models.PottsSpec(n, j, h))
        return models.embed_qutrit_to_spins(gs), None

    kind, payload = circuits.load_circuit_file(args.circuit, args.seed)
    t = _source_tableau(kind, payload, args.length)
    if t is not None:
        return statevector_from_tableau(t), t
    return _dense_source_state(kind, payload, args.length), None


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


def _analysis(args, state: PureState):
    lat = compute_lattice(state, threads=args.threads)
    summary = summarize(lat, args.gap_threshold)
    if args.fold:
        summary = summary.with_folded(
            gamma_folded(state, threads=args.threads)
        )
    verdict = witness_long_range(summary, args.tol, require_origin=args.fold)
    return lat, summary, verdict


def cmd_lattice(args) -> int:
    state, _ = load_state(args)
    lat, summary, verdict = _analysis(args, state)
    if args.format == "pretty":
        text = pretty_lattice(lat, args.tol)
        text += verdict.one_line() + "\n"
    else:
        text = _json_text(lattice_dump(lat, summary, verdict, state.dims))
    _emit(text, args.out)
    return 0


def cmd_summarize(args) -> int:
    state, _ = load_state(args)
    _, summary, _ = _analysis(args, state)
    _emit(_json_text(summary_dict(summary)), args.out)
    return 0


def cmd_fold(args) -> int:
    state, _ = load_state(args)
    _emit_amplitudes(fold(state), args)
    return 0


def cmd_witness(args) -> int:
    state, _ = load_state(args)
    args.fold = True  # origin classification always wants the folded total
    _, summary, verdict = _analysis(args, state)
    if args.format == "json":
        _emit(_json_text(verdict.to_dict()), args.out)
    else:
        _emit(verdict.one_line() + "\n", args.out)
    return 0


def cmd_mlgs(args) -> int:
    if args.circuit is not None:
        kind, payload = circuits.load_circuit_file(args.circuit, args.seed)
        t = _source_tableau(kind, payload, args.length)
        if t is None:
            raise NonCliffordGateError(
                "mlgs needs a stabilizer state; the circuit source is not Clifford"
            )
    elif args.state is not None:
        if args.length is None:
            raise ConfigurationError("--state needs --L")
        t = _reference_tableau(args.state, args.length)
    else:
        raise ConfigurationError("mlgs needs --circuit or --state")
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


def _reference_tableau(name: str, length: int) -> StabilizerTableau:
    from .pauli import PauliString

    name = name.lower()
    if name == "neel":
        gens = [
            PauliString.single(length, j, "Z", phase_exp=2 * (j % 2))
            for j in range(length)
        ]
        return StabilizerTableau.from_generators(gens)
    if name == "ghz":
        t = StabilizerTableau.zero_state(length).apply_clifford("H", 0)
        for c in range(length - 1):
            t = t.apply_clifford("CNOT", c, c + 1)
        return t
    if name == "bell":
        if length != 4:
            raise ConfigurationError("the bell reference state is defined for L = 4")
        gens = [
            PauliString.from_label("ZIII"),
            PauliString.from_label("IXXI"),
            PauliString.from_label("-IZZI"),
            PauliString.from_label("-IIIZ"),
        ]
        return StabilizerTableau.from_generators(gens)
    raise ConfigurationError(f"no stabilizer reference named {name!r}")


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
    sizes = (
        [int(tok) for tok in args.sizes.split(",")]
        if args.sizes
        else cfg.get("sizes", [8, 10, 12])
    )
    if args.h is not None:
        fields = _parse_h_grid(args.h)
    elif "h" in cfg:
        fields = [float(x) for x in cfg["h"]]
    elif "h_grid" in cfg:
        fields = _parse_h_grid(cfg["h_grid"])
    else:
        fields = _parse_h_grid("0:0.8:17")
    coupling = args.coupling if args.coupling is not None else float(cfg.get("J", 1.0))
    gap_threshold = (
        args.gap_threshold
        if args.gap_threshold != DEFAULT_GAP_THRESHOLD
        else float(cfg.get("gap_threshold", DEFAULT_GAP_THRESHOLD))
    )
    tol = args.tol if args.tol is not None else float(cfg.get("tol", GROUND_STATE_TOL))
    granularity = args.granularity or cfg.get("granularity", "qubit")
    out = args.out or cfg.get("out")

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
    if args.circuit is None:
        raise ConfigurationError("circuit-run needs --circuit")
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


def _add_source_args(p: argparse.ArgumentParser, include_potts: bool = True) -> None:
    p.add_argument("--state", help="named reference state (neel, bell, ghz)")
    p.add_argument("--L", dest="length", type=int, help="chain length for --state")
    p.add_argument("--circuit", help="circuit file (gates, generators, or JSON spec)")
    p.add_argument("--amplitudes", help="amplitude file (text format)")
    if include_potts:
        p.add_argument(
            "--potts",
            help="inline Potts spec, e.g. N=6,h=0.25,J=1 (symmetric GS, embedded)",
        )
    p.add_argument("--seed", type=int, help="seed for randomized circuit sources")


def _add_common_args(
    p: argparse.ArgumentParser,
    fmt_choices: tuple[str, ...] = ("json", "pretty"),
    fmt_default: str = "json",
) -> None:
    p.add_argument("--format", choices=fmt_choices, default=fmt_default)
    p.add_argument("--tol", type=float, default=None, help="integerness tolerance")
    p.add_argument(
        "--gap-threshold",
        dest="gap_threshold",
        type=float,
        default=DEFAULT_GAP_THRESHOLD,
    )
    p.add_argument("--fold", action="store_true", help="also compute gamma_folded")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--threads", type=int, default=None, help="lattice worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infolattice",
        description="Information lattices, folding, and nonstabilizerness witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="full lattice dump with verdict")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("summarize", help="per-scale summary only")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("fold", help="emit the folded state")
    _add_source_args(p)
    _add_common_args(p, fmt_choices=("text", "json"), fmt_default="text")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("witness", help="one-line or JSON verdict")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_witness, format="pretty")
    p.add_argument(
        "--json", dest="format", action="store_const", const="json",
        help="emit the verdict as JSON",
    )

    p = sub.add_parser("mlgs", help="maximally local generating set")
    _add_source_args(p, include_potts=False)
    _add_common_args(p)
    p.set_defaults(func=cmd_mlgs, format="pretty")
    p.add_argument(
        "--json", dest="format", action="store_const", const="json",
        help="emit the generator list as JSON",
    )

    p = sub.add_parser("potts-sweep", help="field sweep of the Potts ground state")
    p.add_argument("--config", help="JSON sweep config file")
    p.add_argument("--sizes", help="comma-separated qubit chain lengths (L = 2N)")
    p.add_argument("--h", help="field grid: start:stop:count or comma list")
    p.add_argument("--J", dest="coupling", type=float, default=None)
    p.add_argument(
        "--gap-threshold", dest="gap_threshold", type=float, default=DEFAULT_GAP_THRESHOLD
    )
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--granularity", choices=("qubit", "qutrit"), default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="accepted for config uniformity (unused)")
    p.set_defaults(func=cmd_potts_sweep)

    p = sub.add_parser("circuit-run", help="run a circuit file; dump tableau or state")
    _add_source_args(p, include_potts=False)
    _add_common_args(p, fmt_choices=("text", "json"), fmt_default="text")
    p.set_defaults(func=cmd_circuit_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "potts-sweep" and getattr(args, "tol", 0) is None:
        # iteratively-converged ground states get the looser default
        args.tol = GROUND_STATE_TOL if getattr(args, "potts", None) is not None else DEFAULT_TOL
    try:
        return args.func(args)
    except (
        # LinAlgError is a ValueError, so this clause comes first
        np.linalg.LinAlgError,
        models.spla.ArpackNoConvergence,
        NumericalError,
        TableauConsistencyError,
        MemoryCapError,
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
