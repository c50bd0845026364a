"""Circuit and generator file formats.

Gate files are line oriented: one gate per line (``H 0``, ``CNOT 0 1``,
``T 3``); ``LAYER`` lines (layer separators, read by no consumer), ``#``
comments and blank lines are ignored.  Generator files carry one signed
Pauli string per line (the same format the tableau dump emits).  JSON files
describe seeded random circuit families instead of explicit gate lists; each
spec carries its own length and seed, which nothing overrides.
Gates are checked once, by :func:`gates.check_gates`, in the engine that
runs them.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Optional, Sequence

from . import gates, models
from .errors import ConfigurationError
from .pauli import PauliString
from .states import PureState
from .tableau import StabilizerTableau


def parse_circuit_text(text: str) -> list[gates.Gate]:
    """Parse a gate list; bare LAYER lines are dropped."""
    circuit: list[gates.Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0].upper()
        if name == "LAYER":
            if len(parts) != 1:
                raise ConfigurationError(f"line {lineno}: LAYER takes no arguments")
            continue
        arity = gates.GATE_ARITY.get(name)
        if arity is None:
            raise ConfigurationError(f"line {lineno}: unknown gate {parts[0]!r}")
        if len(parts) - 1 != arity:
            raise ConfigurationError(
                f"line {lineno}: gate {name} expects {arity} qubit argument(s)"
            )
        try:
            qubits = tuple(int(tok) for tok in parts[1:])
        except ValueError:
            raise ConfigurationError(f"line {lineno}: bad qubit index") from None
        if any(q < 0 for q in qubits):
            raise ConfigurationError(f"line {lineno}: negative qubit index")
        circuit.append((name, qubits))
    return circuit


def circuit_width(circuit: Sequence[gates.Gate]) -> int:
    width = 0
    for _, qubits in circuit:
        for q in qubits:
            width = max(width, q + 1)
    return width


def circuit_is_clifford(circuit: Sequence[gates.Gate]) -> bool:
    return all(name in gates.CLIFFORD_GATES for name, _ in circuit)


def _chain_length(circuit: Sequence[gates.Gate], length: Optional[int]) -> int:
    """The explicit length, or the circuit's width; at least one site."""
    width = circuit_width(circuit)
    if length is None and not circuit:
        raise ConfigurationError("the circuit file has no gates; set the chain length with --L")
    L = width if length is None else length
    if L < max(1, width):
        raise ConfigurationError("explicit length smaller than largest qubit index")
    return L


def run_circuit_tableau(
    circuit: Sequence[gates.Gate], length: Optional[int] = None
) -> StabilizerTableau:
    """Run a Clifford-only gate list on |0...0>."""
    return StabilizerTableau.zero_state(_chain_length(circuit, length)).apply_circuit(circuit)


def run_circuit_dense(
    circuit: Sequence[gates.Gate], length: Optional[int] = None
) -> PureState:
    """Run any supported gate list (Clifford + T) densely on |0...0>."""
    L = _chain_length(circuit, length)
    circuit = [(name, tuple(qubits)) for name, qubits in circuit]
    # every gate is checked before the first one runs
    gates.check_gates(dict.fromkeys(circuit), L, gates.GATE_ARITY)
    psi = PureState.from_label("0" * L)
    for name, qubits in circuit:
        psi = psi.apply_unitary(gates.gate_matrix(name), *qubits)
    return psi


# ---------------------------------------------------------------------------
# generator lists / tableau dumps


def parse_generator_lines(text: str) -> list[PauliString]:
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        gens.append(PauliString.from_label(line))
    if not gens:
        raise ConfigurationError("no generators found")
    return gens


def looks_like_generators(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.lstrip("+-i")
        return bool(head) and set(head.upper()) <= set("IXYZ")
    return False


def format_tableau(t: StabilizerTableau) -> str:
    return "\n".join(
        label if label[0] in "+-" else "+" + label for label in t.labels()
    ) + "\n"


# ---------------------------------------------------------------------------
# JSON circuit-family specs


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigurationError(f"duplicate key {key!r} in circuit spec")
        out[key] = value
    return out


def parse_circuit_spec(text: str) -> tuple[str, object]:
    """Parse a JSON random-circuit family spec.

    Returns ``("t_doped", TDopedCircuitSpec)`` or
    ``("random_clifford", (L, layers, seed))``.  Every key must be known to
    the family, appear once and hold a JSON integer; ``L`` and ``seed`` are
    required, so the spec alone fixes the state.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bad circuit spec JSON: {exc}") from None
    if not isinstance(raw, dict) or "type" not in raw:
        raise ConfigurationError("circuit spec needs a 'type' field")
    kind = raw.pop("type")
    if kind == "t_doped":
        known = ["L"] + [f.name for f in fields(models.TDopedCircuitSpec) if f.name != "length"]
    elif kind == "random_clifford":
        known = ["L", "layers", "seed"]
    else:
        raise ConfigurationError(f"unknown circuit spec type {kind!r}")
    for key, value in raw.items():
        if key not in known:
            raise ConfigurationError(f"unknown key {key!r} in {kind} circuit spec")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigurationError(f"circuit spec key {key!r} must be an integer, got {value!r}")
    for key in ("L", "seed"):
        if key not in raw:
            raise ConfigurationError(f"{kind} circuit spec needs the key {key!r}")
    if kind == "t_doped":
        return kind, models.TDopedCircuitSpec(raw.pop("L"), **raw)
    return kind, (raw["L"], raw.get("layers", 2), raw["seed"])


def load_circuit_file(path: str) -> tuple[str, object]:
    """Classify and parse a circuit-source file.

    Returns one of ``("gates", list)``, ``("generators", list)``,
    ``("t_doped", spec)``, ``("random_clifford", params)``.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_circuit_spec(text)
    if looks_like_generators(text):
        return "generators", parse_generator_lines(text)
    return "gates", parse_circuit_text(text)
