"""Circuit and generator file formats.

Gate files are line oriented: one gate per line (``H 0``, ``CNOT 0 1``,
``T 3``); ``LAYER`` lines (layer separators, read by no consumer), ``#``
comments and blank lines are ignored.  Generator files carry one signed
Pauli string per line (the same format the tableau dump emits).  JSON files
describe seeded random circuit families instead of explicit gate lists.
Gates are checked once, by :func:`gates.check_gates`, in the engine that
runs them.
"""

from __future__ import annotations

import json
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
        psi = psi.apply_gate(name, *qubits)
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


def parse_circuit_spec(
    text: str, seed_override: Optional[int] = None
) -> tuple[str, object]:
    """Parse a JSON random-circuit family spec.

    Returns ``("t_doped", TDopedCircuitSpec)`` or
    ``("random_clifford", (L, layers, seed))``.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bad circuit spec JSON: {exc}") from None
    if not isinstance(raw, dict) or "type" not in raw:
        raise ConfigurationError("circuit spec needs a 'type' field")
    kind = raw["type"]
    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigurationError("randomized circuit spec needs a seed")
    if kind == "t_doped":
        spec = models.TDopedCircuitSpec(
            length=int(raw["L"]),
            blocks=int(raw.get("blocks", 3)),
            clifford_layers_per_block=int(raw.get("clifford_layers_per_block", 10)),
            t_gates_per_block=int(raw.get("t_gates_per_block", 5)),
            seed=int(seed),
            entangling_layers=int(raw.get("entangling_layers", 2)),
        )
        return "t_doped", spec
    if kind == "random_clifford":
        return "random_clifford", (int(raw["L"]), int(raw.get("layers", 2)), int(seed))
    raise ConfigurationError(f"unknown circuit spec type {kind!r}")


def load_circuit_file(
    path: str, seed_override: Optional[int] = None
) -> tuple[str, object]:
    """Classify and parse a circuit-source file.

    Returns one of ``("gates", list)``, ``("generators", list)``,
    ``("t_doped", spec)``, ``("random_clifford", params)``.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_circuit_spec(text, seed_override)
    if looks_like_generators(text):
        return "generators", parse_generator_lines(text)
    return "gates", parse_circuit_text(text)
