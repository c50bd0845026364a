"""Elementary gate set: tableau conjugation rules and dense matrices.

The tableau rules act on bit planes: one packed int per site holding that
site's X (or Z) bit of every Pauli row, plus one sign mask, so a gate costs a
few big-int operations whatever the number of rows (the column-packed update
of Aaronson & Gottesman, quant-ph/0406196).  Dense matrices follow the global
convention that lower site indices are more significant tensor factors.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import NonCliffordGateError

CLIFFORD_GATES = {"H": 1, "S": 1, "X": 1, "Z": 1, "CNOT": 2, "CZ": 2}
NON_CLIFFORD_GATES = {"T": 1}
GATE_ARITY = {**CLIFFORD_GATES, **NON_CLIFFORD_GATES}

Gate = tuple  # (name, (qubits...))


def check_gates(circuit: Iterable[Gate], length: int, arity: dict[str, int]) -> None:
    """Raise unless every gate is named in ``arity`` and acts on that many
    distinct qubits in ``[0, length)``; the first bad gate is reported.

    A name outside ``arity`` raises NonCliffordGateError when ``arity`` is the
    Clifford set (the tableau cannot run it) and ValueError otherwise; a wrong
    arity or a repeated qubit raises ValueError, a qubit out of range IndexError.
    """
    for name, qubits in circuit:
        if name not in arity:
            error = NonCliffordGateError if arity is CLIFFORD_GATES else ValueError
            raise error(f"gate {name!r} is not in the gate set {sorted(arity)}")
        if len(qubits) != arity[name]:
            raise ValueError(f"gate {name} expects {arity[name]} qubit(s), got {len(qubits)}")
        for q in qubits:
            if not 0 <= q < length:
                raise IndexError(f"gate {name}: qubit {q} out of range (L={length})")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {name} needs distinct qubits, got {tuple(qubits)}")


def conjugate_columns(
    xcols: list[int], zcols: list[int], sign: int, name: str, qubits: tuple[int, ...]
) -> int:
    """Conjugate every row by the named Clifford gate; returns the new sign mask.

    ``xcols[j]`` / ``zcols[j]`` hold the X / Z bits of site ``j`` of every row
    (bit ``r`` = row ``r``) and are updated in place; bit ``r`` of ``sign`` is
    set when row ``r`` carries a minus sign.
    """
    if name == "H":
        (q,) = qubits
        sign ^= xcols[q] & zcols[q]
        xcols[q], zcols[q] = zcols[q], xcols[q]
    elif name == "S":
        (q,) = qubits
        sign ^= xcols[q] & zcols[q]
        zcols[q] ^= xcols[q]
    elif name == "X":
        sign ^= zcols[qubits[0]]
    elif name == "Z":
        sign ^= xcols[qubits[0]]
    elif name == "CNOT":
        c, t = qubits
        sign ^= xcols[c] & zcols[t] & ~(xcols[t] ^ zcols[c])
        xcols[t] ^= xcols[c]
        zcols[c] ^= zcols[t]
    elif name == "CZ":
        a, b = qubits
        sign ^= xcols[a] & xcols[b] & (zcols[a] ^ zcols[b])
        zcols[a] ^= xcols[b]
        zcols[b] ^= xcols[a]
    else:
        raise NonCliffordGateError(f"gate {name!r} is not in the Clifford set")
    return sign


_SQ2 = 1.0 / np.sqrt(2.0)

MATRICES_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex),
}

# two-qubit matrices in the basis |ab> with a the *first* (more significant) qubit
MATRICES_2Q = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


def gate_matrix(name: str) -> np.ndarray:
    """Dense matrix of an elementary gate (2x2 or 4x4, first qubit = MSB)."""
    if name in MATRICES_1Q:
        return MATRICES_1Q[name]
    if name in MATRICES_2Q:
        return MATRICES_2Q[name]
    raise KeyError(f"no dense matrix for gate {name!r}")


def word_matrix(word: tuple[Gate, ...], num_qubits: int) -> np.ndarray:
    """Dense matrix of a gate word on ``num_qubits`` logical qubits (<= 2)."""
    if num_qubits not in (1, 2):
        raise ValueError("word_matrix supports 1 or 2 logical qubits")
    dim = 2**num_qubits
    u = np.eye(dim, dtype=complex)
    eye = np.eye(2, dtype=complex)
    for name, qubits in word:
        m = gate_matrix(name)
        if num_qubits == 1:
            full = m
        elif len(qubits) == 2:
            if qubits == (0, 1):
                full = m
            else:  # (1, 0): conjugate by swap
                swap = np.array(
                    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex,
                )
                full = swap @ m @ swap
        else:
            (q,) = qubits
            full = np.kron(m, eye) if q == 0 else np.kron(eye, m)
        u = full @ u
    return u
