"""Exhaustive enumeration of the 1- and 2-qubit Clifford groups (mod phase).

Each group element is reached by breadth-first search over words in
{H, S, CNOT} acting on the signed conjugation images of the single-site X and
Z operators; the discovery index gives a canonical enumeration, so drawing a
uniform index samples the group uniformly.  Words double as recipes for both
tableau conjugation and dense matrices.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

from . import gates

SINGLE_QUBIT_COUNT = 24
TWO_QUBIT_COUNT = 11520

_GENERATORS = {
    1: (("H", (0,)), ("S", (0,))),
    2: (("H", (0,)), ("S", (0,)), ("H", (1,)), ("S", (1,)), ("CNOT", (0, 1))),
}


@lru_cache(maxsize=None)
def _words(num_qubits: int) -> tuple[tuple[gates.Gate, ...], ...]:
    # state: bit planes and sign mask of the images of X_q (row 2q) and Z_q (row 2q + 1)
    qubits = range(num_qubits)
    start = (tuple(1 << 2 * q for q in qubits), tuple(2 << 2 * q for q in qubits), 0)
    found: dict[tuple, tuple[gates.Gate, ...]] = {start: ()}
    order = [start]
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        word = found[cur]
        for gen in _GENERATORS[num_qubits]:
            xcols, zcols = list(cur[0]), list(cur[1])
            sign = gates.conjugate_columns(xcols, zcols, cur[2], gen[0], gen[1])
            nxt = (tuple(xcols), tuple(zcols), sign)
            if nxt not in found:
                found[nxt] = word + (gen,)
                order.append(nxt)
                queue.append(nxt)
    expected = SINGLE_QUBIT_COUNT if num_qubits == 1 else TWO_QUBIT_COUNT
    if len(order) != expected:
        raise RuntimeError(
            f"Clifford enumeration found {len(order)} elements, expected {expected}"
        )
    return tuple(found[s] for s in order)


def group_size(num_qubits: int) -> int:
    return SINGLE_QUBIT_COUNT if num_qubits == 1 else TWO_QUBIT_COUNT


def clifford_word(num_qubits: int, index: int) -> tuple[gates.Gate, ...]:
    """Gate word (on logical qubits 0..n-1) of the index-th group element."""
    words = _words(num_qubits)
    return words[index]


@lru_cache(maxsize=None)
def clifford_matrix(num_qubits: int, index: int) -> np.ndarray:
    """Dense unitary of the index-th element (global phase fixed by the word)."""
    return gates.word_matrix(clifford_word(num_qubits, index), num_qubits)


def sample_indices(rng: np.random.Generator, num_qubits: int, count: int) -> list[int]:
    """Uniform element indices; one RNG draw per gate keeps streams reproducible."""
    size = group_size(num_qubits)
    return [int(rng.integers(0, size)) for _ in range(count)]
