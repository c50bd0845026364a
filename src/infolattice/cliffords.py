"""Exhaustive enumeration of the 1- and 2-qubit Clifford groups (mod phase).

Each group element is reached by breadth-first search over words in
{H, S, CNOT}; the discovery index gives a canonical enumeration, so drawing a
uniform index samples the group uniformly.  The search state of an element,
its signed image of every local Pauli, gives the bit-plane map by which the
tableau applies it in one step (:func:`pair_maps`); words give dense matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gates
from .gates import TWO_QUBIT_COUNT

SINGLE_QUBIT_COUNT = 24

_GENERATORS = {
    1: (("H", (0,)), ("S", (0,))),
    2: (("H", (0,)), ("S", (0,)), ("H", (1,)), ("S", (1,)), ("CNOT", (0, 1))),
}


@lru_cache(maxsize=None)
def _enumerate(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Search states in discovery order, and the edge (parent * len(gens) + gen)
    that found each state but the first.  Bit p of a state row's planes x_0..,
    z_0.. and sign describes the image of Pauli p (X_q at bit q, Z_q at n + q)."""
    n, gens = num_qubits, _GENERATORS[num_qubits]
    planes = [sum(1 << p for p in range(4**n) if p >> c & 1) for c in range(2 * n)]
    frontier = np.array([planes + [0]], np.uint16)
    seen = set(frontier.view(f"V{4 * n + 2}").ravel().tolist())  # a state row as one key
    edges, layers = [], [frontier]
    while len(frontier):
        images = []
        for name, qubits in gens:
            xcols, zcols = list(frontier[:, :n].T.copy()), list(frontier[:, n:-1].T.copy())
            sign = gates.conjugate_columns(xcols, zcols, frontier[:, -1].copy(), name, qubits)
            images.append(np.stack([*xcols, *zcols, sign], axis=1))
        # by parent, then generator: the order a one-state-at-a-time search meets them
        found = np.stack(images, axis=1).reshape(-1, 2 * n + 1)
        keys = found.view(f"V{4 * n + 2}").ravel().tolist()
        fresh = [i for i, key in enumerate(keys) if key not in seen and not seen.add(key)]
        edges += [(len(edges) + 1 - len(frontier)) * len(gens) + i for i in fresh]
        frontier = found[fresh]
        layers.append(frontier)
    return np.array(edges), np.concatenate(layers)


@lru_cache(maxsize=None)
def pair_maps() -> tuple[tuple, ...]:
    """Map ``(m0, m1, m2, m3, monomials)`` of each two-qubit element on planes
    x_a, x_b, z_a, z_b (bits 0-3): plane c becomes the XOR of subset m_c, and the
    sign flips by the XOR of the ANDs of ``monomials`` (its algebraic normal form)."""
    states, p = _enumerate(2)[1], np.arange(16, dtype=np.uint16)
    subset = (p[:, None] & p) == p[:, None]  # [q, m]: pattern q lies inside monomial m
    anf = ((((states[:, 4:] >> p) & 1) @ subset) & 1) @ (1 << p)  # Moebius transform, packed
    masks = ((states[:, :4, None] >> (1 << p[:4])) & 1) @ (1 << p[:4])
    codes, which = np.unique(anf, return_inverse=True)  # 640 distinct sign polynomials
    monomials = [tuple(m for m in range(16) if code >> m & 1) for code in codes.tolist()]
    return tuple(zip(*masks.T.tolist(), [monomials[k] for k in which.tolist()]))


def group_size(num_qubits: int) -> int:
    return SINGLE_QUBIT_COUNT if num_qubits == 1 else TWO_QUBIT_COUNT


def clifford_word(num_qubits: int, index: int) -> tuple[gates.Gate, ...]:
    """Gate word (on logical qubits 0..n-1) of the index-th group element."""
    gens, edges, word = _GENERATORS[num_qubits], _enumerate(num_qubits)[0], ()
    while index:
        index, gen = divmod(int(edges[index - 1]), len(gens))
        word = (gens[gen],) + word
    return word


@lru_cache(maxsize=None)
def clifford_matrix(num_qubits: int, index: int) -> np.ndarray:
    """Dense unitary of the index-th element (global phase fixed by the word)."""
    return gates.word_matrix(clifford_word(num_qubits, index), num_qubits)


def sample_indices(rng: np.random.Generator, num_qubits: int, count: int) -> list[int]:
    """Uniform element indices; one RNG draw per gate keeps streams reproducible."""
    size = group_size(num_qubits)
    return [int(rng.integers(0, size)) for _ in range(count)]
