"""Clifford group enumeration: counts, uniqueness, word/matrix consistency."""

import hashlib

import numpy as np
import pytest

from conftest import clifford_words, dense_pauli
from infolattice import cliffords, gates
from infolattice.pauli import PauliString
from infolattice.tableau import StabilizerTableau

PAULI_AXES = {
    1: [PauliString.single(1, 0, "X"), PauliString.single(1, 0, "Z")],
    2: [
        PauliString.single(2, 0, "X"),
        PauliString.single(2, 0, "Z"),
        PauliString.single(2, 1, "X"),
        PauliString.single(2, 1, "Z"),
    ],
}


def conjugated_axes(num_qubits: int, index: int) -> list[PauliString]:
    """Tableau-path conjugation images of the X/Z axes."""
    word = cliffords.clifford_word(num_qubits, index)
    axes = PAULI_AXES[num_qubits]
    t = StabilizerTableau(
        num_qubits,
        [p.x for p in axes],
        [p.z for p in axes],
        [p.phase_exp for p in axes],
    )
    return list(t.apply_circuit(word).generators)


@pytest.mark.parametrize("n,size", [(1, 24), (2, 11520)])
def test_group_sizes(n, size):
    assert cliffords.group_size(n) == size
    words = {cliffords.clifford_word(n, k) for k in range(size)}
    assert len(words) == size  # canonical words are distinct


def test_identity_is_index_zero():
    assert cliffords.clifford_word(1, 0) == ()
    assert cliffords.clifford_word(2, 0) == ()
    np.testing.assert_allclose(cliffords.clifford_matrix(2, 0), np.eye(4), atol=0)


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_matches_tableau_action(n):
    rng = np.random.default_rng(3)
    dim = 2**n
    for index in rng.integers(0, cliffords.group_size(n), size=30):
        index = int(index)
        u = cliffords.clifford_matrix(n, index)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
        for axis, image in zip(PAULI_AXES[n], conjugated_axes(n, index)):
            np.testing.assert_allclose(
                u @ dense_pauli(axis) @ u.conj().T, dense_pauli(image), atol=1e-12
            )


def test_signed_images_are_distinct():
    # two elements with identical signed conjugation images would be the same
    # Clifford mod phase; the enumeration must not contain duplicates
    seen = set()
    for index in range(cliffords.group_size(1)):
        key = tuple((g.x, g.z, g.phase_exp) for g in conjugated_axes(1, index))
        assert key not in seen
        seen.add(key)


def test_sample_indices_deterministic():
    rng1 = np.random.Generator(np.random.Philox(7))
    rng2 = np.random.Generator(np.random.Philox(7))
    assert cliffords.sample_indices(rng1, 2, 10) == cliffords.sample_indices(rng2, 2, 10)


# SHA-256 of repr(clifford_words(n)) as enumerated with per-row conjugation
# rules; the index -> word tables must never move, or seeded circuits would
WORD_TABLE_SHA256 = {
    1: "a2e05bf4315e8a8bd53d2789dac15b5e81ea420799a40b1f5e40b1cb1add4ea8",
    2: "c0873b55117b49f29c9e63d18762a79137760b94edbac64f84d450dde06851df",
}


@pytest.mark.parametrize("n", [1, 2])
def test_word_tables_pinned(n):
    digest = hashlib.sha256(repr(clifford_words(n)).encode()).hexdigest()
    assert digest == WORD_TABLE_SHA256[n]


def test_pair_maps_match_words():
    # rows 0-15 hold all sixteen Pauli patterns on sites a = 2, b = 0 and
    # random letters on site 1; each map must agree with its word, signs
    # included, and leave site 1 alone
    a, b = 2, 0
    rng = np.random.default_rng(5)
    pattern = [sum(1 << p for p in range(16) if p >> bit & 1) for bit in range(4)]
    xcols, zcols = [0, 0, 0], [0, 0, 0]
    xcols[a], xcols[b], zcols[a], zcols[b] = pattern
    xcols[1], zcols[1] = (int(v) for v in rng.integers(0, 1 << 16, 2))
    start = int(rng.integers(0, 1 << 16))
    maps = cliffords.pair_maps()
    assert len(maps) == cliffords.group_size(2)
    for k in range(cliffords.group_size(2)):
        wx, wz = list(xcols), list(zcols)
        sign = start
        for name, qubits in cliffords.clifford_word(2, k):
            sign = gates.conjugate_columns(wx, wz, sign, name, tuple((a, b)[q] for q in qubits))
        px, pz = list(xcols), list(zcols)
        assert gates.conjugate_pair(px, pz, start, maps[k], a, b) == sign
        assert (px, pz) == (wx, wz)
