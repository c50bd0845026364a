"""Pauli string algebra: products, commutation, reduction, support."""

import numpy as np
import pytest

from conftest import dense_pauli, multiply, random_pauli, row_reduce
from infolattice.errors import DimensionMismatchError
from infolattice.pauli import (
    PauliString,
    SupportInterval,
    commutes,
)

P = PauliString.from_label


class TestMultiplication:
    def test_single_qubit_table_against_dense(self):
        for a in "IXYZ":
            for b in "IXYZ":
                pa, pb = P(a), P(b)
                prod = multiply(pa, pb)
                np.testing.assert_allclose(
                    dense_pauli(prod), dense_pauli(pa) @ dense_pauli(pb), atol=1e-14
                )

    def test_xz_is_minus_i_y(self):
        assert multiply(P("XI"), P("ZI")).label() == "-iYI"

    def test_hermitian_involution(self, rng):
        for _ in range(50):
            g = random_pauli(rng, int(rng.integers(1, 9)), hermitian=True)
            sq = multiply(g, g)
            assert sq == PauliString(g.length, 0, 0)

    def test_ghz_bond_product(self):
        # ZZII * IZZI appears in the four-qubit GHZ stabilizer group as ZIZI
        prod = multiply(P("ZZII"), P("IZZI"))
        assert prod.label() == "ZIZI"

    def test_associativity_exact(self, rng):
        for _ in range(100):
            L = int(rng.integers(1, 10))
            a, b, c = (random_pauli(rng, L) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_random_products_against_dense(self, rng):
        for _ in range(40):
            L = int(rng.integers(1, 6))
            a, b = random_pauli(rng, L), random_pauli(rng, L)
            np.testing.assert_allclose(
                dense_pauli(multiply(a, b)),
                dense_pauli(a) @ dense_pauli(b),
                atol=1e-12,
            )

    def test_commutation_phase_relation(self, rng):
        # ab and ba differ exactly by the symplectic sign
        for _ in range(60):
            L = int(rng.integers(1, 9))
            a, b = random_pauli(rng, L), random_pauli(rng, L)
            ab, ba = multiply(a, b), multiply(b, a)
            expected = 0 if commutes(a, b) else 2
            assert (ab.phase_exp - ba.phase_exp) % 4 == expected

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(P("XX"), P("X"))
        with pytest.raises(DimensionMismatchError):
            commutes(P("XX"), P("X"))


class TestCommutes:
    def test_examples(self):
        assert not commutes(P("XIII"), P("ZIII"))
        assert commutes(P("ZZII"), P("IZZI"))
        # two overlapping anticommuting sites make an even total
        assert commutes(P("XXXX"), P("ZZII"))

    def test_against_dense_commutator(self, rng):
        for _ in range(40):
            L = int(rng.integers(1, 6))
            a, b = random_pauli(rng, L), random_pauli(rng, L)
            da, db = dense_pauli(a), dense_pauli(b)
            comm = np.max(np.abs(da @ db - db @ da))
            assert commutes(a, b) == (comm < 1e-12)


class TestRowReduce:
    def test_dependent_triple(self):
        # the third string is the product of the first two
        gens = [P("ZZII"), P("IZZI"), P("ZIZI")]
        prod = multiply(gens[0], gens[1])
        assert (prod.x, prod.z) == (gens[2].x, gens[2].z)
        _, rank = row_reduce(gens)
        assert rank == 2

    def test_empty(self):
        basis, rank = row_reduce([])
        assert basis == [] and rank == 0

    def test_ghz_group_rank(self):
        gens = [P("XXXX"), P("ZZII"), P("IZZI"), P("IIZZ")]
        elements = []
        for mask in range(1, 16):
            acc = PauliString(4, 0, 0)
            for k in range(4):
                if (mask >> k) & 1:
                    acc = multiply(acc, gens[k])
            elements.append(acc)
        assert len(elements) == 15
        _, rank = row_reduce(elements)
        assert rank == 4

    def test_idempotent(self, rng):
        for _ in range(30):
            L = int(rng.integers(1, 9))
            gens = [random_pauli(rng, L) for _ in range(int(rng.integers(1, 2 * L)))]
            basis, rank = row_reduce(gens)
            basis2, rank2 = row_reduce(basis)
            assert rank2 == rank
            assert [(g.x, g.z) for g in basis2] == [(g.x, g.z) for g in basis]

    def test_rank_invariances(self, rng):
        for _ in range(30):
            L = int(rng.integers(2, 9))
            n = int(rng.integers(2, 2 * L))
            gens = [random_pauli(rng, L) for _ in range(n)]
            _, rank = row_reduce(gens)
            perm = list(rng.permutation(n))
            basis_p, rank_p = row_reduce([gens[k] for k in perm])
            assert rank_p == rank
            # the phaseless reduced basis is canonical for the span
            basis, _ = row_reduce(gens)
            assert [(g.x, g.z) for g in basis_p] == [(g.x, g.z) for g in basis]
            # multiplying one input by another keeps the span
            i, j = rng.integers(0, n, size=2)
            if i != j:
                mixed = list(gens)
                mixed[int(i)] = multiply(mixed[int(i)], mixed[int(j)])
                _, rank_m = row_reduce(mixed)
                assert rank_m == rank


class TestSupport:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SupportInterval(3, 2)
        with pytest.raises(ValueError):
            SupportInterval(-1, 2)


class TestLabels:
    @pytest.mark.parametrize("label", ["XXXX", "-IZII", "+iXY", "-iZ", "Y"])
    def test_roundtrip(self, label):
        p = P(label)
        canonical = label.lstrip("+") if not label.startswith("+i") else label
        assert p.label() == canonical

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            P("XQ")
        with pytest.raises(ValueError):
            P("--X")

    def test_random_roundtrip(self, rng):
        for _ in range(40):
            p = random_pauli(rng, int(rng.integers(1, 12)))
            assert P(p.label()) == p
