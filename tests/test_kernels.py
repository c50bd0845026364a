"""Row-reduction kernel: long chains and span membership."""

import numpy as np

from conftest import default_column_order, row_reduce
from infolattice import _kernels
from infolattice.pauli import PauliString


def test_long_chain_uses_pure_path():
    # rows are arbitrary-precision ints, so chains past 64 sites reduce too
    L = 70
    gens = [PauliString.single(L, j, "Z") for j in range(0, L, 2)]
    basis, rank = row_reduce(gens + gens)
    assert rank == len(gens)
    assert all(g.z.bit_count() == 1 for g in basis)


def test_reduce_vector_against_matches_rank():
    rng = np.random.default_rng(5)
    L = 10
    for _ in range(50):
        n = int(rng.integers(1, 15))
        gens = [
            PauliString(L, int(rng.integers(0, 1 << L)), int(rng.integers(0, 1 << L)))
            for _ in range(n)
        ]
        basis, rank = row_reduce(gens)
        cols = default_column_order(L)
        # rebuild the RREF pivots for the reduced basis
        xs = [g.x for g in basis]
        zs = [g.z for g in basis]
        ph = [g.phase_exp for g in basis]
        rank2, pivots = _kernels.reduce_pauli_rows(xs, zs, ph, cols)
        assert rank2 == rank
        piv_cols = [cols[p] for p in pivots]
        probe = PauliString(L, int(rng.integers(0, 1 << L)), int(rng.integers(0, 1 << L)))
        rx, rz = _kernels.reduce_vector_against(xs, zs, piv_cols, probe.x, probe.z)
        in_span = rx == 0 and rz == 0
        _, rank_aug = row_reduce(list(basis) + [probe])
        assert in_span == (rank_aug == rank)
