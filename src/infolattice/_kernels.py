"""Row-reduction kernel over signed Pauli rows.

Rows are packed as Python integers (bit ``j`` of ``x``/``z`` is the X/Z
exponent on site ``j``) with an ``i``-exponent phase in {0,1,2,3}, so any
chain length works.
"""

from __future__ import annotations


def pauli_mul_phase(xa: int, za: int, xb: int, zb: int) -> int:
    """Extra i-exponent picked up by the product of two Pauli rows.

    With rows written in the Hermitian single-site basis (I, X, Y, Z), the
    product of rows a and b equals ``i**delta`` times the row with bitwise-xor
    bit patterns, where delta is returned here (mod 4).
    """
    xc = xa ^ xb
    zc = za ^ zb
    delta = (
        (xa & za).bit_count()
        + (xb & zb).bit_count()
        + 2 * (za & xb).bit_count()
        - (xc & zc).bit_count()
    )
    return delta % 4


def reduce_pauli_rows(
    xs: list[int], zs: list[int], phases: list[int], cols: list[int]
) -> tuple[int, list[int]]:
    """In-place phase-exact Gaussian elimination over GF(2).

    ``cols`` lists symplectic columns in elimination order; column ``c``
    addresses site ``c >> 1``, X bit if ``c`` is even, Z bit if odd.  After the
    call the first ``rank`` rows form the reduced basis (full reduction: each
    pivot column is cleared from every other row) and the remaining rows are
    zero.  Row updates multiply the full signed Pauli rows so phases stay
    exact.

    Returns ``(rank, pivots)`` where ``pivots[k]`` is the index into ``cols``
    of the k-th basis row's pivot column.
    """
    n = len(xs)
    rank = 0
    pivots: list[int] = []
    for order_pos, c in enumerate(cols):
        if rank == n:
            break
        site = c >> 1
        bit = 1 << site
        rows = zs if (c & 1) else xs
        pivot = -1
        for r in range(rank, n):
            if rows[r] & bit:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            xs[rank], xs[pivot] = xs[pivot], xs[rank]
            zs[rank], zs[pivot] = zs[pivot], zs[rank]
            phases[rank], phases[pivot] = phases[pivot], phases[rank]
        xp, zp, pp = xs[rank], zs[rank], phases[rank]
        for r in range(n):
            if r == rank or not (rows[r] & bit):
                continue
            delta = pauli_mul_phase(xs[r], zs[r], xp, zp)
            xs[r] ^= xp
            zs[r] ^= zp
            phases[r] = (phases[r] + pp + delta) % 4
        pivots.append(order_pos)
        rank += 1
    return rank, pivots


def reduce_vector_against(
    basis_xs: list[int],
    basis_zs: list[int],
    basis_pivot_cols: list[int],
    x: int,
    z: int,
) -> tuple[int, int]:
    """Reduce a phaseless symplectic vector against an RREF basis.

    ``basis_pivot_cols`` holds the symplectic column id of each basis row's
    pivot.  Returns the residual (x, z); a zero residual means the vector lies
    in the span of the basis.
    """
    for k, c in enumerate(basis_pivot_cols):
        bit = 1 << (c >> 1)
        val = z & bit if (c & 1) else x & bit
        if val:
            x ^= basis_xs[k]
            z ^= basis_zs[k]
    return x, z
