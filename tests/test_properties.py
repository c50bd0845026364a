"""Property tests: lattice invariants on random states, engine agreement."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from infolattice import compute_lattice
from infolattice.states import haar_random_state
from infolattice.tableau import (
    StabilizerTableau,
    random_clifford_circuit,
    statevector_from_tableau,
)

# small chains and few examples keep the suite fast; derandomized so that
# every run checks the same examples
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# lowest dense lattice site: sites that are exactly 0 come out of the
# eigensolve as float noise of either sign, a few 1e-12 at these sizes
SITE_FLOOR = -1e-10

seeds = st.integers(0, 2**32 - 1)


def brickwork_tableau(length, layers, seed):
    return random_clifford_circuit(length, layers, seed).apply_to_tableau(
        StabilizerTableau.zero_state(length)
    )


@st.composite
def states(draw):
    """Haar states on mixed qubit/qutrit chains, or densified Clifford states."""
    seed = draw(seeds)
    if draw(st.booleans()):
        dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=8))
        return haar_random_state(dims, np.random.default_rng(seed))
    length = draw(st.integers(2, 8))
    return statevector_from_tableau(brickwork_tableau(length, draw(st.integers(0, 8)), seed))


@PROPERTY
@given(states())
def test_sites_nonnegative_and_total_is_sum_log2_d(state):
    lat = compute_lattice(state)
    assert min(v for _, _, v in lat.sites()) >= SITE_FLOOR
    assert abs(lat.total() - sum(math.log2(d) for d in state.dims)) <= 1e-9


@PROPERTY
@given(states())
def test_mirror_covariance(state):
    assert compute_lattice(state.mirror()).allclose(compute_lattice(state).mirrored(), atol=1e-9)


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 8), seeds)
def test_tableau_and_dense_lattices_agree(length, layers, seed):
    t = brickwork_tableau(length, layers, seed)
    exact = t.integer_info_lattice()
    assert compute_lattice(statevector_from_tableau(t)).allclose(exact, atol=1e-9)
