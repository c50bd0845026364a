"""Property tests: lattice invariants on random states, engine agreement."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    assert_lattices_close,
    default_column_order,
    mirror_lattice,
    mirror_state,
    stabilizer_entropy,
)
from infolattice import (
    _kernels,
    analyze,
    compute_lattice,
    gamma_folded,
    interleave,
    summarize,
)
from infolattice.errors import TableauConsistencyError
from infolattice.lattice import lattice_from_interval_info
from infolattice.models import embed_qutrit_to_spins, potts_point_spec, symmetric_ground_state
from infolattice.pauli import PauliString, SupportInterval
from infolattice.states import PureState, haar_random_state
from infolattice.tableau import (
    StabilizerTableau,
    random_clifford_circuit,
    statevector_from_tableau,
)

# small chains and few examples keep the suite fast; derandomized so that
# every run checks the same examples
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# restrict_subgroup on every interval costs O(L^4) row operations per chain
FEW = settings(PROPERTY, max_examples=8)

# lowest dense lattice site: sites that are exactly 0 come out of the
# eigensolve as float noise of either sign, a few 1e-12 at these sizes
SITE_FLOOR = -1e-10

seeds = st.integers(0, 2**32 - 1)


def brickwork_tableau(length, layers, seed):
    return random_clifford_circuit(length, layers, seed).apply_to_tableau(
        StabilizerTableau.zero_state(length)
    )


@st.composite
def states(draw, min_sites=1, max_sites=8):
    """Haar states on mixed qubit/qutrit chains, or densified Clifford states."""
    seed = draw(seeds)
    if draw(st.booleans()):
        dims = draw(st.lists(st.sampled_from([2, 3]), min_size=min_sites, max_size=max_sites))
        return haar_random_state(dims, np.random.default_rng(seed))
    length = draw(st.integers(max(2, min_sites), max_sites))
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
    assert_lattices_close(
        compute_lattice(mirror_state(state)), mirror_lattice(compute_lattice(state)), 1e-9
    )


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 8), seeds)
def test_tableau_and_dense_lattices_agree(length, layers, seed):
    t = brickwork_tableau(length, layers, seed)
    exact = t.integer_info_lattice()
    assert_lattices_close(compute_lattice(statevector_from_tableau(t)), exact, 1e-9)


def assert_telescoped_gamma_folded(state):
    full = summarize(compute_lattice(interleave(state))).gamma
    assert abs(gamma_folded(state) - full) <= 1e-12


@PROPERTY
@given(states(min_sites=2, max_sites=9))
def test_gamma_folded_matches_full_folded_lattice(state):
    assert_telescoped_gamma_folded(state)


def assert_real_and_complex_storage_agree(real):
    """The lattice, gamma and gamma_folded of a real state equal those of the
    same amplitudes stored as complex, within 1e-12."""
    cplx = PureState(real.amps.astype(complex), real.dims)
    assert real.amps.dtype == np.float64 and cplx.amps.dtype == np.complex128
    lat_r, sum_r = analyze(real)
    lat_c, sum_c = analyze(cplx)
    for row_r, row_c in zip(lat_r.rows, lat_c.rows):
        assert np.max(np.abs(row_r - row_c)) <= 1e-12
    assert abs(sum_r.gamma - sum_c.gamma) <= 1e-12
    assert abs(sum_r.gamma_folded - sum_c.gamma_folded) <= 1e-12
    return sum_r, sum_c


@PROPERTY
@given(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=8), seeds)
def test_real_and_complex_storage_agree(dims, seed):
    v = np.random.default_rng(seed).normal(size=math.prod(dims))
    assert_real_and_complex_storage_agree(PureState(v, dims, normalize=True))


@pytest.mark.parametrize("length", [8, 12])
@pytest.mark.parametrize("field", [0.0, 0.3, 0.4, 0.8])
def test_real_and_complex_storage_agree_on_potts_points(length, field):
    gs, _ = symmetric_ground_state(potts_point_spec(length, field))
    sum_r, sum_c = assert_real_and_complex_storage_agree(embed_qutrit_to_spins(gs))
    # mirror sites tie up to rounding; the reported one must not follow it
    assert sum_r.deviation_site == sum_c.deviation_site


@pytest.mark.parametrize("length", range(2, 10))
def test_gamma_folded_matches_full_folded_lattice_every_length(length):
    rng = np.random.default_rng(length)
    assert_telescoped_gamma_folded(haar_random_state(rng.choice([2, 3], size=length), rng))
    t = brickwork_tableau(length, length, 100 + length)
    assert_telescoped_gamma_folded(statevector_from_tableau(t))


@pytest.mark.parametrize("length", range(2, 10))
def test_gamma_folded_takes_at_most_length_plus_two_entropies(monkeypatch, length):
    calls = []
    entropy = PureState.entropy_of_interval

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return entropy(self, *args, **kwargs)

    monkeypatch.setattr(PureState, "entropy_of_interval", counted)
    state = haar_random_state((2,) * length, np.random.default_rng(length))
    gamma_folded(state)
    assert 0 < len(calls) <= length + 2


def restrict_by_full_reduction(length, rows, a, b):
    """Oracle for ``restrict_subgroup``: reduce all ``(x, z, phase)`` rows,
    exterior symplectic columns first; the rows whose pivots land on [a, b]
    generate the subgroup supported there."""
    exterior = [s for s in range(length) if not a <= s <= b]
    cols = [2 * s + w for s in exterior for w in (0, 1)] + list(range(2 * a, 2 * b + 2))
    xs, zs, ph = (list(col) for col in zip(*rows))
    rank, pivots = _kernels.reduce_pauli_rows(xs, zs, ph, cols)
    inside = sum(1 for p in pivots if p >= 2 * len(exterior))
    return [PauliString(length, xs[k], zs[k], ph[k]) for k in range(rank - inside, rank)]


def assert_gauge_matches_restriction(t, intervals=None, signed=True):
    """Gauge entropies and ``restrict_subgroup`` against the oracle.

    Signs are compared only when ``signed``: the span of a dependent set may
    contain -I, and then an element's sign is undefined.
    """
    L = t.length
    rows = [(g.x, g.z, g.phase_exp) for g in t.generators]
    if intervals is None:
        intervals = [(a, b) for a in range(L) for b in range(a, L)]
    for a, b in intervals:
        expected = restrict_by_full_reduction(L, rows, a, b)
        gens, rank = t.restrict_subgroup(SupportInterval(a, b))
        entropy = stabilizer_entropy(t, SupportInterval(a, b))
        assert b - a + 1 - entropy == rank == len(expected), (a, b)
        # signed generators as (x, z, phase) triples; labels would cost O(L) each
        key = (lambda g: (g.x, g.z, g.phase_exp)) if signed else (lambda g: (g.x, g.z))
        assert [key(g) for g in gens] == [key(g) for g in expected], (a, b)


@FEW
@given(st.integers(2, 80), st.integers(0, 6), seeds)
@example(length=70, layers=3, seed=0)  # past the 64 bits of one machine word
def test_gauge_ranks_match_restriction(length, layers, seed):
    assert_gauge_matches_restriction(brickwork_tableau(length, layers, seed))


@PROPERTY
@given(st.integers(2, 10), st.integers(0, 8), seeds, st.data())
def test_gauge_ranks_match_restriction_dependent_sets(length, layers, seed, data):
    gens = brickwork_tableau(length, layers, seed).generators
    picked = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=length + 3))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(picked), st.sampled_from(picked)), max_size=3))
    products = [PauliString(length, a.x ^ b.x, a.z ^ b.z) for a, b in pairs]
    rows = picked + products
    t = StabilizerTableau(
        length, [g.x for g in rows], [g.z for g in rows], [g.phase_exp for g in rows]
    )
    assert_gauge_matches_restriction(t, signed=False)


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 8), seeds)
def test_gauge_lattice_is_second_difference_of_ranks(length, layers, seed):
    t = brickwork_tableau(max(length, 2), layers, seed)
    L = t.length
    info = [
        [scale + 1 - stabilizer_entropy(t, SupportInterval(a, a + scale)) for a in range(L - scale)]
        for scale in range(L)
    ]
    ranks = lattice_from_interval_info((1.0,) * L, info)
    for got, want in zip(t.integer_info_lattice().rows, ranks.rows, strict=True):
        assert np.array_equal(got, want) and not np.signbit(got).any()


def test_gauge_at_two_hundred_sites():
    t = brickwork_tableau(200, 3, 2024)
    lat = t.integer_info_lattice()
    assert lat.total() == 200
    assert all(v >= 0 and v == round(v) for _, _, v in lat.sites())
    # restricting every interval would take minutes; a seeded sample stands in
    rng = np.random.default_rng(200)
    lefts = rng.integers(0, 200, size=60)
    rights = [int(rng.integers(a, 200)) for a in lefts]
    assert_gauge_matches_restriction(t, list(zip(lefts.tolist(), rights)) + [(0, 199)])


def rank_by_full_reduction(length, rows):
    """Oracle for the gauge rank: phase-exact full reduction of all
    ``(x, z, phase)`` rows, the rank check ``from_generators`` used to make."""
    xs, zs, ph = (list(col) for col in zip(*rows))
    rank, _ = _kernels.reduce_pauli_rows(xs, zs, ph, default_column_order(length))
    return rank


def products(strings, length):
    """Phaseless products of two strings drawn from ``strings``."""
    return st.tuples(strings, strings).map(
        lambda ab: PauliString(length, ab[0].x ^ ab[1].x, ab[0].z ^ ab[1].z)
    )


@st.composite
def generator_sets(draw):
    """L commuting Hermitian strings of one stabilizer group, often dependent:
    its generators with a few replaced by duplicates, products, identity rows
    or sign-flipped copies."""
    length = draw(st.integers(2, 10))
    group = brickwork_tableau(length, draw(st.integers(0, 8)), draw(seeds)).generators
    member = st.sampled_from(group)
    variant = st.one_of(
        member,
        products(member, length),
        st.just(PauliString(length, 0, 0)),
        member.map(lambda g: PauliString(length, g.x, g.z, g.phase_exp + 2)),
    )
    gens = list(draw(st.permutations(group)))
    for k in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        gens[k] = draw(variant)
    return gens


@settings(PROPERTY, max_examples=300)
@given(generator_sets(), st.data())
def test_gauge_rank_matches_full_reduction(gens, data):
    length = gens[0].length
    rows = [(g.x, g.z, g.phase_exp) for g in gens]
    rank = rank_by_full_reduction(length, rows)
    t = StabilizerTableau(length, *(list(col) for col in zip(*rows)))
    if rank == length:
        assert StabilizerTableau.from_generators(gens) == t
    else:
        with pytest.raises(TableauConsistencyError) as err:
            StabilizerTableau.from_generators(gens)
        assert str(err.value) == f"generators span rank {rank} < {length}"
    bits = st.integers(0, 2**length - 1)
    anywhere = st.builds(PauliString, st.just(length), bits, bits, st.integers(0, 3))
    spanned = products(st.sampled_from(gens), length)
    for p in data.draw(st.lists(st.one_of(spanned, anywhere), min_size=1, max_size=4)):
        # the gauge of the rows and p has one generator per rank of their span
        ext = rows + [(p.x, p.z, p.phase_exp)]
        extended = StabilizerTableau(length, *(list(col) for col in zip(*ext)))
        assert extended.integer_info_lattice().total() == rank_by_full_reduction(length, ext)
