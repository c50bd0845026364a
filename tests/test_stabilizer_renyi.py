"""The stabilizer Rényi entropy M2 as an independent oracle for the witnesses.

M2 (Leone, Oliviero & Hamma, PRL 128, 050402 (2022)) of a pure L-qubit
state is ``-log2(sum_P <P>^4 / 2^L)`` over all 4^L Pauli strings P; it is
zero exactly on stabilizer states.  Nothing in it reads an entropy or a
tableau, so it checks the one error a one-sided witness must never make:
flagging a stabilizer state.
"""

import json
import math

import numpy as np
import pytest

from infolattice import analyze, witness_long_range
from infolattice.cli import build_parser, load_state
from infolattice.models import (
    TDopedCircuitSpec,
    embed_qutrit_to_spins,
    potts_point_spec,
    reference_tableau,
    symmetric_ground_state,
    t_doped_state,
)
from infolattice.states import PureState, haar_random_state
from infolattice.tableau import statevector_from_tableau
from infolattice.witness import DEFAULT_TOL

# Clifford states come out of the dense bridge with M2 of a few 1e-15 at L = 10
CLIFFORD_NOISE = 1e-10
# a flagged state must carry magic well above that noise
MAGIC_FLOOR = 1e-8


def stabilizer_renyi_2(state: PureState) -> float:
    """M2 of a qubit chain from 2^L Walsh-Hadamard transforms, O(L 4^L).

    Row ``a`` of ``g`` holds ``conj(psi[b ^ a]) psi[b]``; its transform over
    ``b`` gives ``<psi| X^a Z^z |psi>`` for every ``z``, which equals the
    expectation of the Hermitian Pauli string with X part ``a`` and Z part
    ``z`` up to a phase that the fourth power of the modulus drops.
    """
    assert set(state.dims) == {2}, "M2 here is for qubit chains"
    L = state.num_sites
    n = 1 << L
    psi = np.asarray(state.amps, dtype=complex)
    b = np.arange(n)
    g = np.conj(psi[b[:, None] ^ b]) * psi
    for k in range(L):
        g = g.reshape(n, -1, 2, 1 << k)
        lo, hi = g[:, :, 0], g[:, :, 1]
        g = np.stack((lo + hi, lo - hi), axis=2)
    return float(-math.log2(np.sum(np.abs(g) ** 4) / n))


def verdict_of(state: PureState):
    _, summary = analyze(state)
    return summary, witness_long_range(summary, DEFAULT_TOL)


def t_state(length: int) -> PureState:
    one = np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2.0)
    amps = np.array([1.0 + 0j])
    for _ in range(length):
        amps = np.kron(amps, one)
    return PureState(amps, (2,) * length)


class TestOracle:
    def test_product_t_states_are_additive(self):
        # one T state: <X> = <Y> = 1/sqrt 2, <Z> = 0, so M2 = log2(4/3)
        for length in (1, 3):
            assert stabilizer_renyi_2(t_state(length)) == pytest.approx(
                length * math.log2(4 / 3), abs=1e-12
            )

    def test_haar_states_sit_near_the_typical_value(self):
        # Haar average of sum_P <P>^4 / d is 4 / (d + 3): M2 ~ log2(d + 3) - 2
        rng = np.random.default_rng(7)
        for length in (6, 8):
            value = stabilizer_renyi_2(haar_random_state((2,) * length, rng))
            assert value == pytest.approx(math.log2(2**length + 3) - 2, abs=0.2)


def test_clifford_sources_have_no_magic_and_no_flag(tmp_path):
    # every Clifford circuit-file kind, resolved to its tableau by the CLI's own
    # loader and densified through the bridge
    files = {
        "gates.qc": "H 0\nCNOT 0 1\nS 1\nH 2\nCZ 2 3\nCNOT 3 4\nH 5\n",
        "gens.txt": "+XXXX\n+ZZII\n-IZZI\n+IIZZ\n",
    }
    for seed, (length, layers) in enumerate([(2, 1), (3, 4), (5, 2), (6, 6), (8, 8), (10, 6)]):
        spec = {"type": "random_clifford", "L": length, "layers": layers, "seed": seed}
        files[f"clifford{seed}.json"] = json.dumps(spec)
    states = []
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        args = build_parser().parse_args(["lattice", "--circuit", str(tmp_path / name)])
        states.append(statevector_from_tableau(load_state(args)))
    states.append(statevector_from_tableau(reference_tableau("bell", 4)))
    states += [statevector_from_tableau(reference_tableau(name, 7)) for name in ("neel", "ghz")]
    for state in states:
        assert abs(stabilizer_renyi_2(state)) < CLIFFORD_NOISE
        summary, verdict = verdict_of(state)
        assert summary.max_noninteger_deviation < 1e-9
        assert not verdict.has_nonstabilizerness


def potts_chain(h: float) -> PureState:
    gs, _ = symmetric_ground_state(potts_point_spec(8, h))
    return embed_qutrit_to_spins(gs)


def weighted_cat(length: int) -> PureState:
    """cos(pi/8)|0...0> + sin(pi/8)|1...1>: noninteger large-scale information."""
    amps = np.zeros(2**length)
    amps[0], amps[-1] = math.cos(math.pi / 8), math.sin(math.pi / 8)
    return PureState(amps, (2,) * length)


def haar_chain(length: int) -> PureState:
    return haar_random_state((2,) * length, np.random.default_rng(length))


BUILDERS = {"t-doped": t_doped_state, "potts": potts_chain, "cat": weighted_cat, "haar": haar_chain}

# dense states the witness flags: T-doped chains (L = 8 with few T gates, and
# the acceptance ensemble's L = 10), embedded Potts N = 4 ground states across
# the field grid, a weighted cat state and Haar qubit chains
FLAGGED = [
    *(
        ("t-doped", TDopedCircuitSpec(8, blocks, 4, t_gates, seed, entangling_layers=1))
        for seed, (blocks, t_gates) in enumerate([(1, 1), (1, 2), (2, 1), (3, 5)])
    ),
    ("t-doped", TDopedCircuitSpec(10, seed=0)),
    *(("potts", h) for h in (0.0, 0.1, 0.3, 0.5, 0.8)),
    ("cat", 6),
    ("haar", 3),
    ("haar", 6),
]


@pytest.mark.parametrize("kind,arg", FLAGGED)
def test_every_flagged_state_has_magic(kind, arg):
    state = BUILDERS[kind](arg)
    _, verdict = verdict_of(state)
    assert verdict.has_nonstabilizerness, f"{kind} {arg} not flagged"
    assert stabilizer_renyi_2(state) > MAGIC_FLOOR
