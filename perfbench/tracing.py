"""Per-layer tracing from outside the program.

Each span wraps one public function or method of an ``infolattice`` module.
Installing a tracer replaces *every* binding of the wrapped object in every
loaded ``infolattice`` module (``cli`` and ``models`` import several functions
by name), plus the class attribute for methods, and restores them on exit.

A span's self time is its duration minus the time covered by spans it
caused.  Time covered by no span at all is reported by the caller as the
benchmark's own self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from functools import wraps

# span name -> (module, attribute path inside that module)
SPANS = {
    "kernels.reduce_pauli_rows": ("infolattice._kernels", "reduce_pauli_rows"),
    "kernels.reduce_vector_against": ("infolattice._kernels", "reduce_vector_against"),
    "tableau.restrict_subgroup": ("infolattice.tableau", "StabilizerTableau.restrict_subgroup"),
    "tableau.integer_info_lattice": ("infolattice.tableau", "StabilizerTableau.integer_info_lattice"),
    "tableau.maximally_local_generating_set": (
        "infolattice.tableau",
        "StabilizerTableau.maximally_local_generating_set",
    ),
    "tableau.apply_circuit": ("infolattice.tableau", "StabilizerTableau.apply_circuit"),
    "tableau.statevector_from_tableau": ("infolattice.tableau", "statevector_from_tableau"),
    "states.reduced_density": ("infolattice.states", "PureState.reduced_density"),
    "states.complement_density": ("infolattice.states", "PureState.complement_density"),
    "states.entropy_of_interval": ("infolattice.states", "PureState.entropy_of_interval"),
    "states.entropy_bits": ("infolattice.states", "entropy_bits"),
    "states.apply_unitary": ("infolattice.states", "PureState.apply_unitary"),
    "states.load_amplitudes": ("infolattice.states", "load_amplitudes"),
    "lattice.compute_lattice": ("infolattice.lattice", "compute_lattice"),
    "lattice.interleave": ("infolattice.lattice", "interleave"),
    "lattice.fold": ("infolattice.lattice", "fold"),
    "lattice.summarize": ("infolattice.lattice", "summarize"),
    "models.symmetric_ground_state": ("infolattice.models", "symmetric_ground_state"),
    "models.potts_hamiltonian": ("infolattice.models", "potts_hamiltonian"),
    "models.symmetric_sector_isometry": ("infolattice.models", "symmetric_sector_isometry"),
    "models.charge_operator": ("infolattice.models", "charge_operator"),
    "models.embed_qutrit_to_spins": ("infolattice.models", "embed_qutrit_to_spins"),
    "models.t_doped_state": ("infolattice.models", "t_doped_state"),
    "witness.witness_long_range": ("infolattice.witness", "witness_long_range"),
    "witness.witness_nonstabilizerness": ("infolattice.witness", "witness_nonstabilizerness"),
    "cli.main": ("infolattice.cli", "main"),
    "cli.load_state": ("infolattice.cli", "load_state"),
    "circuits.load_circuit_file": ("infolattice.circuits", "load_circuit_file"),
}


def _count_cells(counters: dict, args: tuple, kwargs: dict) -> None:
    xs, cols = args[0], args[3]
    counters["kernels.reduce_pauli_rows.cells"] += len(xs) * len(cols)


def _count_eig(counters: dict, args: tuple, kwargs: dict) -> None:
    m = args[0].shape[0]
    counters["states.eig_work"] += m**3
    counters["states.rdm_side_max"] = max(counters["states.rdm_side_max"], m)


# computed counts gathered at a span's entry, from its arguments
COUNTERS = {
    "kernels.reduce_pauli_rows": _count_cells,
    "states.entropy_bits": _count_eig,
}
COUNTER_NAMES = (
    "kernels.reduce_pauli_rows.cells",
    "states.eig_work",
    "states.rdm_side_max",
)


class BindingError(RuntimeError):
    """A span could not be installed, or a required span never fired."""


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, leaf, owner.__dict__[leaf]
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Accumulates calls and self time per span over any number of installs."""

    def __init__(self, spans: dict = SPANS):
        self.spans = dict(spans)
        self.calls = dict.fromkeys(self.spans, 0)
        self.self_s = dict.fromkeys(self.spans, 0.0)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.covered_s = 0.0  # time inside top-level spans
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counters, args, kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.covered_s += dur

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of every span target; restore them on exit."""
        patches = []
        try:
            modules = [
                m
                for key, m in list(sys.modules.items())
                if m is not None and (key == "infolattice" or key.startswith("infolattice."))
            ]
            for name, (module_name, path) in self.spans.items():
                try:
                    owner, leaf, original = _resolve(module_name, path)
                except (AttributeError, KeyError, ImportError) as exc:
                    raise BindingError(f"span {name}: cannot resolve {module_name}.{path}: {exc}")
                wrapper = self._wrap(name, original)
                targets = [(owner, leaf)] if isinstance(owner, type) else []
                for module in modules:
                    targets += [(module, k) for k, v in vars(module).items() if v is original]
                for obj, key in targets:
                    patches.append((obj, key, original))
                    setattr(obj, key, wrapper)
            yield self
        finally:
            for obj, key, value in reversed(patches):
                setattr(obj, key, value)

    def check_fired(self, required) -> None:
        """Raise unless every required span is installed and was called."""
        missing = [s for s in required if self.calls.get(s, 0) == 0]
        if missing:
            raise BindingError(
                "required spans never fired (renamed, rebound or unwrapped?): "
                + ", ".join(missing)
            )
