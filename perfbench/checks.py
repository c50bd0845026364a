"""Output checks: comparison against recorded references, run untimed.

An item's output is reduced to a record ``(exact, approx)``.  ``exact`` holds
what must match bit for bit (integer lattices, MLGS labels and placements,
verdict fields) and is stored as a SHA-256 digest; ``approx`` holds floats
(per-site values, gamma, gamma_folded, omega, amplitude fingerprints) that may
differ from the reference by at most ``FLOAT_TOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

FLOAT_TOL = 1e-12
REFS_DIR = Path(__file__).resolve().parent / "refs"


def digest(exact) -> str:
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compare_approx(ref, got, where: str = "approx") -> list[str]:
    """Differences between two nested structures of floats beyond FLOAT_TOL."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [p for k in ref for p in compare_approx(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        out: list[str] = []
        for k, (r, g) in enumerate(zip(ref, got)):
            out += compare_approx(r, g, f"{where}[{k}]")
            if len(out) >= 3:
                break
        return out
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - ref) <= FLOAT_TOL):
        return [f"{where}: {got!r} differs from {ref!r} by more than {FLOAT_TOL}"]
    return []


def check_against(ref: dict, exact, approx) -> list[str]:
    problems = []
    if digest(exact) != ref["digest"]:
        problems.append("exact fields differ from the reference")
    return problems + compare_approx(ref["approx"], approx)


def make_reference(exact, approx) -> dict:
    return {"digest": digest(exact), "approx": approx}


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json"


def load_refs(workload: str, seed: int) -> list[dict] | None:
    """References for one seed, indexed by canonical item index, if recorded.

    Workloads whose outputs do not depend on the seed store one list under
    ``"*"``, which applies to every seed.
    """
    path = refs_path(workload)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        seeds = json.load(fh)["seeds"]
    return seeds.get(str(seed), seeds.get("*"))
