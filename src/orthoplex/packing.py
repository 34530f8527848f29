"""Orbit enumeration for orthoplicial Apollonian packings.

Two walks share one expansion rule (view a configuration as four
disjoint pairs; a move keeps one sphere per pair and replaces the rest):

* the integer engine walks bend vectors with numpy and canonicalizes
  states under the symmetry group, which keeps the visited set small; it
  serves bend mode and ``orbit_bend_vectors``;
* geometric mode walks exact F-matrices and keeps every sphere.

Both walks dedupe states on exact values: the integer engine on the bytes
of its int64 rows, geometric mode on the exact coordinate rows themselves
(each sphere paired with its disjoint partner, the pairs unordered), so
two distinct states never share a key.

A child is enqueued only when the smallest bend it creates is at most
the cap.  Soundness of that prune is empirical: the suite checks mode
agreement, monotone closure, and reproduction of the frozen reference bend
sets rather than assuming a termination argument.

Both walks are single-threaded and breadth-first.  The integer engine
checks the budget after each whole level, and the order of its states
within a level is unspecified; that is safe because every reported
quantity is an aggregate over whole levels.  Reports emit every
collection sorted, so identical runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .arithmetic import ObstructionClass, epsilon_of
from .config import BendVector, FMatrix
from .inversive import Coord5, HonestSphere, sphere_from_coords
from .ring import QSqrt2

DEFAULT_BUDGET = 10 ** 7
DEFAULT_BOX = Fraction(10)

_MASKS = tuple(itertools.product((0, 1), repeat=4))

# Largest |value| a frontier of the integer engine may hold.  A move
# computes 2*(sum(kept) - mu) - kept with |kept| <= 3*|value|, which stays
# within 29*|value| < 2**63.
_INT64_HEADROOM = 2 ** 58


class WalkInputError(ValueError):
    """A seed, cap or budget that the walks cannot run on."""


class CapBelowSeedError(WalkInputError):
    """The cap excludes even the largest sphere of the seed."""


@dataclass(frozen=True)
class PackingSpec:
    seed: FMatrix
    bend_cap: int
    mode: str = "bend"  # "bend" or "geom"
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.mode not in ("bend", "geom"):
            raise ValueError("mode must be 'bend' or 'geom'")
        if self.budget < 1:
            raise WalkInputError(
                f"budget must be at least 1, got {self.budget}")


@dataclass(frozen=True)
class PackingReport:
    """Outcome of one orbit walk.

    ``bends`` is the sorted set of bend values found at or below the cap.
    ``bend_multiplicity`` counts distinct spheres per bend in geometric
    mode; in bend mode sphere identity is not recoverable, so it counts
    occurrences across the deduped states instead.
    """

    mode: str
    bend_cap: int
    bends: Tuple[int, ...]
    bend_multiplicity: Dict[int, int]
    classification: str
    epsilon: int
    frontier_exhausted: bool
    states: int
    spheres: Optional[Tuple[Coord5, ...]] = None

    @property
    def min_bend(self) -> int:
        return self.bends[0] if self.bends else 0

    def obstruction(self) -> ObstructionClass:
        return ObstructionClass(self.epsilon)

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "mode": self.mode,
            "bend_cap": self.bend_cap,
            "epsilon": self.epsilon,
            "forbidden_residue": self.obstruction().forbidden_residue,
            "classification": self.classification,
            "frontier_exhausted": self.frontier_exhausted,
            "states": self.states,
            "bends": list(self.bends),
            "bend_multiplicity": {str(k): v for k, v in
                                  sorted(self.bend_multiplicity.items())},
        }
        if self.spheres is not None:
            out["sphere_count"] = len(self.spheres)
        return out


def _seed_bend_vector(seed: FMatrix) -> BendVector:
    if not all(r.b.is_integer() for r in seed.rows):
        raise WalkInputError(
            "bend walks and the mod-4 obstruction need an integral seed")
    return seed.bend_vector()


def _seed_obstruction(seed: FMatrix) -> Tuple[BendVector, ObstructionClass]:
    """The integral bend vector of ``seed`` and its mod-4 obstruction,
    which is defined only for primitive configurations."""
    bv = _seed_bend_vector(seed)
    if not bv.is_primitive():
        raise WalkInputError(
            "the mod-4 obstruction needs a primitive seed: its bends "
            f"{tuple(map(int, bv))} share a factor")
    return bv, epsilon_of(bv.bends8())


def _classify(zero_spheres: int, negative_values: Set[int]) -> str:
    if len(negative_values) == 1 and zero_spheres == 0:
        return "bounded"
    if zero_spheres == 2 and not negative_values:
        return "planar"
    if zero_spheres == 1 and not negative_values:
        return "half_space"
    return "full_space"


def generate(spec: PackingSpec) -> PackingReport:
    bv, obs = _seed_obstruction(spec.seed)
    low = int(min(bv.bends8()))
    if spec.bend_cap < low:
        raise CapBelowSeedError(
            f"cap {spec.bend_cap} is below every seed bend (min {low})")
    if spec.mode == "bend":
        report = _generate_bend(spec, bv, obs.epsilon)
    else:
        report = _generate_geom(spec, obs.epsilon)
    bad = [b for b in report.bends if not obs.admits(b)]
    if bad:
        raise RuntimeError(f"local obstruction violated by bends {bad}")
    return report


# ---------------------------------------------------------------------------
# integer engine: bend mode and orbit_bend_vectors


def _check_headroom(peak: int):
    if peak > _INT64_HEADROOM:
        raise WalkInputError(
            f"bend walk value of magnitude {peak} exceeds the int64 headroom "
            f"2**{_INT64_HEADROOM.bit_length() - 1}")


def _children(states: np.ndarray, cap: int) -> Iterator[np.ndarray]:
    """The canonical states of the moves from ``states`` that create a bend
    at most ``cap``, one C-contiguous batch per move pattern, duplicates
    included."""
    L = [states[:, k] for k in range(4)]
    M = states[:, 4]
    H = [2 * M - x for x in L]
    for mask in _MASKS:
        kept = [H[k] if mask[k] else L[k] for k in range(4)]
        mu2 = kept[0] + kept[1] + kept[2] + kept[3] - M
        # the new bends are 2*mu2 - kept; the smallest pairs with max(kept)
        ok = 2 * mu2 - np.maximum(np.maximum(kept[0], kept[1]),
                                  np.maximum(kept[2], kept[3])) <= cap
        if ok.any():
            mu2 = mu2[ok]
            lo = np.stack([np.minimum(k, 2 * mu2 - k)
                           for k in (x[ok] for x in kept)], axis=1)
            yield np.concatenate([np.sort(lo, axis=1), mu2[:, None]], axis=1)


def _bend_levels(bv: BendVector, cap: int) -> Iterator[np.ndarray]:
    """The frontiers of the capped bend walk from ``bv``, one BFS level at
    a time, the start state first.

    A state is an int64 row: the smaller bend of each pair, sorted, then
    b_mu.  States are deduped on their exact 40-byte images, so distinct
    states never collide.  Row order within a level is unspecified."""
    b = bv.as_ints()
    start = sorted(min(x, 2 * b[4] - x) for x in b[:4]) + [b[4]]
    _check_headroom(max(map(abs, start)))
    frontier = np.array([start], dtype=np.int64)
    visited = {frontier.tobytes()}
    while True:
        yield frontier
        fresh = []
        for batch in _children(frontier, cap):
            keys = set(batch.view("V40").ravel().tolist())
            keys -= visited
            visited |= keys
            fresh += keys
        if not fresh:
            return
        frontier = np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(-1, 5)
        _check_headroom(int(np.abs(frontier).max()))


def _generate_bend(spec: PackingSpec, bv: BendVector, eps: int) -> PackingReport:
    cap = spec.bend_cap
    mult: Counter = Counter()
    max_zero_in_state = 0
    nstates = 0
    exhausted = True
    for states in _bend_levels(bv, cap):
        nstates += len(states)
        los = states[:, :4]
        all8 = np.concatenate([los, 2 * states[:, 4:5] - los], axis=1)
        max_zero_in_state = max(max_zero_in_state,
                                int((all8 == 0).sum(axis=1).max()))
        vals = all8.ravel()
        uniq, counts = np.unique(vals[vals <= cap], return_counts=True)
        mult.update(dict(zip(uniq.tolist(), counts.tolist())))
        if nstates > spec.budget:
            exhausted = False
            break

    bends = tuple(sorted(mult))
    negatives = {v for v in bends if v < 0}
    zero_spheres = max_zero_in_state if 0 in mult else 0
    return PackingReport(
        mode="bend",
        bend_cap=cap,
        bends=bends,
        bend_multiplicity=dict(sorted(mult.items())),
        classification=_classify(zero_spheres, negatives),
        epsilon=eps,
        frontier_exhausted=exhausted,
        states=nstates,
    )


# ---------------------------------------------------------------------------
# geometric mode


def _in_box(v: Coord5) -> bool:
    if not v.b:
        return True
    bound = QSqrt2(DEFAULT_BOX) * abs(v.b)
    return all(abs(c) <= bound for c in (v.xhat, v.yhat, v.zhat))


def _generate_geom(spec: PackingSpec, eps: int) -> PackingReport:
    cap = QSqrt2(spec.bend_cap)
    visited: Set[Tuple] = set()
    spheres: Set[Coord5] = set()

    def visit(rows, his, mu) -> bool:
        """Record a state unless it was seen; ``his[k]`` is the disjoint
        partner 2*mu - rows[k] of ``rows[k]``."""
        key = (frozenset(map(frozenset, zip(rows, his))), mu)
        if key in visited:
            return False
        visited.add(key)
        spheres.update(rows)
        spheres.update(his)
        return True

    seed_rows = spec.seed.rows[:4]
    seed_mu = spec.seed.antipodal_row
    seed_his = [seed_mu.scale(2) - r for r in seed_rows]
    visit(seed_rows, seed_his, seed_mu)
    frontier = [(seed_rows, seed_his, seed_mu)]
    nstates = 1
    exhausted = True
    while frontier:
        nxt = []
        for rows, his, mu in frontier:
            for mask in _MASKS:
                kept = [his[k] if mask[k] else rows[k] for k in range(4)]
                mu2 = kept[0] + kept[1] + kept[2] + kept[3] - mu
                two_mu2 = mu2.scale(2)
                new = [two_mu2 - c for c in kept]
                if all(n.b > cap for n in new):
                    continue
                if not any(_in_box(n) for n in new):
                    continue
                if not visit(kept, new, mu2):
                    continue
                nxt.append((kept, new, mu2))
                nstates += 1
                if nstates > spec.budget:
                    exhausted = False
                    break
            if not exhausted:
                break
        if not exhausted:
            break
        frontier = nxt

    kept_spheres = tuple(sorted((v for v in spheres if v.b <= cap),
                                key=Coord5.serialize))
    bend_list = []
    for v in kept_spheres:
        b = v.b
        if b.irr != 0 or b.rat.denominator != 1:
            raise ValueError("non-integral bend in geometric orbit")
        bend_list.append(int(b.rat))
    mult = Counter(bend_list)
    zero_spheres = mult.get(0, 0)
    negatives = {b for b in mult if b < 0}
    return PackingReport(
        mode="geom",
        bend_cap=spec.bend_cap,
        bends=tuple(sorted(mult)),
        bend_multiplicity=dict(sorted(mult.items())),
        classification=_classify(zero_spheres, negatives),
        epsilon=eps,
        frontier_exhausted=exhausted,
        states=nstates,
        spheres=kept_spheres,
    )


def orbit_bend_vectors(seed: FMatrix, cap: int,
                       budget: int = DEFAULT_BUDGET) -> List[BendVector]:
    """Canonical bend vectors of every configuration the bend-mode walk
    visits at this cap, sorted.  Each is a genuine bend vector of a
    reordered configuration: picking one sphere per disjoint pair is
    admissible."""
    levels = []
    count = 0
    for states in _bend_levels(_seed_bend_vector(seed), cap):
        count += len(states)
        if count > budget:
            raise RuntimeError("node budget exceeded")
        levels.append(states)
    states = np.concatenate(levels)
    states = states[np.lexsort(states.T[::-1])]
    return [BendVector(s) for s in states.tolist()]


# ---------------------------------------------------------------------------
# report queries


def missing_admissible(report: PackingReport, up_to: int,
                       start: Optional[int] = None) -> List[int]:
    """Admissible integers in [start, up_to] absent from the bend set."""
    if not report.frontier_exhausted:
        raise ValueError("refusing a non-exhausted report: its bend set "
                         "may be incomplete")
    if up_to > report.bend_cap:
        raise ValueError(f"scan bound {up_to} exceeds the report cap "
                         f"{report.bend_cap}")
    if start is None:
        start = report.min_bend
    have = set(report.bends)
    obs = report.obstruction()
    return [n for n in range(start, up_to + 1)
            if obs.admits(n) and n not in have]


# ---------------------------------------------------------------------------
# scene export


def _sphere_record(v: Coord5) -> dict:
    s = sphere_from_coords(v)
    rec = {
        "kind": "sphere" if isinstance(s, HonestSphere) else "plane",
        "a": str(v.a), "b": str(v.b),
        "xhat": str(v.xhat), "yhat": str(v.yhat), "zhat": str(v.zhat),
        "bend": v.b.to_float(),
    }
    if isinstance(s, HonestSphere):
        rec.update(
            cx=s.center[0].to_float(), cy=s.center[1].to_float(),
            cz=s.center[2].to_float(), r=s.oriented_radius.to_float(), h=None,
        )
    else:
        rec.update(
            cx=s.unit_normal[0].to_float(), cy=s.unit_normal[1].to_float(),
            cz=s.unit_normal[2].to_float(), r=None, h=s.offset.to_float(),
        )
    return rec


_CSV_FIELDS = ("kind", "a", "b", "xhat", "yhat", "zhat",
               "bend", "cx", "cy", "cz", "r", "h")


def export_scene(report: PackingReport, fmt: str = "csv") -> bytes:
    """One record per sphere of a geometric report, ordered by |bend|
    then exact coordinates."""
    if report.mode != "geom" or report.spheres is None:
        raise ValueError("scene export needs a geometric-mode report")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    ordered = sorted(report.spheres, key=lambda v: (abs(v.b), v.serialize()))
    records = [_sphere_record(v) for v in ordered]
    if fmt == "json":
        doc = {"schema_version": 1, "spheres": records}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    lines = [",".join(_CSV_FIELDS)]
    for rec in records:
        lines.append(",".join(
            "" if rec[f] is None else str(rec[f]) for f in _CSV_FIELDS))
    return ("\n".join(lines) + "\n").encode()


def resolve_budget(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("ORTHOPLEX_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise WalkInputError(
            f"ORTHOPLEX_BUDGET must be an integer, got {env!r}") from None
