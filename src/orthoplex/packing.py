"""Orbit enumeration for orthoplicial Apollonian packings.

One numpy kernel walks both modes.  A state is four disjoint pairs of
spheres and their antipodal row mu, stored as an int64 array (5, C): one
sphere of each pair, then mu, each row C channels with the bend first.
A move keeps one sphere per pair and replaces the rest.  Bend mode and
``orbit_bend_vectors`` walk bends alone (C = 1).  Geometric mode walks
C = 9 channels, the bend and then the rational and sqrt2 parts of a,
xhat, yhat and zhat, all times the seed's common denominator; it also
needs a new sphere in an exact Z[sqrt2] box and keeps every sphere.
``QSqrt2`` arithmetic only scales its seed in and its spheres out.

The canonical form of a state takes the lexicographically smaller row of
each pair, the four in lexicographic order, then mu (for C = 1, a plain
minimum and sort).  States are deduped on the exact bytes of that form,
so two distinct states never share a key.

A child is enqueued only when the smallest bend it creates is at most
the cap.  Soundness of that prune is empirical: the suite checks mode
agreement, monotone closure, and reproduction of the frozen reference bend
sets rather than assuming a termination argument.

The walk is single-threaded and breadth-first.  It takes whole levels
while its state count stays within the budget, never the level that
would pass it, so a report's ``states`` never exceeds its budget.  Order
within a level is unspecified; every reported quantity is an aggregate
over whole levels, and reports emit every collection sorted.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .arithmetic import ObstructionClass, epsilon_of
from .config import BendVector, FMatrix
from .inversive import Coord5, HonestSphere, sphere_from_coords
from .ring import QSqrt2

DEFAULT_BUDGET = 10 ** 7
DEFAULT_BOX = Fraction(10)

_MASKS = tuple(itertools.product((0, 1), repeat=4))

# Largest |value| a frontier may hold.  A move computes 2*(sum(kept) - mu)
# - kept with |kept| <= 3*|value|, within 29*|value| < 2**63.  The 10x box
# test squares up to 11 times a new sphere's largest value, which 29 * 2**22
# keeps below 11 * 2**27, and (11 * 2**27)**2 < 2**63.
_INT64_HEADROOM = 2 ** 58
_BOX_HEADROOM = 2 ** 22


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
    walk = _generate_bend if spec.mode == "bend" else _generate_geom
    mult, zero_spheres, states, exhausted, spheres = walk(spec)
    report = PackingReport(
        mode=spec.mode,
        bend_cap=spec.bend_cap,
        bends=tuple(sorted(mult)),
        bend_multiplicity=dict(sorted(mult.items())),
        classification=_classify(zero_spheres, {b for b in mult if b < 0}),
        epsilon=obs.epsilon,
        frontier_exhausted=exhausted,
        states=states,
        spheres=spheres,
    )
    bad = [b for b in report.bends if not obs.admits(b)]
    if bad:
        raise RuntimeError(f"local obstruction violated by bends {bad}")
    return report


# ---------------------------------------------------------------------------
# the walk: one move kernel, one BFS loop, one budget rule


def _check_headroom(peak: int, headroom: int):
    if peak > headroom:
        raise WalkInputError(
            f"walk value of magnitude {peak} exceeds the int64 headroom "
            f"2**{headroom.bit_length() - 1}")


def _lex_sorted(rows: np.ndarray, size: int) -> np.ndarray:
    """``rows`` (n, C), each run of ``size`` in lexicographic order."""
    run = np.repeat(np.arange(len(rows) // size), size)
    return rows[np.lexsort(tuple(rows.T[::-1]) + (run,))]


def _canonical(kept: List[np.ndarray], mu: np.ndarray) -> np.ndarray:
    """The canonical states, shape (m, 5, C), of the configurations with
    antipodal rows ``mu`` that hold the sphere rows ``kept[k]``, one of
    each pair, each (m, C)."""
    two_mu = 2 * mu
    if mu.shape[1] == 1:  # the same form, several times faster
        lo = np.sort(np.concatenate([np.minimum(k, two_mu - k) for k in kept],
                                    axis=1), axis=1)
        return np.concatenate([lo, mu], axis=1)[:, :, None]
    m, width = mu.shape
    pairs = np.stack([x for k in kept for x in (k, two_mu - k)], axis=1)
    lo = _lex_sorted(pairs.reshape(-1, width), 2)[::2]
    return np.concatenate([_lex_sorted(lo, 4).reshape(m, 4, width),
                           mu[:, None]], axis=1)


def _nonneg(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether x + y*sqrt2 >= 0, exactly."""
    return (((x >= 0) & ((y >= 0) | (x * x >= 2 * y * y)))
            | ((y >= 0) & (2 * y * y >= x * x)))


def _in_box(v: np.ndarray, box: Fraction) -> np.ndarray:
    """Which geometric rows (n, 9) are planes or have |xhat|, |yhat| and
    |zhat| at most ``box`` times |b|."""
    bound = box.numerator * np.abs(v[:, 0])
    ok = np.ones(len(v), dtype=bool)
    for c in (3, 5, 7):
        p, q = box.denominator * v[:, c], box.denominator * v[:, c + 1]
        ok &= _nonneg(bound - p, -q) & _nonneg(bound + p, q)
    return ok | (v[:, 0] == 0)


def _children(states: np.ndarray, cap: int,
              box: Optional[Fraction] = None) -> Iterator[np.ndarray]:
    """The canonical states of the moves from ``states`` that create a bend
    at most ``cap`` and, with a ``box``, a sphere that passes the box test;
    one C-contiguous batch per move pattern, duplicates included."""
    L = [states[:, k] for k in range(4)]
    M = states[:, 4]
    H = [2 * M - x for x in L]
    for mask in _MASKS:
        kept = [H[k] if mask[k] else L[k] for k in range(4)]
        mu2 = kept[0] + kept[1] + kept[2] + kept[3] - M
        # the new spheres are 2*mu2 - kept; the smallest bend pairs with
        # the largest kept one
        top = np.maximum(np.maximum(kept[0], kept[1]),
                         np.maximum(kept[2], kept[3]))
        ok = (2 * mu2 - top)[:, 0] <= cap
        if box is not None:
            ok &= np.logical_or.reduce([_in_box(2 * mu2 - k, box)
                                        for k in kept])
        if ok.any():
            # compress: boolean indexing of (n, 1) arrays is slower
            yield _canonical([k.compress(ok, axis=0) for k in kept],
                             mu2.compress(ok, axis=0))


def _walk(rows: List[List[int]], cap: int, budget: int,
          reduce: Callable[[np.ndarray], object],
          box: Optional[Fraction] = None) -> Tuple[list, int, bool]:
    """BFS from the sphere rows ``rows[:4]`` and antipodal row ``rows[4]``
    (C ints each): ``reduce`` of each whole level taken while the state
    count stays within ``budget``, that count, and whether the frontier
    emptied.  Row order within a level is unspecified."""
    headroom = _INT64_HEADROOM if box is None else _BOX_HEADROOM
    _check_headroom(max(abs(x) for row in rows for x in row), headroom)
    seed = np.array(rows, dtype=np.int64)
    frontier = _canonical([seed[k:k + 1] for k in range(4)], seed[4:])
    key = f"V{frontier[0].nbytes}"
    visited = {frontier.tobytes()}
    out, taken = [], 0
    while True:
        if taken + len(frontier) > budget:
            return out, taken, False
        taken += len(frontier)
        out.append(reduce(frontier))
        fresh = []
        for kids in _children(frontier, cap, box):
            keys = set(kids.reshape(len(kids), -1).view(key).ravel().tolist())
            keys -= visited
            visited |= keys
            fresh += keys
        if not fresh:
            return out, taken, True
        frontier = np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(
            -1, *seed.shape)
        _check_headroom(int(np.abs(frontier).max()), headroom)


def _generate_bend(spec: PackingSpec):
    """Bend multiplicities, zero-sphere count, states, exhaustion and no
    spheres of a bend-mode walk."""
    cap = spec.bend_cap
    mult: Counter = Counter()

    def level(states: np.ndarray) -> int:
        los = states[:, :4, 0]
        all8 = np.concatenate([los, 2 * states[:, 4:, 0] - los], axis=1)
        vals = all8.ravel()
        uniq, counts = np.unique(vals[vals <= cap], return_counts=True)
        mult.update(dict(zip(uniq.tolist(), counts.tolist())))
        return int((all8 == 0).sum(axis=1).max())

    rows = [[b] for b in spec.seed.bend_vector().as_ints()]
    zeros, states, exhausted = _walk(rows, cap, spec.budget, level)
    return mult, max(zeros) if 0 in mult else 0, states, exhausted, None


def _channels(v: Coord5) -> List[int]:
    """The geometric channels of an integral row: b, then the rational and
    sqrt2 parts of a, xhat, yhat and zhat."""
    return [int(v.b.rat)] + [int(p) for c in (v.a, v.xhat, v.yhat, v.zhat)
                             for p in (c.rat, c.irr)]


def _generate_geom(spec: PackingSpec):
    """Distinct-sphere bend multiplicities, zero-sphere count, states,
    exhaustion and the spheres at most the cap of a geometric walk."""
    rows = spec.seed.rows
    d = math.lcm(*(c.xyd[2] for v in rows for c in v))
    cap = spec.bend_cap * d
    found = []

    def level(states: np.ndarray):
        los = states[:, :4]
        all8 = np.concatenate([los, 2 * states[:, 4:] - los], axis=1)
        all8 = all8.reshape(-1, all8.shape[2])
        found.append(np.compress(all8[:, 0] <= cap, all8, axis=0))

    _, states, exhausted = _walk([_channels(v.scale(d)) for v in rows], cap,
                                 spec.budget, level, DEFAULT_BOX)
    # a set, not np.unique(axis=0): that imports numpy.ma on its first call,
    # and benchmarks/workloads.Clock calls np.unique from a SIGALRM handler,
    # which recurses to a RecursionError if it lands inside that import
    distinct = set(map(tuple, np.concatenate(found).tolist()))
    spheres = tuple(sorted(
        (Coord5(QSqrt2(a, a2), QSqrt2(b), QSqrt2(x, x2), QSqrt2(y, y2),
                QSqrt2(z, z2)).scale(Fraction(1, d))
         for b, a, a2, x, x2, y, y2, z, z2 in distinct),
        key=Coord5.serialize))
    mult = Counter(row[0] // d for row in distinct)
    return mult, mult.get(0, 0), states, exhausted, spheres


def orbit_bend_vectors(seed: FMatrix, cap: int,
                       budget: int = DEFAULT_BUDGET) -> List[BendVector]:
    """Canonical bend vectors of every configuration the bend-mode walk
    visits at this cap, sorted.  Each is a genuine bend vector of a
    reordered configuration: picking one sphere per disjoint pair is
    admissible."""
    rows = [[b] for b in _seed_bend_vector(seed).as_ints()]
    levels, _, exhausted = _walk(rows, cap, budget, lambda s: s[:, :, 0])
    if not exhausted:
        raise RuntimeError("node budget exceeded")
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
    if start > up_to:
        raise ValueError(f"scan range [{start}, {up_to}] is empty: its start "
                         "exceeds its end")
    have = set(report.bends)
    obs = report.obstruction()
    return [n for n in range(start, up_to + 1)
            if obs.admits(n) and n not in have]


# ---------------------------------------------------------------------------
# scene export


def _sphere_record(v: Coord5, text: Tuple[str, ...]) -> dict:
    """The record of sphere ``v``, whose ``serialize()`` is ``text``."""
    s = sphere_from_coords(v)
    rec = dict(zip(Coord5._fields, text),
               kind="sphere" if isinstance(s, HonestSphere) else "plane",
               bend=v.b.to_float())
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
    keyed = sorted((abs(v.b), v.serialize(), v) for v in report.spheres)
    records = [_sphere_record(v, text) for _, text, v in keyed]
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
