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
minimum and sort).  States are deduped on an exact key of that form, so
two distinct states never share a key.  Bend walks (C = 1: ``bends``,
``scan``, bend-mode ``gen`` and ``orbit_bend_vectors``) pack the five
values of each state into one int64, as digits in base ``_KEY_BASE``
above the least value seen, ``low``; that is exact only while every value
lies in [low, low + _KEY_BASE), and a walk whose values outgrow that range
switches, for the rest of the walk, to the exact bytes of each state,
which geometric walks use throughout (``_Visited``).

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
DEFAULT_BOX = 10

_MASKS = tuple(itertools.product((0, 1), repeat=4))

# Largest |value| a frontier may hold.  A move computes 2*(sum(kept) - mu)
# - kept with |kept| <= 3*|value|, within 29*|value| < 2**63.  The 10x box
# test squares up to 11 times a new sphere's largest value, which 29 * 2**22
# keeps below 11 * 2**27, and (11 * 2**27)**2 < 2**63.
_INT64_HEADROOM = 2 ** 58
_BOX_HEADROOM = 2 ** 22

# The base of the packed keys of bend-walk states (``_Visited``): the
# largest B with B**5 < 2**63, so five digits in [0, B) fit one int64.
_KEY_BASE = 6208


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
    occurrences across the deduped states instead.  ``spheres``, in
    geometric mode only, holds each distinct sphere once, ordered by its
    exact channels: bend, then the rational and sqrt2 parts of a, xhat,
    yhat and zhat.
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
    try:
        return seed.bend_vector()
    except ValueError:
        raise WalkInputError(
            "bend walks and the mod-4 obstruction need an integral seed"
        ) from None


def _seed_obstruction(seed: FMatrix) -> Tuple[BendVector, ObstructionClass]:
    """The integral bend vector of ``seed`` and its mod-4 obstruction,
    which is defined only for primitive configurations."""
    bv = _seed_bend_vector(seed)
    if not bv.is_primitive():
        raise WalkInputError(
            "the mod-4 obstruction needs a primitive seed: its bends "
            f"{tuple(bv)} share a factor")
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
    low = min(bv.bends8())
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


def _in_box(v: np.ndarray, box: int) -> np.ndarray:
    """Which geometric rows (n, 9) are planes or have |xhat|, |yhat| and
    |zhat| at most the integer ``box`` times |b|."""
    bound = box * np.abs(v[:, 0])
    ok = np.ones(len(v), dtype=bool)
    for c in (3, 5, 7):
        p, q = v[:, c], v[:, c + 1]
        ok &= _nonneg(bound - p, -q) & _nonneg(bound + p, q)
    return ok | (v[:, 0] == 0)


def _children(states: np.ndarray, cap: int,
              box: Optional[int] = None) -> Iterator[np.ndarray]:
    """The canonical states of the moves from ``states`` that create a bend
    at most ``cap`` and, with a ``box``, a sphere that passes the box test;
    one C-contiguous batch per move pattern, duplicates included.  The box
    sees only the moves that pass the cap."""
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
        # compress: boolean indexing of (n, 1) arrays is slower
        if box is not None and ok.any():
            two_mu2 = 2 * mu2.compress(ok, axis=0)
            ok[ok] = np.logical_or.reduce(
                [_in_box(two_mu2 - k.compress(ok, axis=0), box) for k in kept])
        if ok.any():
            yield _canonical([k.compress(ok, axis=0) for k in kept],
                             mu2.compress(ok, axis=0))


class _Visited:
    """The canonical states a walk has seen, and the dedupe of each level
    against them.

    A C = 1 state (lo0 <= lo1 <= lo2 <= lo3 <= mu) is held as one int64
    key, its five values less ``low`` as digits in base ``_KEY_BASE``.  The
    keys are packed only while every value the walk has seen lies in
    [low, low + _KEY_BASE): then a key is exact, injective and ordered like
    its state, and ``keys`` is kept sorted.  ``low`` is the least value
    seen; when a batch goes below it, every key held moves with it.  A
    batch that would stretch the values over ``_KEY_BASE`` switches the
    walk, for good, to ``seen``: the exact bytes of each state in a set,
    which geometric states (C = 9) use from the start.
    """

    def __init__(self, start: np.ndarray):
        self.shape = start.shape[1:]
        self.void = f"V{start[0].nbytes}"
        self.low, self.high = int(start.min()), int(start.max())
        self.keys: Optional[np.ndarray] = None
        self.seen: Optional[Set[bytes]] = None
        if self.shape[1] == 1 and self.high - self.low < _KEY_BASE:
            self.keys = self._pack(start)
        else:
            self.seen = set(self._voids(start))

    def _voids(self, states: np.ndarray) -> list:
        """The bytes of each state: ``tolist`` of a void view of each row,
        equal to ``row.tobytes()``."""
        return states.reshape(len(states), -1).view(self.void).ravel().tolist()

    def _pack(self, states: np.ndarray) -> np.ndarray:
        powers = _KEY_BASE ** np.arange(4, -1, -1, dtype=np.int64)
        return (states[:, :, 0] - self.low) @ powers

    def _unpack(self, keys: np.ndarray) -> np.ndarray:
        states = np.empty((len(keys), 5, 1), dtype=np.int64)
        for j in range(4, -1, -1):
            keys, states[:, j, 0] = np.divmod(keys, _KEY_BASE)
        states += self.low
        return states

    def _widen(self, states: np.ndarray, level: List[np.ndarray]) -> bool:
        """Whether the values of ``states`` and every value seen lie in one
        key range; if so, take it, moving ``keys`` and this ``level``'s keys
        when ``low`` falls.  The span is checked first: the shift of a wider
        one overflows int64."""
        low = min(self.low, int(states.min()))
        high = max(self.high, int(states.max()))
        if high - low >= _KEY_BASE:
            return False
        if low < self.low:
            shift = (self.low - low) * sum(_KEY_BASE ** j for j in range(5))
            for keys in [self.keys] + level:
                keys += shift
        self.low, self.high = low, high
        return True

    def fresh(self, batches: Iterator[np.ndarray]) -> np.ndarray:
        """The states of ``batches`` not seen before, now seen, (m, 5, C)."""
        if self.keys is not None:
            level: List[np.ndarray] = []
            for kids in batches:
                if not self._widen(kids, level):
                    # switch: this level's keys so far become one more batch
                    held = [self._unpack(k) for k in level]
                    self.seen = set(self._voids(self._unpack(self.keys)))
                    self.keys = None
                    batches = itertools.chain(held, [kids], batches)
                    break
                level.append(self._pack(kids))
            else:
                return self._unpack(self._merge(level))
        fresh = []
        for kids in batches:
            keys = set(self._voids(kids))
            keys -= self.seen
            self.seen |= keys
            fresh += keys
        return np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(
            -1, *self.shape)

    def _merge(self, level: List[np.ndarray]) -> np.ndarray:
        """The sorted distinct keys of ``level`` not in ``keys``, now in
        it.  Sorting and a neighbour mask, not ``np.unique``: that imports
        ``numpy.ma``."""
        keys = np.sort(np.concatenate(level or [self.keys[:0]]))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        at = np.searchsorted(self.keys, keys)
        new = self.keys[np.minimum(at, len(self.keys) - 1)] != keys
        keys = keys[new]
        self.keys = np.insert(self.keys, at[new], keys)
        return keys


def _walk(rows: List[List[int]], cap: int, budget: int,
          reduce: Callable[[np.ndarray], object],
          box: Optional[int] = None) -> Tuple[list, int, bool]:
    """BFS from the sphere rows ``rows[:4]`` and antipodal row ``rows[4]``
    (C ints each): ``reduce`` of each whole level taken while the state
    count stays within ``budget``, that count, and whether the frontier
    emptied.  Each level is deduped against every state seen (``_Visited``:
    packed int64 keys for bend walks while their values fit, else bytes).
    Row order within a level is unspecified."""
    headroom = _INT64_HEADROOM if box is None else _BOX_HEADROOM
    _check_headroom(max(abs(x) for row in rows for x in row), headroom)
    seed = np.array(rows, dtype=np.int64)
    frontier = _canonical([seed[k:k + 1] for k in range(4)], seed[4:])
    visited = _Visited(frontier)
    out, taken = [], 0
    while True:
        if taken + len(frontier) > budget:
            return out, taken, False
        taken += len(frontier)
        out.append(reduce(frontier))
        frontier = visited.fresh(_children(frontier, cap, box))
        if not len(frontier):
            return out, taken, True
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

    rows = [[b] for b in spec.seed.bend_vector()]
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
    spheres = tuple(
        Coord5(QSqrt2(a, a2), QSqrt2(b), QSqrt2(x, x2), QSqrt2(y, y2),
               QSqrt2(z, z2)).scale(Fraction(1, d))
        for b, a, a2, x, x2, y, y2, z, z2 in sorted(distinct))
    mult = Counter(row[0] // d for row in distinct)
    return mult, mult.get(0, 0), states, exhausted, spheres


def orbit_bend_vectors(seed: FMatrix, cap: int,
                       budget: int = DEFAULT_BUDGET) -> List[BendVector]:
    """Canonical bend vectors of every configuration the bend-mode walk
    visits at this cap, sorted.  Each is a genuine bend vector of a
    reordered configuration: picking one sphere per disjoint pair is
    admissible."""
    rows = [[b] for b in _seed_bend_vector(seed)]
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
    """Admissible integers in [start, up_to] absent from the bend set.  The
    range must lie in [min bend, cap]: no bend lies below the least one."""
    if not report.frontier_exhausted:
        raise ValueError("refusing a non-exhausted report: its bend set "
                         "may be incomplete")
    if up_to > report.bend_cap:
        raise ValueError(f"scan bound {up_to} exceeds the report cap "
                         f"{report.bend_cap}")
    if start is None:
        start = report.min_bend
    if start < report.min_bend:
        raise ValueError(f"scan start {start} is below the smallest bend "
                         f"{report.min_bend}")
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
