"""Orbit enumeration for orthoplicial Apollonian packings.

One numpy kernel walks both modes.  A state is four disjoint pairs of
spheres and their antipodal row mu: one sphere of each pair, then mu, each
row C int64 channels with the bend first.  A level of n states is held
slot-major, as an array (5, n, C) whose slot k < 4 holds the sphere of
pair k of every state and slot 4 every mu, each slot one contiguous
(n, C) block, so a move works on whole slots.  A move keeps one sphere
per pair and replaces the rest; the 16 moves from a level run one after
another, each flipping one kept sphere of the move before it.  Bend mode
and ``orbit_bend_vectors`` walk bends alone (C = 1).  Geometric mode
walks C = 9 channels, the bend and then the rational and sqrt2 parts of
a, xhat, yhat and zhat, all times the seed's common denominator; it also
needs a new sphere in an exact Z[sqrt2] box and keeps every sphere.
``QSqrt2`` arithmetic only scales its seed in and its spheres out.

The canonical form of a state takes the lexicographically smaller row of
each pair, the four in lexicographic order, then mu (for C = 1, the
elementwise minimum of each pair and a five-comparator min/max sorting
network over the four slots).  States are deduped on an exact key of that
form, so two distinct states never share a key.

A child is enqueued only when the smallest bend it creates is at most
the cap.  Soundness of that prune is empirical: the suite checks mode
agreement, monotone closure, and reproduction of the frozen reference bend
sets rather than assuming a termination argument.

Bend walks (C = 1: ``bends``, ``scan``, bend-mode ``gen`` and
``orbit_bend_vectors``) first descend from their seed to its packing's
root, taking the move with the least (mu', kept spheres) while mu' < mu,
as Graham, Lagarias, Mallows, Wilks and Yan reduce a Descartes quadruple
(J. Number Theory 100, 2003).  From the root they keep only the moves that
raise mu and dedupe each level against itself alone, so their answer is a
function of the packing, not of the start.  That every state lies one
level above each state it is reached from is measured, not proven; were
it false, a state would be counted twice and no bend lost.  A level packs
each state into one int64 key, its values less the root's least value
``low`` as digits in base ``_KEY_BASE``, by Horner's rule on each move's
batch; a level with a value outside [low, low + _KEY_BASE) dedupes on
exact bytes instead.  Geometric walks start where they are put, take every
move and dedupe against every state seen, on bytes: their roots need a
tie rule among same-bend states first.

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

# nothing here calls epsilon_of: it stays bound because
# benchmarks/test_benchmark.py reads packing.epsilon_of
from .arithmetic import (  # noqa: F401
    ObstructionClass, WalkInputError, epsilon_of, seed_bend_vector,
    seed_obstruction)
from .config import BendVector, FMatrix
from .inversive import Coord5, HonestSphere, sphere_from_coords
from .ring import QSqrt2

DEFAULT_BUDGET = 10 ** 7
DEFAULT_BOX = 10

# The 16 moves from a state, each keeping one sphere of every pair, in Gray
# code order: move i swaps the sphere that move i - 1 keeps of pair
# _FLIPS[i] for its partner (move 0 keeps the lesser sphere of every pair).
_FLIPS = (None, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0)

# Largest |value| a frontier may hold.  A move computes 2*(sum(kept) - mu)
# - kept with |kept| <= 3*|value|, within 29*|value| < 2**63.  The 10x box
# test squares up to 11 times a new sphere's largest value, which 29 * 2**22
# keeps below 11 * 2**27, and (11 * 2**27)**2 < 2**63.
_INT64_HEADROOM = 2 ** 58
_BOX_HEADROOM = 2 ** 22

# The base of the packed keys of bend-walk states (``_distinct``): the
# largest B with B**5 < 2**63, so five digits in [0, B) fit one int64.
_KEY_BASE = 6208

# Most moves a bend walk's start may lie above its root.  Along a parabolic
# word, F1 under (S1234 S5634)^k, bends grow like 8k**2 over 2k moves, so
# the headroom alone would admit descents of some 10**8 moves, an hour.
_DESCENT_STEPS = 10 ** 5


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


def _classify(zero_spheres: int, negative_values: Set[int]) -> str:
    if len(negative_values) == 1 and zero_spheres == 0:
        return "bounded"
    if zero_spheres == 2 and not negative_values:
        return "planar"
    if zero_spheres == 1 and not negative_values:
        return "half_space"
    return "full_space"


def generate(spec: PackingSpec) -> PackingReport:
    bv, obs = seed_obstruction(spec.seed)
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


def _sort4(x: List[np.ndarray], out: np.ndarray):
    """Sort the four arrays ``x`` elementwise into ``out[:4]`` by a min/max
    network on the pairs (0, 1), (2, 3), (0, 2), (1, 3), (1, 2).  ``x`` is
    scratch: each maximum is taken before the minimum that overwrites its
    input, so the network allocates nothing."""
    s0, s1, s2, s3 = out[:4]
    np.minimum(x[0], x[1], out=s0)
    np.maximum(x[0], x[1], out=s1)
    np.minimum(x[2], x[3], out=s2)
    np.maximum(x[2], x[3], out=s3)
    c, b = x[:2]
    np.maximum(s0, s2, out=c)
    np.minimum(s0, s2, out=s0)
    np.minimum(s1, s3, out=b)
    np.maximum(s1, s3, out=s3)
    np.minimum(b, c, out=s1)
    np.maximum(b, c, out=s2)


def _canonical(kept: List[np.ndarray], mu: np.ndarray) -> np.ndarray:
    """The canonical states, slot-major (5, m, C), of the configurations
    with antipodal rows ``mu`` that hold the sphere rows ``kept[k]``, one
    of each pair, each (m, C)."""
    m, width = mu.shape
    states = np.empty((5, m, width), dtype=np.int64)
    states[4] = mu
    two_mu = 2 * mu
    if width == 1:  # the same form, several times faster
        _sort4([np.minimum(k, two_mu - k) for k in kept], states)
        return states
    pairs = np.stack([x for k in kept for x in (k, two_mu - k)], axis=1)
    lo = _lex_sorted(pairs.reshape(-1, width), 2)[::2]
    states[:4] = _lex_sorted(lo, 4).reshape(m, 4, width).swapaxes(0, 1)
    return states


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


def _children(states: np.ndarray, cap: int, box: Optional[int] = None,
              climb: bool = False) -> Iterator[np.ndarray]:
    """The canonical states of the moves from ``states`` that create a bend
    at most ``cap``, with ``climb`` raise mu's bend, and, with a ``box``,
    create a sphere that passes the box test; one batch per move pattern,
    duplicates included.  The box sees only the moves that pass the cap."""
    L, M = list(states[:4]), states[4]
    H = [2 * M - x for x in L]
    kept = list(L)
    mu2 = L[0] + L[1] + L[2] + L[3] - M  # sum(kept) - M, kept in step
    for k in _FLIPS:
        if k is not None:
            old = kept[k]
            kept[k] = H[k] if old is L[k] else L[k]
            mu2 += kept[k]
            mu2 -= old
        # the new spheres are 2*mu2 - kept; the smallest bend pairs with
        # the largest kept one
        top = np.maximum(np.maximum(kept[0][:, 0], kept[1][:, 0]),
                         np.maximum(kept[2][:, 0], kept[3][:, 0]))
        ok = 2 * mu2[:, 0] - top <= cap
        if climb:
            ok &= mu2[:, 0] > M[:, 0]
        at = np.flatnonzero(ok)
        if box is not None and len(at):
            two_mu2 = 2 * mu2.take(at, axis=0)
            at = at[np.logical_or.reduce(
                [_in_box(two_mu2 - k.take(at, axis=0), box) for k in kept])]
        if len(at):
            yield _canonical([k.take(at, axis=0) for k in kept],
                             mu2.take(at, axis=0))


def _voids(states: np.ndarray) -> list:
    """The bytes of each state of ``states`` (5, m, C), its slots in order:
    ``tolist`` of a void view of each state-major row."""
    rows = np.ascontiguousarray(states.swapaxes(0, 1))
    width = 5 * states.shape[2]
    voids = rows.reshape(len(rows), width).view(f"V{8 * width}")
    return voids.ravel().tolist()


def _fresh(batches: Iterator[np.ndarray], seen: Set[bytes],
           width: int) -> np.ndarray:
    """The states (5, m, ``width``) of ``batches`` whose bytes are not in
    ``seen``, each once, now in it."""
    fresh = []
    for kids in batches:
        keys = set(_voids(kids))
        keys -= seen
        seen |= keys
        fresh += keys
    rows = np.frombuffer(b"".join(fresh), dtype=np.int64)
    return np.ascontiguousarray(rows.reshape(-1, 5, width).swapaxes(0, 1))


def _pack(states: np.ndarray, low: int) -> np.ndarray:
    """The keys of C = 1 ``states``, by Horner's rule on the digits
    (value - low) of their slots; every partial key is below B**5."""
    keys = states[0, :, 0] - low
    digit = np.empty_like(keys)
    for slot in states[1:, :, 0]:
        np.subtract(slot, low, out=digit)
        keys *= _KEY_BASE
        keys += digit
    return keys


def _unpack(keys: np.ndarray, low: int) -> np.ndarray:
    states = np.empty((5, len(keys), 1), dtype=np.int64)
    for j in range(4, -1, -1):
        keys, states[j, :, 0] = np.divmod(keys, _KEY_BASE)
    states += low
    return states


def _distinct(batches: Iterator[np.ndarray], low: int) -> np.ndarray:
    """The distinct C = 1 states of one level's ``batches``.  While every
    value lies in [low, low + _KEY_BASE), each batch is packed into keys,
    and the level's keys are sorted and each kept once: sorting and a
    neighbour mask, not ``np.unique``, which imports ``numpy.ma``.  A batch
    outside that range sends this level alone, with the keys packed so far,
    to the exact bytes of each state."""
    level: List[np.ndarray] = []
    for kids in batches:
        if int(kids.min()) < low or int(kids.max()) - low >= _KEY_BASE:
            held = [_unpack(keys, low) for keys in level]
            return _fresh(itertools.chain(held, [kids], batches), set(), 1)
        level.append(_pack(kids, low))
        del kids  # free each batch before the next one is made
    keys = np.sort(np.concatenate(level or [np.empty(0, dtype=np.int64)]))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return _unpack(keys[first], low)


def _root(bends: List[int]) -> List[int]:
    """The canonical root state of the packing of the bend vector
    ``bends`` (four spheres, one of each disjoint pair, then mu): from it,
    take the move with the least (mu', kept spheres) while mu' < mu, on
    exact ints.  A start more than ``_DESCENT_STEPS`` moves above its root,
    or whose descent leaves the int64 headroom, is invalid input."""
    mu = bends[4]
    los = sorted(min(b, 2 * mu - b) for b in bends[:4])
    for _ in range(_DESCENT_STEPS + 1):
        _check_headroom(max(map(abs, los + [mu])), _INT64_HEADROOM)
        mu2, kept = min(
            (sum(kept) - mu, kept)
            for kept in itertools.product(*[(x, 2 * mu - x) for x in los]))
        if mu2 >= mu:
            return los + [mu]
        mu = mu2
        los = sorted(min(k, 2 * mu - k) for k in kept)
    raise WalkInputError(f"the seed lies more than {_DESCENT_STEPS} moves "
                         "above the root of its packing")


def _walk(rows: List[List[int]], cap: int, budget: int,
          reduce: Callable[[np.ndarray], object],
          box: Optional[int] = None) -> Tuple[list, int, bool]:
    """BFS from the sphere rows ``rows[:4]`` and antipodal row ``rows[4]``
    (C ints each): ``reduce`` of each whole level (5, n, C) taken while the
    state count stays within ``budget``, that count, and whether the
    frontier emptied.  A bend walk (no ``box``) climbs from its root; a
    geometric walk takes every move from its start.  State order within a
    level is unspecified."""
    headroom = _INT64_HEADROOM if box is None else _BOX_HEADROOM
    _check_headroom(max(abs(x) for row in rows for x in row), headroom)
    climb = box is None
    if climb:
        rows = [[b] for b in _root([row[0] for row in rows])]
    seed = np.array(rows, dtype=np.int64)
    frontier = _canonical([seed[k:k + 1] for k in range(4)], seed[4:])
    low, seen = int(frontier.min()), set(_voids(frontier))
    out, taken = [], 0
    while True:
        n = frontier.shape[1]
        if taken + n > budget:
            return out, taken, False
        taken += n
        out.append(reduce(frontier))
        kids = _children(frontier, cap, box, climb=climb)
        frontier = (_distinct(kids, low) if climb
                    else _fresh(kids, seen, seed.shape[1]))
        if not frontier.shape[1]:
            return out, taken, True
        _check_headroom(int(np.abs(frontier).max()), headroom)


def _generate_bend(spec: PackingSpec):
    """Bend multiplicities, zero-sphere count, states, exhaustion and no
    spheres of a bend-mode walk."""
    cap = spec.bend_cap
    mult: Counter = Counter()

    def level(states: np.ndarray) -> int:
        """Tally the bends at most the cap of each sphere of ``states``,
        one column at a time, and return the most zero bends in a state."""
        los, mu = states[:4, :, 0], states[4, :, 0]

        def columns() -> Iterator[np.ndarray]:
            for lo in los:
                yield lo
                yield 2 * mu - lo

        uniq, counts = np.unique(
            np.concatenate([col[col <= cap] for col in columns()]),
            return_counts=True)
        mult.update(dict(zip(uniq.tolist(), counts.tolist())))
        if 0 not in uniq:
            return 0
        return int(sum(col == 0 for col in columns()).max())

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
        los = states[:4]
        all8 = np.concatenate([los, 2 * states[4:] - los])
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
    rows = [[b] for b in seed_bend_vector(seed)]
    levels, _, exhausted = _walk(rows, cap, budget, lambda s: s[:, :, 0])
    if not exhausted:
        raise RuntimeError("node budget exceeded")
    states = np.concatenate(levels, axis=1)
    states = states[:, np.lexsort(states[::-1])]
    return [BendVector(s) for s in states.T.tolist()]


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
