"""Orbit enumeration for orthoplicial Apollonian packings.

One numpy kernel walks both modes.  A state is four disjoint pairs of
spheres and their antipodal row mu: one sphere of each pair, then mu, each
row C int64 channels with the bend first.  A level of n states is held
slot-major, as an array (5, n, C) whose slot k < 4 holds the sphere of
pair k of every state and slot 4 every mu, so a move works on whole slots.
A move keeps one sphere per pair and replaces the rest; ``_children``
takes a level in blocks of states.  In a bend climb the 16 moves from a
block of ``_BLOCK`` states run one after another, each flipping one kept
sphere of the move before it; elsewhere they run together and yield one
batch.  Bend mode and ``orbit_bend_vectors`` walk bends alone (C = 1).
Geometric mode walks C = 9 channels, the bend and then the rational and
sqrt2 parts of a, xhat, yhat and zhat, all times the seed's common
denominator; it also needs a new sphere in an exact Z[sqrt2] box, tested
once per block on the four new spheres of all its moves, and keeps every
sphere.  ``QSqrt2`` arithmetic only scales the seed in.  Rows end at the
report: a geometric ``PackingReport`` holds its distinct spheres as sorted
int64 rows over that denominator (``SphereRows``), and ``export_scene`` is
the one place that builds ``Coord5`` spheres of reduced triples from them,
writing their JSON records into the stdlib's layout with no encoder call.

A bend state is put in canonical form, the elementwise minimum of each
pair sorted by a five-comparator min/max network, then mu, and deduped on
an exact key of that form.  A geometric state is keyed on its mu alone.
That is exact: the 16 moves are the reflections in the facets of a
hyperbolic Coxeter polytope holding the row e5 strictly inside (Vinberg's
criterion, Russian Math. Surveys 40, 1985), so only the Platonic words,
which reorder rows, fix e5, and two states gF and g'F of an invertible
seed F (one that satisfies the Gramian identity) with the same mu are one
configuration.  ``tests/test_groups.py`` certifies each step.

A child is enqueued only when the smallest bend it creates is at most
the cap.  Soundness of that prune is empirical: the suite checks mode
agreement, monotone closure, the frozen reference bend sets and the bends
of random images of roots, rather than assuming a termination argument.

Every walk first descends from its seed to its packing's root, as Graham,
Lagarias, Mallows, Wilks and Yan reduce a Descartes quadruple (J. Number
Theory 100, 2003).  Rows are compared as tuples, bend first.  A step keeps
the lesser sphere x of every pair (x, 2*mu - x) and takes that move, mu' =
sum(kept) - mu, while mu' < mu.  It is the move of least mu': keeping the
greater sphere of some pairs instead adds their rows 2*(mu - x), each
lexicographically positive (or zero, where the pair's rows are equal and
the two choices are one move), and a sum of lexicographically positive rows
is lexicographically positive.  A cap below every bend of the root is
refused.  From the root a bend walk (C = 1: ``bends``, ``scan``, bend-mode
``gen`` and ``orbit_bend_vectors``) keeps only the moves that raise mu and
dedupes each level against itself alone; a geometric walk takes every move
and dedupes against every mu seen.  So a report is a function of the
packing, not of the start.  That every bend state lies one level above each
state it is reached from is measured, not proven; were it false, a state
would be counted twice and no bend lost.  A climb's states are canonical,
so the largest bend a move keeps is read off its pattern, and one unsigned
comparison per state tests the cap and the rise of mu.  The sorted rows of
each batch pack into one int64 key per state, digits (value - low) in base
``_KEY_BASE`` for ``low`` the root's least value; a level's keys are
sorted, kept once and unpacked by floor division, or it dedupes on exact
bytes if a value leaves [low, low + _KEY_BASE).

The walk is single-threaded and breadth-first.  It takes whole levels
while its state count stays within the budget, never the level that
would pass it, so a report's ``states`` never exceeds its budget.  A
geometric walk stops building that level as soon as its new states pass
the budget: it holds no more of a refused level than the budget's room
and one block's batch.  A geometric block holds min(_BLOCK // 16, max(1,
room // 64)) states, so its 16 moves fill no more than a climb block and
add at most a quarter of the room.  Order within a level is unspecified; every reported
quantity is an aggregate over whole levels, and reports emit every
collection sorted.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

# nothing here calls epsilon_of: it stays bound because
# benchmarks/test_benchmark.py reads packing.epsilon_of
from .arithmetic import (  # noqa: F401
    ObstructionClass, WalkInputError, epsilon_of, seed_bend_vector,
    seed_obstruction)
from .config import BendVector, FMatrix, check_gramian
from .inversive import Coord5, HonestSphere, sphere_from_coords
from .ring import _reduced

DEFAULT_BUDGET = 10 ** 7
DEFAULT_BOX = 10

# The 16 moves from a state, each keeping one sphere of every pair, in Gray
# code order: move i swaps the sphere that move i - 1 keeps of pair
# _FLIPS[i] for its partner (move 0 keeps the lesser sphere of every pair).
_FLIPS = (None, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0)

# The 16 moves as rows of 0/1: move i keeps the greater sphere of pair k
# iff _HIGH[i, k]
_HIGH = np.array(list(itertools.product((0, 1), repeat=4)))
_PAIRS = np.arange(4)

# Largest |value| a frontier may hold.  A move computes 2*(sum(kept) - mu)
# - kept with |kept| <= 3*|value|, within 29*|value| < 2**63.  The 10x box
# test squares up to 11 times a new sphere's largest value, which 29 * 2**22
# keeps below 11 * 2**27, and (11 * 2**27)**2 < 2**63.
_INT64_HEADROOM = 2 ** 58
_BOX_HEADROOM = 2 ** 22

# The base of the packed keys of bend-walk states (``_distinct``): the
# largest B with B**5 < 2**63, so five digits in [0, B) fit one int64.
_KEY_BASE = 6208

# States per ``_children`` block: at about 120 bytes each, 2 MB of L2 cache
_BLOCK = 2 ** 14

# Most moves a bend walk's start may lie above its root.  Along a parabolic
# word, F1 under (S1234 S5634)^k, bends grow like 8k**2 over 2k moves, so
# the headroom alone would admit descents of some 10**8 moves, an hour.
_DESCENT_STEPS = 10 ** 5


class CapBelowSeedError(WalkInputError):
    """The cap excludes even the largest sphere of the seed's packing."""


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


@dataclass(frozen=True, eq=False)
class SphereRows:
    """Distinct spheres as read-only int64 ``rows`` (n, 9), each a sphere's
    geometric channels times the common denominator ``d``, sorted and
    without repeats.  Being over one ``d``, the rows sort as their exact
    values do.  Two are equal when ``d`` and every row are."""

    rows: np.ndarray
    d: int

    @classmethod
    def of(cls, rows: np.ndarray, d: int) -> "SphereRows":
        """The distinct ``rows`` sorted by ``np.lexsort`` and a neighbour
        mask (``np.unique`` imports ``numpy.ma``: see ``_distinct``)."""
        rows = rows[np.lexsort(rows.T[::-1])]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[first]
        rows.flags.writeable = False
        return cls(rows, d)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SphereRows):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.rows, other.rows)


@dataclass(frozen=True)
class PackingReport:
    """Outcome of one orbit walk.

    ``bend_multiplicity`` counts distinct spheres per bend found at or
    below the cap in geometric mode; in bend mode sphere identity is not
    recoverable, so it counts occurrences across the deduped states
    instead.  Its keys, sorted, are ``bends``.
    ``spheres``, in geometric mode only, holds each distinct sphere at
    most the cap once, as int64 rows over one denominator, ordered by
    their exact channels: bend, then the rational and sqrt2 parts of a,
    xhat, yhat and zhat.  The rows end at the report: ``export_scene`` is
    the one place that builds exact ``Coord5`` spheres from them.
    """

    mode: str
    bend_cap: int
    bend_multiplicity: Dict[int, int]
    classification: str
    epsilon: int
    frontier_exhausted: bool
    states: int
    spheres: Optional[SphereRows] = None

    @property
    def bends(self) -> Tuple[int, ...]:
        return tuple(sorted(self.bend_multiplicity))

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
    _, obs = seed_obstruction(spec.seed)
    walk = _generate_bend if spec.mode == "bend" else _generate_geom
    mult, zero_spheres, states, exhausted, spheres = walk(spec)
    report = PackingReport(
        mode=spec.mode,
        bend_cap=spec.bend_cap,
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
    """The states, slot-major (5, m, C), of the configurations with
    antipodal rows ``mu`` that hold the sphere rows ``kept[k]``, one of
    each pair, each (m, C): canonical for C = 1, as given for C > 1."""
    if mu.shape[1] > 1:
        return np.stack(kept + [mu])
    states = np.empty((5,) + mu.shape, dtype=np.int64)
    states[4] = mu
    two_mu = 2 * mu
    _sort4([np.minimum(k, two_mu - k) for k in kept], states)
    return states


def _nonneg(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether x + y*sqrt2 >= 0, exactly."""
    return (((x >= 0) & ((y >= 0) | (x * x >= 2 * y * y)))
            | ((y >= 0) & (2 * y * y >= x * x)))


def _in_box(v: np.ndarray, box: int) -> np.ndarray:
    """Which geometric rows (..., 9) are planes or have |xhat|, |yhat| and
    |zhat| at most the integer ``box`` times |b|: the three channels are
    tested together, their rational parts ``v[..., 3::2]`` against their
    sqrt2 parts ``v[..., 4::2]``."""
    bound = box * np.abs(v[..., :1])
    p, q = v[..., 3::2], v[..., 4::2]
    ok = (_nonneg(bound - p, -q) & _nonneg(bound + p, q)).all(axis=-1)
    return ok | (v[..., 0] == 0)


def _children(states: np.ndarray, cap: int, box: Optional[int] = None,
              climb: bool = False, block: int = _BLOCK) -> Iterator[tuple]:
    """The moves from ``states``, ``block`` states at a time, that create a
    bend at most ``cap``, with ``climb`` raise mu's bend, and, with a
    ``box``, pass the box test on their new spheres: duplicates included,
    the kept sphere rows and the new mu rows per block and move pattern in
    a climb, per block for all 16 moves together otherwise."""
    # room[j]: cap - x clamped to [0, 2**63) as uint64, exact for |x| < 2**61
    c = min(cap, 2 ** 63 - 1)
    for i in range(0, states.shape[1], block):
        L, M = states[:4, i:i + block], states[4, i:i + block]
        H = 2 * M - L
        lo, hi, m = L[:, :, 0], H[:, :, 0], M[:, 0]
        if not climb:
            # the least new bend of a move is 2*mu2 - top, top the greatest
            # bend it keeps, and one box test runs on the block's union
            LH = np.stack([L, H])
            b = LH[_HIGH, _PAIRS, :, 0]
            least = 2 * (b.sum(axis=1) - m) - b.max(axis=1)
            move, at = np.nonzero(least <= cap)
            kept = LH[_HIGH[move].T, _PAIRS[:, None], at]
            mu2 = kept.sum(axis=0) - M[at]
            if box is not None:
                fit = _in_box(2 * mu2 - kept, box).any(axis=0)
                kept, mu2 = kept[:, fit], mu2[fit]
            yield list(kept), mu2
            continue
        # g, kept in step, is 2*mu2 on the bends less 2*M + 1.  The least
        # new bend is 2*mu2 - top.  The states are canonical: top is hi[j],
        # j the least pair kept high, or lo[3], and 0 <= g < room[j] = cap -
        # (2*M - top) passes
        g = 2 * (lo.sum(axis=0) - 2 * m) - 1
        step = 2 * (hi - lo)
        room = [np.maximum(c - np.maximum(x, max(c, 0) - 2 ** 63 + 1), 0)
                .view(np.uint64) for x in (*lo, hi[3])]
        high = [False] * 4
        for k in _FLIPS:
            if k is not None:
                high[k] = not high[k]
                (np.add if high[k] else np.subtract)(g, step[k], out=g)
            ok = g.view(np.uint64) < room[(high + [True]).index(True)]
            if not len(at := np.flatnonzero(ok)):
                continue
            kept = [(H if h else L)[j].take(at, axis=0)
                    for j, h in enumerate(high)]
            mu2 = kept[0] + kept[1] + kept[2] + kept[3] - M.take(at, axis=0)
            yield kept, mu2


def _keys(states: np.ndarray) -> list:
    """The exact key of each state of ``states`` (5, m, C): the bytes of
    its five slots for C = 1, of its mu alone for C > 1.  ``tolist`` of a
    void view of each state-major row of those slots."""
    slots = states if states.shape[2] == 1 else states[4:]
    rows = np.ascontiguousarray(slots.swapaxes(0, 1))
    width = slots.shape[0] * slots.shape[2]
    voids = rows.reshape(len(rows), width).view(f"V{8 * width}")
    return voids.ravel().tolist()


def _fresh(batches: Iterator[np.ndarray], seen: Set[bytes], width: int,
           room: float = math.inf) -> Optional[np.ndarray]:
    """The states (5, m, ``width``) of ``batches`` whose keys are not in
    ``seen``, the first state of each key, their keys now in it; ``None``
    as soon as there are more than ``room`` of them, the rest of
    ``batches`` unread."""
    fresh = [np.empty((5, 0, width), dtype=np.int64)]
    count = 0
    for kids in batches:
        keys = _keys(kids)
        # reversed, so each key maps to its first index
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        new = first.keys() - seen
        count += len(new)
        if count > room:
            return None
        seen |= new
        at = np.fromiter(map(first.get, new), np.intp, len(new))
        fresh.append(kids.take(np.sort(at), axis=1))
    return np.concatenate(fresh, axis=1)


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
        keys, whole = keys // _KEY_BASE, keys
        np.subtract(whole, keys * _KEY_BASE, out=states[j, :, 0])
    states += low
    return states


def _distinct(moves: Iterator[tuple], low: int) -> np.ndarray:
    """The distinct canonical C = 1 states of one level's ``moves``: their
    keys sorted and masked (``np.unique`` of keys alone hashes and imports
    ``numpy.ma``) while every value lies in [low, low + _KEY_BASE), else
    exact bytes.  ``moves`` ends, freeing its arrays, before the sort."""
    level = [np.empty(0, dtype=np.int64)]
    for move in moves:
        kids = _canonical(*move)
        # mu is at least each lesser sphere
        if int(kids[0].min()) < low or int(kids[3:].max()) - low >= _KEY_BASE:
            held = [_unpack(keys, low) for keys in level]
            return _fresh(itertools.chain(
                held, [kids], itertools.starmap(_canonical, moves)), set(), 1)
        level.append(_pack(kids, low))
        del move, kids  # free each batch before the next one is made
    keys = np.sort(np.concatenate(level))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return _unpack(keys[first], low)


def _root(rows: List[List[int]], headroom: int) -> List[List[int]]:
    """The root of the state ``rows`` (four sphere rows, one of each
    disjoint pair, then mu; C exact ints each) by the module docstring's
    descent, as four sphere rows and mu.  A start more than
    ``_DESCENT_STEPS`` moves above its root, or a state on the way outside
    ``headroom``, is invalid input."""
    spheres, mu = rows[:4], rows[4]
    for _ in range(_DESCENT_STEPS + 1):
        _check_headroom(max(abs(x) for row in spheres + [mu] for x in row),
                        headroom)
        kept = [min(x, [2 * m - v for m, v in zip(mu, x)]) for x in spheres]
        mu2 = [sum(vs) - m for *vs, m in zip(*kept, mu)]
        if mu2 >= mu:
            return kept + [mu]
        spheres, mu = kept, mu2
    raise WalkInputError(f"the seed lies more than {_DESCENT_STEPS} moves "
                         "above the root of its packing")


def _walk(rows: List[List[int]], cap: int, budget: int,
          reduce: Callable[[np.ndarray], object],
          box: Optional[int] = None, d: int = 1) -> Tuple[list, int, bool]:
    """BFS from the root of the state with sphere rows ``rows[:4]`` and
    antipodal row ``rows[4]`` (C ints each, the values times ``d``):
    ``reduce`` of each whole level (5, n, C) taken while the state count
    stays within ``budget``, that count, and whether the frontier emptied.
    A bend walk (no ``box``) climbs from the root; a geometric walk takes
    every move.  State order within a level is unspecified."""
    headroom = _INT64_HEADROOM if box is None else _BOX_HEADROOM
    seed = np.array(_root(rows, headroom), dtype=np.int64)
    frontier = _canonical([seed[k:k + 1] for k in range(4)], seed[4:])
    low, seen = int(frontier[:, :, 0].min()), set(_keys(frontier))
    if cap < low:
        raise CapBelowSeedError(f"cap {cap // d} is below every bend of the "
                                f"seed's packing (min {low // d})")
    climb = box is None
    out, taken = [], 0
    while True:
        n = frontier.shape[1]
        if taken + n > budget:
            return out, taken, False
        taken += n
        out.append(reduce(frontier))
        room = budget - taken  # the block rule: see the module docstring
        block = _BLOCK if climb else min(_BLOCK // 16, max(1, room // 64))
        kids = _children(frontier, cap, box, climb, block)
        del frontier  # freed when ``kids`` ends, before the level is sorted
        if climb:
            frontier = _distinct(kids, low)
        else:
            # a level past the budget is refused before it is whole
            frontier = _fresh(itertools.starmap(_canonical, kids), seen,
                              seed.shape[1], room)
            if frontier is None:
                return out, taken, False
        if not frontier.shape[1]:
            return out, taken, True
        _check_headroom(int(np.abs(frontier).max()), headroom)


def _tally(states: np.ndarray, cap: int, mult: Counter) -> int:
    """Add to ``mult`` the bends at most the cap of each canonical C = 1
    state's eight spheres; the most zeros in a state.  One bin per bend from
    the least and one past the cap, or a sort if that span passes the count."""
    lo, mu = states[:4, :, 0], states[4, :, 0]
    least = int(lo[0].min())
    span = max(min(cap, int((2 * mu - lo[0]).max())) - least + 1, 0)
    buf = np.empty_like(mu)

    def slots():  # in ``buf``, slot by slot: lesser, then greater, less least
        for x in lo:
            yield np.subtract(x, least, out=buf)
            np.subtract(np.multiply(mu, 2, out=buf), x, out=buf)
            yield np.subtract(buf, least, out=buf)

    if span <= 8 * len(mu):
        counts = sum(np.bincount(np.minimum(h, span, out=h),
                                 minlength=span + 1) for h in slots())
        at = np.flatnonzero(counts[:span])
        counts = counts[at]
    else:
        at, counts = np.unique(np.concatenate([h[h < span] for h in slots()]),
                               return_counts=True)
    tally = dict(zip((at + least).tolist(), counts.tolist()))
    mult.update(tally)
    return 0 if 0 not in tally else int(
        sum(h == -least for h in slots()).max())


def _generate_bend(spec: PackingSpec):
    """Bend multiplicities, zero-sphere count, states, exhaustion and no
    spheres of a bend-mode walk."""
    cap, mult = spec.bend_cap, Counter()
    rows = [[b] for b in spec.seed.bend_vector()]
    zeros, states, exhausted = _walk(rows, cap, spec.budget,
                                     lambda level: _tally(level, cap, mult))
    return mult, max(zeros), states, exhausted, None


def _channels(v: Coord5) -> List[int]:
    """The geometric channels of an integral row: b, then the rational and
    sqrt2 parts of a, xhat, yhat and zhat."""
    return [int(v.b.rat)] + [int(p) for c in (v.a, v.xhat, v.yhat, v.zhat)
                             for p in (c.rat, c.irr)]


def _generate_geom(spec: PackingSpec):
    """Distinct-sphere bend multiplicities, zero-sphere count, states,
    exhaustion and the sphere rows at most the cap of a geometric walk."""
    if not check_gramian(spec.seed):  # mu keys need an invertible seed
        raise WalkInputError("geometric seed fails the Gramian identity")
    rows = spec.seed.rows
    d = math.lcm(*(c.xyd[2] for v in rows for c in v))
    cap = spec.bend_cap * d
    found = []

    def level(states: np.ndarray):
        # past the root, a state's slots hold spheres of the state it came
        # from, so only its greater spheres 2*mu - slot can be new
        new = 2 * states[4:] - states[:4]
        if not found:
            new = np.concatenate([states[:4], new])
        new = new.reshape(-1, new.shape[2])
        found.append(np.compress(new[:, 0] <= cap, new, axis=0))

    _, states, exhausted = _walk([_channels(v.scale(d)) for v in rows], cap,
                                 spec.budget, level, DEFAULT_BOX, d)
    walked = np.concatenate(found)
    found.clear()  # the levels' arrays go before the sort
    spheres = SphereRows.of(walked, d)
    # the bends, sorted, in runs
    b = spheres.rows[:, 0]
    starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
    runs = np.diff(np.append(starts, len(b)))
    mult = dict(zip((b[starts] // d).tolist(), runs.tolist()))
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


def _sphere_record(v: Coord5, text: Tuple[str, ...]) -> tuple:
    """The record of sphere ``v``, whose ``serialize()`` is ``text``, as a
    tuple in ``_CSV_FIELDS`` order."""
    s = sphere_from_coords(v)
    if isinstance(s, HonestSphere):
        kind, (cx, cy, cz) = "sphere", s.center
        r, h = s.oriented_radius.to_float(), None
    else:
        kind, (cx, cy, cz) = "plane", s.unit_normal
        r, h = None, s.offset.to_float()
    return (kind, *text, v.b.to_float(), cx.to_float(), cy.to_float(),
            cz.to_float(), r, h)


_CSV_FIELDS = ("kind", "a", "b", "xhat", "yhat", "zhat",
               "bend", "cx", "cy", "cz", "r", "h")

# A record as ``json.dumps(doc, indent=2, sort_keys=True)`` lays it out at
# depth 3: its keys sorted, each value in a ``{i}`` slot of the template
_RECORD_JSON = "{{\n      " + ",\n      ".join(
    f"{json.encoder.encode_basestring_ascii(k)}: {{{i}}}"
    for k, i in sorted(zip(_CSV_FIELDS, itertools.count()))) + "\n    }}"


def _json_value(x) -> str:
    """``json.dumps(x)`` of a record value: a str, a finite float or None."""
    if type(x) is float and math.isfinite(x):
        return repr(x)
    if type(x) is str:
        return json.encoder.encode_basestring_ascii(x)
    if x is None:
        return "null"
    raise TypeError(f"no scene JSON text for {x!r}")


def export_scene(report: PackingReport, fmt: str = "csv") -> bytes:
    """One record per sphere of a geometric report, ordered by |bend| then
    exact text.  The rows are over one denominator, so |bend| sorts as the
    int |bend channel|; each row becomes a ``Coord5`` of reduced triples.
    JSON records are written straight into the layout of ``json.dumps(doc,
    indent=2, sort_keys=True)``, with no encoder call."""
    if report.mode != "geom" or report.spheres is None:
        raise ValueError("scene export needs a geometric-mode report")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    d, keyed = report.spheres.d, []
    for b, a, a2, x, x2, y, y2, z, z2 in report.spheres.rows.tolist():
        v = Coord5._make((_reduced(a, a2, d), _reduced(b, 0, d),
                          _reduced(x, x2, d), _reduced(y, y2, d),
                          _reduced(z, z2, d)))
        keyed.append((abs(b), v.serialize(), v))
    keyed.sort()  # the texts of distinct rows differ: no Coord5 is compared
    records = [_sphere_record(v, text) for _, text, v in keyed]
    if fmt == "json":
        body = ",\n    ".join(_RECORD_JSON.format(*map(_json_value, rec))
                              for rec in records)
        spheres = f"[\n    {body}\n  ]" if records else "[]"
        doc = f'{{\n  "schema_version": 1,\n  "spheres": {spheres}\n}}\n'
        return doc.encode()
    lines = [",".join(_CSV_FIELDS)]
    for rec in records:
        lines.append(",".join(["" if x is None else str(x) for x in rec]))
    return ("\n".join(lines) + "\n").encode()
