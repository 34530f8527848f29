"""The bend climb's earlier per-move level pass, for the tests.

Each of the 16 moves tracks the new mu in full and takes the largest kept
bend as the elementwise maximum of the kept rows; each accepted batch is
put in canonical form (the lesser sphere of every pair, sorted, then mu),
packed into int64 keys and deduped with the rest of its level.  A level
with a value outside [low, low + KEY_BASE) is deduped as a set of tuples.
The tests compare the engine's climb against this pass, level by level.
"""

from typing import Iterator, List

import numpy as np

# the engine's base, fixed here so that patching the engine's leaves the
# oracle on its packed keys
KEY_BASE = 6208

# move i keeps what move i - 1 keeps, with the sphere kept of pair
# FLIPS[i] swapped for its partner
FLIPS = (None, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0)


def canonical(kept: List[np.ndarray], mu: np.ndarray) -> np.ndarray:
    """The canonical C = 1 states (5, m, 1) of the configurations with
    antipodal rows ``mu`` (m, 1) that hold ``kept[k]`` (m, 1), one sphere
    of pair k."""
    lesser = np.stack([np.minimum(k, 2 * mu - k) for k in kept])
    return np.concatenate([np.sort(lesser, axis=0), mu[None]])


def children(states: np.ndarray, cap: int) -> Iterator[np.ndarray]:
    """The canonical states of the moves from ``states`` (5, n, 1) that
    create a bend at most ``cap`` and raise mu: one batch per move."""
    L, M = list(states[:4]), states[4]
    H = [2 * M - x for x in L]
    kept = list(L)
    mu2 = L[0] + L[1] + L[2] + L[3] - M
    for k in FLIPS:
        if k is not None:
            old = kept[k]
            kept[k] = H[k] if old is L[k] else L[k]
            mu2 += kept[k]
            mu2 -= old
        top = np.maximum(np.maximum(kept[0][:, 0], kept[1][:, 0]),
                         np.maximum(kept[2][:, 0], kept[3][:, 0]))
        ok = (2 * mu2[:, 0] - top <= cap) & (mu2[:, 0] > M[:, 0])
        at = np.flatnonzero(ok)
        if len(at):
            yield canonical([x.take(at, axis=0) for x in kept],
                            mu2.take(at, axis=0))


def pack(states: np.ndarray, low: int) -> np.ndarray:
    keys = states[0, :, 0] - low
    for slot in states[1:, :, 0]:
        keys = keys * KEY_BASE + (slot - low)
    return keys


def unpack(keys: np.ndarray, low: int) -> np.ndarray:
    states = np.empty((5, len(keys), 1), dtype=np.int64)
    for j in range(4, -1, -1):
        keys, states[j, :, 0] = np.divmod(keys, KEY_BASE)
    return states + low


def distinct(batches: Iterator[np.ndarray], low: int) -> np.ndarray:
    """The distinct states of one level's ``batches``, in key order when
    every value lies in [low, low + KEY_BASE)."""
    batches = list(batches)
    level = np.concatenate([np.empty((5, 0, 1), dtype=np.int64)] + batches,
                           axis=1)
    if len(level[0]) and (level.min() < low
                          or level.max() - low >= KEY_BASE):
        rows = sorted(set(map(tuple, level[:, :, 0].T.tolist())))
        return np.array(rows, dtype=np.int64).reshape(-1, 5).T[:, :, None]
    keys = np.sort(pack(level, low))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return unpack(keys[first], low)


def climb(root, cap: int) -> List[List[tuple]]:
    """Every level of the climb from the canonical root state ``root`` (a
    5-tuple) at ``cap``, each a sorted list of 5-tuples."""
    frontier = np.array(root, dtype=np.int64)[:, None, None]
    low = int(frontier.min())
    levels = []
    while frontier.shape[1]:
        levels.append(sorted(map(tuple, frontier[:, :, 0].T.tolist())))
        frontier = distinct(children(frontier, cap), low)
    return levels
