"""The Platonic, Apollonian, sphere-stabilizer, and dual Apollonian
groups as explicit 5x5 integer generator tables, with relation checks
and word application.

All tables act on the left of F-matrices.  Elements carry their defining
word so every sphere in a packing can report its derivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import mul
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .config import FMatrix, Q_F
from .ring import Mat

IntRows = Tuple[Tuple[int, ...], ...]


def _rows(*rows) -> IntRows:
    return tuple(tuple(r) for r in rows)


def _imul(a: IntRows, b: IntRows) -> IntRows:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


_IDENTITY5 = _rows(*[[1 if i == j else 0 for j in range(5)] for i in range(5)])


PLATONIC = {
    "R1": _rows([0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]),
    "R2": _rows([1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]),
    "R3": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]),
    "R4": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, -1, 2], [0, 0, 0, 0, 1]),
}

APOLLONIAN = {
    "S1234": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [1, 1, 1, 1, -1]),
    "S5234": _rows([-1, 2, 2, 2, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [-1, 1, 1, 1, 1]),
    "S1634": _rows([1, 0, 0, 0, 0], [2, -1, 2, 2, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [1, -1, 1, 1, 1]),
    "S1274": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [2, 2, -1, 2, 0],
                   [0, 0, 0, 1, 0], [1, 1, -1, 1, 1]),
    "S1238": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [2, 2, 2, -1, 0], [1, 1, 1, -1, 1]),
    "S5634": _rows([-1, -2, 2, 2, 4], [-2, -1, 2, 2, 4], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [-1, -1, 1, 1, 3]),
    "S5274": _rows([-1, 2, -2, 2, 4], [0, 1, 0, 0, 0], [-2, 2, -1, 2, 4],
                   [0, 0, 0, 1, 0], [-1, 1, -1, 1, 3]),
    "S5238": _rows([-1, 2, 2, -2, 4], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [-2, 2, 2, -1, 4], [-1, 1, 1, -1, 3]),
    "S1674": _rows([1, 0, 0, 0, 0], [2, -1, -2, 2, 4], [2, -2, -1, 2, 4],
                   [0, 0, 0, 1, 0], [1, -1, -1, 1, 3]),
    "S1638": _rows([1, 0, 0, 0, 0], [2, -1, 2, -2, 4], [0, 0, 1, 0, 0],
                   [2, -2, 2, -1, 4], [1, -1, 1, -1, 3]),
    "S1278": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [2, 2, -1, -2, 4],
                   [2, 2, -2, -1, 4], [1, 1, -1, -1, 3]),
    "S5674": _rows([-1, -2, -2, 2, 8], [-2, -1, -2, 2, 8], [-2, -2, -1, 2, 8],
                   [0, 0, 0, 1, 0], [-1, -1, -1, 1, 5]),
    "S5638": _rows([-1, -2, 2, -2, 8], [-2, -1, 2, -2, 8], [0, 0, 1, 0, 0],
                   [-2, -2, 2, -1, 8], [-1, -1, 1, -1, 5]),
    "S5278": _rows([-1, 2, -2, -2, 8], [0, 1, 0, 0, 0], [-2, 2, -1, -2, 8],
                   [-2, 2, -2, -1, 8], [-1, 1, -1, -1, 5]),
    "S1678": _rows([1, 0, 0, 0, 0], [2, -1, -2, -2, 8], [2, -2, -1, -2, 8],
                   [2, -2, -2, -1, 8], [1, -1, -1, -1, 5]),
    "S5678": _rows([-1, -2, -2, -2, 12], [-2, -1, -2, -2, 12],
                   [-2, -2, -1, -2, 12], [-2, -2, -2, -1, 12],
                   [-1, -1, -1, -1, 7]),
}

DUAL_APOLLONIAN = {
    "S1": _rows([-1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [2, 0, 1, 0, 0],
                [2, 0, 0, 1, 0], [2, 0, 0, 0, 1]),
    "S2": _rows([1, 2, 0, 0, 0], [0, -1, 0, 0, 0], [0, 2, 1, 0, 0],
                [0, 2, 0, 1, 0], [0, 2, 0, 0, 1]),
    "S3": _rows([1, 0, 2, 0, 0], [0, 1, 2, 0, 0], [0, 0, -1, 0, 0],
                [0, 0, 2, 1, 0], [0, 0, 2, 0, 1]),
    "S4": _rows([1, 0, 0, 2, 0], [0, 1, 0, 2, 0], [0, 0, 1, 2, 0],
                [0, 0, 0, -1, 0], [0, 0, 0, 2, 1]),
    "S5": _rows([-5, 0, 0, 0, 12], [-2, 1, 0, 0, 4], [-2, 0, 1, 0, 4],
                [-2, 0, 0, 1, 4], [-2, 0, 0, 0, 5]),
    "S6": _rows([1, -2, 0, 0, 4], [0, -5, 0, 0, 12], [0, -2, 1, 0, 4],
                [0, -2, 0, 1, 4], [0, -2, 0, 0, 5]),
    "S7": _rows([1, 0, -2, 0, 4], [0, 1, -2, 0, 4], [0, 0, -5, 0, 12],
                [0, 0, -2, 1, 4], [0, 0, -2, 0, 5]),
    "S8": _rows([1, 0, 0, -2, 4], [0, 1, 0, -2, 4], [0, 0, 1, -2, 4],
                [0, 0, 0, -5, 12], [0, 0, 0, -2, 5]),
}

# Products S_jkl := S1234 S1jkl; the literal entries below are the ones
# printed for the oriented sphere stabilizer, re-verified in tests.
STABILIZER1_ORIENTED = {
    "S238": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                  [2, 2, 2, -1, 0], [2, 2, 2, 0, -1]),
    "S274": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [2, 2, -1, 2, 0],
                  [0, 0, 0, 1, 0], [2, 2, 0, 2, -1]),
    "S634": _rows([1, 0, 0, 0, 0], [2, -1, 2, 2, 0], [0, 0, 1, 0, 0],
                  [0, 0, 0, 1, 0], [2, 0, 2, 2, -1]),
    "S278": _rows([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [2, 2, -1, -2, 4],
                  [2, 2, -2, -1, 4], [4, 4, -2, -2, 5]),
    "S638": _rows([1, 0, 0, 0, 0], [2, -1, 2, -2, 4], [0, 0, 1, 0, 0],
                  [2, -2, 2, -1, 4], [4, -2, 4, -2, 5]),
    "S674": _rows([1, 0, 0, 0, 0], [2, -1, -2, 2, 4], [2, -2, -1, 2, 4],
                  [0, 0, 0, 1, 0], [4, -2, -2, 4, 5]),
    "S678": _rows([1, 0, 0, 0, 0], [2, -1, -2, -2, 8], [2, -2, -1, -2, 8],
                  [2, -2, -2, -1, 8], [6, -4, -4, -4, 19]),
}

STABILIZER1_FACTORS = {
    "S238": "S1238", "S274": "S1274", "S634": "S1634",
    "S278": "S1278", "S638": "S1638", "S674": "S1674", "S678": "S1678",
}


def _platonic_oriented() -> Dict[str, IntRows]:
    r1 = PLATONIC["R1"]
    return {f"R1R{i}": _imul(r1, PLATONIC[f"R{i}"]) for i in (2, 3, 4)}


def _apollonian_oriented() -> Dict[str, IntRows]:
    s0 = APOLLONIAN["S1234"]
    return {
        f"S1234.{lab}": _imul(s0, m)
        for lab, m in APOLLONIAN.items() if lab != "S1234"
    }


def _stabilizer1() -> Dict[str, IntRows]:
    return {lab: APOLLONIAN[lab] for lab in
            ("S1234", "S1634", "S1274", "S1238",
             "S1674", "S1638", "S1278", "S1678")}


_TABLES = {
    "Platonic": PLATONIC,
    "PlatonicOriented": _platonic_oriented(),
    "Apollonian": APOLLONIAN,
    "ApollonianOriented": _apollonian_oriented(),
    "Stabilizer1": _stabilizer1(),
    "Stabilizer1Oriented": STABILIZER1_ORIENTED,
    "DualApollonian": DUAL_APOLLONIAN,
}


def generators(name: str) -> Mapping[str, IntRows]:
    """The generator table ``name``, label to matrix in table order,
    read-only."""
    if name not in _TABLES:
        raise KeyError(f"unknown generator table {name!r}; "
                       f"choose from {sorted(_TABLES)}")
    return MappingProxyType(_TABLES[name])


@dataclass(frozen=True)
class GroupElement:
    """A 5x5 integer matrix with the word that produced it: the matrix is
    the fold of the word, never given."""

    table: str
    word: Tuple[str, ...]
    matrix: IntRows = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "matrix", _fold_word(self.table, self.word))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.table != self.table:
            raise ValueError("cannot multiply elements over different tables")
        return GroupElement(self.table, self.word + other.word)

    def mat(self) -> Mat:
        return Mat.from_rows(self.matrix)


def _fold_word(table: str, word: Sequence[str]) -> IntRows:
    tab = _TABLES[table]
    m = _IDENTITY5
    for lab in word:
        m = _imul(m, tab[lab])
    return m


def element(table: str, word: Iterable[str]) -> GroupElement:
    """The element of ``word`` over the generator table ``table``."""
    return GroupElement(table, word)


def verify_orthogonality(g: GroupElement) -> Tuple[bool, int]:
    """Exact check of g^T Q_F g = Q_F; returns (ok, det)."""
    m = g.mat()
    ok = m.transpose() * Q_F * m == Q_F
    d = int(m.det().rat)  # an integer matrix has an integer determinant
    return ok and d in (1, -1), d


def _pow(m: IntRows, n: int) -> IntRows:
    out = _IDENTITY5
    for _ in range(n):
        out = _imul(out, m)
    return out


def verify_platonic_relations() -> List[Tuple[str, bool]]:
    """The Coxeter BC4 presentation: 4 involutions plus 6 product orders."""
    rep = []
    for i in range(1, 5):
        m = PLATONIC[f"R{i}"]
        rep.append((f"R{i}^2", _pow(m, 2) == _IDENTITY5))
    orders = {(1, 2): 3, (2, 3): 3, (3, 4): 4, (1, 3): 2, (1, 4): 2, (2, 4): 2}
    for (i, j), n in orders.items():
        m = _imul(PLATONIC[f"R{i}"], PLATONIC[f"R{j}"])
        rep.append((f"(R{i}R{j})^{n}", _pow(m, n) == _IDENTITY5))
    return rep


def _apollonian_slots(label: str) -> Tuple[str, str, str, str]:
    return tuple(label[1:])  # "S5234" -> ("5","2","3","4")


def verify_apollonian_relations() -> List[Tuple[str, bool]]:
    """16 involutions plus 32 order-2 products over three shared labels."""
    rep = []
    for lab, m in APOLLONIAN.items():
        rep.append((f"{lab}^2", _pow(m, 2) == _IDENTITY5))
    labels = list(APOLLONIAN)
    for a, b in itertools.combinations(labels, 2):
        sa, sb = _apollonian_slots(a), _apollonian_slots(b)
        if sum(x != y for x, y in zip(sa, sb)) == 1:
            m = _imul(APOLLONIAN[a], APOLLONIAN[b])
            rep.append((f"({a}{b})^2", _pow(m, 2) == _IDENTITY5))
    return rep


def apply(g: GroupElement, f: FMatrix) -> FMatrix:
    """Left action on an F-matrix: the exact product g F."""
    return FMatrix.from_mat(g.mat() * f.mat())


def rederive_apollonian() -> Dict[str, IntRows]:
    """S_ijkl = P S1234 P^-1 with P a product of pair flips; used as a
    transcription checksum for the 16 literal generator tables."""
    # transposition (k 4) built from adjacent swaps R1..R3
    t34 = PLATONIC["R3"]
    t24 = _imul(_imul(PLATONIC["R2"], t34), PLATONIC["R2"])
    t14 = _imul(_imul(PLATONIC["R1"], t24), PLATONIC["R1"])
    transp = {1: t14, 2: t24, 3: t34, 4: _IDENTITY5}
    flips = {k: _imul(_imul(transp[k], PLATONIC["R4"]), transp[k]) for k in range(1, 5)}
    out = {}
    for label in APOLLONIAN:
        slots = _apollonian_slots(label)
        p = _IDENTITY5
        for pos, ch in enumerate(slots, start=1):
            if int(ch) > 4:
                p = _imul(p, flips[pos])
        pinv = p  # each flip is an involution and the flips commute
        out[label] = _imul(_imul(p, APOLLONIAN["S1234"]), pinv)
    return out


def ordering_word(k: int) -> Tuple[str, ...]:
    """A Platonic word whose action brings sphere k (1..8) to slot 1."""
    if not 1 <= k <= 8:
        raise ValueError("sphere index must be in 1..8")
    swaps = {1: (), 2: ("R1",), 3: ("R1", "R2"), 4: ("R1", "R2", "R3")}
    flip1 = ("R1", "R2", "R3", "R2", "R1", "R4", "R1", "R2", "R3", "R2", "R1")
    if k <= 4:
        return swaps[k]
    # complement sphere: bring sphere k-4 to slot 1, then flip pair 1
    return flip1 + swaps[k - 4]


def ordering_element(k: int) -> GroupElement:
    return element("Platonic", ordering_word(k))
