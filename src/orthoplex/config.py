"""Orthoplicial configurations: V-matrices, F-matrices, the Gramian and
Descartes identities, quadruple completion, and bend vectors.

An F-matrix has four pairwise tangent sphere rows plus the antipodal row
v_mu = (v1+v5)/2; the remaining four spheres of the configuration are the
complements 2*v_mu - v_k.  Symmetry and Apollonian matrices act on the
left of F-matrices, Moebius matrices on the right.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .inversive import Coord5, Q_SIGMA, Q_WILKER, classify_pair, inversive_product
from .ring import Mat, ONE, QSqrt2, ZERO, Scalar, gauss_jordan

G_SIGMA_F = Mat.from_rows([
    [1, -1, -1, -1, -1],
    [-1, 1, -1, -1, -1],
    [-1, -1, 1, -1, -1],
    [-1, -1, -1, 1, -1],
    [-1, -1, -1, -1, -1],
])

Q_F = Mat.from_rows([
    [1, 0, 0, 0, -1],
    [0, 1, 0, 0, -1],
    [0, 0, 1, 0, -1],
    [0, 0, 0, 1, -1],
    [-1, -1, -1, -1, 2],
])


class BendVector(Tuple[int, ...]):
    """The bend column (b1, b2, b3, b4, b_mu) of an integral F-matrix.

    Entries are Python ints: each goes through ``operator.index``, so a
    ``Fraction``, float or str raises ``TypeError``.  Integrality is decided
    once, by ``FMatrix.bend_vector``."""

    def __new__(cls, vals: Iterable[int]):
        vals = tuple(map(operator.index, vals))
        if len(vals) != 5:
            raise ValueError("bend vector needs five entries")
        return super().__new__(cls, vals)

    def bends8(self) -> Tuple[int, ...]:
        """All eight sphere bends: b1..b4 and the complements 2*b_mu - bk."""
        two_mu = 2 * self[4]
        return self[:4] + tuple(two_mu - b for b in self[:4])

    def is_primitive(self) -> bool:
        return math.gcd(*self) == 1


@dataclass(frozen=True)
class FMatrix:
    """Rows 1-4 are sphere coordinates, row 5 the antipodal vector."""

    rows: Tuple[Coord5, Coord5, Coord5, Coord5, Coord5]

    def __post_init__(self):
        rows = tuple(Coord5.of(r) if not isinstance(r, Coord5) else r
                     for r in self.rows)
        if len(rows) != 5:
            raise ValueError("an F-matrix has exactly five rows")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_mat(cls, m: Mat) -> "FMatrix":
        if m.shape != (5, 5):
            raise ValueError("an F-matrix is 5x5")
        return cls(tuple(Coord5(*m.row(i)) for i in range(5)))

    def mat(self) -> Mat:
        return Mat.from_rows([list(r) for r in self.rows])

    def sphere_rows(self) -> Tuple[Coord5, ...]:
        """All eight sphere rows in admissible order: v1..v4, then the
        complements 2*v_mu - v_k."""
        two_mu = self.rows[4].scale(2)
        return self.rows[:4] + tuple(two_mu - v for v in self.rows[:4])

    def bend_vector(self) -> BendVector:
        """The bend column as ints; the one place its integrality is
        decided."""
        if not all(r.b.is_integer() for r in self.rows):
            raise ValueError("bend column is not integral")
        return BendVector(r.b.xyd[0] for r in self.rows)

    def to_json_dict(self) -> dict:
        return {"rows": [list(r.serialize()) for r in self.rows]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FMatrix":
        from .ring import parse_qsqrt2

        rows = data.get("rows") if isinstance(data, dict) else None
        if not isinstance(rows, list) or len(rows) != 5 or any(
            not isinstance(r, list) or len(r) != 5
            or not all(isinstance(s, str) for s in r) for r in rows
        ):
            raise ValueError("FMatrix JSON needs a 5x5 'rows' array of strings")
        return cls(tuple(
            Coord5.of(*(parse_qsqrt2(s) for s in row)) for row in rows
        ))


@dataclass(frozen=True)
class VMatrix:
    """The eight coordinate rows of an admissibly ordered configuration."""

    rows: Tuple[Coord5, ...]

    def __post_init__(self):
        rows = tuple(Coord5.of(r) if not isinstance(r, Coord5) else r
                     for r in self.rows)
        if len(rows) != 8:
            raise ValueError("a V-matrix has exactly eight rows")
        object.__setattr__(self, "rows", rows)


def antipodal(v1: Coord5, v5: Coord5) -> Coord5:
    """Half-sum of a disjoint pair; independent of which pair is used."""
    return (v1 + v5).scale(Fraction(1, 2))


def f_from_v(v: VMatrix) -> FMatrix:
    return FMatrix(tuple(v.rows[:4]) + (antipodal(v.rows[0], v.rows[4]),))


def v_from_f(f: FMatrix) -> VMatrix:
    return VMatrix(f.sphere_rows())


def check_orthoplex_graph(v: VMatrix) -> bool:
    """Tangent iff index difference is nonzero mod 4, disjoint otherwise."""
    for i in range(8):
        for j in range(i + 1, 8):
            rel = classify_pair(v.rows[i], v.rows[j])
            if (i - j) % 4 == 0:
                if not rel.disjoint:
                    return False
            elif not rel.tangent:
                return False
    return True


def check_gramian(f: FMatrix) -> bool:
    """F Q_Sigma F^T = G, exactly."""
    m = f.mat()
    return m * Q_SIGMA * m.transpose() == G_SIGMA_F


def check_dgm(f: FMatrix) -> bool:
    """F^T Q_F F = Q_W, plus the five diagonal form values (0,0,2,2,2)."""
    m = f.mat()
    if m.transpose() * Q_F * m != Q_WILKER:
        return False
    expected = [ZERO, ZERO, QSqrt2(2), QSqrt2(2), QSqrt2(2)]
    return all(descartes_form(m.col(j)) == expected[j] for j in range(5))


def descartes_form(z: Sequence[Scalar]) -> Scalar:
    """2 z_mu^2 - 2 z_mu (z1+z2+z3+z4) + (z1^2+z2^2+z3^2+z4^2), computed in
    the entries' own ring: ints give an int, ``QSqrt2`` entries a
    ``QSqrt2``."""
    if len(z) != 5:
        raise ValueError("the orthoplicial Descartes form takes five entries")
    z1, z2, z3, z4, zmu = z
    return (2 * zmu * (zmu - (z1 + z2 + z3 + z4))
            + (z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4))


def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def qsqrt2_sqrt(x: QSqrt2) -> Optional[QSqrt2]:
    """An exact square root within Q[sqrt2], if one exists."""
    if x.sign() < 0:
        return None
    if x.irr == 0:
        r = _fraction_sqrt(x.rat)
        if r is not None:
            return QSqrt2(r)
        r = _fraction_sqrt(x.rat / 2)
        return None if r is None else QSqrt2(0, r)
    # (p + q sqrt2)^2 = x  =>  p^2 = (A +- sqrt(A^2 - 2 B^2)) / 2, q = B/2p
    disc = _fraction_sqrt(x.rat * x.rat - 2 * x.irr * x.irr)
    if disc is None:
        return None
    for branch in (x.rat + disc, x.rat - disc):
        p = _fraction_sqrt(branch / 2)
        if p:
            q = x.irr / (2 * p)
            cand = QSqrt2(p, q)
            if cand * cand == x and cand.sign() >= 0:
                return cand
    return None


def solve_b_mu(b1: int, b2: int, b3: int, b4: int) -> Tuple[QSqrt2, ...]:
    """The values of 2*b_mu completing four mutually tangent bends.

    Returns the real roots 2*b_mu = s +- sqrt(s^2 - 2*q) with s = sum(b),
    q = sum(b^2); empty when the discriminant is negative.  The doubled
    value is returned because integrality of b_mu itself is a consequence
    of integrality of the eight bends, not an input guarantee; halving is
    left to the caller.
    """
    s = b1 + b2 + b3 + b4
    disc = s * s - 2 * (b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4)
    if disc < 0:
        return ()
    root = qsqrt2_sqrt(QSqrt2(disc))
    if root is None:
        raise ValueError(f"discriminant {disc} has no square root in Q[sqrt2]")
    if not root:
        return (QSqrt2(s),)
    return (QSqrt2(s) - root, QSqrt2(s) + root)


def _solve_antipodal_line(rows: Sequence[Coord5]) -> Tuple[List[QSqrt2], List[QSqrt2]]:
    """Solve Sigma(w, v_k) = -1 for k=1..4: returns (particular, kernel).

    The solution set is the affine line w0 + t*u in Q[sqrt2]^5.
    """
    aug = []
    for v in rows:
        qv = Q_SIGMA * Mat(5, 1, list(v))
        aug.append([qv[i, 0] for i in range(5)] + [QSqrt2(-1)])
    pivots, _ = gauss_jordan(aug, 5)
    if len(pivots) < 4:
        raise ValueError("tangent quadruple rows are not independent")
    free = next(c for c in range(5) if c not in pivots)
    particular = [ZERO] * 5
    kernel = [ZERO] * 5
    kernel[free] = ONE
    for row_i, c in enumerate(pivots):
        particular[c] = aug[row_i][5]
        kernel[c] = -aug[row_i][free]
    return particular, kernel


def complete_quadruple(rows: Sequence[Coord5]) -> Tuple[FMatrix, FMatrix]:
    """The two admissibly ordered configurations over a tangent quadruple.

    Solves the four linear conditions Sigma(w, v_k) = -1 plus the single
    quadratic normalization Sigma(w, w) = -1 for the antipodal row.  The
    two results share rows 1-4 and their fifth rows sum to v1+v2+v3+v4;
    ordering of the pair is by lexicographic comparison of fifth rows.
    """
    rows = tuple(Coord5.of(r) if not isinstance(r, Coord5) else r for r in rows)
    if len(rows) != 4:
        raise ValueError("complete_quadruple takes exactly four rows")
    for i in range(4):
        for j in range(i + 1, 4):
            if not classify_pair(rows[i], rows[j]).tangent:
                raise ValueError(
                    f"non-tangent quadruple: rows {i + 1} and {j + 1} are not tangent"
                )
    w0, u = _solve_antipodal_line(rows)
    w0c, uc = Coord5.of(*w0), Coord5.of(*u)
    # Sigma(w0 + t u, same) = -1 expands to a*t^2 + b*t + c = 0.
    a = inversive_product(uc, uc)
    b = inversive_product(w0c, uc) * 2
    c = inversive_product(w0c, w0c) + ONE
    if not a:
        raise ValueError("degenerate quadruple: quadratic term vanishes")
    disc = b * b - a * c * 4
    root = qsqrt2_sqrt(disc)
    if root is None:
        raise ValueError("antipodal completion does not lie in Q[sqrt2]")
    half_inv = (a * 2).inverse()
    t1 = (-b + root) * half_inv
    t2 = (-b - root) * half_inv
    w1 = w0c + uc.scale(t1)
    w2 = w0c + uc.scale(t2)
    if tuple(w2) < tuple(w1):
        w1, w2 = w2, w1
    return FMatrix(rows + (w1,)), FMatrix(rows + (w2,))


_S2 = QSqrt2(0, 1)

F0 = FMatrix((
    Coord5.of(2, 0, 0, 0, 1),
    Coord5.of(2, 0, 0, 0, -1),
    Coord5.of(1, 1, _S2, 0, 0),
    Coord5.of(1, 1, 0, _S2, 0),
    Coord5.of(1, 1, 0, 0, 0),
))

F1 = FMatrix((
    Coord5.of(4, 2, 0, _S2 * 2, 1),
    Coord5.of(4, 2, 0, _S2 * 2, -1),
    Coord5.of(3, 3, _S2, _S2 * 2, 0),
    Coord5.of(-1, -1, 0, -_S2, 0),
    Coord5.of(3, 3, 0, _S2 * 2, 0),
))

F7D = FMatrix((
    Coord5.of(34, 20, _S2 * 18, _S2 * 2, -5),
    Coord5.of(18, 12, _S2 * 10, _S2 * 2, -3),
    Coord5.of(29, 17, _S2 * 15, _S2 * 2, -6),
    Coord5.of(-11, -7, _S2 * -6, -_S2, 2),
    Coord5.of(33, 21, _S2 * 18, _S2 * 2, -6),
))

BUILTIN_SEEDS = {"F0": F0, "F1": F1, "F7d": F7D}
