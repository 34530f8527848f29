"""Oriented inversive spheres, their 5-coordinate vectors, and the
inversive product.

Coordinate vectors are rows; Moebius matrices act on the right of rows.
A sphere with center c, oriented radius r and bend b = 1/r has coordinates
(a, b, b*cx, b*cy, b*cz) where the augmented bend is a = b*|c|^2 - 1/b.
A plane n.x = h with unit normal n has coordinates (2h, 0, nx, ny, nz).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Tuple, Union

from .ring import (
    Mat, ONE, QSqrt2, ZERO, Scalar, _reduced, _scaled, format_qsqrt2)


class Coord5(NamedTuple):
    """Inversive coordinate row (a, b, xhat, yhat, zhat)."""

    a: QSqrt2
    b: QSqrt2
    xhat: QSqrt2
    yhat: QSqrt2
    zhat: QSqrt2

    @classmethod
    def of(cls, *vals: Scalar) -> "Coord5":
        if len(vals) == 1 and isinstance(vals[0], (tuple, list)):
            vals = tuple(vals[0])
        if len(vals) != 5:
            raise ValueError("Coord5 needs exactly five entries")
        return cls(*(QSqrt2.coerce(v) for v in vals))

    def __add__(self, other: "Coord5") -> "Coord5":
        return Coord5(*(x + y for x, y in zip(self, other)))

    def __sub__(self, other: "Coord5") -> "Coord5":
        return Coord5(*(x - y for x, y in zip(self, other)))

    def scale(self, k: Scalar) -> "Coord5":
        k = QSqrt2.coerce(k)
        return Coord5(*(k * x for x in self))

    def serialize(self) -> Tuple[str, ...]:
        return tuple(map(format_qsqrt2, self))


def _exact(sphere, triple: str, scalar: str):
    """Make a sphere's ``triple`` a tuple of three ``QSqrt2`` and its
    ``scalar`` a ``QSqrt2``, keeping the entries that already are."""
    xs, x = getattr(sphere, triple), getattr(sphere, scalar)
    if len(xs) != 3:
        raise ValueError(f"{triple} needs exactly three entries")
    if not (type(xs) is tuple
            and type(xs[0]) is type(xs[1]) is type(xs[2]) is type(x) is QSqrt2):
        object.__setattr__(sphere, triple, tuple(map(QSqrt2.coerce, xs)))
        object.__setattr__(sphere, scalar, QSqrt2.coerce(x))


@dataclass(frozen=True)
class HonestSphere:
    """A genuine sphere; ``oriented_radius`` < 0 means the orienting
    region is the ball-complement."""

    center: Tuple[QSqrt2, QSqrt2, QSqrt2]
    oriented_radius: QSqrt2

    def __post_init__(self):
        _exact(self, "center", "oriented_radius")
        if not self.oriented_radius:
            raise ValueError("honest sphere needs a nonzero oriented radius")

    @property
    def bend(self) -> QSqrt2:
        return self.oriented_radius.inverse()


@dataclass(frozen=True)
class PlanarSphere:
    """A plane n.x = h with exactly unit normal, oriented along n."""

    unit_normal: Tuple[QSqrt2, QSqrt2, QSqrt2]
    offset: QSqrt2

    def __post_init__(self):
        _exact(self, "unit_normal", "offset")
        if sum((c * c for c in self.unit_normal), ZERO) != ONE:
            raise ValueError("planar sphere needs an exactly unit normal")

    @property
    def bend(self) -> QSqrt2:
        return ZERO


OrientedSphere = Union[HonestSphere, PlanarSphere]


@dataclass(frozen=True)
class PairRelation:
    """How two distinct oriented spheres sit relative to each other.

    ``kind`` is one of intersecting / tangent_nested / tangent_external /
    disjoint_nested / disjoint_external.  ``value`` carries cos(theta) for
    intersecting pairs and cosh(delta) > 1 for disjoint pairs.
    """

    kind: str
    value: Optional[QSqrt2] = None

    @property
    def tangent(self) -> bool:
        return self.kind.startswith("tangent")

    @property
    def disjoint(self) -> bool:
        return self.kind.startswith("disjoint")


_MINUS_HALF = QSqrt2(Fraction(-1, 2))
_HALF = QSqrt2(Fraction(1, 2))

Q_SIGMA = Mat.from_rows([
    [0, _MINUS_HALF, 0, 0, 0],
    [_MINUS_HALF, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])

Q_WILKER = Mat.from_rows([
    [0, -4, 0, 0, 0],
    [-4, 0, 0, 0, 0],
    [0, 0, 2, 0, 0],
    [0, 0, 0, 2, 0],
    [0, 0, 0, 0, 2],
])


def inversive_product(u: Coord5, w: Coord5) -> QSqrt2:
    """The bilinear form u Q_Sigma w^T, summed as ``Mat.__mul__`` sums a
    product: on the integer parts of each row over its common denominator,
    reduced once.  Twice Q_Sigma w^T is (-b, -a, 2 xhat, 2 yhat, 2 zhat)."""
    du, x, y = _scaled(u)
    dw, p, q = (du, x, y) if w is u else _scaled(w)
    p, q = ([-r[1], -r[0]] + [2 * c for c in r[2:]] for r in (p, q))
    return _reduced(sum(map(mul, x, p)) + 2 * sum(map(mul, y, q)),
                    sum(map(mul, x, q)) + sum(map(mul, y, p)), 2 * du * dw)


def sphere_from_coords(v: Coord5) -> OrientedSphere:
    # Sigma(v, v) = 1 on the integer parts (x + y sqrt2)/D of v: -a b +
    # xhat^2 + yhat^2 + zhat^2 times D^2 is D^2 with no sqrt2 part
    D, (xa, xb, px, py, pz), (ya, yb, qx, qy, qz) = _scaled(v)
    if (px * px + py * py + pz * pz + 2 * (qx * qx + qy * qy + qz * qz)
            - xa * xb - 2 * ya * yb != D * D
            or 2 * (px * qx + py * qy + pz * qz) != xa * yb + ya * xb):
        raise ValueError("coordinate vector is not normalized: Sigma(v,v) != 1")
    if not (xb or yb):
        return PlanarSphere(unit_normal=(v.xhat, v.yhat, v.zhat),
                            offset=v.a * _HALF)
    # an entry (p + q sqrt2)/D over b = (xb + yb sqrt2)/D is (p + q sqrt2)
    # (xb - yb sqrt2)/n, n = xb^2 - 2 yb^2, or (pu - 2qw + (qu - pw) sqrt2)/|n|
    # with (u, w) = +-(xb, yb) of the sign of n; 1/b is p = D, q = 0
    n = xb * xb - 2 * yb * yb
    u, w, n = (xb, yb, n) if n > 0 else (-xb, -yb, -n)
    return HonestSphere((_reduced(px * u - 2 * qx * w, qx * u - px * w, n),
                         _reduced(py * u - 2 * qy * w, qy * u - py * w, n),
                         _reduced(pz * u - 2 * qz * w, qz * u - pz * w, n)),
                        _reduced(D * u, -D * w, n))


def classify_pair(u: Coord5, w: Coord5) -> PairRelation:
    if inversive_product(u, u) != ONE or inversive_product(w, w) != ONE:
        raise ValueError("classify_pair needs normalized coordinate vectors")
    if u == w:
        raise ValueError("classify_pair needs two distinct spheres")
    s = inversive_product(u, w)
    if s == ONE:
        return PairRelation("tangent_nested")
    if s == -ONE:
        return PairRelation("tangent_external")
    if -ONE < s < ONE:
        return PairRelation("intersecting", value=s)
    if s > ONE:
        return PairRelation("disjoint_nested", value=s)
    return PairRelation("disjoint_external", value=-s)
