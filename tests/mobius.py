"""Moebius maps, for the tests.

The Apollonian group acts on the left of an F-matrix and grows a packing;
a Moebius matrix acts on the right of coordinate rows and only moves a
whole packing to another.  The tests use these maps to build seeds with
other denominators and to check that the identities are Moebius
invariant.  Every right action goes through ``Mat.__mul__``.
"""

from orthoplex.config import FMatrix
from orthoplex.inversive import (
    Coord5, HonestSphere, OrientedSphere, PlanarSphere, Q_SIGMA, Q_WILKER,
)
from orthoplex.ring import Mat, ONE, QSqrt2, ZERO, Scalar


def coords_from_sphere(s: OrientedSphere) -> Coord5:
    if isinstance(s, HonestSphere):
        b = s.bend
        cx, cy, cz = s.center
        norm2 = cx * cx + cy * cy + cz * cz
        a = b * norm2 - s.oriented_radius
        return Coord5(a, b, b * cx, b * cy, b * cz)
    if isinstance(s, PlanarSphere):
        nx, ny, nz = s.unit_normal
        return Coord5(s.offset * 2, ZERO, nx, ny, nz)
    raise TypeError(f"not an oriented sphere: {s!r}")


def apply_row(v: Coord5, m: Mat) -> Coord5:
    """Right action of a 5x5 matrix on one coordinate row."""
    return Coord5(*(Mat(1, 5, v) * m).row(0))


def apply_mobius(f: FMatrix, m: Mat) -> FMatrix:
    """Right action of a Moebius matrix on each row of an F-matrix."""
    return FMatrix.from_mat(f.mat() * m)


def mobius_inversion() -> Mat:
    """Inversion about the unit sphere: swaps bend and augmented bend."""
    return Mat.from_rows([
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])


def mobius_rescale(t: Scalar) -> Mat:
    t = QSqrt2.coerce(t)
    if not t:
        raise ValueError("rescale factor must be nonzero")
    return Mat.from_rows([
        [t, 0, 0, 0, 0],
        [0, t.inverse(), 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])


def mobius_translate(x: Scalar, y: Scalar, z: Scalar) -> Mat:
    x, y, z = QSqrt2.coerce(x), QSqrt2.coerce(y), QSqrt2.coerce(z)
    n2 = x * x + y * y + z * z
    return Mat.from_rows([
        [1, 0, 0, 0, 0],
        [n2, 1, x, y, z],
        [x * 2, 0, 1, 0, 0],
        [y * 2, 0, 0, 1, 0],
        [z * 2, 0, 0, 0, 1],
    ])


def mobius_rotate(axis, cos_theta: Scalar, sin_theta: Scalar) -> Mat:
    """Rotation about a unit axis, restricted to exactly representable
    (cos, sin) pairs in Q[sqrt2]."""
    x, y, z = (QSqrt2.coerce(c) for c in axis)
    c, s = QSqrt2.coerce(cos_theta), QSqrt2.coerce(sin_theta)
    if x * x + y * y + z * z != ONE:
        raise ValueError("rotation axis must be an exactly unit vector")
    if c * c + s * s != ONE:
        raise ValueError("non-exact rotation: cos^2 + sin^2 != 1")
    k = ONE - c
    r = [
        [x * x * k + c, x * y * k + z * s, x * z * k - y * s],
        [y * x * k - z * s, y * y * k + c, y * z * k + x * s],
        [z * x * k + y * s, z * y * k - x * s, z * z * k + c],
    ]
    rows = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    for i in range(3):
        rows.append([0, 0] + r[i])
    return Mat.from_rows(rows)


def verify_mobius_invariance(m: Mat) -> bool:
    """Exact check of M Q_Sigma M^T = Q_Sigma and M^T Q_W M = Q_W."""
    if m.shape != (5, 5):
        raise ValueError("expected a 5x5 matrix")
    mt = m.transpose()
    return m * Q_SIGMA * mt == Q_SIGMA and mt * Q_WILKER * m == Q_WILKER
