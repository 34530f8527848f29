import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthoplex.config import BUILTIN_SEEDS, v_from_f
from orthoplex.inversive import (
    HonestSphere, PlanarSphere, Q_SIGMA, classify_pair, inversive_product,
    sphere_from_coords,
)
from orthoplex.ring import Mat, QSqrt2, SQRT2

from conftest import coord5
from mobius import (
    apply_row, coords_from_sphere, mobius_inversion, mobius_rescale,
    mobius_rotate, mobius_translate, verify_mobius_invariance,
)

ONE = QSqrt2(1)
HALF = QSqrt2(Fraction(1, 2))


def all_table_rows():
    for f in BUILTIN_SEEDS.values():
        for row in v_from_f(f).rows:
            yield row


def test_coords_of_unit_sphere_off_axis():
    s = HonestSphere(center=(SQRT2, 0, 0), oriented_radius=1)
    assert coords_from_sphere(s) == coord5(1, 1, SQRT2, 0, 0)


def test_coords_of_plane():
    s = PlanarSphere(unit_normal=(0, 0, 1), offset=1)
    assert coords_from_sphere(s) == coord5(2, 0, 0, 0, 1)


def test_coords_of_small_sphere():
    s = HonestSphere(center=(0, 0, Fraction(-1, 2)),
                     oriented_radius=Fraction(1, 2))
    assert coords_from_sphere(s) == coord5(0, 2, 0, 0, -1)


def test_sphere_from_coords_examples():
    s = sphere_from_coords(coord5(1, 1, SQRT2, 0, 0))
    assert isinstance(s, HonestSphere)
    assert s.center == (SQRT2, QSqrt2(0), QSqrt2(0))
    assert s.oriented_radius == ONE

    p = sphere_from_coords(coord5(2, 0, 0, 0, 1))
    assert isinstance(p, PlanarSphere)
    assert p.offset == ONE

    s6 = sphere_from_coords(coord5(0, 2, 0, 0, 1))
    assert isinstance(s6, HonestSphere)
    assert s6.center == (QSqrt2(0), QSqrt2(0), QSqrt2(Fraction(1, 2)))
    assert s6.oriented_radius == QSqrt2(Fraction(1, 2))


def test_sphere_constructors_make_exact_tuples():
    # int, Fraction and list inputs become a tuple of QSqrt2; QSqrt2 inputs
    # are kept as the same objects
    s = HonestSphere(center=[1, Fraction(1, 2), SQRT2],
                     oriented_radius=Fraction(-3, 2))
    assert type(s.center) is tuple and s.center[2] is SQRT2
    assert all(type(c) is QSqrt2 for c in s.center + (s.oriented_radius,))
    assert s.center == (ONE, HALF, SQRT2)
    assert s.oriented_radius == QSqrt2(Fraction(-3, 2))
    p = PlanarSphere(unit_normal=[0, ONE, Fraction(0)], offset=2)
    assert type(p.unit_normal) is tuple and p.unit_normal[1] is ONE
    assert all(type(c) is QSqrt2 for c in p.unit_normal + (p.offset,))
    assert (p.unit_normal, p.offset) == ((QSqrt2(0), ONE, QSqrt2(0)), QSqrt2(2))
    center, radius = (SQRT2, HALF, ONE), -HALF
    s = HonestSphere(center=center, oriented_radius=radius)
    assert s.center is center and s.oriented_radius is radius
    normal = (QSqrt2(0), QSqrt2(0), ONE)
    p = PlanarSphere(unit_normal=normal, offset=HALF)
    assert p.unit_normal is normal and p.offset is HALF
    for bad in (lambda: HonestSphere(center=(0.5, 0, 0), oriented_radius=1),
                lambda: HonestSphere(center=(0, 0, 0), oriented_radius=1.0),
                lambda: PlanarSphere(unit_normal=(1.0, 0, 0), offset=0),
                lambda: PlanarSphere(unit_normal=(1, 0, 0), offset=0.5)):
        with pytest.raises(TypeError):
            bad()


def test_sphere_from_coords_rejects_unnormalized():
    with pytest.raises(ValueError):
        sphere_from_coords(coord5(1, 1, 0, 0, 0))


def test_round_trip_all_24_table_rows():
    for row in all_table_rows():
        assert coords_from_sphere(sphere_from_coords(row)) == row


def test_round_trip_from_sphere_side():
    r = random.Random(5)
    for _ in range(200):
        center = tuple(QSqrt2(Fraction(r.randint(-9, 9), r.randint(1, 4)),
                              Fraction(r.randint(-9, 9), r.randint(1, 4)))
                       for _ in range(3))
        radius = QSqrt2(Fraction(r.randint(1, 9), r.randint(1, 4)))
        if r.random() < 0.5:
            radius = -radius
        s = HonestSphere(center=center, oriented_radius=radius)
        assert sphere_from_coords(coords_from_sphere(s)) == s


def test_products_on_standard_rows():
    rows = v_from_f(BUILTIN_SEEDS["F0"]).rows
    assert inversive_product(rows[0], rows[1]) == QSqrt2(-1)
    assert inversive_product(rows[0], rows[4]) == QSqrt2(-3)
    for row in rows:
        assert inversive_product(row, row) == ONE


def test_classify_standard_pairs():
    rows = v_from_f(BUILTIN_SEEDS["F0"]).rows
    assert classify_pair(rows[0], rows[1]).kind == "tangent_external"
    assert classify_pair(rows[0], rows[4]).kind == "disjoint_external"
    assert classify_pair(rows[2], rows[3]).kind == "tangent_external"


def test_orthoplex_tangency_graph_all_builtin():
    # tangent iff index difference nonzero mod 4, on all 28 pairs
    for f in BUILTIN_SEEDS.values():
        rows = v_from_f(f).rows
        for i in range(8):
            for j in range(i + 1, 8):
                rel = classify_pair(rows[i], rows[j])
                if (i - j) % 4 == 0:
                    assert rel.disjoint, (i, j)
                else:
                    assert rel.tangent, (i, j)


def test_classify_nested_pairs():
    # a unit sphere holds a sphere of radius 1/2, once touching its inside
    # (inversive product 1) and once at its centre (product 5/4)
    outer = coords_from_sphere(
        HonestSphere(center=(0, 0, 0), oriented_radius=1))
    half = Fraction(1, 2)
    touching = coords_from_sphere(
        HonestSphere(center=(half, 0, 0), oriented_radius=half))
    inside = coords_from_sphere(
        HonestSphere(center=(0, 0, 0), oriented_radius=half))
    assert classify_pair(outer, touching).kind == "tangent_nested"
    rel = classify_pair(outer, inside)
    assert rel.kind == "disjoint_nested"
    assert rel.value == QSqrt2(Fraction(5, 4))


def test_classify_intersecting_value():
    # unit spheres with centers distance 1 apart meet at 60 degrees
    u = coords_from_sphere(HonestSphere(center=(0, 0, 0), oriented_radius=1))
    w = coords_from_sphere(HonestSphere(center=(1, 0, 0), oriented_radius=1))
    rel = classify_pair(u, w)
    assert rel.kind == "intersecting"
    assert rel.value == QSqrt2(Fraction(1, 2))


def test_translation_matrix_second_row():
    m = mobius_translate(1, 2, 3)
    assert m.row(1) == (QSqrt2(14), ONE, QSqrt2(1), QSqrt2(2), QSqrt2(3))


def test_rescale_identity():
    assert mobius_rescale(1) == Mat.identity(5)


def test_inversion_is_involution():
    inv = mobius_inversion()
    assert inv * inv == Mat.identity(5)


def test_invariance_examples():
    assert verify_mobius_invariance(mobius_translate(1, 2, 3))
    assert verify_mobius_invariance(Mat.identity(5))
    bad = Mat.from_rows([[2, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                         [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert not verify_mobius_invariance(bad)


def _random_mobius(r: random.Random) -> Mat:
    m = Mat.identity(5)
    for _ in range(r.randint(1, 6)):
        pick = r.randrange(4)
        if pick == 0:
            m = m * mobius_inversion()
        elif pick == 1:
            m = m * mobius_rescale(QSqrt2(r.randint(1, 3), r.randint(0, 2)))
        elif pick == 2:
            m = m * mobius_translate(QSqrt2(r.randint(-2, 2)),
                                     QSqrt2(0, r.randint(-2, 2)),
                                     QSqrt2(Fraction(r.randint(-3, 3), 2)))
        else:
            m = m * mobius_rotate((0, 0, 1), Fraction(3, 5), Fraction(4, 5))
    return m


def test_invariance_random_products():
    r = random.Random(99)
    for _ in range(50):
        m = _random_mobius(r)
        assert verify_mobius_invariance(m)


def test_product_invariant_under_action():
    r = random.Random(123)
    rows = v_from_f(BUILTIN_SEEDS["F1"]).rows
    for _ in range(25):
        m = _random_mobius(r)
        i, j = r.randrange(8), r.randrange(8)
        u, w = rows[i], rows[j]
        assert (inversive_product(apply_row(u, m), apply_row(w, m))
                == inversive_product(u, w))


def test_rotation_exactness_required():
    with pytest.raises(ValueError):
        mobius_rotate((0, 0, 1), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        mobius_rotate((0, 0, 2), 1, 0)


def test_quarter_turn_moves_center():
    m = mobius_rotate((0, 0, 1), 0, 1)
    assert verify_mobius_invariance(m)
    v = coords_from_sphere(HonestSphere(center=(1, 0, 0), oriented_radius=1))
    moved = sphere_from_coords(apply_row(v, m))
    assert isinstance(moved, HonestSphere)
    assert moved.oriented_radius == ONE
    # the center lands on the y-axis, one unit out
    cx, cy, cz = moved.center
    assert (cx * cx, cy * cy, cz) == (QSqrt2(0), ONE, QSqrt2(0))


def test_float_rotation_invariance():
    # generic-angle rotations exist only in floats; tolerance 1e-12
    theta = 0.7363
    c, s = np.cos(theta), np.sin(theta)
    r3 = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
    m = np.eye(5)
    m[2:, 2:] = r3
    q = np.array([[float(Q_SIGMA[i, j].to_float()) for j in range(5)]
                  for i in range(5)])
    assert np.max(np.abs(m @ q @ m.T - q)) < 1e-12


def expanded_product(u, w):
    """The inversive product as ten chained ``QSqrt2`` operations."""
    spatial = u.xhat * w.xhat + u.yhat * w.yhat + u.zhat * w.zhat
    return spatial - (u.a * w.b + u.b * w.a) * HALF


def inverse_center_radius(v):
    """Centre and oriented radius of an honest row through 1/b."""
    binv = v.b.inverse()
    return (v.xhat * binv, v.yhat * binv, v.zhat * binv), binv


# mixed denominators and sqrt2 parts of either sign
_FRACTION = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_Q = st.builds(QSqrt2, _FRACTION, _FRACTION)
_ROW = st.builds(coord5, _Q, _Q, _Q, _Q, _Q)


@given(_ROW, _ROW)
@settings(max_examples=200, deadline=None)
def test_product_is_the_expanded_form(u, w):
    # rows of any norm; the product of a row with itself takes one scaling
    assert inversive_product(u, w) == expanded_product(u, w)
    assert inversive_product(u, u) == expanded_product(u, u)
    assert inversive_product(u, coord5(*u)) == expanded_product(u, u)


@given(st.tuples(_Q, _Q, _Q), _Q.filter(bool), _Q.filter(bool), st.booleans(),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_centre_and_radius_are_the_inverse_route(center, radius, delta,
                                                 plane, at):
    # honest rows of negative and irrational bends (the radius is any
    # nonzero element), planes with a unit normal, and each made
    # unnormalized by moving one entry
    if plane:
        v = coords_from_sphere(PlanarSphere(
            unit_normal=(Fraction(3, 5), 0, Fraction(-4, 5)), offset=center[0]))
    else:
        v = coords_from_sphere(HonestSphere(center=center,
                                            oriented_radius=radius))
    assert expanded_product(v, v) == ONE
    s = sphere_from_coords(v)
    if plane:
        assert s == PlanarSphere(unit_normal=v[2:], offset=v.a * HALF)
    else:
        assert (s.center, s.oriented_radius) == inverse_center_radius(v)
        assert (s.center, s.oriented_radius) == (center, radius)
    moved = coord5(*(x + delta if k == at else x for k, x in enumerate(v)))
    assume(expanded_product(moved, moved) != ONE)
    with pytest.raises(ValueError, match="not normalized"):
        sphere_from_coords(moved)


_NOT_NORMALIZED = "coordinate vector is not normalized: Sigma(v,v) != 1"

# rows of honest spheres of negative and irrational bends and of planes,
# each moved in one entry or not at all
_NORMALIZED = st.one_of(
    st.builds(lambda center, radius: coords_from_sphere(HonestSphere(
        center=center, oriented_radius=radius)),
              st.tuples(_Q, _Q, _Q), _Q.filter(bool)),
    st.builds(lambda offset: coords_from_sphere(PlanarSphere(
        unit_normal=(Fraction(3, 5), 0, Fraction(-4, 5)), offset=offset)),
              _Q))
_MOVED = st.builds(
    lambda v, delta, at: coord5(*(x + delta if k == at else x
                                  for k, x in enumerate(v))),
    _NORMALIZED, st.sampled_from([0, 1, SQRT2, -SQRT2, HALF]),
    st.integers(0, 4))


@given(st.one_of(_ROW, _NORMALIZED, _MOVED))
@example(coord5(-SQRT2, 1, 1, 0, 0))  # Sigma = 1 + sqrt2: rational part 1
@example(coord5(1, 1, 0, 0, 0))  # Sigma = 0, with no sqrt2 part
@settings(max_examples=300, deadline=None)
def test_normalization_check_is_the_inversive_product(v):
    # the check runs on the rows' integer parts over one denominator; its
    # oracle is the product in exact QSqrt2 arithmetic
    if inversive_product(v, v) == ONE:
        assert sphere_from_coords(v).bend == v.b
    else:
        with pytest.raises(ValueError) as err:
            sphere_from_coords(v)
        assert str(err.value) == _NOT_NORMALIZED
