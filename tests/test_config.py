import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoplex.config import (
    BendVector, F0, F1, F7D, FMatrix, antipodal, check_dgm,
    check_gramian, check_orthoplex_graph, complete_quadruple, descartes_form,
    VMatrix, f_from_v, qsqrt2_sqrt, solve_b_mu, v_from_f,
)
from orthoplex.groups import APOLLONIAN, element, apply
from orthoplex.inversive import HonestSphere
from orthoplex.ring import Mat, QSqrt2, SQRT2

from conftest import coord5, random_apollonian_word
from mobius import (
    apply_mobius, apply_row, coords_from_sphere, mobius_inversion,
    mobius_rescale, mobius_translate,
)


def test_antipodal_standard_rows():
    v = v_from_f(F0)
    assert antipodal(v.rows[0], v.rows[4]) == coord5(1, 1, 0, 0, 0)
    assert antipodal(v.rows[1], v.rows[5]) == coord5(1, 1, 0, 0, 0)


def test_antipodal_v1():
    v = v_from_f(F1)
    assert antipodal(v.rows[0], v.rows[4]) == coord5(3, 3, 0, SQRT2 * 2, 0)


def test_antipodal_independence_all_builtin():
    for f in (F0, F1, F7D):
        v = v_from_f(f)
        sums = {antipodal(v.rows[k], v.rows[k + 4]) for k in range(4)}
        assert sums == {f.rows[4]}


def test_decompression_recovers_full_v_matrices():
    v1 = v_from_f(F1)
    assert v1.rows[7] == coord5(7, 7, 0, SQRT2 * 5, 0)
    v7 = v_from_f(F7D)
    assert v7.rows[4] == coord5(32, 22, SQRT2 * 18, SQRT2 * 2, -7)
    assert v7.rows[7] == coord5(77, 49, SQRT2 * 42, SQRT2 * 5, -14)


def test_round_trip_f_and_v():
    for f in (F0, F1, F7D):
        assert f_from_v(v_from_f(f)) == f
    assert check_orthoplex_graph(v_from_f(F7D))


def test_orthoplex_graph_rejects_misplaced_spheres():
    # swapping rows 1 and 2 puts the tangent spheres 2 and 5 where a
    # disjoint pair belongs, the first pair the check meets; swapping rows
    # 2 and 5 first puts the disjoint spheres 1 and 5 where a tangent pair
    # belongs
    for f in (F0, F1, F7D):
        rows = v_from_f(f).rows
        assert check_orthoplex_graph(VMatrix(rows))
        for i, j in ((0, 1), (1, 4)):
            swapped = list(rows)
            swapped[i], swapped[j] = rows[j], rows[i]
            assert not check_orthoplex_graph(VMatrix(tuple(swapped))), (i, j)
    # eight disjoint unit spheres fail only the tangent test
    apart = VMatrix(tuple(coords_from_sphere(HonestSphere((4 * k, 0, 0), 1))
                          for k in range(8)))
    assert not check_orthoplex_graph(apart)


def test_decompression_literal():
    # row 5 of the decompression matrix D is (-1, 0, 0, 0, 2): sphere k+4 is
    # 2*v_mu - v_k
    for f in (F0, F1, F7D):
        rows = v_from_f(f).rows
        assert rows[:4] == f.rows[:4]
        for k in range(4):
            assert rows[k + 4] == tuple(
                2 * mu - x for mu, x in zip(f.rows[4], f.rows[k]))


def test_gramian_examples():
    assert check_gramian(F0)
    assert check_gramian(F7D)
    broken = FMatrix(F0.rows[:4] + (coord5(0, 0, 0, 0, 0),))
    assert not check_gramian(broken)


def test_dgm_examples():
    assert check_dgm(F1)
    assert check_dgm(F0)
    assert not check_dgm(FMatrix.from_mat(Mat.identity(5)))


def test_descartes_form_on_bend_columns():
    assert descartes_form((0, 0, 1, 1, 1)) == QSqrt2(0)
    assert descartes_form((2, 2, 3, -1, 3)) == QSqrt2(0)
    assert descartes_form((20, 12, 17, -7, 21)) == QSqrt2(0)


def test_descartes_form_matches_matrix():
    from orthoplex.config import Q_F
    r = random.Random(6)
    for _ in range(100):
        z = [r.randint(-9, 9) for _ in range(5)]
        col = Mat(5, 1, z)
        quad = (col.transpose() * Q_F * col)[0, 0]
        assert descartes_form(z) == quad


def test_solve_b_mu_double_roots():
    # both spec quadruples have vanishing discriminant: one double root
    assert solve_b_mu(0, 0, 1, 1) == (QSqrt2(2),)
    assert solve_b_mu(2, 2, 3, -1) == (QSqrt2(6),)


def test_solve_b_mu_irrational_pair():
    lo, hi = solve_b_mu(1, 1, 1, 1)
    assert lo == QSqrt2(4, -2) and hi == QSqrt2(4, 2)


def test_solve_b_mu_empty_when_negative_discriminant():
    assert solve_b_mu(1, 0, 0, 0) == ()


def test_qsqrt2_sqrt_cases():
    assert qsqrt2_sqrt(QSqrt2(2)) == SQRT2
    assert qsqrt2_sqrt(QSqrt2(Fraction(9, 4))) == QSqrt2(Fraction(3, 2))
    assert qsqrt2_sqrt(QSqrt2(3, 2)) == QSqrt2(1, 1)  # (1+sqrt2)^2
    assert qsqrt2_sqrt(QSqrt2(-1)) is None
    assert qsqrt2_sqrt(QSqrt2(3)) is None


def test_complete_quadruple_standard():
    fa, fb = complete_quadruple(F0.rows[:4])
    assert fa.rows[4] == coord5(1, 1, 0, 0, 0)
    assert fb.rows[4] == coord5(5, 1, SQRT2, SQRT2, 0)
    assert check_dgm(fa) and check_dgm(fb)
    assert check_gramian(fa) and check_gramian(fb)


def test_complete_quadruple_inversion_identity():
    rows = F1.rows[:4]
    fa, fb = complete_quadruple(rows)
    total = rows[0] + rows[1] + rows[2] + rows[3]
    assert fa.rows[4] + fb.rows[4] == total
    assert F1.rows[4] in (fa.rows[4], fb.rows[4])


def test_complete_quadruple_exchanged_by_rf():
    fa, fb = complete_quadruple(F7D.rows[:4])
    rf = element("Apollonian", ("S1234",))
    assert apply(rf, fa) == fb
    assert apply(rf, fb) == fa


@given(st.sampled_from((F0, F1, F7D)),
       st.lists(st.sampled_from(sorted(APOLLONIAN)), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_apollonian_images_lie_in_their_quadruple_completion(f, word):
    image = apply(element("Apollonian", word), f)
    assert image in complete_quadruple(image.rows[:4])


def test_complete_quadruple_rejects_non_tangent():
    v = v_from_f(F0)
    with pytest.raises(ValueError):
        complete_quadruple((v.rows[0], v.rows[4], v.rows[1], v.rows[2]))


def test_bend_vectors_of_builtins():
    bv = F7D.bend_vector()
    assert bv == BendVector((20, 12, 17, -7, 21))
    assert all(type(b) is int for b in bv) and bv.is_primitive()
    bv0 = F0.bend_vector()
    assert bv0 == BendVector((0, 0, 1, 1, 1))
    assert bv0.is_primitive()
    doubled = BendVector((0, 0, 2, 2, 2))
    assert all(type(b) is int for b in doubled) and not doubled.is_primitive()


def test_bend_vector_entries_are_ints():
    for bv in (BendVector((0, 0, 1, 1, 1)), BendVector(np.array([2, 2, 3, -1, 3])),
               F7D.bend_vector()):
        assert all(type(b) is int for b in bv + bv.bends8())


@pytest.mark.parametrize("bad", [Fraction(1), Fraction(1, 2), 1.0, "1"])
def test_bend_vector_refuses_non_int_entries(bad):
    with pytest.raises(TypeError):
        BendVector((bad, 0, 1, 1, 1))


def test_bend_vector_of_non_integral_column():
    # F1 dilated by 2 has half-integral bends, dilated by sqrt2 irrational ones
    for t in (2, SQRT2):
        f = apply_mobius(F1, mobius_rescale(t))
        assert check_gramian(f) and check_dgm(f)
        with pytest.raises(ValueError, match="integral"):
            f.bend_vector()


@given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=5, max_size=5))
@settings(max_examples=300, deadline=None)
def test_descartes_form_on_ints_is_an_int(z):
    value = descartes_form(z)
    assert type(value) is int
    assert value == descartes_form([QSqrt2(x) for x in z])


def test_bends8_complements():
    assert F1.bend_vector().bends8() == (2, 2, 3, -1, 4, 4, 3, 7)
    assert F7D.bend_vector().bends8() == (20, 12, 17, -7, 22, 30, 25, 49)


def test_equivariance_under_mobius():
    # the F-matrix of a transformed configuration is F times the matrix
    for m in (mobius_inversion(), mobius_rescale(2), mobius_translate(1, 0, 1)):
        for f in (F0, F1):
            left = f_from_v(
                type(v_from_f(f))(tuple(apply_row(r, m) for r in v_from_f(f).rows)))
            assert left == apply_mobius(f, m)
            assert check_gramian(left) and check_dgm(left)


def test_orbit_parity_and_square_discriminant(rng):
    import math
    for f in (F0, F1, F7D):
        for _ in range(40):
            g = random_apollonian_word(rng)
            bv = apply(g, f).bend_vector()
            s = sum(bv[:4])
            assert s % 2 == 0
            disc = s * s - 2 * sum(b * b for b in bv[:4])
            root = math.isqrt(disc)
            assert root * root == disc


def test_orbit_matrices_stay_admissible(rng):
    for f in (F0, F1, F7D):
        for _ in range(25):
            g = random_apollonian_word(rng)
            image = apply(g, f)
            assert check_gramian(image) and check_dgm(image)


def test_fmatrix_json_round_trip():
    for f in (F0, F1, F7D):
        blob = json.dumps(f.to_json_dict())
        assert FMatrix.from_json_dict(json.loads(blob)) == f


def test_fmatrix_json_rejects_malformed():
    with pytest.raises(ValueError):
        FMatrix.from_json_dict({"rows": [["1"] * 5] * 4})
    with pytest.raises(ValueError):
        FMatrix.from_json_dict({})
