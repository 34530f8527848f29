"""Each constructor and function that checks its input, given one input
that fails the check."""

import pytest

from orthoplex.arithmetic import (
    GaussianInt, ObstructionClass, complete_pair, epsilon_of,
)
from orthoplex.config import (
    F0, BendVector, FMatrix, VMatrix, complete_quadruple, descartes_form,
    solve_b_mu, v_from_f,
)
from orthoplex.inversive import (
    Coord5, HonestSphere, PlanarSphere, classify_pair,
)
from orthoplex.ring import Mat, QSqrt2, parse_qsqrt2

BAD_INPUTS = {
    "bend_vector_of_3": (lambda: BendVector((1, 2, 3)),
                         ValueError, "five entries"),
    "fmatrix_of_4_rows": (lambda: FMatrix(F0.rows[:4]),
                          ValueError, "exactly five rows"),
    "fmatrix_from_4x4": (lambda: FMatrix.from_mat(Mat.identity(4)),
                         ValueError, "5x5"),
    "vmatrix_of_7_rows": (lambda: VMatrix(v_from_f(F0).rows[:7]),
                          ValueError, "exactly eight rows"),
    "descartes_form_of_2": (lambda: descartes_form((1, 2)),
                            ValueError, "five entries"),
    # discriminant 5^2 - 2*7 = 11 has no square root in Q[sqrt2]
    "solve_b_mu_irrational": (lambda: solve_b_mu(1, 1, 1, 2),
                              ValueError, "discriminant 11"),
    "complete_quadruple_of_3": (lambda: complete_quadruple(F0.rows[:3]),
                                ValueError, "exactly four rows"),
    "coord5_of_3": (lambda: Coord5.of(1, 2, 3),
                    ValueError, "exactly five entries"),
    "honest_sphere_radius_0": (lambda: HonestSphere((0, 0, 0), 0),
                               ValueError, "nonzero oriented radius"),
    "planar_sphere_normal_110": (lambda: PlanarSphere((1, 1, 0), 0),
                                 ValueError, "unit normal"),
    "honest_sphere_centre_of_2": (
        lambda: HonestSphere(center=(0, 0), oriented_radius=1),
        ValueError, "center needs exactly three entries"),
    "honest_sphere_centre_of_4": (
        lambda: HonestSphere(center=(0, 0, 0, 0), oriented_radius=1),
        ValueError, "center needs exactly three entries"),
    # (1,) has squares summing to 1
    "planar_sphere_normal_of_1": (
        lambda: PlanarSphere(unit_normal=(1,), offset=0),
        ValueError, "unit_normal needs exactly three entries"),
    "classify_pair_same_sphere": (lambda: classify_pair(F0.rows[0], F0.rows[0]),
                                  ValueError, "two distinct spheres"),
    "classify_pair_unnormalized": (
        lambda: classify_pair(Coord5.of(1, 1, 1, 1, 1), F0.rows[0]),
        ValueError, "normalized"),
    "mat_short_entries": (lambda: Mat(2, 2, [1, 2, 3]),
                          ValueError, "need 4 entries, got 3"),
    "mat_ragged_rows": (lambda: Mat.from_rows([[1, 2], [3]]),
                        ValueError, "ragged"),
    "obstruction_class_0": (lambda: ObstructionClass(0),
                            ValueError, r"\+1 or -1"),
    "epsilon_of_7_bends": (lambda: epsilon_of((0,) * 7),
                           ValueError, "eight bends"),
    "gaussian_int_of_float": (lambda: GaussianInt.coerce(1.5),
                              TypeError, "float"),
    "gaussian_divmod_by_0": (lambda: divmod(GaussianInt(1, 1), GaussianInt(0, 0)),
                             ZeroDivisionError, "division by zero"),
    "complete_pair_gcd_3": (lambda: complete_pair(3, 6),
                            ValueError, "not a unit"),
    # digits are ASCII only, as in fmatrix.schema.json and format_qsqrt2:
    # Arabic-Indic 1/2, a fullwidth 0 and a fullwidth 2 in a coefficient
    "parse_qsqrt2_arabic_indic_digits": (lambda: parse_qsqrt2("\u0661/\u0662"),
                                         ValueError, "malformed"),
    "parse_qsqrt2_fullwidth_zero": (lambda: parse_qsqrt2("\uff10"),
                                    ValueError, "malformed"),
    "parse_qsqrt2_fullwidth_coefficient": (
        lambda: parse_qsqrt2("3/\uff12*sqrt2"), ValueError, "malformed"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_raises_the_documented_exception(name):
    call, exc, match = BAD_INPUTS[name]
    with pytest.raises(exc, match=match):
        call()


def test_coord5_of_one_list_and_planar_bend():
    assert Coord5.of([1, 2, 3, 4, 5]) == Coord5.of(1, 2, 3, 4, 5)
    assert PlanarSphere((0, 0, 1), 0).bend == QSqrt2(0)
