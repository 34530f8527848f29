import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoplex.arithmetic import J_CHANGE_OF_VARIABLES
from orthoplex.config import G_SIGMA_F, Q_F
from orthoplex.groups import APOLLONIAN, DUAL_APOLLONIAN, PLATONIC
from orthoplex.inversive import Q_SIGMA, Q_WILKER
from orthoplex.ring import (
    Mat, QSqrt2, SQRT2, SingularMatrixError, format_qsqrt2, parse_qsqrt2,
)

from conftest import random_qsqrt2


def test_difference_of_squares():
    one_plus = QSqrt2(1, 1)
    one_minus = QSqrt2(1, -1)
    assert one_plus * one_minus == QSqrt2(-1)


def test_inverse_of_sqrt2():
    assert SQRT2.inverse() == QSqrt2(0, Fraction(1, 2))


def test_half_plus_half():
    h = QSqrt2(Fraction(1, 2))
    assert h + h == QSqrt2(1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QSqrt2(0).inverse()


def test_field_axioms_bulk():
    # 10^4 random triples: associativity, distributivity, inverse round-trip
    r = random.Random(20240811)
    for _ in range(10_000):
        a, b, c = (random_qsqrt2(r) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a:
            assert a * a.inverse() == QSqrt2(1)
            assert a.inverse().inverse() == a


@st.composite
def qsqrt2s(draw):
    f = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return QSqrt2(draw(f), draw(f))


@given(qsqrt2s(), qsqrt2s(), qsqrt2s())
@settings(max_examples=500)
def test_distributivity_property(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(qsqrt2s())
@settings(max_examples=500)
def test_negation_involutive(a):
    assert -(-a) == a


def test_ordering_matches_embedding():
    assert SQRT2 > QSqrt2(Fraction(14142, 10000))
    assert SQRT2 < QSqrt2(Fraction(14143, 10000))
    assert QSqrt2(1, -1) < QSqrt2(0)  # 1 - sqrt2 < 0
    assert QSqrt2(-1, 1) > QSqrt2(0)  # sqrt2 - 1 > 0
    assert abs(QSqrt2(1, -1)) == QSqrt2(-1, 1)


def test_wilker_is_twice_inverse_sigma():
    half = QSqrt2(Fraction(1, 2))
    assert Q_SIGMA * Q_WILKER.scale(half) == Mat.identity(5)
    assert Q_WILKER == Q_SIGMA.inverse().scale(QSqrt2(2))


def test_qf_is_twice_inverse_gramian():
    assert G_SIGMA_F.inverse().scale(QSqrt2(2)) == Q_F


def test_identity_det():
    assert Mat.identity(5).det() == QSqrt2(1)


def test_inverse_round_trip_on_core_matrices():
    mats = [Q_SIGMA, Q_F, G_SIGMA_F, J_CHANGE_OF_VARIABLES]
    for table in (PLATONIC, APOLLONIAN, DUAL_APOLLONIAN):
        mats.extend(Mat.from_rows(m) for m in table.values())
    for m in mats:
        assert m * m.inverse() == Mat.identity(5)
        assert m.inverse() * m == Mat.identity(5)


def test_j_inverse_round_trip():
    j = J_CHANGE_OF_VARIABLES
    assert j.inverse() * j == Mat.identity(5)


def test_singular_matrix_error_carries_matrix():
    m = Mat.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError) as exc:
        m.inverse()
    assert exc.value.matrix is m
    assert m.det() == QSqrt2(0)


def test_shape_errors():
    a = Mat.from_rows([[1, 2, 3]])
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a.det()


def naive_matmul(a: Mat, b: Mat) -> Mat:
    """The product as a per-entry QSqrt2 accumulation: the loop Mat.__mul__
    ran before it moved to scaled integers, kept as its oracle."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    n, m, p = a.rows, a.cols, b.cols
    out = []
    for i in range(n):
        for j in range(p):
            acc = QSqrt2(0)
            for k in range(m):
                acc = acc + a.entries[i * m + k] * b.entries[k * p + j]
            out.append(acc)
    return Mat(n, p, out)


# (n, m, p): 5x5 by 5x5, 5x5 by 5x1, 1x5 by 5x5, 8x5 by 5x5, 1x5 by 5x1
PRODUCT_SHAPES = ((5, 5, 5), (5, 5, 1), (1, 5, 5), (8, 5, 5), (1, 5, 1))
MIXED = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(7, 12),
                         Fraction(-5, 6), Fraction(0), Fraction(1),
                         Fraction(-3)])


@st.composite
def mat_pairs(draw):
    n, m, p = draw(st.sampled_from(PRODUCT_SHAPES))
    entry = st.builds(lambda k, r, s: QSqrt2(k * r, k * s),
                      st.integers(-9, 9), MIXED, MIXED)
    a = Mat(n, m, draw(st.lists(entry, min_size=n * m, max_size=n * m)))
    b = Mat(m, p, draw(st.lists(entry, min_size=m * p, max_size=m * p)))
    return a, b


@given(mat_pairs())
@settings(max_examples=200, deadline=None)
def test_product_matches_naive_accumulation(ab):
    a, b = ab
    assert a * b == naive_matmul(a, b)


def test_product_edge_cases():
    r = random.Random(36)
    mixed = [QSqrt2(Fraction(1, 2), Fraction(1, 3)),
             QSqrt2(Fraction(7, 12), Fraction(-7, 12)),
             QSqrt2(Fraction(-1, 3), 1)]
    for n, m, p in PRODUCT_SHAPES:
        a = Mat(n, m, [r.choice(mixed) for _ in range(n * m)])
        b = Mat(m, p, [r.choice(mixed) for _ in range(m * p)])
        zero_a, zero_b = Mat(n, m, [0] * (n * m)), Mat(m, p, [0] * (m * p))
        assert a * b == naive_matmul(a, b)
        assert a * zero_b == Mat(n, p, [0] * (n * p)) == zero_a * b
        assert Mat.identity(n) * a == a == a * Mat.identity(m)
    for a in (Q_SIGMA, Q_WILKER, Q_F, G_SIGMA_F, J_CHANGE_OF_VARIABLES):
        for b in (Q_SIGMA, Q_F, J_CHANGE_OF_VARIABLES):
            assert a * b == naive_matmul(a, b)
    with pytest.raises(ValueError):
        Mat(5, 1, [1] * 5) * Mat(5, 5, [1] * 25)
    with pytest.raises(ValueError):
        naive_matmul(Mat(5, 1, [1] * 5), Mat(5, 5, [1] * 25))


def test_serialization_forms():
    cases = {
        QSqrt2(0): "0",
        QSqrt2(1): "1",
        QSqrt2(Fraction(1, 2)): "1/2",
        QSqrt2(0, 1): "1*sqrt2",
        QSqrt2(0, -2): "-2*sqrt2",
        QSqrt2(1, Fraction(-1, 2)): "1-1/2*sqrt2",
        QSqrt2(Fraction(-3, 4), 2): "-3/4+2*sqrt2",
    }
    for value, text in cases.items():
        assert format_qsqrt2(value) == text
        assert parse_qsqrt2(text) == value
    assert parse_qsqrt2("sqrt2") == SQRT2
    assert parse_qsqrt2("-sqrt2") == -SQRT2
    assert parse_qsqrt2(" 2 + 3/2*sqrt2 ") == QSqrt2(2, Fraction(3, 2))


def test_serialization_round_trip_random():
    r = random.Random(77)
    for _ in range(500):
        x = random_qsqrt2(r)
        assert parse_qsqrt2(format_qsqrt2(x)) == x


def test_parse_rejects_garbage():
    for bad in ("", "sqrt3", "1+", "1 1", "--2", "2**sqrt2"):
        with pytest.raises(ValueError):
            parse_qsqrt2(bad)
