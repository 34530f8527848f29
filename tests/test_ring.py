import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthoplex.arithmetic import J_CHANGE_OF_VARIABLES, GaussianInt
from orthoplex.config import G_SIGMA_F, Q_F
from orthoplex.groups import APOLLONIAN, DUAL_APOLLONIAN, PLATONIC
from orthoplex.inversive import Q_SIGMA, Q_WILKER
from orthoplex.ring import (
    Mat, QSqrt2, SQRT2, ZERO, SingularMatrixError, _reduced, _scaled,
    format_qsqrt2, parse_qsqrt2,
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


def test_matrix_times_scalar_scales():
    m = Mat.from_rows([[1, Fraction(1, 2)], [SQRT2, 0]])
    assert m * 2 == 2 * m == m.scale(2) == Mat.from_rows(
        [[2, 1], [2 * SQRT2, 0]])
    assert m * SQRT2 == Mat.from_rows([[SQRT2, SQRT2 / 2], [2, 0]])


def test_to_int_rows_refuses_non_integers():
    assert Mat.from_rows([[1, -2], [0, 3]]).to_int_rows() == [[1, -2], [0, 3]]
    for entry in (Fraction(1, 2), SQRT2):
        with pytest.raises(ValueError, match="non-integer"):
            Mat.from_rows([[1, entry]]).to_int_rows()


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


@st.composite
def rational_or_irrational_pairs(draw):
    """Factors drawn whole-rational or irrational, one choice per factor,
    so the products that skip the sqrt2 sums are all reached."""
    n, m, p = draw(st.sampled_from(PRODUCT_SHAPES))
    rational = st.builds(lambda k, r: QSqrt2(k * r), st.integers(-9, 9), MIXED)
    irrational = st.builds(lambda k, r, s: QSqrt2(k * r, k * s),
                           st.integers(-9, 9), MIXED, MIXED)

    def factor(rows, cols):
        entry = rational if draw(st.booleans()) else irrational
        return Mat(rows, cols,
                   draw(st.lists(entry, min_size=rows * cols,
                                 max_size=rows * cols)))

    return factor(n, m), factor(m, p)


def entrywise_dot(a, b):
    """Each product entry as a QSqrt2 dot product of a row and a column."""
    return [sum((x * y for x, y in zip(a.row(i), b.col(j))), QSqrt2(0))
            for i in range(a.rows) for j in range(b.cols)]


@given(rational_or_irrational_pairs())
@settings(max_examples=300, deadline=None)
@example((Q_SIGMA, Mat(5, 1, [1, 0, SQRT2, Fraction(-1, 2), 3])))
@example((Q_F, Mat(5, 1, [Fraction(1, 3), 2, 0, -1, 5])))
@example((J_CHANGE_OF_VARIABLES, Q_SIGMA))
@example((Mat(0, 2, []), Mat(2, 0, [])))  # zero-size: no entries to scale
@example((Mat(2, 0, []), Mat(0, 2, [])))
def test_product_matches_entrywise_dot(ab):
    a, b = ab
    prod = a * b
    assert prod.shape == (a.rows, b.cols)
    assert all(type(e) is QSqrt2 for e in prod.entries)
    assert list(prod.entries) == entrywise_dot(a, b)


@st.composite
def square_mats(draw):
    """5x5 matrices over Q[sqrt2]; about one in three is made singular by
    setting one row to a combination of two others."""
    entry = st.builds(lambda k, r, s: QSqrt2(k * r, k * s),
                      st.integers(-9, 9), MIXED, MIXED)
    rows = [draw(st.lists(entry, min_size=5, max_size=5)) for _ in range(5)]
    if draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(5)))[:3]
        s, t = draw(entry), draw(entry)
        rows[k] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return Mat.from_rows(rows)


def leibniz_det(m):
    """Sum over permutations of signed products: an independent oracle."""
    total = QSqrt2(0)
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(m.rows)
                         for j in range(i + 1, m.rows))
        term = QSqrt2(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total + term
    return total


@given(square_mats())
@settings(max_examples=200, deadline=None)
@example(Mat(5, 5, [0] * 25))
@example(Mat.from_rows([[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
                        [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]]))
@example(Mat.from_rows([[1, 0, 2, 3, 4], [5, 0, 6, 7, SQRT2], [1, 0, 1, 1, 1],
                        [2, 0, SQRT2, 1, 0], [3, 0, 1, 4, 1]]))
def test_det_and_inverse_match_leibniz(m):
    det = leibniz_det(m)
    assert m.det() == det
    if det:
        assert m * m.inverse() == Mat.identity(5)
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()


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


class ReferenceQSqrt2:
    """a + b*sqrt2 as a pair of ``Fraction``s: the class QSqrt2 was before
    it moved to one reduced integer triple, kept as its oracle."""

    def __init__(self, rat=0, irr=0):
        self.rat, self.irr = Fraction(rat), Fraction(irr)

    @classmethod
    def coerce(cls, x):
        return x if isinstance(x, ReferenceQSqrt2) else cls(x)

    def __eq__(self, other):
        other = ReferenceQSqrt2.coerce(other)
        return self.rat == other.rat and self.irr == other.irr

    def __add__(self, other):
        other = ReferenceQSqrt2.coerce(other)
        return ReferenceQSqrt2(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceQSqrt2(-self.rat, -self.irr)

    def __sub__(self, other):
        return self + (-ReferenceQSqrt2.coerce(other))

    def __rsub__(self, other):
        return (-self) + ReferenceQSqrt2.coerce(other)

    def __mul__(self, other):
        other = ReferenceQSqrt2.coerce(other)
        return ReferenceQSqrt2(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("QSqrt2 division by zero")
        return ReferenceQSqrt2(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        return self * ReferenceQSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ReferenceQSqrt2.coerce(other) * self.inverse()

    def sign(self):
        a, b = self.rat, self.irr
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if a * a < 2 * b * b else -1

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def is_integer(self):
        return self.irr == 0 and self.rat.denominator == 1

    def to_float(self):
        return float(self.rat) + float(self.irr) * 1.4142135623730951

    def __str__(self):
        def frac(f):
            return (str(f.numerator) if f.denominator == 1
                    else f"{f.numerator}/{f.denominator}")
        if self.rat == 0 and self.irr == 0:
            return "0"
        parts = [frac(self.rat)] if self.rat != 0 else []
        if self.irr != 0:
            term = f"{frac(abs(self.irr))}*sqrt2"
            sign = "-" if self.irr < 0 else "+" if parts else ""
            parts.append(sign + term)
        return "".join(parts)

    def __repr__(self):
        return f"QSqrt2({self.rat!r}, {self.irr!r})"


# mixed denominators, negatives, zeros and ints far past 64 bits
PARTS = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=36),
    st.integers(-2 ** 90, 2 ** 90),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 15)),
)


def assert_matches(q, ref):
    x, y, d = q.xyd
    assert d > 0 and math.gcd(x, y, d) == 1
    assert (q.rat, q.irr) == (ref.rat, ref.irr)
    assert (str(q), repr(q)) == (str(ref), repr(ref))
    assert q.is_integer() == ref.is_integer() and q.sign() == ref.sign()
    assert q.to_float().hex() == ref.to_float().hex()  # bit for bit


@given(PARTS, PARTS, PARTS, PARTS)
@settings(max_examples=400, deadline=None)
def test_triple_matches_fraction_pair_reference(r1, i1, r2, i2):
    a, b = QSqrt2(r1, i1), QSqrt2(r2, i2)
    ra, rb = ReferenceQSqrt2(r1, i1), ReferenceQSqrt2(r2, i2)
    pairs = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb),
             (a * b, ra * rb), (-a, -ra), (abs(a), ra if ra.sign() >= 0 else -ra),
             (a + r2, ra + r2), (r2 - a, r2 - ra), (r2 * a, r2 * ra)]
    for q, ref in ((a, ra), (b, rb)):
        try:
            inv = ref.inverse()
        except ZeroDivisionError:
            for call in (q.inverse, lambda: a / q, lambda: r1 / q):
                with pytest.raises(ZeroDivisionError):
                    call()
        else:
            pairs += [(q.inverse(), inv), (a / q, ra * inv), (r1 / q, r1 * inv)]
    for q, ref in pairs:
        assert_matches(q, ref)
    assert (a == b, a < b, a <= b, a > b, a >= b) == (
        ra == rb, ra < rb, ra <= rb, ra > rb, ra >= rb)
    assert (a == r2, a < r2, a >= r2) == (ra == r2, ra < r2, ra >= r2)
    assert QSqrt2(r1) == r1 and hash(QSqrt2(r1)) == hash(r1)


def test_equal_values_hash_equal_across_types():
    values = [0, 1, -3, 2 ** 70, True, Fraction(1, 2), Fraction(-7, 3),
              Fraction(4, 2), QSqrt2(0), QSqrt2(1), QSqrt2(-3), QSqrt2(2 ** 70),
              QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(-7, 3)), QSqrt2(2),
              QSqrt2(0, 1), QSqrt2(Fraction(1, 2), 1), QSqrt2(2, 0) / 4]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({QSqrt2(1), 1, Fraction(1)}) == 1
    assert len({QSqrt2(Fraction(1, 2)), Fraction(1, 2), QSqrt2(1) / 2}) == 1


def test_constructor_refuses_anything_but_int_and_fraction():
    for bad in (0.1, 1.0, "1", "1/2", None, 1j):
        for make in (lambda: QSqrt2(bad), lambda: QSqrt2(0, bad),
                     lambda: QSqrt2(1) + bad, lambda: QSqrt2(1) * bad,
                     lambda: QSqrt2(1) < bad, lambda: Mat(1, 1, [bad])):
            with pytest.raises(TypeError):
                make()
    assert QSqrt2(1) != 1.0 and QSqrt2(1) != "1"


def test_values_refuse_attribute_writes_and_deletes():
    for value, attrs in ((QSqrt2(1, 2), ("xyd",)), (ZERO, ("xyd",)),
                         (Mat.identity(2), ("rows", "cols", "entries")),
                         (GaussianInt(3, 4), ("re", "im"))):
        for attr in attrs:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, attr, getattr(value, attr))
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(value, attr)
    assert ZERO + 1 == 1 and ZERO.xyd == (0, 0, 1)


def rescaled_every_entry(qs):
    """``_scaled`` as it was before it kept shared numerators: every
    entry rescaled to the lcm of the denominators, kept as its oracle."""
    d = math.lcm(*(e for _, _, e in (q.xyd for q in qs)))
    return (d, [x * (d // e) for x, _, e in (q.xyd for q in qs)],
            [y * (d // e) for _, y, e in (q.xyd for q in qs)])


@st.composite
def over_one_denominator(draw):
    """Reduced entries whose denominators all equal one d, d = 1 included:
    (k d + 1 + y sqrt2)/d is reduced for every k and y."""
    d = draw(st.sampled_from([1, 1, 2, 3, 12, 2 ** 70]))
    pairs = st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(-99, 99))
    return [_reduced(k * d + 1, y, d)
            for k, y in draw(st.lists(pairs, min_size=1, max_size=25))]


MIXED_ENTRIES = st.lists(
    st.builds(QSqrt2, st.fractions(max_denominator=36),
              st.fractions(max_denominator=36)), min_size=1, max_size=25)


@given(st.one_of(over_one_denominator(), MIXED_ENTRIES))
@settings(max_examples=300, deadline=None)
@example([])
@example([QSqrt2(Fraction(1, 2))])
@example([QSqrt2(1), QSqrt2(Fraction(1, 2), 1)])
@example(list(Q_SIGMA.entries))
def test_scaled_matches_rescaling_every_entry(qs):
    d, xs, ys = _scaled(qs)
    assert (d, list(xs), list(ys)) == rescaled_every_entry(qs)
    if len({q.xyd[2] for q in qs}) == 1:  # shared: the numerators as they are
        assert (d, tuple(xs), tuple(ys)) == (
            qs[0].xyd[2], *(tuple(t) for t in zip(*(q.xyd[:2] for q in qs))))


@given(st.one_of(st.integers(-2 ** 90, 2 ** 90), st.booleans(),
                 st.fractions(), st.builds(QSqrt2, st.fractions(),
                                           st.fractions())))
@example(0)
@example(True)
@example(Fraction(6, 4))
def test_coerce_keeps_the_value_and_reduces_it(x):
    q = QSqrt2.coerce(x)
    if isinstance(x, QSqrt2):
        assert q is x
    else:
        assert q == x
        assert q.xyd == QSqrt2(x).xyd == (x.numerator, 0, x.denominator)
    assert all(type(p) is int for p in q.xyd)
    assert q.xyd[2] > 0 and math.gcd(*q.xyd) == 1


def test_transpose_moves_the_entries():
    m = Mat(2, 3, [1, SQRT2, Fraction(1, 2), -4, 0, QSqrt2(2, 3)])
    t = m.transpose()
    assert t.shape == (3, 2) and t.transpose() == m
    assert all(t[j, i] is m[i, j] for i in range(2) for j in range(3))
    assert Mat(0, 2, []).transpose().shape == (2, 0)
