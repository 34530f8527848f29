import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthoplex import arithmetic
from orthoplex.arithmetic import (
    DISCRIMINANT_FORM, GaussianInt, MobiusPair,
    ObstructionClass, QuaternaryForm, bend_from_xi, complete_pair,
    conjugate_by_J, degenerate_eigenvectors, discriminant, enumerate_mod8,
    epsilon_of, gaussian_xgcd, in_level2_subgroup,
    is_isotropic_at, is_positive_definite, local_classes, primes_below,
    qform_from_bend_vector, spin, stabilizer_from_spin,
)
from orthoplex.config import BendVector, F0, F1, F7D
from orthoplex.groups import APOLLONIAN, apply, element, ordering_element
from orthoplex.packing import orbit_bend_vectors
from orthoplex.ring import Mat

from conftest import EXPECTED_MOD8_REPRESENTATIVES

GI = GaussianInt
I = GI(0, 1)

BAR_GENERATORS = {
    "S238": MobiusPair(I, GI(0), GI(0), -I),
    "S278": MobiusPair(GI(1), GI(0), GI(2), GI(1)),
    "S274": MobiusPair(I, GI(0), GI(2), -I),
    "S674": MobiusPair(GI(1, 2), GI(2), GI(2), GI(1, -2)),
    "S638": MobiusPair(GI(1), GI(2), GI(0), GI(1)),
    "S634": MobiusPair(I, GI(2), GI(0), -I),
    "S678": MobiusPair(GI(2, 1), GI(2), GI(2), GI(2, -1)),
}

HAT_LITERALS = {
    "S238": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, -1, 0, 0),
             (0, 0, 0, -1, 0), (0, 0, 0, 0, 1)),
    "S278": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 2, 1, 0, 0),
             (0, 0, 0, 1, 0), (0, 4, 4, 0, 1)),
    "S274": ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, -1, 0, 0),
             (0, -2, 0, -1, 0), (0, 4, 0, 4, 1)),
    "S674": ((1, 0, 0, 0, 0), (0, 5, 4, 8, 4), (0, 2, 1, 4, 2),
             (0, -4, -4, -7, -4), (0, 4, 4, 8, 5)),
    "S638": ((1, 0, 0, 0, 0), (0, 1, 4, 0, 4), (0, 0, 1, 0, 2),
             (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    "S634": ((1, 0, 0, 0, 0), (0, 1, 0, 4, 4), (0, 0, -1, 0, 0),
             (0, 0, 0, -1, -2), (0, 0, 0, 0, 1)),
    "S678": ((1, 0, 0, 0, 0), (0, 5, 8, 4, 4), (0, 4, 7, 4, 4),
             (0, -2, -4, -1, -2), (0, 4, 8, 4, 5)),
}


# ---------------------------------------------------------------------------
# obstruction class


def test_epsilon_of_standard_configuration():
    obs = epsilon_of((0, 0, 1, 1, 2, 2, 1, 1))
    assert obs.epsilon == 1 and obs.forbidden_residue == 3


def test_epsilon_of_v1():
    obs = epsilon_of((2, 2, 3, -1, 4, 4, 3, 7))
    assert obs.epsilon == -1 and obs.forbidden_residue == 1


def test_epsilon_of_builtin_bend_vectors():
    assert epsilon_of(F0.bend_vector().bends8()).epsilon == 1
    assert epsilon_of(F7D.bend_vector().bends8()).epsilon == 1
    assert epsilon_of(F1.bend_vector().bends8()).epsilon == -1


def test_epsilon_rejects_even_tuple():
    with pytest.raises(ValueError):
        epsilon_of((0, 0, 2, 2, 2, 2, 2, 2))


def test_obstruction_admits():
    obs = ObstructionClass(-1)
    assert obs.forbidden_residue == 1
    assert obs.admits(4) and obs.admits(3) and not obs.admits(5)


# ---------------------------------------------------------------------------
# mod-8 filtration


def test_mod8_filtration_counts_and_lists():
    rep = enumerate_mod8()
    assert rep.solutions_mod8 == 3584
    assert rep.tuples8 == 1792
    assert rep.after_even_removal == 1536
    assert rep.after_pair_ordering == 240
    assert rep.after_full_ordering == 24
    assert rep.representatives == EXPECTED_MOD8_REPRESENTATIVES
    assert rep.mod4_classes == ((0, 0, 1, 1, 2, 2, 1, 1),
                                (0, 0, 3, 3, 2, 2, 3, 3))


# ---------------------------------------------------------------------------
# Gaussian integers


def test_gaussian_divmod_is_euclidean():
    r = random.Random(3)
    for _ in range(500):
        a = GI(r.randint(-50, 50), r.randint(-50, 50))
        b = GI(r.randint(-50, 50), r.randint(-50, 50))
        if not b:
            continue
        q, rem = divmod(a, b)
        assert q * b + rem == a
        assert rem.norm() < b.norm()


def test_gaussian_xgcd_identity():
    r = random.Random(4)
    for _ in range(200):
        a = GI(r.randint(-30, 30), r.randint(-30, 30))
        b = GI(r.randint(-30, 30), r.randint(-30, 30))
        g, u, v = gaussian_xgcd(a, b)
        assert u * a + v * b == g


def test_mobius_pair_determinant_enforced():
    with pytest.raises(ValueError):
        MobiusPair(GI(1), GI(0), GI(0), GI(2))


# ---------------------------------------------------------------------------
# change of variables and spin


def test_conjugate_by_j_matches_hat_literals():
    for lab, hat in HAT_LITERALS.items():
        got = conjugate_by_J(element("Stabilizer1Oriented", (lab,)))
        assert got == hat, lab


def test_conjugate_by_j_identity():
    assert conjugate_by_J(Mat.identity(5)) == tuple(
        tuple(1 if i == j else 0 for j in range(5)) for i in range(5))


def test_conjugate_by_j_rejects_non_integral_conjugates():
    # matrices outside the orthogonal group's parity class leave Z^5
    shear = Mat.from_rows([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    with pytest.raises(ValueError):
        conjugate_by_J(shear)


def test_spin_of_bar_generators_matches_hats():
    for lab, pair in BAR_GENERATORS.items():
        assert spin(pair) == HAT_LITERALS[lab], lab


def test_spin_identity():
    ident = MobiusPair(GI(1), GI(0), GI(0), GI(1))
    assert spin(ident) == tuple(
        tuple(1 if i == j else 0 for j in range(5)) for i in range(5))


def _random_unimodular(r: random.Random, steps: int = 6) -> MobiusPair:
    m = MobiusPair(GI(1), GI(0), GI(0), GI(1))
    for _ in range(steps):
        x = GI(r.randint(-2, 2), r.randint(-2, 2))
        if r.random() < 0.5:
            e = MobiusPair(GI(1), x, GI(0), GI(1))
        else:
            e = MobiusPair(GI(1), GI(0), x, GI(1))
        m = m * e
    return m


def test_spin_is_a_homomorphism():
    r = random.Random(11)
    for _ in range(1000):
        m1 = _random_unimodular(r)
        m2 = _random_unimodular(r)
        lhs = Mat.from_rows(spin(m1 * m2))
        rhs = Mat.from_rows(spin(m1)) * Mat.from_rows(spin(m2))
        assert lhs == rhs


def test_spin_kills_negation_and_preserves_form():
    r = random.Random(12)
    for _ in range(200):
        m = _random_unimodular(r)
        s = Mat.from_rows(spin(m))
        assert spin(m.neg()) == spin(m)
        assert s.transpose() * DISCRIMINANT_FORM * s == DISCRIMINANT_FORM
        assert s.det().rat == 1


def test_stabilizer_from_spin_inverts_conjugation():
    from orthoplex.groups import STABILIZER1_ORIENTED
    for lab, pair in BAR_GENERATORS.items():
        assert stabilizer_from_spin(pair) == STABILIZER1_ORIENTED[lab]


# ---------------------------------------------------------------------------
# congruence subgroup


def test_generators_are_in_level2_subgroup():
    for lab, pair in BAR_GENERATORS.items():
        assert in_level2_subgroup(pair), lab


def test_level2_negative_and_positive_cases():
    assert not in_level2_subgroup(MobiusPair(GI(1), GI(1), GI(0), GI(1)))
    assert in_level2_subgroup(MobiusPair(I, GI(0), GI(0), -I))
    # projective: negation does not change membership
    assert in_level2_subgroup(MobiusPair(I, GI(0), GI(0), -I).neg())


def _word(*labs: str) -> MobiusPair:
    out = None
    for lab in labs:
        next_ = BAR_GENERATORS[lab[:-2]].inverse() if lab.endswith("-1") \
            else BAR_GENERATORS[lab]
        out = next_ if out is None else out * next_
    return out


def test_small_matrix_words():
    # every congruent matrix with one entry of modulus 2 and the claimed
    # word over the bar generators, checked projectively
    cases = [
        (MobiusPair(I, GI(0), GI(0), -I), _word("S238")),
        (MobiusPair(GI(1), GI(0), GI(2), GI(1)), _word("S278")),
        (MobiusPair(GI(1), GI(0), GI(-2), GI(1)), _word("S278-1")),
        (MobiusPair(I, GI(0), GI(2), -I), _word("S274")),
        (MobiusPair(I, GI(0), GI(-2), -I), _word("S238", "S274", "S238")),
        (MobiusPair(GI(1), GI(2), GI(0), GI(1)), _word("S638")),
        (MobiusPair(GI(1), GI(-2), GI(0), GI(1)), _word("S638-1")),
        (MobiusPair(I, GI(2), GI(0), -I), _word("S634")),
        (MobiusPair(I, GI(-2), GI(0), -I), _word("S238", "S634", "S238")),
        (MobiusPair(GI(1), GI(0), GI(0, 2), GI(1)), _word("S238", "S274")),
        (MobiusPair(GI(1), GI(0), GI(0, -2), GI(1)),
         _word("S238", "S274").inverse()),
        (MobiusPair(I, GI(0), GI(0, 2), -I), _word("S238", "S278-1")),
        (MobiusPair(I, GI(0), GI(0, -2), -I), _word("S238", "S278")),
        (MobiusPair(GI(1), GI(0, 2), GI(0), GI(1)),
         _word("S238", "S634").inverse()),
        (MobiusPair(GI(1), GI(0, -2), GI(0), GI(1)), _word("S238", "S634")),
        (MobiusPair(I, GI(0, 2), GI(0), -I), _word("S238", "S638")),
        (MobiusPair(I, GI(0, -2), GI(0), -I), _word("S238", "S638-1")),
    ]
    assert len(cases) == 17
    for target, produced in cases:
        assert target.projectively_equals(produced), target
        assert in_level2_subgroup(target)


def test_complete_pair_lands_in_subgroup():
    r = random.Random(21)
    done = 0
    while done < 100:
        alpha = GI(r.randint(-6, 6), r.randint(-6, 6))
        beta = GI(2 * r.randint(-3, 3), 2 * r.randint(-3, 3))
        if (alpha.re + alpha.im) % 2 != 1:
            continue
        g, _, _ = gaussian_xgcd(alpha, beta)
        if not g.is_unit():
            continue
        pair = complete_pair(alpha, beta)
        assert pair.alpha == alpha and pair.beta == beta
        assert in_level2_subgroup(pair)
        done += 1


def test_complete_pair_rejects_bad_congruence():
    with pytest.raises(ValueError):
        complete_pair(GI(2), GI(0))
    with pytest.raises(ValueError):
        complete_pair(GI(1), GI(1))


# ---------------------------------------------------------------------------
# quaternary form


def test_qform_of_f1():
    q = qform_from_bend_vector(F1.bend_vector())
    assert (q.A, q.B, q.C, q.D) == (4, 0, -4, 5)
    assert q.B ** 2 + q.C ** 2 - q.A * q.D == -4


def test_qform_of_f0():
    q = qform_from_bend_vector(F0.bend_vector())
    assert (q.A, q.B, q.C, q.D) == (0, 0, 0, 1)
    assert q.B ** 2 + q.C ** 2 - q.A * q.D == 0


def test_qform_of_f7d():
    q = qform_from_bend_vector(F7D.bend_vector())
    assert q.B ** 2 + q.C ** 2 - q.A * q.D == -400


def test_qform_rejects_odd_sum():
    with pytest.raises(ValueError):
        qform_from_bend_vector(BendVector((1, 0, 0, 0, 0)))


def test_quaternary_invariant_enforced():
    with pytest.raises(ValueError):
        QuaternaryForm(A=1, B=1, C=1, D=1, shift_b=0)


def test_discriminants():
    assert discriminant(qform_from_bend_vector(F1.bend_vector())) == 256
    assert discriminant(qform_from_bend_vector(F0.bend_vector())) == 0
    assert discriminant(qform_from_bend_vector(F7D.bend_vector())) == 40 ** 4


def test_definiteness():
    assert is_positive_definite(qform_from_bend_vector(F1.bend_vector()))
    assert is_positive_definite(qform_from_bend_vector(F7D.bend_vector()))
    assert not is_positive_definite(qform_from_bend_vector(F0.bend_vector()))


def test_degenerate_eigenvectors_annihilated():
    q = qform_from_bend_vector(F0.bend_vector())
    m = q.matrix()
    for eta in degenerate_eigenvectors(q):
        image = tuple(sum(m[i][j] * eta[j] for j in range(4)) for i in range(4))
        assert image == (0, 0, 0, 0)
        assert q.value(eta) == 0


def test_isotropy_examples():
    q1 = qform_from_bend_vector(F1.bend_vector())
    ok, wit = is_isotropic_at(q1, 2)
    assert ok and q1.value(wit) % 2 == 0 and any(wit)
    ok, wit = is_isotropic_at(q1, 7)
    assert ok and q1.value(wit) % 7 == 0 and any(wit)
    q7 = qform_from_bend_vector(F7D.bend_vector())
    ok, wit = is_isotropic_at(q7, 5)
    assert ok and q7.value(wit) % 5 == 0 and any(wit)


def exhaustive_isotropy(q: QuaternaryForm, p: int):
    """Independent oracle: scan (Z/p)^4 for a nonzero root, first hit wins."""
    if not arithmetic._is_prime(p):
        raise ValueError(f"{p} is not prime")
    rng = np.arange(p, dtype=np.int64)
    a2, b1, b2 = np.meshgrid(rng, rng, rng, indexing="ij")
    for a1 in range(p):
        vals = (q.A * (a1 * a1 + a2 * a2)
                + 2 * q.B * (a1 * b1 + a2 * b2)
                + 2 * q.C * (a2 * b1 - a1 * b2)
                + q.D * (b1 * b1 + b2 * b2)) % p
        hit = np.argwhere(vals == 0)
        for h in hit:
            w = (a1, int(h[0]), int(h[1]), int(h[2]))
            if any(w):
                return True, w
    return False, None


def test_isotropy_rejects_composites():
    q = qform_from_bend_vector(F1.bend_vector())
    with pytest.raises(ValueError):
        is_isotropic_at(q, 6)
    with pytest.raises(ValueError):
        exhaustive_isotropy(q, 9)


def test_isotropy_agrees_with_exhaustive_oracle():
    primes = [p for p in range(2, 100)
              if all(p % d for d in range(2, p))]
    for f in (F0, F1, F7D):
        q = qform_from_bend_vector(f.bend_vector())
        for p in primes:
            fast, wit = is_isotropic_at(q, p)
            slow, _ = exhaustive_isotropy(q, p)
            assert fast and slow, (f, p)
            assert q.value(wit) % p == 0 and any(x % p for x in wit)


def test_local_classes_examples():
    q1 = qform_from_bend_vector(F1.bend_vector())
    assert local_classes(q1) == {0}  # (b + b2) mod 4 = 0
    q0 = qform_from_bend_vector(F0.bend_vector())
    assert local_classes(q0) == {0}
    assert len(local_classes(q1, restricted=False)) > 1


def reference_isotropic_at(q: QuaternaryForm, p: int):
    """is_isotropic_at as it was before its witnesses were taken directly
    and its square-root table was cached: it searches seven vectors at
    p = 2 and both degenerate eigenvectors at p dividing b, and rebuilds
    the table on every call."""
    def ok(w):
        w = tuple(x % p for x in w)
        return w if any(w) and q.value(w) % p == 0 else None

    if p == 2:
        for w in ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1),
                  (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)):
            got = ok(w)
            if got:
                return True, got
        return False, None
    if q.A % p == 0:
        return True, (1, 0, 0, 0)
    if q.shift_b % p == 0:
        for w in degenerate_eigenvectors(q):
            got = ok(w)
            if got:
                return True, got
        got = ok((1, 0, 0, 0))
        return (True, got) if got else (False, None)
    m = (q.A * q.D - q.B * q.B - q.C * q.C) % p
    squares = {}
    for u in range(p):
        squares.setdefault(u * u % p, u)
    for u1 in range(p):
        rhs = (-m - u1 * u1) % p
        if rhs in squares:
            u2 = squares[rhs]
            ainv = pow(q.A, -1, p)
            got = ok(((u1 - q.B) * ainv % p, (u2 - q.C) * ainv % p, 1, 0))
            if got:
                return True, got
    return False, None


def reference_local_classes(q: QuaternaryForm, restricted: bool = True):
    """local_classes as it was before the eta monomials were precomputed."""
    out = set()
    for a1, a2, b1, b2 in itertools.product(range(4), repeat=4):
        if restricted:
            if (a1 + a2) % 2 == 0:
                continue
            if b1 % 2 or b2 % 2:
                continue
        out.add(q.value((a1, a2, b1, b2)) % 4)
    return out


def oracle_forms():
    vectors = (orbit_bend_vectors(F1, 68) + orbit_bend_vectors(F7D, 68)
               + [bv for bv in orbit_bend_vectors(F0, 68) if bv[0] == 0])
    return [qform_from_bend_vector(bv) for bv in vectors]


def ordering_forms():
    """The forms of every ordering of the builtins: unlike ``oracle_forms``
    they have b < 0 and negative B and C, also where p divides A or b."""
    return [qform_from_bend_vector(apply(ordering_element(k), f).bend_vector())
            for f in (F0, F1, F7D) for k in range(1, 9)]


def test_isotropy_and_local_classes_match_references():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    forms = oracle_forms()
    assert len(forms) == 400 + 28 + 142
    forms += ordering_forms()
    negative_branches = set()
    for q in forms:
        for p in primes:
            assert is_isotropic_at(q, p) == reference_isotropic_at(q, p), (q, p)
            if p > 2 and min(q.B, q.C, q.shift_b) < 0:
                if q.A % p == 0:
                    negative_branches.add("A")
                elif q.shift_b % p == 0:
                    negative_branches.add("b")
        for restricted in (True, False):
            assert (local_classes(q, restricted)
                    == reference_local_classes(q, restricted)), q
    assert negative_branches == {"A", "b"}
    # the (u1, u2) memo and the primality test are cached, each with a bound
    for cached in (arithmetic._two_squares, arithmetic._is_prime):
        assert cached.cache_info().maxsize is not None, cached


def least_two_squares(p: int):
    """Brute-force oracle: r -> the least (u1, u2), ordered by u1 and then
    u2, with u1^2 + u2^2 = r (mod p), read off the first occurrence of each
    r in the row-major table of all p^2 pairs."""
    u = np.arange(p, dtype=np.int64)
    sums = (u[:, None] ** 2 + u[None, :] ** 2) % p
    vals, first = np.unique(sums.ravel(), return_index=True)
    return {int(r): divmod(int(i), p) for r, i in zip(vals, first)}


def test_two_squares_is_the_least_pair():
    for p in primes_below(600)[1:]:
        want = least_two_squares(p)
        assert len(want) == p
        for r in range(p):
            assert arithmetic._two_squares(p, r) == want[r], (p, r)


def test_sqrt_mod_is_the_least_root():
    # p = 3 (mod 4) and p = 1 (mod 4), including 2-adic depths 2 to 5
    for p in (3, 7, 11, 5, 13, 17, 41, 97, 193, 257):
        roots = {}
        for s in range(p):
            roots.setdefault(s * s % p, s)
        for x, s in roots.items():
            assert arithmetic._sqrt_mod(x, p) == s, (p, x)


def test_form_value_takes_integers_only():
    q1 = qform_from_bend_vector(F1.bend_vector())
    assert (q1.A, q1.B, q1.C, q1.D) == (4, 0, -4, 5)
    for bad in ((1.9, 0, 0, 0), (Fraction(1), 0, 0, 0), ("1", "0", "0", "0"),
                (0, 0, 0, 2.0)):
        with pytest.raises(TypeError):
            q1.value(bad)
    big = q1.value((np.int64(10 ** 9), 0, 0, 0))
    assert big == 4 * 10 ** 18 and type(big) is int
    # (3e9)^2 * 4 is past int64, so numpy arithmetic would wrap
    huge = q1.value((np.int64(3 * 10 ** 9), 0, 0, 0))
    assert huge == 36 * 10 ** 18 and type(huge) is int
    assert q1.value((True, 0, 0, 0)) == q1.value((1, 0, 0, 0)) == 4


def test_gaussian_parts_are_integers():
    for re, im in ((1.7, 0.2), (1.0, 0), (Fraction(1), 0), (0, "1")):
        with pytest.raises(TypeError):
            GaussianInt(re, im)
    z = GaussianInt(np.int64(3), np.int64(-4))
    assert z == GaussianInt(3, -4)
    assert type(z.re) is int and type(z.im) is int and z.norm() == 25


def test_primes_below():
    for n in (-3, 0, 1, 2):
        assert primes_below(n) == []
    assert primes_below(3) == [2]
    assert primes_below(12) == [2, 3, 5, 7, 11]
    assert primes_below(1000) == [p for p in range(1000)
                                  if arithmetic._is_prime(p)]


def leibniz_det(m):
    """Sum over permutations of signed products: an independent oracle."""
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(4) for j in range(i + 1, 4))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@st.composite
def int_matrices(draw):
    """Integer 4x4 matrices with entries up to 2^80; every third or so is
    made singular by setting one row to a combination of two others."""
    entries = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
    m = [[draw(entries) for _ in range(4)] for _ in range(4)]
    if draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(4)))[:3]
        s, t = draw(entries), draw(entries)
        m[k] = [s * x + t * y for x, y in zip(m[i], m[j])]
    return m


@given(int_matrices())
@settings(max_examples=300, deadline=None)
@example([[1, 2, 3, 4]] * 4)
@example([[2 ** 100, 0, 0, 0], [0, -3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
def test_det4_matches_leibniz(m):
    assert arithmetic._det4(m) == leibniz_det(m)
    assert arithmetic._det4(tuple(map(tuple, m))) == leibniz_det(m)


def fraction_positive_definite(m):
    """Gaussian elimination over Fraction without pivoting: a symmetric
    matrix is positive definite exactly when every pivot is positive."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def divisors(n: int):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


@st.composite
def quaternary_forms(draw):
    """(A, B, C, b) with A dividing B^2 + C^2 + b^2, D by the identity."""
    B, C = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    b = draw(st.one_of(st.just(0), st.integers(-300, 300)))
    n = B * B + C * C + b * b
    if n:
        A = draw(st.sampled_from(divisors(n)))
    else:
        A = draw(st.integers(1, 50))
    A *= draw(st.sampled_from((1, -1)))
    return QuaternaryForm(A=A, B=B, C=C, D=n // A, shift_b=b)


@given(quaternary_forms())
@settings(max_examples=300, deadline=None)
@example(QuaternaryForm(A=-1, B=0, C=0, D=-1, shift_b=1))
@example(QuaternaryForm(A=-5, B=3, C=4, D=-10, shift_b=5))
@example(QuaternaryForm(A=2, B=1, C=1, D=1, shift_b=0))
@example(QuaternaryForm(A=4, B=0, C=-4, D=5, shift_b=2))
def test_definiteness_matches_fraction_elimination(q):
    assert is_positive_definite(q) == fraction_positive_definite(q.matrix())
    assert discriminant(q) == 16 * leibniz_det(q.matrix()) == (2 * q.shift_b) ** 4


@given(quaternary_forms())
@settings(max_examples=300, deadline=None)
@example(QuaternaryForm(A=1, B=0, C=0, D=1, shift_b=1))
@example(QuaternaryForm(A=2, B=1, C=1, D=1, shift_b=0))
@example(QuaternaryForm(A=-3, B=3, C=0, D=-6, shift_b=3))
def test_direct_witnesses_match_the_searches(q):
    # p = 2 and odd p dividing b, where is_isotropic_at takes its witness
    # without a search
    primes = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
    for p in [2] + [p for p in primes if q.shift_b % p == 0]:
        assert is_isotropic_at(q, p) == reference_isotropic_at(q, p), (q, p)


def test_bend_from_xi_identity_cases():
    bv = F1.bend_vector()
    assert bend_from_xi(bv, GI(1), GI(0)) == int(bv[1])
    assert bend_from_xi(bv, I, GI(0)) == int(bv[1])


def test_bend_from_xi_rejects_bad_congruence():
    bv = F1.bend_vector()
    with pytest.raises(ValueError):
        bend_from_xi(bv, GI(2), GI(0))
    with pytest.raises(ValueError):
        bend_from_xi(bv, GI(1), GI(1))


def test_bend_from_xi_matches_matrix_route_exhaustively():
    # every completable congruence pair with |alpha|, |beta| <= 5
    pairs = []
    for a1 in range(-5, 6):
        for a2 in range(-5, 6):
            if (a1 + a2) % 2 != 1 or a1 * a1 + a2 * a2 > 25:
                continue
            for b1 in range(-4, 5, 2):
                for b2 in range(-4, 5, 2):
                    if b1 * b1 + b2 * b2 > 25:
                        continue
                    alpha, beta = GI(a1, a2), GI(b1, b2)
                    g, _, _ = gaussian_xgcd(alpha, beta)
                    if g.is_unit():
                        pairs.append((alpha, beta))
    assert len(pairs) > 300
    for f in (F1, F7D):
        bv = f.bend_vector()
        bcol = [int(x) for x in bv]
        for alpha, beta in pairs:
            a5 = stabilizer_from_spin(complete_pair(alpha, beta))
            via_matrix = sum(a5[1][j] * bcol[j] for j in range(5))
            assert bend_from_xi(bv, alpha, beta) == via_matrix


def test_obstruction_soundness_random_orbit():
    # 10^4 random words per seed; every implied bend avoids -eps mod 4
    gens = np.array([np.array(m, dtype=np.int64)
                     for m in APOLLONIAN.values()])
    rng = np.random.default_rng(2718)
    for f in (F0, F1, F7D):
        bv = np.array(f.bend_vector(), dtype=np.int64)
        eps = epsilon_of(f.bend_vector().bends8()).epsilon
        forbidden = (-eps) % 4
        for _ in range(10_000):
            v = bv.copy()
            for k in rng.integers(0, 16, size=rng.integers(1, 13)):
                v = gens[k] @ v
            bends = np.concatenate([v[:4], 2 * v[4] - v[:4]])
            assert not np.any(bends % 4 == forbidden)
