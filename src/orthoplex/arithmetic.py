"""Local obstruction classes, the mod-8 residue filtration, the
change-of-variables / spin pipeline over Z[i], and the quaternary form
attached to a bend vector, with its discriminant, definiteness,
isotropy, and local residue classes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Set, Tuple

from .config import BendVector, FMatrix, descartes_form
from .groups import GroupElement, IntRows, _rows
from .ring import Mat, _immutable


# ---------------------------------------------------------------------------
# local obstruction mod 4


@dataclass(frozen=True)
class ObstructionClass:
    """epsilon in {+1, -1}; bends never hit -epsilon mod 4."""

    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")

    @property
    def forbidden_residue(self) -> int:
        return (-self.epsilon) % 4

    def admits(self, n: int) -> bool:
        return n % 4 != self.forbidden_residue


def _canonical_pairs_mod(tup8: Sequence[int], mod: int) -> Tuple[int, ...]:
    """Canonical form of an 8-tuple under signed permutations: sort each
    disjoint pair (b_k, b_{k+4}), then sort the four pairs."""
    pairs = sorted(tuple(sorted((tup8[k] % mod, tup8[k + 4] % mod)))
                   for k in range(4))
    return tuple(p[0] for p in pairs) + tuple(p[1] for p in pairs)


_PATTERN_PLUS = _canonical_pairs_mod((0, 0, 1, 1, 2, 2, 1, 1), 4)
_PATTERN_MINUS = _canonical_pairs_mod((0, 0, 3, 3, 2, 2, 3, 3), 4)


def epsilon_of(bends8: Sequence[int]) -> ObstructionClass:
    """The unique epsilon whose mod-4 pattern (0,0,eps,eps,2,2,eps,eps)
    matches the eight bends up to admissible reordering."""
    if len(bends8) != 8:
        raise ValueError("epsilon_of takes the eight bends of a configuration")
    canon = _canonical_pairs_mod(bends8, 4)
    if canon == _PATTERN_PLUS:
        return ObstructionClass(1)
    if canon == _PATTERN_MINUS:
        return ObstructionClass(-1)
    raise ValueError(
        f"no valid epsilon: bends {tuple(bends8)} do not reduce to a "
        "primitive configuration pattern mod 4"
    )


class WalkInputError(ValueError):
    """A seed, cap or budget that the walks cannot run on."""


def seed_bend_vector(seed: FMatrix) -> BendVector:
    try:
        return seed.bend_vector()
    except ValueError:
        raise WalkInputError(
            "bend walks and the mod-4 obstruction need an integral seed"
        ) from None


def seed_obstruction(seed: FMatrix) -> Tuple[BendVector, ObstructionClass]:
    """The integral bend vector of ``seed`` and its mod-4 obstruction,
    which is defined only for primitive configurations."""
    bv = seed_bend_vector(seed)
    if not bv.is_primitive():
        raise WalkInputError(
            "the mod-4 obstruction needs a primitive seed: its bends "
            f"{tuple(bv)} share a factor")
    return bv, epsilon_of(bv.bends8())


# ---------------------------------------------------------------------------
# mod-8 enumeration


@dataclass(frozen=True)
class FiltrationReport:
    solutions_mod8: int
    tuples8: int
    after_even_removal: int
    after_pair_ordering: int
    representatives: Tuple[Tuple[int, ...], ...]
    mod4_classes: Tuple[Tuple[int, ...], ...]

    @property
    def after_full_ordering(self) -> int:
        return len(self.representatives)


def enumerate_mod8() -> FiltrationReport:
    """Brute-force the Descartes cone over Z/8 and filter down to the two
    mod-4 classes behind the local obstruction.

    Stages: all 5-vectors mod 8 on the cone; expansion to 8-tuples via
    complements (two mu per doubled value collapse); removal of all-even
    tuples; one representative per pair ordering b_k <= b_{k+4}; then
    per full ordering b_1 <= ... <= b_4; finally reduction mod 4 with
    signed-permutation dedupe.
    """
    sols5 = [v for v in itertools.product(range(8), repeat=5)
             if descartes_form(v) % 8 == 0]
    tuples8 = set()
    for b1, b2, b3, b4, mu in sols5:
        two_mu = 2 * mu
        tuples8.add((b1, b2, b3, b4,
                     (two_mu - b1) % 8, (two_mu - b2) % 8,
                     (two_mu - b3) % 8, (two_mu - b4) % 8))
    not_even = {t for t in tuples8 if any(x % 2 for x in t)}
    pair_ordered = {t for t in not_even
                    if all(t[k] <= t[k + 4] for k in range(4))}
    reps = tuple(sorted(t for t in pair_ordered
                        if t[0] <= t[1] <= t[2] <= t[3]))
    mod4 = tuple(sorted({_canonical_pairs_mod(t, 4) for t in reps}))
    return FiltrationReport(
        solutions_mod8=len(sols5),
        tuples8=len(tuples8),
        after_even_removal=len(not_even),
        after_pair_ordering=len(pair_ordered),
        representatives=reps,
        mod4_classes=mod4,
    )


# ---------------------------------------------------------------------------
# Gaussian integers and the spin pipeline


class GaussianInt:
    """An element of Z[i] with arbitrary-precision components; each part
    goes through ``operator.index``, so a float, ``Fraction`` or str is
    refused rather than truncated."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        object.__setattr__(self, "re", operator.index(re))
        object.__setattr__(self, "im", operator.index(im))

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def coerce(cls, x) -> "GaussianInt":
        if isinstance(x, GaussianInt):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianInt")

    def __eq__(self, other) -> bool:
        other = GaussianInt.coerce(other) if isinstance(other, int) else other
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        other = GaussianInt.coerce(other)
        return GaussianInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianInt.coerce(other))

    def __mul__(self, other):
        other = GaussianInt.coerce(other)
        return GaussianInt(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __divmod__(self, other: "GaussianInt"):
        other = GaussianInt.coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("Gaussian division by zero")
        num = self * other.conj()

        def nearest(a: int) -> int:  # floor(a/n + 1/2)
            return (2 * a + n) // (2 * n)

        q = GaussianInt(nearest(num.re), nearest(num.im))
        return q, self - q * other

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{self.im:+}i"

    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"


GI_ZERO = GaussianInt(0, 0)
GI_ONE = GaussianInt(1, 0)
GI_I = GaussianInt(0, 1)


def gaussian_xgcd(a: GaussianInt, b: GaussianInt):
    """(g, u, v) with u*a + v*b = g, via the nearest-rounding Euclid."""
    r0, r1 = a, b
    u0, u1 = GI_ONE, GI_ZERO
    v0, v1 = GI_ZERO, GI_ONE
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return r0, u0, v0


@dataclass(frozen=True)
class MobiusPair:
    """A unimodular 2x2 matrix over Z[i], identified with its negation."""

    alpha: GaussianInt
    beta: GaussianInt
    gamma: GaussianInt
    delta: GaussianInt

    def __post_init__(self):
        for f in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, f, GaussianInt.coerce(getattr(self, f)))
        if self.alpha * self.delta - self.beta * self.gamma != GI_ONE:
            raise ValueError("Moebius pair must have determinant 1")

    def __mul__(self, other: "MobiusPair") -> "MobiusPair":
        a, b, c, d = self.alpha, self.beta, self.gamma, self.delta
        e, f, g, h = other.alpha, other.beta, other.gamma, other.delta
        return MobiusPair(a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h)

    def neg(self) -> "MobiusPair":
        return MobiusPair(-self.alpha, -self.beta, -self.gamma, -self.delta)

    def inverse(self) -> "MobiusPair":
        return MobiusPair(self.delta, -self.beta, -self.gamma, self.alpha)

    def projectively_equals(self, other: "MobiusPair") -> bool:
        return self == other or self == other.neg()


def _mod2_class(z: GaussianInt) -> Tuple[int, int]:
    return (z.re % 2, z.im % 2)


def in_level2_subgroup(m: MobiusPair) -> bool:
    """Membership in the level-2 congruence subgroup: congruent mod 2 to
    a diagonal matrix diag(1,1) or diag(i,i), projectively."""
    if _mod2_class(m.beta) != (0, 0) or _mod2_class(m.gamma) != (0, 0):
        return False
    a, d = _mod2_class(m.alpha), _mod2_class(m.delta)
    return (a == d == (1, 0)) or (a == d == (0, 1))


def _alpha_parity_ok(alpha: GaussianInt) -> bool:
    return (alpha.re + alpha.im) % 2 == 1


def _beta_even(beta: GaussianInt) -> bool:
    return beta.re % 2 == 0 and beta.im % 2 == 0


def complete_pair(alpha: GaussianInt, beta: GaussianInt) -> MobiusPair:
    """Extend (alpha, beta) meeting the level-2 congruences to a full
    element of the congruence subgroup."""
    alpha, beta = GaussianInt.coerce(alpha), GaussianInt.coerce(beta)
    if not (_alpha_parity_ok(alpha) and _beta_even(beta)):
        raise ValueError("pair violates the congruence alpha = 1 or i, "
                         "beta = 0 (mod 2)")
    g, u, v = gaussian_xgcd(alpha, beta)
    if not g.is_unit():
        raise ValueError(f"gcd({alpha}, {beta}) is not a unit; "
                         "no unimodular completion exists")
    ginv = g.conj()  # inverse of a unit
    delta, gamma = u * ginv, -(v * ginv)
    # shift rows by t*(alpha, beta) to force gamma even; alpha is its own
    # inverse mod 2, so t = gamma * alpha works
    t = GaussianInt((gamma * alpha).re % 2, (gamma * alpha).im % 2)
    gamma = gamma - t * alpha
    delta = delta - t * beta
    pair = MobiusPair(alpha, beta, gamma, delta)
    if not in_level2_subgroup(pair):
        raise ValueError("completion left the congruence subgroup")
    return pair


def spin(m: MobiusPair) -> IntRows:
    """The spin image: a 5x5 integer matrix acting on (b, A, B, C, D),
    fixing the bend coordinate and preserving the discriminant form."""
    a, b, c, d = m.alpha, m.beta, m.gamma, m.delta
    ac, bc, cc, dc = a.conj(), b.conj(), c.conj(), d.conj()
    row1 = (0, (ac * a).re, 2 * (bc * a).re, 2 * (bc * a).im, (bc * b).re)
    row2 = (0, (ac * c).re, (bc * c + dc * a).re, (dc * a + bc * c).im,
            (bc * d).re)
    row3 = (0, (ac * c).im, (bc * c - dc * a).im, (dc * a - bc * c).re,
            (bc * d).im)
    row4 = (0, (cc * c).re, 2 * (dc * c).re, 2 * (dc * c).im, (dc * d).re)
    return _rows((1, 0, 0, 0, 0), row1, row2, row3, row4)


J_CHANGE_OF_VARIABLES = Mat.from_rows([
    [1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), 1],
    [Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2), 0],
    [1, 0, 1, 0, 0],
])

# Gram matrix of 2*b^2 + 2*(B^2 + C^2 - A*D) on (b, A, B, C, D)
DISCRIMINANT_FORM = Mat.from_rows([
    [2, 0, 0, 0, 0],
    [0, 0, 0, 0, -1],
    [0, 0, 2, 0, 0],
    [0, 0, 0, 2, 0],
    [0, -1, 0, 0, 0],
])


def conjugate_by_J(g) -> IntRows:
    """J g J^-1 for a stabilizer element, a ``GroupElement`` or a ``Mat``;
    integer by construction, and a non-integer result signals that g was
    outside the oriented stabilizer."""
    gm = g.mat() if isinstance(g, GroupElement) else g
    res = J_CHANGE_OF_VARIABLES * gm * J_CHANGE_OF_VARIABLES.inverse()
    if not res.is_integer():
        raise ValueError("conjugation by J left the integers; the element "
                         "is outside the oriented sphere stabilizer")
    return _rows(*res.to_int_rows())


def stabilizer_from_spin(m: MobiusPair) -> IntRows:
    """Pull a spin image back to a sphere-stabilizer matrix: J^-1 rho(m) J.

    Integral exactly when m lies in the level-2 congruence subgroup."""
    rho = Mat.from_rows(spin(m))
    res = J_CHANGE_OF_VARIABLES.inverse() * rho * J_CHANGE_OF_VARIABLES
    if not res.is_integer():
        raise ValueError("spin image does not descend to an integral "
                         "stabilizer element; m is outside the congruence "
                         "subgroup")
    return _rows(*res.to_int_rows())


# ---------------------------------------------------------------------------
# the quaternary form of a bend vector


@dataclass(frozen=True)
class QuaternaryForm:
    """Coefficients (A, B, C, D) of the hermitian/quaternary form tied to
    a bend vector with first bend ``shift_b``."""

    A: int
    B: int
    C: int
    D: int
    shift_b: int

    def __post_init__(self):
        if (self.B * self.B + self.C * self.C - self.A * self.D
                != -self.shift_b * self.shift_b):
            raise ValueError("coefficients violate the discriminant identity "
                             "B^2 + C^2 - A*D = -b^2")

    def matrix(self) -> Tuple[Tuple[int, ...], ...]:
        a, b, c, d = self.A, self.B, self.C, self.D
        return ((a, 0, b, -c), (0, a, c, b), (b, c, d, 0), (-c, b, 0, d))

    def value(self, eta: Sequence[int]) -> int:
        """Q_b(eta) as an exact Python int; non-int parts of eta go through
        ``operator.index``, so a float, ``Fraction`` or str is refused."""
        a1, a2, b1, b2 = eta
        if not (type(a1) is int and type(a2) is int and type(b1) is int
                and type(b2) is int):
            a1, a2, b1, b2 = map(operator.index, eta)
        return (self.A * (a1 * a1 + a2 * a2)
                + 2 * self.B * (a1 * b1 + a2 * b2)
                + 2 * self.C * (a2 * b1 - a1 * b2)
                + self.D * (b1 * b1 + b2 * b2))


def qform_from_bend_vector(bv: BendVector) -> QuaternaryForm:
    """The substitution A = b+b2, B = -(b+b2+b3+b4-2*b_mu)/2,
    C = -(b+b2+b3-b4)/2, D = b+b3."""
    b, b2, b3, b4, mu = bv
    if (b + b2 + b3 + b4) % 2:
        raise ValueError("not a bend vector: b1+b2+b3+b4 is odd")
    return QuaternaryForm(
        A=b + b2,
        B=-(b + b2 + b3 + b4 - 2 * mu) // 2,
        C=-(b + b2 + b3 - b4) // 2,
        D=b + b3,
        shift_b=b,
    )


def _det4(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer 4x4 matrix, by Laplace expansion along the
    first two rows: six products of complementary 2x2 minors.  Generic, so
    it checks ``discriminant`` rather than restating a closed form."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def discriminant(q: QuaternaryForm) -> int:
    """2^4 det(Q_b), which equals (2b)^4."""
    return 16 * _det4(q.matrix())


def is_positive_definite(q: QuaternaryForm) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    m = q.matrix()
    (a0, a1, a2, _), (b0, b1, b2, _), (c0, c1, c2, _), _ = m
    return (a0 > 0
            and a0 * b1 - a1 * b0 > 0
            and (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                 + a2 * (b0 * c1 - b1 * c0)) > 0
            and _det4(m) > 0)


def degenerate_eigenvectors(q: QuaternaryForm) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(C,-B,0,A) and (-B,-C,A,0); kernel vectors when shift_b = 0."""
    return (q.C, -q.B, 0, q.A), (-q.B, -q.C, q.A, 0)


def primes_below(n: int) -> List[int]:
    """The primes p < n, by the sieve of Eratosthenes."""
    if n < 3:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for f in range(2, math.isqrt(n - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, n, f)))
    return [p for p in range(n) if sieve[p]]


@functools.lru_cache(maxsize=1024)
def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def _sqrt_mod(x: int, p: int) -> int:
    """The least s with s^2 = x (mod p), for x in [0, p) a square mod the
    odd prime p, by Tonelli-Shanks: s = x^((p+1)/4) when p = 3 (mod 4),
    else the general loop over the 2-power part of p - 1.  The root is
    checked before it is returned."""
    if x == 0:
        return 0
    if p % 4 == 3:
        s = pow(x, (p + 1) // 4, p)
    else:
        q, e = p - 1, 0
        while q % 2 == 0:
            q, e = q // 2, e + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, t, s = pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (e - i - 1), p)
            e, c = i, b * b % p
            t, s = t * c % p, s * b % p
    if s * s % p != x:
        raise AssertionError(f"{s} is not a square root of {x} mod {p}")
    return min(s, p - s)


@functools.lru_cache(maxsize=4096)
def _two_squares(p: int, r: int) -> Tuple[int, int]:
    """The least u1, with the least u2 for it, such that u1^2 + u2^2 = r
    (mod p); every r has one when p is an odd prime.  u1 walks up from 0
    until r - u1^2 is a square by Euler's criterion, and ``_sqrt_mod``
    takes its least root, so no table of squares is kept."""
    half = (p - 1) // 2
    for u1 in range(p):
        x = (r - u1 * u1) % p
        if x == 0 or pow(x, half, p) == 1:
            return u1, _sqrt_mod(x, p)


def _root_mod(A: int, B: int, C: int, D: int, p: int,
              w: Sequence[int]) -> Tuple[int, ...]:
    """``w`` reduced mod p, checked to be a nonzero root of the form with
    coefficients (A, B, C, D) mod p."""
    a1, a2, b1, b2 = w = tuple(x % p for x in w)
    if not any(w) or (A * (a1 * a1 + a2 * a2)
                      + 2 * B * (a1 * b1 + a2 * b2)
                      + 2 * C * (a2 * b1 - a1 * b2)
                      + D * (b1 * b1 + b2 * b2)) % p:
        raise AssertionError(f"witness {w} is not a root mod {p}")
    return w


def is_isotropic_at(q: QuaternaryForm, p: int) -> Tuple[bool, Tuple[int, ...]]:
    """Whether the form has a nonzero root mod p, with a verified witness.

    No branch searches, and every witness is checked against the
    coefficients reduced mod p.  Mod 2 the form is A(a1 + a2) + D(b1 + b2),
    so the witness is (1, 0, 0, 0) for A even, else (0, 0, 1, 0) for D
    even, else (1, 0, 1, 0); for p dividing A it is (1, 0, 0, 0); for odd p
    dividing b, with A a unit, it is the degenerate eigenvector
    (C, -B, 0, A), a root because AD - B^2 - C^2 = b^2.  Away from the
    discriminant the root (alpha, 1) completes the square in the hermitian
    picture: A*alpha + B + iC = u1 + i*u2 with the least u1, and the least
    u2 for it, solving u1^2 + u2^2 = -b^2 (mod p).  ``_two_squares`` finds
    them by Euler's criterion and Tonelli-Shanks, with no per-prime table.
    Primality and those (u1, u2) per (p, -b^2 mod p) sit in LRU caches of
    1,024 and 4,096 entries.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    A = q.A % p

    if p == 2:
        # Q = A(a1 + a2) + D(b1 + b2) (mod 2)
        D = q.D % 2
        return True, _root_mod(A, q.B % 2, q.C % 2, D, 2,
                               (1, 0, 0, 0) if A == 0 else (0, 0, 1, 0)
                               if D == 0 else (1, 0, 1, 0))

    if A == 0:
        return True, (1, 0, 0, 0)

    B, C, D = q.B % p, q.C % p, q.D % p
    if q.shift_b % p == 0:
        # M (C, -B, 0, A) = (0, 0, 0, AD - B^2 - C^2) = (0, 0, 0, b^2)
        return True, _root_mod(A, B, C, D, p, degenerate_eigenvectors(q)[0])

    # p coprime to 2b: A*Q = |A*alpha + (B+iC)*beta|^2 + b^2*|beta|^2, so
    # pick beta = 1 and solve u1^2 + u2^2 = -b^2 (mod p)
    u1, u2 = _two_squares(p, (B * B + C * C - A * D) % p)
    ainv = pow(A, -1, p)
    ar = (u1 - B) * ainv % p
    ai = (u2 - C) * ainv % p
    if (A * (ar * ar + ai * ai) + 2 * (B * ar + C * ai) + D) % p:
        raise AssertionError(f"completed square is not a root mod {p}")
    return True, (ar, ai, 1, 0)


def bend_from_xi(bv: BendVector, alpha: GaussianInt, beta: GaussianInt) -> int:
    """The bend contributed by a congruence-subgroup column (alpha, beta):
    the explicit linear combination of the bend vector, which must agree
    with Q_b(eta) - b."""
    alpha, beta = GaussianInt.coerce(alpha), GaussianInt.coerce(beta)
    if not (_alpha_parity_ok(alpha) and _beta_even(beta)):
        raise ValueError("pair violates the congruence alpha = 1 or i, "
                         "beta = 0 (mod 2)")
    b, b2, b3, b4, mu = bv
    re_ab = (alpha.conj() * beta).re
    im_ba = (beta.conj() * alpha).im
    na, nb = alpha.norm(), beta.norm()
    direct = ((na - re_ab - im_ba + nb - 1) * b
              + (na - re_ab - im_ba) * b2
              + (-re_ab - im_ba + nb) * b3
              + (-re_ab + im_ba) * b4
              + 2 * re_ab * mu)
    q = qform_from_bend_vector(bv)
    eta = (alpha.re, alpha.im, beta.re, beta.im)
    via_form = q.value(eta) - b
    if direct != via_form:
        raise AssertionError("dual-route bend computation disagrees")
    return direct


# (a1^2+a2^2, a1b1+a2b2, a2b1-a1b2, b1^2+b2^2) mod 4 over eta mod 4, with
# and without the congruence lattice restriction
_ETA_MONOMIALS = {restricted: frozenset(
    ((a1 * a1 + a2 * a2) % 4, (a1 * b1 + a2 * b2) % 4,
     (a2 * b1 - a1 * b2) % 4, (b1 * b1 + b2 * b2) % 4)
    for a1, a2, b1, b2 in itertools.product(range(4), repeat=4)
    if not restricted or ((a1 + a2) % 2 and b1 % 2 == 0 and b2 % 2 == 0))
    for restricted in (False, True)}


def local_classes(q: QuaternaryForm, restricted: bool = True) -> Set[int]:
    """Values of the form mod 4 over eta mod 4; with the congruence
    lattice restriction this collapses to the single class b + b2."""
    a, b, c, d = q.A, 2 * q.B, 2 * q.C, q.D
    return {(a * m1 + b * m2 + c * m3 + d * m4) % 4
            for m1, m2, m3, m4 in _ETA_MONOMIALS[bool(restricted)]}
