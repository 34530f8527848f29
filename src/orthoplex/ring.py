"""Exact arithmetic over Q and Q[sqrt 2], plus small dense matrices.

An element of Q[sqrt 2] is one reduced integer triple, so every operation
runs on Python ints and nothing here ever rounds.  Every value is immutable;
all operations return new objects.  Floats exist only through ``to_float``
and are never fed back into any computation: the constructor refuses them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, List, Sequence, Tuple, Union

Scalar = Union[int, Fraction, "QSqrt2"]


class SingularMatrixError(ZeroDivisionError):
    """Raised when inverting a singular matrix; carries the offender."""

    def __init__(self, matrix: "Mat"):
        super().__init__("matrix is singular")
        self.matrix = matrix


def _immutable(self, *a):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _reduced(x: int, y: int, d: int) -> "QSqrt2":
    """The QSqrt2 (x + y*sqrt2)/d, for ints x, y and d > 0."""
    g = math.gcd(x, y, d)
    q = _new(QSqrt2)
    _set_xyd(q, (x, y, d) if g == 1 else (x // g, y // g, d // g))
    return q


class QSqrt2:
    """(x + y*sqrt(2))/d, held as the one triple ``xyd`` of ints with d > 0
    and gcd(x, y, d) = 1; ``rat`` and ``irr`` are x/d and y/d.  A rational
    value equals and hashes as its ``Fraction``; ordering uses the real
    embedding (sqrt(2) > 0) and is exact.  Parts must be int or Fraction.
    """

    __slots__ = ("xyd",)

    def __init__(self, rat=0, irr=0):
        if not (isinstance(rat, (int, Fraction)) and isinstance(irr, (int, Fraction))):
            raise TypeError(f"cannot make QSqrt2 of {rat!r} and {irr!r}")
        b, e = rat.denominator, irr.denominator
        d = math.lcm(b, e)  # reduced parts make the triple reduced
        _set_xyd(self, (rat.numerator * (d // b), irr.numerator * (d // e), d))

    __setattr__ = __delattr__ = _immutable

    @property
    def rat(self) -> Fraction:
        return Fraction(self.xyd[0], self.xyd[2])

    @property
    def irr(self) -> Fraction:
        return Fraction(self.xyd[1], self.xyd[2])

    @classmethod
    def coerce(cls, x: Scalar) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        return _reduced(x, 0, 1) if type(x) is int else cls(x)

    def __bool__(self) -> bool:
        return self.xyd != (0, 0, 1)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSqrt2):
            return self.xyd == other.xyd
        if isinstance(other, (int, Fraction)):
            return self.xyd == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash(self.rat) if self.xyd[1] == 0 else hash(self.xyd)

    def __add__(self, other):
        x, y, d = self.xyd
        u, v, e = QSqrt2.coerce(other).xyd
        return _reduced(x * e + u * d, y * e + v * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        x, y, d = self.xyd
        return _reduced(-x, -y, d)

    def __sub__(self, other):
        x, y, d = self.xyd
        u, v, e = QSqrt2.coerce(other).xyd
        return _reduced(x * e - u * d, y * e - v * d, d * e)

    def __rsub__(self, other):
        return QSqrt2.coerce(other) - self

    def __mul__(self, other):
        x, y, d = self.xyd
        u, v, e = QSqrt2.coerce(other).xyd
        return _reduced(x * u + 2 * y * v, x * v + y * u, d * e)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        """1/((x + y*sqrt2)/d) = d(x - y*sqrt2)/(x^2 - 2 y^2)."""
        x, y, d = self.xyd
        norm = x * x - 2 * y * y
        if norm == 0:
            raise ZeroDivisionError("QSqrt2 division by zero")
        if norm < 0:
            norm, d = -norm, -d
        return _reduced(d * x, -d * y, norm)

    def __truediv__(self, other):
        return self * QSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QSqrt2.coerce(other) * self.inverse()

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(2) = 1.414..."""
        x, y, _ = self.xyd
        if x >= 0 and y >= 0:
            return 1 if x or y else 0
        if x <= 0 and y <= 0:
            return -1
        # opposite signs: compare x^2 against 2 y^2
        return 1 if (x * x > 2 * y * y) == (x > 0) else -1

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def is_integer(self) -> bool:
        return self.xyd[1] == 0 and self.xyd[2] == 1

    def to_float(self) -> float:
        """Lossy embedding; export/rendering only, never verification."""
        x, y, d = self.xyd
        return x / d + (y / d) * 1.4142135623730951

    def __str__(self) -> str:
        return format_qsqrt2(self)

    def __repr__(self) -> str:
        return f"QSqrt2({self.rat!r}, {self.irr!r})"


# xyd is written through its slot descriptor, past the refusing __setattr__
_new, _set_xyd = object.__new__, QSqrt2.xyd.__set__
ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)


def _frac_str(n: int, d: int) -> str:
    if d == 1:
        return str(n)
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_qsqrt2(q: QSqrt2) -> str:
    """Serialize as ``p/q+r/s*sqrt2`` with zero terms omitted."""
    x, y, d = q.xyd
    if not y:
        return _frac_str(x, d)
    term = f"{_frac_str(abs(y), d)}*sqrt2"
    sign = "-" if y < 0 else "+" if x else ""
    return (_frac_str(x, d) if x else "") + sign + term


_TERM = re.compile(
    r"""^\s*
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coef>\d+(?:/\d+)?)\s*(?P<star>\*\s*sqrt2)?
      | (?P<bare>sqrt2)
    )\s*""",
    re.VERBOSE | re.ASCII,
)


def parse_qsqrt2(text: str) -> QSqrt2:
    """Inverse of :func:`format_qsqrt2`; also accepts bare ``sqrt2`` terms."""
    s = text.strip()
    if not s:
        raise ValueError("empty QSqrt2 literal")
    parts = [Fraction(0), Fraction(0)]  # rational, sqrt2
    pos = 0
    while pos < len(s):
        m = _TERM.match(s[pos:])
        if not m:
            raise ValueError(f"malformed QSqrt2 literal: {text!r}")
        if pos and m.group("sign") == "":
            raise ValueError(f"missing sign between terms in {text!r}")
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        parts[bool(m.group("star") or m.group("bare"))] += (
            -coef if m.group("sign") == "-" else coef)
        pos += m.end()
    return QSqrt2(*parts)


def gauss_jordan(a: List[List[QSqrt2]], ncols: int) -> Tuple[List[int], QSqrt2]:
    """Bring the rows ``a`` to reduced row echelon form in place, pivoting
    in the first ``ncols`` columns only.  Returns the pivot columns and the
    product of the pivots, negated once per row swap: the determinant of
    those columns when they are square and all pivot.

    Exact arithmetic needs no pivoting strategy: the first nonzero entry
    in the column is always an acceptable pivot.
    """
    pivots: List[int] = []
    det = ONE
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            det = -det
        p = a[r][c]
        det = det * p
        pinv = p.inverse()
        a[r] = [e * pinv for e in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return pivots, det


def _scaled(qs: Sequence[QSqrt2]) -> Tuple[int, Sequence[int], Sequence[int]]:
    """(D, X, Y): D the lcm of the denominators of ``qs``, and entry k
    equal to (X[k] + Y[k]*sqrt2) / D with X[k], Y[k] ints.  When every
    denominator is D already, X and Y are the numerators, not rescaled."""
    xs, ys, ds = zip(*[q.xyd for q in qs]) if qs else ((), (), (1,))
    d = ds[0]
    if ds.count(d) != len(ds):
        d = math.lcm(*ds)
        xs = [x * (d // e) for x, e in zip(xs, ds)]
        ys = [y * (d // e) for y, e in zip(ys, ds)]
    return d, xs, ys


def _set_mat(m: "Mat", rows: int, cols: int, entries: Tuple[QSqrt2, ...]):
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)


class Mat:
    """A dense exact matrix over Q[sqrt 2], stored row-major and immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        entries = tuple(QSqrt2.coerce(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        _set_mat(self, rows, cols, entries)

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij) -> QSqrt2:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def scale(self, k: Scalar) -> "Mat":
        k = QSqrt2.coerce(k)
        return Mat(self.rows, self.cols, [k * e for e in self.entries])

    def __mul__(self, other):
        """Exact product on scaled integers: with A = (X + Y sqrt2)/Da and
        B = (U + V sqrt2)/Db, entry (i, j) is (r + s sqrt2)/(Da Db), where
        r = sum XU + 2 YV and s = sum XV + YU over Python ints, so nothing
        overflows and each result entry is reduced once.  The sums over Y
        or V are skipped when that factor is rational (all of it is 0)."""
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            n, m, p = self.rows, self.cols, other.cols
            da, x, y = _scaled(self.entries)
            db, u, v = _scaled(other.entries)
            irr_a, irr_b = any(y), any(v)
            d = da * db
            cols = [(u[j::p], v[j::p]) for j in range(p)]
            out = []
            for i in range(n):
                xi, yi = x[i * m:(i + 1) * m], y[i * m:(i + 1) * m]
                for uj, vj in cols:
                    r = sum(map(mul, xi, uj))
                    s = sum(map(mul, xi, vj)) if irr_b else 0
                    if irr_a:
                        s += sum(map(mul, yi, uj))
                        if irr_b:
                            r += 2 * sum(map(mul, yi, vj))
                    out.append(_reduced(r, s, d))
            prod = _new(Mat)
            _set_mat(prod, n, p, tuple(out))
            return prod
        return self.scale(other)

    __rmul__ = scale

    def transpose(self) -> "Mat":
        c, t = self.cols, _new(Mat)
        _set_mat(t, c, self.rows, sum((self.entries[j::c] for j in range(c)), ()))
        return t

    def _eliminate(self):
        """Gauss-Jordan elimination of [self | I]; returns (det,
        inverse-or-None)."""
        if self.rows != self.cols:
            raise ValueError("determinant/inverse of a non-square matrix")
        n = self.rows
        a = [list(self.row(i)) + [ONE if i == j else ZERO for j in range(n)]
             for i in range(n)]
        pivots, det = gauss_jordan(a, n)
        if len(pivots) < n:
            return ZERO, None
        return det, Mat.from_rows([row[n:] for row in a])

    def det(self) -> QSqrt2:
        det, _ = self._eliminate()
        return det

    def inverse(self) -> "Mat":
        _, inv = self._eliminate()
        if inv is None:
            raise SingularMatrixError(self)
        return inv

    def is_integer(self) -> bool:
        return all(e.is_integer() for e in self.entries)

    def to_int_rows(self) -> list:
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return [[e.xyd[0] for e in self.row(i)] for i in range(self.rows)]

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols})"

