"""Exact arithmetic over Q and Q[sqrt 2], plus small dense matrices.

Every value is immutable; all operations return new objects. Nothing in
this module ever rounds: floats exist only through ``to_float`` and are
never fed back into any computation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, "QSqrt2"]


class SingularMatrixError(ZeroDivisionError):
    """Raised when inverting a singular matrix; carries the offender."""

    def __init__(self, matrix: "Mat"):
        super().__init__("matrix is singular")
        self.matrix = matrix


class QSqrt2:
    """An element a + b*sqrt(2) with a, b rational.

    Equality and hashing are component-wise; ordering uses the real
    embedding (sqrt(2) > 0) and is exact.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat=0, irr=0):
        object.__setattr__(self, "rat", Fraction(rat))
        object.__setattr__(self, "irr", Fraction(irr))

    def __setattr__(self, *a):
        raise AttributeError("QSqrt2 is immutable")

    @classmethod
    def coerce(cls, x: Scalar) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QSqrt2")

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.irr)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSqrt2(other)
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self):
        return hash((self.rat, self.irr))

    def __add__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.rat, -self.irr)

    def __sub__(self, other):
        return self + (-QSqrt2.coerce(other))

    def __rsub__(self, other):
        return (-self) + QSqrt2.coerce(other)

    def __mul__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        """1/(a + b*sqrt2) = (a - b*sqrt2)/(a^2 - 2 b^2)."""
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("QSqrt2 division by zero")
        return QSqrt2(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        return self * QSqrt2.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QSqrt2.coerce(other) * self.inverse()

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(2) = 1.414..."""
        a, b = self.rat, self.irr
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 against 2 b^2
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if a * a < 2 * b * b else -1

    def __lt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QSqrt2.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QSqrt2.coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def is_integer(self) -> bool:
        return self.irr == 0 and self.rat.denominator == 1

    def to_float(self) -> float:
        """Lossy embedding; export/rendering only, never verification."""
        return float(self.rat) + float(self.irr) * 1.4142135623730951

    def __str__(self) -> str:
        return format_qsqrt2(self)

    def __repr__(self) -> str:
        return f"QSqrt2({self.rat!r}, {self.irr!r})"


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_qsqrt2(x: QSqrt2) -> str:
    """Serialize as ``p/q+r/s*sqrt2`` with zero terms omitted."""
    if x.rat == 0 and x.irr == 0:
        return "0"
    parts = []
    if x.rat != 0:
        parts.append(_frac_str(x.rat))
    if x.irr != 0:
        term = f"{_frac_str(abs(x.irr))}*sqrt2"
        if not parts:
            parts.append(term if x.irr > 0 else "-" + term)
        else:
            parts.append(("+" if x.irr > 0 else "-") + term)
    return "".join(parts)


_TERM = re.compile(
    r"""^\s*
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coef>\d+(?:/\d+)?)\s*(?P<star>\*\s*sqrt2)?
      | (?P<bare>sqrt2)
    )\s*""",
    re.VERBOSE,
)


def parse_qsqrt2(text: str) -> QSqrt2:
    """Inverse of :func:`format_qsqrt2`; also accepts bare ``sqrt2`` terms."""
    s = text.strip()
    if not s:
        raise ValueError("empty QSqrt2 literal")
    rat = Fraction(0)
    irr = Fraction(0)
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s[pos:])
        if not m:
            raise ValueError(f"malformed QSqrt2 literal: {text!r}")
        if not first and m.group("sign") == "":
            raise ValueError(f"missing sign between terms in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("bare"):
            irr += sign
        else:
            try:
                coef = Fraction(m.group("coef"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
            if m.group("star"):
                irr += sign * coef
            else:
                rat += sign * coef
        pos += m.end()
        first = False
    return QSqrt2(rat, irr)


class Mat:
    """A dense exact matrix over Q[sqrt 2], stored row-major and immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        entries = tuple(QSqrt2.coerce(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

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
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [a - b for a, b in zip(self.entries, other.entries)])

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    @property
    def shape(self):
        return (self.rows, self.cols)

    def scale(self, k: Scalar) -> "Mat":
        k = QSqrt2.coerce(k)
        return Mat(self.rows, self.cols, [k * e for e in self.entries])

    def _scaled(self):
        """(D, X, Y): D the lcm of every entry denominator, and entry k
        equal to (X[k] + Y[k]*sqrt2) / D with X[k], Y[k] ints."""
        es = self.entries
        d = math.lcm(*(e.rat.denominator for e in es),
                     *(e.irr.denominator for e in es))
        return (d, [e.rat.numerator * (d // e.rat.denominator) for e in es],
                [e.irr.numerator * (d // e.irr.denominator) for e in es])

    def __mul__(self, other):
        """Exact product on scaled integers: with A = (X + Y sqrt2)/Da and
        B = (U + V sqrt2)/Db, entry (i, j) is (r + s sqrt2)/(Da Db), where
        r = sum XU + 2 YV and s = sum XV + YU over Python ints, so nothing
        overflows and each result entry is reduced once."""
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            n, m, p = self.rows, self.cols, other.cols
            da, x, y = self._scaled()
            db, u, v = other._scaled()
            d = da * db
            cols = [(u[j::p], v[j::p]) for j in range(p)]
            out = []
            for i in range(n):
                xi, yi = x[i * m:(i + 1) * m], y[i * m:(i + 1) * m]
                for uj, vj in cols:
                    r = sum(map(mul, xi, uj)) + 2 * sum(map(mul, yi, vj))
                    s = sum(map(mul, xi, vj)) + sum(map(mul, yi, uj))
                    out.append(QSqrt2(Fraction(r, d), Fraction(s, d)))
            return Mat(n, p, out)
        return self.scale(other)

    __rmul__ = scale

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def _eliminate(self):
        """Gaussian elimination; returns (det, inverse-or-None).

        Exact arithmetic needs no pivoting strategy: the first nonzero
        entry in the column is always an acceptable pivot.
        """
        if self.rows != self.cols:
            raise ValueError("determinant/inverse of a non-square matrix")
        n = self.rows
        a = [list(self.row(i)) for i in range(n)]
        inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                return ZERO, None
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
                det = -det
            p = a[col][col]
            det = det * p
            pinv = p.inverse()
            a[col] = [e * pinv for e in a[col]]
            inv[col] = [e * pinv for e in inv[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return det, Mat.from_rows(inv)

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
        return [[int(e.rat) for e in self.row(i)] for i in range(self.rows)]

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols})"

