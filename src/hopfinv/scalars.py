"""Exact arithmetic in the cyclotomic field Q(zeta_l) for odd l >= 3.

Elements are represented in the canonical basis {zeta^0, ..., zeta^(l-2)} of
Q[x]/(1 + x + ... + x^(l-1)).  For prime l this modulus is the l-th cyclotomic
polynomial and the quotient is the cyclotomic field; equality of elements is
equality of coefficient tuples, so every identity in this package is checked
with zero tolerance.

Internally a scalar is a tuple of integer numerators over one common positive
denominator, kept reduced.  This is much faster than a tuple of Fractions in
the hot multiplication loops.  `fractions.Fraction` is the rational type at
all API boundaries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import mpmath


class InvalidOrderError(ValueError):
    """Raised for a cyclotomic order that is even or smaller than 3."""


class OrderMismatchError(ValueError):
    """Raised when combining scalars living in different cyclotomic fields."""


class NotASquareError(ArithmeticError):
    """Raised when a square root is requested of a non-square field element."""


def _check_order(l: int) -> None:
    if l < 3 or l % 2 == 0:
        raise InvalidOrderError(f"cyclotomic order must be odd and >= 3, got {l}")


class Cyc:
    """An element of Q(zeta_l), immutable and hashable.

    `num` has length l-1 (coefficients of zeta^0..zeta^(l-2)); `den` is a
    positive integer with gcd(gcd(num), den) == 1.
    """

    __slots__ = ("l", "num", "den", "_hash")

    def __init__(self, l: int, num: tuple[int, ...], den: int, _normalized: bool = False):
        self.l = l
        if _normalized:
            self.num = num
            self.den = den
        else:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                num = tuple(-n for n in num)
                den = -den
            g = den
            for n in num:
                g = math.gcd(g, n)
                if g == 1:
                    break
            if g > 1:
                num = tuple(n // g for n in num)
                den //= g
            self.num = num
            self.den = den
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(l: int) -> "Cyc":
        return _zero(l)

    @staticmethod
    def one(l: int) -> "Cyc":
        return _one(l)

    @staticmethod
    def from_int(l: int, n: int) -> "Cyc":
        _check_order(l)
        return Cyc(l, (n,) + (0,) * (l - 2), 1)

    @staticmethod
    def from_fraction(l: int, q: Fraction | int) -> "Cyc":
        _check_order(l)
        q = Fraction(q)
        return Cyc(l, (q.numerator,) + (0,) * (l - 2), q.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients over {zeta^0..zeta^(l-2)} as Fractions in lowest terms."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- ring structure ----------------------------------------------------

    def _chk(self, other: "Cyc") -> None:
        if self.l != other.l:
            raise OrderMismatchError(f"orders differ: {self.l} vs {other.l}")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._chk(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return Cyc(self.l, tuple(a + b for a, b in zip(self.num, other.num)), d1)
        return Cyc(self.l, tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._chk(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return Cyc(self.l, tuple(a - b for a, b in zip(self.num, other.num)), d1)
        return Cyc(self.l, tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    def __neg__(self) -> "Cyc":
        return Cyc(self.l, tuple(-n for n in self.num), self.den, _normalized=True)

    def __mul__(self, other: "Cyc") -> "Cyc":
        self._chk(other)
        L = self.l - 1
        a, b = self.num, other.num
        prod = [0] * (2 * L - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        # zeta^d = zeta^(d-l) for d >= l, then zeta^(l-1) = -(1 + ... + zeta^(l-2))
        l = self.l
        for d in range(l, 2 * L - 1):
            x = prod[d]
            if x:
                prod[d - l] += x
                prod[d] = 0
        top = prod[L]
        if top:
            out = tuple(prod[i] - top for i in range(L))
        else:
            out = tuple(prod[:L])
        return Cyc(l, out, self.den * other.den)

    def scale(self, q: Fraction | int) -> "Cyc":
        q = Fraction(q)
        return Cyc(self.l, tuple(n * q.numerator for n in self.num), self.den * q.denominator)

    def inverse(self) -> "Cyc":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        l = self.l
        modulus = [Fraction(1)] * l
        a = [Fraction(n, self.den) for n in self.num]
        inv = _poly_modinv(a, modulus)
        if inv is None:
            # only possible for composite l, where the quotient ring has zero divisors
            raise ZeroDivisionError(f"element is a zero divisor in Q[x]/(1+...+x^{l-1})")
        num, den = _common_den(inv + [Fraction(0)] * (l - 1 - len(inv)))
        return Cyc(l, tuple(num), den)

    def __truediv__(self, other: "Cyc") -> "Cyc":
        return self * other.inverse()

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inverse() ** (-k)
        result = _one(self.l)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois conjugation --------------------------------------------------

    def conjugate(self) -> "Cyc":
        """The automorphism zeta -> zeta^(-1) (complex conjugation)."""
        l = self.l
        raw = [0] * l
        for j, n in enumerate(self.num):
            raw[(l - j) % l] += n
        top = raw[l - 1]
        if top:
            out = tuple(raw[i] - top for i in range(l - 1))
        else:
            out = tuple(raw[: l - 1])
        return Cyc(l, out, self.den, _normalized=True)

    def norm_squared(self) -> "Cyc":
        """|z|^2 = z * conjugate(z), exactly, inside the field."""
        return self * self.conjugate()

    def galois(self, k: int) -> "Cyc":
        """The automorphism zeta -> zeta^k for gcd(k, l) = 1."""
        l = self.l
        if math.gcd(k, l) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism for l={l}")
        raw = [0] * l
        for j, n in enumerate(self.num):
            raw[(j * k) % l] += n
        top = raw[l - 1]
        if top:
            out = tuple(raw[i] - top for i in range(l - 1))
        else:
            out = tuple(raw[: l - 1])
        return Cyc(l, out, self.den, _normalized=True)

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.l == other.l and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.l, self.num, self.den))
            self._hash = h
        return h

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyc(l={self.l}, {self.pretty()})"

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, n in enumerate(self.num):
            if n == 0:
                continue
            q = Fraction(n, self.den)
            mono = "" if j == 0 else ("z" if j == 1 else f"z^{j}")
            if mono and abs(q) == 1:
                coeff = "-" if q < 0 else ""
            else:
                coeff = str(q) + ("*" if mono else "")
            parts.append(coeff + mono if mono else str(q))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_complex(self, dps: int = 30) -> complex:
        """Numerical value at zeta = exp(2*pi*i/l); display only, never compared."""
        with mpmath.workdps(dps):
            z = mpmath.e ** (2j * mpmath.pi / self.l)
            acc = mpmath.mpc(0)
            for j, n in enumerate(self.num):
                if n:
                    acc += Fraction(n, self.den) * z**j
            return complex(acc)

    def decimal_str(self, digits: int = 20) -> str:
        """Decimal approximation with `digits` significant digits."""
        with mpmath.workdps(digits + 10):
            z = mpmath.e ** (2j * mpmath.pi / self.l)
            acc = mpmath.mpc(0)
            for j, n in enumerate(self.num):
                if n:
                    acc += mpmath.mpf(n) / self.den * z**j
            re = mpmath.nstr(acc.real, digits)
            im = mpmath.nstr(acc.imag, digits)
        sign = "+" if not im.startswith("-") else "-"
        return f"{re} {sign} {im.lstrip('-')}i"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"l": self.l, "coeffs": [f"{q.numerator}/{q.denominator}" for q in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "Cyc":
        l = int(obj["l"])
        _check_order(l)
        coeffs = [Fraction(s) for s in obj["coeffs"]]
        if len(coeffs) != l - 1:
            raise ValueError(f"expected {l - 1} coefficients, got {len(coeffs)}")
        num, den = _common_den(coeffs)
        return Cyc(l, tuple(num), den)


@lru_cache(maxsize=None)
def _zero(l: int) -> Cyc:
    _check_order(l)
    return Cyc(l, (0,) * (l - 1), 1, _normalized=True)


@lru_cache(maxsize=None)
def _one(l: int) -> Cyc:
    _check_order(l)
    return Cyc(l, (1,) + (0,) * (l - 2), 1, _normalized=True)


@lru_cache(maxsize=None)
def root_of_unity(l: int, k: int) -> Cyc:
    """zeta_l^k in canonical form; k may be any integer."""
    _check_order(l)
    k %= l
    if k < l - 1:
        num = tuple(1 if i == k else 0 for i in range(l - 1))
        return Cyc(l, num, 1, _normalized=True)
    return Cyc(l, (-1,) * (l - 1), 1, _normalized=True)


def q_power(l: int, e: int) -> Cyc:
    """q^e where q = zeta_l."""
    return root_of_unity(l, e)


def q_half_power(l: int, e: int) -> Cyc:
    """q^(e/2) under the convention q^(1/2) := q^((l+1)/2), well defined for odd l."""
    return root_of_unity(l, e * ((l + 1) // 2))


def conjugate(a: Cyc) -> Cyc:
    return a.conjugate()


def norm_squared(a: Cyc) -> Cyc:
    return a.norm_squared()


# -- polynomial helpers (Fractions; used only by inverse/sqrt) -------------------


def _common_den(coeffs: Iterable[Fraction]) -> tuple[list[int], int]:
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in coeffs], den


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        coef = a[-1] * inv_lead
        deg = len(a) - len(b)
        q[deg] = coef
        for i, bc in enumerate(b):
            a[deg + i] -= coef * bc
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


def _poly_modinv(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction] | None:
    """Inverse of a mod modulus over Q, or None when gcd(a, modulus) != 1."""
    r0, r1 = list(modulus), _poly_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        s = list(s0)
        s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                s[i + j] -= qc * sc
        r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
    if len(r0) != 1:
        return None
    inv_g = 1 / r0[0]
    return [c * inv_g for c in s0]


# -- square roots -----------------------------------------------------------------


def sqrt_in_field(c: Cyc, max_den: int = 10**12) -> Cyc:
    """A square root of c in Q(zeta_l), if one exists.

    Numerically guided: for each consistent choice of square-root branches at
    the complex embeddings, solve for the coefficient vector, round to
    rationals, and verify s*s == c exactly.  The exact verification makes the
    numeric assist safe.  Raises NotASquareError when no branch verifies.

    The returned root is deterministic (canonically the one whose coefficient
    tuple is lexicographically largest; the negative is then fixed).
    """
    l = c.l
    if c.is_zero():
        return _zero(l)
    if c.is_rational():
        q = c.as_fraction()
        if q > 0:
            rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if rn * rn == q.numerator and rd * rd == q.denominator:
                return Cyc.from_fraction(l, Fraction(rn, rd))
        # fall through: rational may still be a square of an irrational element
    L = l - 1
    half = L // 2
    with mpmath.workdps(60):
        embeddings = [mpmath.e ** (2j * mpmath.pi * k / l) for k in range(1, half + 1)]
        values = []
        for z in embeddings:
            acc = mpmath.mpc(0)
            for j, n in enumerate(c.num):
                if n:
                    acc += mpmath.mpf(n) / c.den * z**j
            values.append(mpmath.sqrt(acc))
        # conjugate-pair embeddings carry conjugate values; solve the full system
        mat = mpmath.matrix(L, L)
        for row, k in enumerate(list(range(1, half + 1)) + list(range(half + 1, L + 1))):
            z = mpmath.e ** (2j * mpmath.pi * k / l)
            for col in range(L):
                mat[row, col] = z**col
        for signs in range(1 << half):
            rhs = mpmath.matrix(L, 1)
            for i in range(half):
                v = values[i] if not (signs >> i) & 1 else -values[i]
                rhs[i, 0] = v
                rhs[L - 1 - i, 0] = mpmath.conj(v)
            try:
                sol = mpmath.lu_solve(mat, rhs)
            except ZeroDivisionError:
                continue
            for bound in (1, 10**3, 10**6, max_den):
                cand = []
                ok = True
                for i in range(L):
                    x = sol[i, 0]
                    if abs(mpmath.im(x)) > 1e-20:
                        ok = False
                        break
                    cand.append(Fraction(str(mpmath.re(x))).limit_denominator(bound))
                if not ok:
                    break
                num, den = _common_den(cand)
                s = Cyc(l, tuple(num), den)
                if s * s == c:
                    neg = -s
                    return s if s.num >= neg.num else neg
    raise NotASquareError(f"{c!r} is not a square in Q(zeta_{c.l})")
