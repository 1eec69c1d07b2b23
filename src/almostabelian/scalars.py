"""Exact scalars: rationals, Gaussian rationals, and the field Q(tau).

``tau`` is a formal transcendental standing for 2*pi.  All exact results in
this package live in the rational function field Q(tau); numerical output
substitutes tau = 2*pi at a requested precision.  Because 2*pi is
transcendental, the substitution is injective, so exact identities in Q(tau)
are exact identities of the real numbers they denote.

Literal grammar accepted by the parsers (and emitted by ``str``):

    Rational    "p/q" | "n"                 e.g. "3", "-1/2"
    GaussRational  "a/b+c/d i"              e.g. "0", "i", "2/3i", "1-1/2i"
    TauScalar   sums of r and r*tau terms   e.g. "1/2+3*tau"

``str(TauScalar)`` may additionally use "tau^k" and a parenthesized
denominator, both of which re-parse, so printed exact values always
round-trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal "p/q" or "n".

    Decimal and float forms are rejected: the exact layer never sees them.

    >>> parse_rational("-4/6")
    Fraction(-2, 3)
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"invalid rational literal {text!r}")
    return Fraction(s)


def rat_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive gcd of two rationals: gcd(p1/q1, p2/q2) = gcd(p1,p2)/lcm(q1,q2).

    Every integer combination of a and b is an integer multiple of the result.

    >>> rat_gcd(Fraction(2, 3), Fraction(1))
    Fraction(1, 3)
    >>> rat_gcd(Fraction(1, 2), Fraction(1, 3))
    Fraction(1, 6)
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise ValueError("rat_gcd(0, 0) is undefined")
    from math import gcd, lcm

    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


# ---------------------------------------------------------------------------
# dense polynomials over Q, coefficient tuples low degree -> high degree


def _ptrim(c):
    c = tuple(c)
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


_PZERO = (Fraction(0),)
_PONE = (Fraction(1),)


def _pis_zero(a):
    return len(a) == 1 and a[0] == 0


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(
        tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if _pis_zero(a) or _pis_zero(b):
        return _PZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    if _pis_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return _PZERO, _ptrim(a)
    quot = [Fraction(0)] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k] / lb
        if c != 0:
            quot[k - db] = c
            for j in range(db + 1):
                rem[k - db + j] -= c * b[j]
    return _ptrim(quot), _ptrim(rem)


def _pgcd(a, b):
    while not _pis_zero(b):
        a, b = b, _pdivmod(a, b)[1]
    if _pis_zero(a):
        return _PONE
    lead = a[-1]
    return tuple(c / lead for c in a)


class TauScalar:
    """Element of the rational function field Q(tau), tau a formal 2*pi.

    Stored as a reduced fraction of polynomials with the denominator monic,
    so equal values have equal representations (and equal hashes).

    >>> x = TAU / 2 + 1
    >>> str(x)
    '1+1/2*tau'
    >>> parse_tau(str(x)) == x
    True
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        if isinstance(num, TauScalar) or isinstance(den, TauScalar):
            raise TypeError("use arithmetic operators to combine TauScalars")
        pn = self._coerce_poly(num)
        pd = self._coerce_poly(den)
        if _pis_zero(pd):
            raise ZeroDivisionError("TauScalar denominator is zero")
        if _pis_zero(pn):
            pn, pd = _PZERO, _PONE
        else:
            g = _pgcd(pn, pd)
            if g != _PONE:
                pn = _pdivmod(pn, g)[0]
                pd = _pdivmod(pd, g)[0]
            lead = pd[-1]
            if lead != 1:
                pn = tuple(c / lead for c in pn)
                pd = tuple(c / lead for c in pd)
        object.__setattr__(self, "_num", pn)
        object.__setattr__(self, "_den", pd)

    @staticmethod
    def _coerce_poly(value):
        if isinstance(value, (int, Fraction)):
            return _ptrim((Fraction(value),))
        if isinstance(value, (tuple, list)):
            return _ptrim(tuple(Fraction(c) for c in value)) or _PZERO
        raise TypeError(f"cannot build TauScalar from {type(value).__name__}")

    def __setattr__(self, name, value):
        raise AttributeError("TauScalar is immutable")

    # -- predicates and conversions

    @property
    def is_zero(self) -> bool:
        return _pis_zero(self._num)

    @property
    def is_rational(self) -> bool:
        return len(self._num) == 1 and self._den == _PONE

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self._num[0]

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self._num[0].denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self._num[0].numerator

    def __bool__(self) -> bool:
        return not self.is_zero

    def __float__(self) -> float:
        """The real value at tau = 2*pi, correctly rounded."""
        if self.is_rational:
            return float(self._num[0])
        for lo, hi in _enclosures(self):
            if float(lo) == float(hi):
                return float(lo)

    def leading_sign(self) -> int:
        """Sign of the lowest-degree nonzero numerator coefficient, 0 at zero.

        A canonical choice between x and -x, not the sign of the real x.
        """
        for c in self._num:
            if c:
                return 1 if c > 0 else -1
        return 0

    # -- arithmetic

    @staticmethod
    def _lift(other):
        if isinstance(other, TauScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return TauScalar(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TauScalar(
            _padd(_pmul(self._num, o._den), _pmul(o._num, self._den)),
            _pmul(self._den, o._den),
        )

    __radd__ = __add__

    def __neg__(self):
        return TauScalar(_pneg(self._num), self._den)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TauScalar(_pmul(self._num, o._num), _pmul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("TauScalar division by zero")
        return TauScalar(_pmul(self._num, o._den), _pmul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (TauScalar(1) / self) ** (-exponent)
        out = TauScalar(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        if self.is_rational:
            return hash(self._num[0])
        return hash((self._num, self._den))

    # -- printing

    def __str__(self):
        ns = _poly_str(self._num)
        if self._den == _PONE:
            return ns
        return f"({ns})/({_poly_str(self._den)})"

    def __repr__(self):
        return f"TauScalar({str(self)!r})"


def _poly_str(coefs) -> str:
    pieces = []
    for k, c in enumerate(coefs):
        if c == 0:
            continue
        if k == 0:
            pieces.append(str(c))
            continue
        power = "tau" if k == 1 else f"tau^{k}"
        if c == 1:
            pieces.append(power)
        elif c == -1:
            pieces.append(f"-{power}")
        else:
            pieces.append(f"{c}*{power}")
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


TAU = TauScalar((0, 1))


def as_tau(value) -> TauScalar:
    """Coerce an int, Fraction, or TauScalar to TauScalar."""
    if isinstance(value, TauScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return TauScalar(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as TauScalar")


def integer_rows(rows) -> list:
    """Expand linear rows over Q(tau) into equivalent integer rows.

    tau is transcendental, so a linear condition with rational unknowns
    splits into one rational condition per tau power after clearing the
    polynomial denominators.

    >>> integer_rows([[TAU, 1 + TAU / 2]])
    [[0, 1], [2, 1]]
    """
    out = []
    for row in rows:
        den = TauScalar(1)
        for c in row:
            den = den * TauScalar(c._den)
        nums = [(c * den)._num for c in row]
        for power in range(max(map(len, nums))):
            fracs = [p[power] if power < len(p) else Fraction(0) for p in nums]
            if any(fracs):
                scale = math.lcm(*(f.denominator for f in fracs))
                out.append([int(f * scale) for f in fracs])
    return out


# ---------------------------------------------------------------------------
# the real embedding tau = 2*pi, by exact rational enclosures


@lru_cache(maxsize=None)
def tau_enclosure(terms: int) -> tuple:
    """Rationals lo < tau < hi from Machin's formula
    tau = 8*(4*arctan(1/5) - arctan(1/239)), for ``terms`` >= 1.

    Each arctan series alternates with strictly decreasing terms, so its
    partial sums after ``terms`` and ``terms + 1`` terms bracket its value;
    the width shrinks about 25-fold a term.

    >>> lo, hi = tau_enclosure(8)
    >>> lo < Fraction(6283185307179586, 10**15) < hi, hi - lo < Fraction(1, 10**11)
    (True, True)
    """
    bounds = []
    for x in (5, 239):
        s = sum(Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1)) for k in range(terms))
        t = s + Fraction((-1) ** terms, (2 * terms + 1) * x ** (2 * terms + 1))
        bounds.append((min(s, t), max(s, t)))
    (lo5, hi5), (lo239, hi239) = bounds
    return 8 * (4 * lo5 - hi239), 8 * (4 * hi5 - lo239)


def _interval_horner(coefs, lo, hi) -> tuple:
    """Bounds of the polynomial over the interval [lo, hi], 0 < lo, by
    Horner's rule in interval arithmetic."""
    a = b = Fraction(0)
    for c in reversed(coefs):
        a, b = min(a * lo, a * hi) + c, max(b * lo, b * hi) + c
    return a, b


def _enclosures(x: TauScalar):
    """Rational enclosures lo <= x <= hi of the real value of x, shrinking
    without end: x = p(tau)/q(tau) is bounded over an enclosure of tau,
    with the terms doubling each time, once the bounds of q exclude 0."""
    terms = 8
    while True:
        lo, hi = tau_enclosure(terms)
        n0, n1 = _interval_horner(x._num, lo, hi)
        d0, d1 = _interval_horner(x._den, lo, hi)
        if d0 > 0 or d1 < 0:
            ends = [n / d for n in (n0, n1) for d in (d0, d1)]
            yield min(ends), max(ends)
        terms *= 2


def tau_floor(x: TauScalar) -> int:
    """Largest integer not exceeding x, proven by exact enclosures.

    The enclosures of x shrink until both ends have the same floor.  This
    ends: tau is transcendental, so a non-rational x is never an integer.

    >>> tau_floor(TAU)
    6
    >>> tau_floor(-TAU / 4)
    -2
    """
    if x.is_rational:
        return math.floor(x.as_rational())
    for lo, hi in _enclosures(x):
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)


# ---------------------------------------------------------------------------
# TauScalar expression parser (recursive descent)

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(tau)|([+\-*/^()]))")


def _tokenize(text: str):
    text = text.strip()
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"invalid TauScalar literal {text!r} at offset {pos}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("tau", None))
        else:
            tokens.append((m.group(3), None))
        pos = m.end()
    return tokens


class _TauParser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self):
        raise ValueError(f"invalid TauScalar literal {self.text!r}")

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        return sign * self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            kind, value = self.take() if self.peek() == "int" else self.fail()
            return base ** (sign * value)
        return base

    def atom(self):
        kind = self.peek()
        if kind == "int":
            return TauScalar(self.take()[1])
        if kind == "tau":
            self.take()
            return TAU
        if kind == "(":
            self.take()
            value = self.expr()
            if self.peek() != ")":
                self.fail()
            self.take()
            return value
        self.fail()


def parse_tau(text: str) -> TauScalar:
    """Parse a TauScalar literal, e.g. "1/2+3*tau".

    >>> parse_tau("1/2+3*tau") == Fraction(1, 2) + 3 * TAU
    True
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty TauScalar literal")
    parser = _TauParser(tokens, text)
    try:
        value = parser.expr()
    except ZeroDivisionError:
        raise ValueError(f"division by zero in TauScalar literal {text!r}") from None
    if parser.pos != len(tokens):
        parser.fail()
    return value


# ---------------------------------------------------------------------------
# Gaussian rationals


@dataclass(frozen=True)
class GaussRational:
    """Complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if self.re == 0:
            return im
        return f"{self.re}{im}" if im.startswith("-") else f"{self.re}+{im}"

    def __repr__(self):
        return f"GaussRational({str(self)!r})"


def parse_gauss(text: str) -> GaussRational:
    """Parse a Gaussian rational literal: "0", "1", "i", "2/3i", "1-1/2i".

    >>> parse_gauss("2/3i")
    GaussRational('2/3i')
    """
    s = text.strip()
    if not s:
        raise ValueError("empty GaussRational literal")
    if "i" not in s:
        return GaussRational(parse_rational(s))
    m = re.match(
        r"^(?P<re>[+-]?\d+(?:/[1-9]\d*)?(?=[+-]))?(?P<sign>[+-]?)(?P<mag>\d+(?:/[1-9]\d*)?)?\s?i$",
        s,
    )
    if not m:
        raise ValueError(f"invalid GaussRational literal {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    mag = Fraction(m.group("mag")) if m.group("mag") else Fraction(1)
    im_part = -mag if m.group("sign") == "-" else mag
    return GaussRational(re_part, im_part)
