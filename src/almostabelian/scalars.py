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
from functools import lru_cache, reduce
from itertools import zip_longest

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
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator))


# ---------------------------------------------------------------------------
# dense polynomials: coefficient tuples, low degree first, with a nonzero
# last coefficient; zero is ().  Sum, difference and product use only + - *
# on coefficients: one arithmetic over Z (Z[tau]) and over Q (a TauScalar's
# Fraction coefficients).  Division and gcd, the package's only ones, work
# over Z[tau]; linalg eliminates with this arithmetic too.

_PONE = (Fraction(1),)


def _zmul(a, b):
    """Product of two polynomials."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _zadd(a, b):
    if not b:
        return a
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zsub(a, b):
    if not b:
        return a
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zdiv(a, b):
    """Quotient a / b in Z[tau], b nonzero, or None if b does not divide a."""
    if len(b) == 1:
        d = b[0]
        if d == 1:
            return a
        quot = []
        for x in a:
            q, r = divmod(x, d)
            if r:
                return None
            quot.append(q)
        return tuple(quot)
    if len(a) < len(b):
        return None if a else ()
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        q, r = divmod(rem[k], lead)
        if r:
            return None
        if q:
            quot[k - db] = q
            for j in range(db):
                rem[k - db + j] -= q * b[j]
    return None if any(rem[:db]) else tuple(quot)


def _primitive(a):
    """a over the gcd of its coefficients, leading coefficient positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(x // g for x in a)


def _zprem(a, b):
    """Pseudo-remainder of a by b: the remainder of lead(b)^k * a, for the
    least k that keeps each step of the division in Z[tau]."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(rem) > db:
        c = rem.pop()
        shift = len(rem) - db
        rem = [lead * x for x in rem]
        for j in range(db):
            rem[shift + j] -= c * b[j]
        while rem and not rem[-1]:
            rem.pop()
    return tuple(rem)


def _zprs(a, b):
    """The primitive remainder sequence of non-constant a and b, both
    primitive with a positive leading coefficient (D. E. Knuth, TAOCP
    vol. 2, 4.6.1): its last term is their gcd.  Each remainder is made
    primitive, which keeps its coefficients from growing exponentially."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _zprem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return (1,)
        a, b = b, _primitive(r)


def _zeval(a, xi):
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _balanced_digits(n, xi):
    """The polynomial whose value at xi is n, with coefficients in
    (-xi/2, xi/2]."""
    out = []
    while n:
        d = n % xi
        if d > xi // 2:
            d -= xi
        out.append(d)
        n = (n - d) // xi
    return tuple(out)


def _zgcd(a, b):
    """Greatest common divisor of nonzero a and b in Z[tau], leading
    coefficient positive.

    Heuristic first (B. W. Char, K. O. Geddes and G. H. Gonnet, "GCDHEU",
    J. Symbolic Comput. 7, 1989): the integer gcd of the primitive parts'
    values at a point xi >= 2*min(|a|, |b|) + 2, |.| the largest
    coefficient, read back in balanced base-xi digits.  A candidate is
    accepted only if its primitive part divides both exactly, and then it
    is the gcd (K. O. Geddes, S. R. Czapor and G. Labahn, Algorithms for
    Computer Algebra, Thm 7.7).  After a few rejected points the primitive
    remainder sequence decides.

    >>> _zgcd((-2, 0, 2), (2, 4, 2))
    (2, 2)
    """
    content = math.gcd(*a, *b)
    if len(a) == 1 or len(b) == 1:
        return (content,)
    a, b = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(6):
        # the roots of whichever of a, b has the smaller largest coefficient
        # m lie below 1 + m < xi (Cauchy's bound), so the gcd is not 0
        h = _primitive(_balanced_digits(math.gcd(_zeval(a, xi), _zeval(b, xi)), xi))
        if _zdiv(a, h) is not None and _zdiv(b, h) is not None:
            break
        xi = xi * 73794 // 27011  # about (1 + sqrt 3) xi, as in GCDHEU
    else:
        h = _zprs(a, b)
    return h if content == 1 else tuple(content * x for x in h)


def _normal_form(num, den):
    """Stored form of num / den, both in Z[tau], den nonzero: divided by
    their gcd, as Fraction coefficients with the denominator monic."""
    if not num:
        return (), _PONE
    if len(den) == 1:
        return tuple(Fraction(c, den[0]) for c in num), _PONE
    g = _zgcd(num, den)
    if len(g) > 1:
        num, den = _zdiv(num, g), _zdiv(den, g)
    lead = den[-1]
    return tuple(Fraction(c, lead) for c in num), tuple(Fraction(c, lead) for c in den)


class TauScalar:
    """Element of the rational function field Q(tau), tau a formal 2*pi.

    Stored as a fraction of polynomials with Fraction coefficients, reduced
    by the gcd of its numerator and denominator cleared to Z[tau] (``_zgcd``),
    with the denominator monic, so equal values have equal representations
    (and equal hashes).

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
        if not pd:
            raise ZeroDivisionError("TauScalar denominator is zero")
        scale = math.lcm(*(c.denominator for c in pn + pd))
        pn, pd = _normal_form(
            tuple(c.numerator * (scale // c.denominator) for c in pn),
            tuple(c.numerator * (scale // c.denominator) for c in pd),
        )
        object.__setattr__(self, "_num", pn)
        object.__setattr__(self, "_den", pd)

    @staticmethod
    def _coerce_poly(value):
        if isinstance(value, (int, Fraction)):
            value = (value,)
        elif not isinstance(value, (tuple, list)):
            raise TypeError(f"cannot build TauScalar from {type(value).__name__}")
        out = [Fraction(c) for c in value]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def __setattr__(self, name, value):
        raise AttributeError("TauScalar is immutable")

    # -- predicates and conversions

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_rational(self) -> bool:
        return len(self._num) < 2 and self._den == _PONE

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self._num[0] if self._num else Fraction(0)

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self.as_rational().denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.as_rational().numerator

    def __bool__(self) -> bool:
        return not self.is_zero

    def __float__(self) -> float:
        """The real value at tau = 2*pi, correctly rounded."""
        if self.is_rational:
            return float(self.as_rational())
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
            _zadd(_zmul(self._num, o._den), _zmul(o._num, self._den)),
            _zmul(self._den, o._den),
        )

    __radd__ = __add__

    def __neg__(self):
        return _stored(tuple(-c for c in self._num), self._den)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TauScalar(
            _zsub(_zmul(self._num, o._den), _zmul(o._num, self._den)),
            _zmul(self._den, o._den),
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TauScalar(_zmul(self._num, o._num), _zmul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("TauScalar division by zero")
        return TauScalar(_zmul(self._num, o._den), _zmul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        out = ONE
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
            return hash(self.as_rational())
        return hash((self._num, self._den))

    # -- printing

    def __str__(self):
        ns = _poly_str(self._num)
        if self._den == _PONE:
            return ns
        return f"({ns})/({_poly_str(self._den)})"

    def __repr__(self):
        return f"TauScalar({str(self)!r})"


def _stored(num, den) -> TauScalar:
    """The TauScalar whose stored form is already (num, den)."""
    x = object.__new__(TauScalar)
    object.__setattr__(x, "_num", num)
    object.__setattr__(x, "_den", den)
    return x


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


ZERO = TauScalar(0)
ONE = TauScalar(1)
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
    splits into one rational condition per tau power once the row is
    cleared into Z[tau] (``cleared_rows``).  Each nonzero power row is
    divided by its content, so every returned row is primitive.

    >>> integer_rows([[TAU, 1 + TAU / 2]])
    [[0, 1], [2, 1]]
    """
    out = []
    for row in cleared_rows(rows):
        for power in range(max(map(len, row), default=0)):
            ints = [p[power] if power < len(p) else 0 for p in row]
            content = math.gcd(*ints)
            if content:
                out.append([c // content for c in ints])
    return out


def over_common_denominator(entries) -> tuple:
    """Polynomials p_i and den in Z[tau] with entries[i] = p_i / den.

    The entries are ints, Fractions or TauScalars.  den is the product of
    their distinct denominators times the least integer that clears every
    coefficient, so rationals share an integer den, and integers den (1,).
    The products in linalg clear each operand once with this and build
    each result entry once, with ``zpoly_ratio``.

    >>> over_common_denominator([TAU / 2, ONE / (TAU + 1), 3])
    ([(0, 1, 1), (2,), (6, 6)], (2, 2))
    >>> over_common_denominator([Fraction(1, 2), 0, -1])
    ([(1,), (), (-2,)], (2,))
    """
    nums, dens = [], []
    for x in entries:
        if isinstance(x, TauScalar):
            nums.append(x._num)
            dens.append(x._den)
        elif isinstance(x, (int, Fraction)):
            nums.append((x,) if x else ())
            dens.append(_PONE)
        else:
            raise TypeError(f"cannot interpret {type(x).__name__} as TauScalar")
    distinct = []
    for d in dens:
        if d != _PONE and d not in distinct:
            distinct.append(d)
    polys, den = nums, _PONE
    if distinct:
        polys = []
        for p, d in zip(nums, dens):
            for q in distinct:
                if q != d:
                    p = _zmul(p, q)
            polys.append(p)
        den = reduce(_zmul, distinct)
    scale = math.lcm(*[c.denominator for p in polys for c in p], *[c.denominator for c in den])
    return (
        [tuple([c.numerator * (scale // c.denominator) for c in p]) for p in polys],
        tuple([c.numerator * (scale // c.denominator) for c in den]),
    )


def cleared_rows(rows) -> list:
    """Each row over Q(tau) times a nonzero scalar of its own, so that its
    entries are polynomials in Z[tau] with no common integer factor: the
    row over its common denominator (``over_common_denominator``), with
    the denominator dropped and the content divided out.

    Scaling rows keeps the row space, so linalg eliminates these instead
    of TauScalars.

    >>> cleared_rows([[TAU / 2, ONE / (TAU + 1), ZERO]])
    [[(0, 1, 1), (2,), ()]]
    """
    out = []
    for row in rows:
        polys = over_common_denominator(row)[0]
        content = math.gcd(*(c for p in polys for c in p))
        if content > 1:
            polys = [tuple(c // content for c in p) for p in polys]
        out.append(polys)
    return out


def tau_coefficient(x: TauScalar):
    """The rational c with x = c*tau, or None when x is no such multiple.

    >>> tau_coefficient(3 * TAU / 2), tau_coefficient(ZERO), tau_coefficient(1 + TAU)
    (Fraction(3, 2), Fraction(0, 1), None)
    """
    num = x._num
    if x._den != _PONE or len(num) > 2 or (num and num[0]):
        return None
    return num[1] if num else Fraction(0)


def zpoly_ratio(num: tuple, den: tuple) -> TauScalar:
    """The TauScalar num / den of two polynomials in Z[tau], den nonzero.

    The constructor's normalizer takes them as they are: their Z[tau] gcd
    divides both, and no coefficient becomes a Fraction before that.

    >>> zpoly_ratio((2,), (-4,)), zpoly_ratio((0, 2), (4, 2))
    (TauScalar('-1/2'), TauScalar('(tau)/(2+tau)'))
    """
    return _stored(*_normal_form(num, den))


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

# Deepest parenthesis nesting a literal may have; str never nests deeper
# than one level, and the bound keeps the descent far from the recursion
# limit.
_MAX_NESTING = 100

# Highest numerator or denominator degree an operation in a literal may
# produce, predicted from its operands before it runs.  The cost of an
# operation grows faster than the square of its degree, so an unbounded
# power or chain of operations costs seconds; str never writes an
# operation above the degree of the value it prints.
_MAX_DEGREE = 32

# Largest bit length a numerator or denominator of a coefficient may reach
# in a literal.  A power is predicted before it runs, as |exponent| times
# its base's bit length (3^10000000 would take seconds); every other
# operation is checked after it runs, so a chain of them stays bounded too.
_MAX_BITS = 2**12


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


def _degrees(x: TauScalar) -> tuple:
    """Degrees of the numerator and denominator of x, zero read as
    degree 0."""
    return max(len(x._num) - 1, 0), len(x._den) - 1


def _bits(x: TauScalar) -> int:
    """Largest bit length of a numerator or denominator among x's
    coefficients."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in x._num + x._den)


class _TauParser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self):
        raise ValueError(f"invalid TauScalar literal {self.text!r}")

    def bound_degree(self, num: int, den: int):
        if max(num, den) > _MAX_DEGREE:
            raise ValueError(
                f"TauScalar literal {self.text!r} exceeds degree {_MAX_DEGREE}"
            )

    def bound_bits(self, bits: int):
        if bits > _MAX_BITS:
            raise ValueError(
                f"TauScalar literal {self.text!r} exceeds {_MAX_BITS} bits in a coefficient"
            )

    def checked(self, value: TauScalar) -> TauScalar:
        self.bound_bits(_bits(value))
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            (a, b), (c, d) = _degrees(value), _degrees(rhs)
            self.bound_degree(max(a + d, c + b), b + d)
            value = self.checked(value + rhs if op == "+" else value - rhs)
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            (a, b), (c, d) = _degrees(value), _degrees(rhs)
            if op == "*":
                self.bound_degree(a + c, b + d)
                value = self.checked(value * rhs)
            else:
                self.bound_degree(a + d, b + c)
                value = self.checked(value / rhs)
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
            a, b = _degrees(base)
            self.bound_degree(value * a, value * b)
            self.bound_bits(value * _bits(base))
            return self.checked(base ** (sign * value))
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
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ValueError(
                    f"TauScalar literal nests parentheses deeper than {_MAX_NESTING} levels"
                )
            value = self.expr()
            if self.peek() != ")":
                self.fail()
            self.take()
            self.depth -= 1
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
