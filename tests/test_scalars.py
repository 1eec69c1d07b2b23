"""Exact scalar tower: rationals, the formal circle constant, Gaussian rationals."""

import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostabelian import scalars
from almostabelian.scalars import (
    TAU,
    GaussRational,
    TauScalar,
    as_tau,
    integer_rows,
    parse_gauss,
    parse_rational,
    parse_tau,
    rat_gcd,
    tau_enclosure,
    tau_floor,
    zpoly_ratio,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

# 2*pi truncated after 30 decimals: tau - R30 is about 5.8e-33
R30 = Fraction("6.283185307179586476925286766559")


def _value(p, r):
    """The value at r of a coefficient tuple, low degree first."""
    return sum(c * r**k for k, c in enumerate(p))


def _at(x, r):
    """The value of x at tau = r, from its stored form."""
    return _value(x._num, r) / _value(x._den, r)


def taus(max_degree=2):
    return st.lists(rationals, min_size=1, max_size=max_degree + 1).map(
        lambda cs: TauScalar(tuple(cs))
    )


class TestRationalParsing:
    def test_literals(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("+2/5") == Fraction(2, 5)

    @pytest.mark.parametrize("bad", ["1.5", "2/0", "1/-3", "", "a", "1 /2"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestRatGcd:
    def test_known_values(self):
        assert rat_gcd(Fraction(2, 3), Fraction(1)) == Fraction(1, 3)
        assert rat_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
        assert rat_gcd(Fraction(4), Fraction(6)) == Fraction(2)

    @given(rationals.filter(bool), rationals.filter(bool))
    def test_divides_both(self, a, b):
        g = rat_gcd(abs(a), abs(b))
        assert (abs(a) / g).denominator == 1
        assert (abs(b) / g).denominator == 1


class TestTauField:
    def test_parse_round_trip(self):
        for text in ["0", "1", "tau", "2*tau", "1+1/2*tau", "tau^2", "3/4"]:
            x = parse_tau(text)
            assert parse_tau(str(x)) == x

    def test_division_reduces(self):
        x = (TAU * TAU - 1) / (TAU + 1)
        assert x == TAU - 1

    def test_numeric_value(self):
        # the enclosures bracket 2*pi and narrow strictly as terms double
        two_pi = Fraction(2 * math.pi)
        width = None
        for terms in (1, 2, 4, 8, 16, 32, 64):
            lo, hi = tau_enclosure(terms)
            assert lo < hi
            if width is not None:
                assert hi - lo < width
            width = hi - lo
            if width > 1e-15:
                assert lo < two_pi < hi
        assert abs(lo - R30) < Fraction(1, 10**29) and abs(hi - R30) < Fraction(1, 10**29)
        assert abs(float(TAU) - 6.283185307179586) < 1e-12

    def test_rational_predicates(self):
        assert as_tau(Fraction(7, 2)).is_rational
        assert as_tau(3).is_integer
        assert not TAU.is_rational
        assert (TAU / TAU).as_integer() == 1

    def test_hash_matches_fraction(self):
        assert hash(as_tau(Fraction(3, 2))) == hash(Fraction(3, 2))

    @given(taus(), taus(), taus())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(taus().filter(lambda x: not x.is_zero))
    @settings(max_examples=60)
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == as_tau(1)

    @given(taus(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40)
    def test_power_is_repeated_product(self, a, k):
        expected = as_tau(1)
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected

    @pytest.mark.parametrize("bad", ["1/0", "tau/(tau-tau)", "0^-1"])
    def test_division_by_zero_is_a_literal_error(self, bad):
        with pytest.raises(ValueError, match="division by zero"):
            parse_tau(bad)

    def test_nesting_is_bounded(self):
        assert parse_tau("(" * 100 + "1+tau" + ")" * 100) == 1 + TAU
        for depth in (101, 1200):
            with pytest.raises(ValueError, match="nests parentheses deeper than 100"):
                parse_tau("(" * depth + "1" + ")" * depth)

    def test_degree_is_bounded(self):
        assert parse_tau("tau^32") == TAU**32
        assert parse_tau("1/tau^32") == TAU**-32
        assert parse_tau("(tau^16+1)*(tau^16-1)") == TAU**32 - 1
        assert parse_tau("(tau^16+1)/(tau^16+2)+1/(tau^16+3)") == (
            (TAU**16 + 1) / (TAU**16 + 2) + 1 / (TAU**16 + 3)
        )
        for bad in (
            "tau^33",
            "tau^-33",
            "(1+tau)^200",
            "(tau^16+1)*(tau^17+1)",
            "1/(tau^17+1)/(tau^16+1)",
            "(tau^16+1)/(tau^16+2)+1/(tau^17+3)",
            "((1+tau)^64+1)/((2-tau)^64+3)",
            "((1+tau)/(2-tau))^128",
        ):
            with pytest.raises(ValueError, match="exceeds degree 32"):
                parse_tau(bad)

    def test_coefficient_size_is_bounded(self):
        # a power is predicted as |exponent| * the base's bit length (3 has
        # 2 bits); every other operation is checked on its result
        assert parse_tau("3^2048") == TauScalar(3**2048)
        assert parse_tau("3^-2048") == TauScalar(Fraction(1, 3**2048))
        assert parse_tau("(2^2000)*(2^2000)") == TauScalar(2**4000)
        for bad in (
            "3^2049",
            "3^10000000",
            "(1/3)^-2049",
            "(2^2000)*(2^2000)*(2^2000)",
            "(2^2000)*(2^2000)*(2^2000)/3",
            "2^2000*tau/(2^2000+2^2100*tau)*(2^2000)*(2^2000)",
            "(3^2000+tau)^2",
            "1/(2^4096+tau)",
        ):
            with pytest.raises(ValueError, match="exceeds 4096 bits in a coefficient"):
                parse_tau(bad)

    def test_float_is_evaluation_at_two_pi(self):
        x = parse_tau("1+1/2*tau")
        assert abs(float(x) - (1 + 3.141592653589793)) < 1e-12

    @pytest.mark.parametrize(
        "parts",
        [
            ("3^1200*tau^16+1", "5^800*tau^16+7", "7^800*tau^16+1", "3^1199*tau^15+7"),
            (
                "3^1200*tau^16+tau+1",
                "5^800*tau^16+tau+7",
                "7^800*tau^16+tau+1",
                "3^1199*tau^15+tau+7",
            ),
        ],
    )
    def test_large_coefficient_sum_parses_fast(self, parts):
        # degree <= 32 and coefficients < 4096 bits, inside both parser
        # bounds; a gcd over Fraction coefficients took 74 s on the first
        a, b, c, d = map(parse_tau, parts)
        text = "({})/({})+(({})/({}))".format(*parts)
        started = time.perf_counter()
        x = parse_tau(text)
        assert time.perf_counter() - started < 1.0
        assert x == a / b + c / d
        for r in (Fraction(1, 3), Fraction(-7, 2)):
            assert _at(x, r) == _at(a, r) / _at(b, r) + _at(c, r) / _at(d, r)


ZEROS = {
    "TauScalar(0)": lambda: TauScalar(0),
    "TauScalar((0, 0))": lambda: TauScalar((0, 0)),
    "TAU - TAU": lambda: TAU - TAU,
    "0 * TAU": lambda: 0 * TAU,
    "-TauScalar(0)": lambda: -TauScalar(0),
    'parse_tau("0")': lambda: parse_tau("0"),
    "zpoly_ratio((), (3,))": lambda: zpoly_ratio((), (3,)),
}


@pytest.mark.parametrize("make", ZEROS.values(), ids=ZEROS.keys())
def test_zero_every_way_it_is_made(make):
    x = make()
    assert (x._num, x._den) == ((), (1,))
    assert not x and x.is_rational and x.is_integer
    assert x.as_rational() == 0 and x.as_integer() == 0 and float(x) == 0.0
    assert hash(x) == hash(0) and str(x) == "0" and x.leading_sign() == 0 and x == 0
    assert parse_tau(str(x)) == x


class TestRealEmbedding:
    def test_floor_near_an_integer(self):
        # Horner's rule in floats cancels to 0.0 here, so a floor taken
        # from such a float of -x is wrong
        x = 10**18 * (TAU - R30)
        lo, hi = tau_enclosure(64)
        assert 0 < 10**18 * (lo - R30) and 10**18 * (hi - R30) < 1e-12
        assert tau_floor(x) == 0
        assert tau_floor(-x) == -1

    def test_float_near_an_integer(self):
        x = 10**18 * (TAU - R30)
        lo, hi = tau_enclosure(64)
        assert float(x) == float(10**18 * (lo - R30)) == float(10**18 * (hi - R30))
        assert 5.76e-15 < float(x) < 5.77e-15

    @given(
        st.lists(rationals, min_size=2, max_size=4),
        st.lists(rationals, min_size=1, max_size=3),
    )
    @settings(max_examples=100)
    def test_float_is_correctly_rounded(self, num, den):
        # against p(lo)/q(lo) at a far finer enclosure of tau: the two
        # differ by far less than the spacing of doubles, so they round
        # alike unless x all but sits on a rounding boundary
        q = TauScalar(tuple(den))
        assume(not q.is_zero)
        x = TauScalar(tuple(num)) / q
        assume(not x.is_rational)
        lo, _ = tau_enclosure(64)

        def at(coefs):
            return sum(c * lo**k for k, c in enumerate(coefs))

        assert float(x) == float(at(num) / at(den))

    @given(taus(3), taus(2).filter(lambda q: not q.is_zero))
    @settings(max_examples=200)
    def test_floor_matches_float_floor(self, p, q):
        x = p / q
        if x.is_rational:
            assert tau_floor(x) == math.floor(x.as_rational())
            return
        value = float(x)
        assume(abs(value - round(value)) >= 1e-6)
        assert tau_floor(x) == math.floor(value)

    def test_leading_sign_is_the_lowest_coefficient(self):
        assert (1 - TAU).leading_sign() == 1
        assert (TAU - 1).leading_sign() == -1
        assert (-TAU / (TAU + 1)).leading_sign() == -1
        assert as_tau(0).leading_sign() == 0

    def test_integer_rows_split_by_tau_power(self):
        rows = integer_rows([[TAU, 1 + TAU / 2], [1 / (TAU + 1), as_tau(0)]])
        assert rows == [[0, 1], [2, 1], [1, 0]]

    def test_integer_rows_share_a_repeated_denominator(self):
        # the row is cleared by (tau + 1) once, not by its square
        assert integer_rows([[1 / (TAU + 1), 1 / (TAU + 1)]]) == [[1, 1]]

    def test_integer_rows_are_primitive(self):
        rows = integer_rows(
            [
                [TAU, 1 + TAU / 2, as_tau(0)],
                [1 / (TAU + 1), as_tau(0), TAU / 4],
                [2 * TAU / 3, 4 / (TAU + 1), as_tau(6)],
                [TAU**2 / (TAU - 1), 1 + TAU, 2 / (TAU**2 + 1)],
            ]
        )
        assert rows and all(math.gcd(*row) == 1 for row in rows)

    def test_storage_is_private_to_scalars(self):
        package = Path(__file__).resolve().parents[1] / "src" / "almostabelian"
        pattern = re.compile(r"\.(_?num|_?den)\b")
        readers = [
            f.name
            for f in sorted(package.glob("*.py"))
            if f.name != "scalars.py" and pattern.search(f.read_text())
        ]
        assert readers == []


# The Euclidean gcd over Fraction coefficients that normalized TauScalars
# before the Z[tau] gcd: the oracle the stored form is checked against.


def _euclid_divmod(a, b):
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    rem = list(a)
    while len(rem) >= len(b) and any(rem):
        c = rem[-1] / b[-1]
        quot[len(rem) - len(b)] = c
        for j, y in enumerate(b):
            rem[len(rem) - len(b) + j] -= c * y
        rem.pop()
    return quot, rem


def _euclid_gcd(a, b):
    """Monic gcd over Q of nonzero polynomials."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while any(b):
        rem = _euclid_divmod(a, b)[1]
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    return tuple(c / a[-1] for c in a)


def _oracle_form(num, den):
    """(num, den) over their Euclid gcd, the denominator monic."""
    num, den = [tuple(Fraction(c) for c in p) for p in (num, den)]
    if not any(num):
        return (), (Fraction(1),)
    g = _euclid_gcd(num, den)
    num, den = _euclid_divmod(num, g)[0], _euclid_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def _zpoly(rng, degree, bits):
    coefs = [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(degree)]
    return tuple(coefs) + (rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1),)


def _planted_pairs(count, seed):
    """Pairs (a, b) in Z[tau], degree <= 6 each with coefficients up to
    2^200, times a common factor of degree <= 3; constants and units
    (+-1) on either side every few draws."""
    rng = random.Random(seed)
    for i in range(count):
        bits = rng.choice((1, 3, 30, 200))
        a = _zpoly(rng, rng.randint(0, 6), bits)
        b = _zpoly(rng, rng.randint(0, 6), bits)
        if i % 7 == 0:
            b = (rng.choice((-1, 1)),)
        elif i % 7 == 1:
            a = (rng.choice((-1, 1)) * rng.getrandbits(bits) or 1,)
        common = _zpoly(rng, rng.randint(0, 3), rng.choice((1, 3, 30, 200)))
        if i % 5 != 0:
            a, b = scalars._zmul(a, common), scalars._zmul(b, common)
        yield a, b


def _monic(p):
    return tuple(Fraction(c, p[-1]) for c in p)


def _planted_scalars(count, seed):
    """(num, den, TauScalar(num, den)) for the planted pairs, with Fraction
    coefficients that the constructor must clear."""
    rng = random.Random(7)
    for a, b in _planted_pairs(count, seed):
        scale = Fraction(rng.choice((1, 3, 2**64 + 1)), rng.choice((1, 10, 3**40)))
        num = tuple(scale * c for c in a)
        den = tuple(Fraction(c, rng.choice((1, 2, 3**40))) if len(b) > 1 else c for c in b)
        yield num, den, TauScalar(num, den)


class TestZGcd:
    def test_stored_form_matches_euclid(self):
        for num, den, x in _planted_scalars(150, seed=16):
            assert (x._num, x._den) == _oracle_form(num, den), (num, den)

    def test_negation_and_difference_keep_the_stored_form(self):
        # -x takes x's stored form as it is and x - y subtracts without
        # negating; both must store what the constructor makes of the value
        planted = list(_planted_scalars(150, seed=16))
        for (num, den, x), (_, _, y) in zip(planted, planted[1:] + planted[:1]):
            neg, diff = -x, x - y
            want = TauScalar(tuple(-c for c in num), den)
            assert (neg._num, neg._den) == (want._num, want._den)
            want = x + y * TauScalar(-1)
            assert (diff._num, diff._den) == (want._num, want._den)
            assert -neg == x

    def test_gcd_matches_euclid(self):
        for a, b in _planted_pairs(150, seed=17):
            g = scalars._zgcd(a, b)
            assert g[-1] > 0
            assert math.gcd(*g) == math.gcd(math.gcd(*a), math.gcd(*b))
            assert _monic(g) == _euclid_gcd(a, b)

    def test_remainder_sequence_matches_euclid(self):
        # the fallback, called directly: the heuristic decides every pair
        # drawn here before it would run
        for a, b in _planted_pairs(150, seed=18):
            if len(a) > 1 and len(b) > 1:
                a, b = scalars._primitive(a), scalars._primitive(b)
                g = scalars._zprs(a, b)
                assert g[-1] > 0 and math.gcd(*g) == 1
                assert _monic(g) == _euclid_gcd(a, b)

    def test_trial_division(self):
        a, b = (1, 2, 3), (-1, 0, 5)
        assert scalars._zdiv(scalars._zmul(a, b), b) == a
        assert scalars._zdiv(scalars._zmul(a, b), (2,)) is None
        assert scalars._zdiv((1, 2, 3), (1, 1)) is None
        assert scalars._zdiv((2, 0, 2), (1, 1)) is None
        assert scalars._zdiv((), (1, 1)) == ()
        assert scalars._zdiv((1,), (1, 1)) is None


def _fraction_polys(count, seed):
    """Fraction coefficient tuples of degree < 5 with a nonzero last
    coefficient, zero () every few draws."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 6 == 0:
            yield ()
            continue
        coefs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))]
        yield (*coefs, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)))


class TestRingHelpers:
    # the sum, difference and product serve Z[tau] and the Fraction
    # coefficients a TauScalar stores alike

    def test_fraction_coefficients_match_evaluation(self):
        points = (Fraction(-3, 2), Fraction(1, 3), Fraction(5))
        polys = list(_fraction_polys(60, seed=18))
        # equal operands cancel every term in a difference
        for a, b in [*zip(polys, polys[1:] + polys[:1]), *zip(polys, polys)]:
            for op, f in (
                (scalars._zadd, lambda x, y: x + y),
                (scalars._zsub, lambda x, y: x - y),
                (scalars._zmul, lambda x, y: x * y),
            ):
                c = op(a, b)
                assert c == () or c[-1] != 0, (op, a, b)
                for r in points:
                    assert _value(c, r) == f(_value(a, r), _value(b, r)), (op, a, b)

    def test_zero_operands_and_cancellation(self):
        half = Fraction(1, 2)
        assert scalars._zadd((1, 2), (1, -2)) == (2,)
        assert scalars._zsub((1, half), (0, half)) == (1,)
        assert scalars._zadd((half, 1), (-half, -1)) == ()
        assert scalars._zsub((half,), (half,)) == ()
        assert scalars._zadd((), (half,)) == scalars._zsub((half,), ()) == (half,)
        assert scalars._zsub((), (half, 1)) == (-half, -1)
        assert scalars._zmul((), (half,)) == scalars._zmul((half,), ()) == ()


class TestGaussRational:
    def test_parsing(self):
        assert parse_gauss("2/3i") == GaussRational(0, Fraction(2, 3))
        assert parse_gauss("1-1/2i") == GaussRational(1, Fraction(-1, 2))
        assert parse_gauss("i") == GaussRational(0, 1)
        assert parse_gauss("-i") == GaussRational(0, -1)
        assert parse_gauss("5/3") == GaussRational(Fraction(5, 3))
        assert parse_gauss("0") == GaussRational(0)

    def test_round_trip(self):
        for text in ["2/3i", "1-1/2i", "i", "-2", "1+i"]:
            assert parse_gauss(str(parse_gauss(text))) == parse_gauss(text)

    def test_conjugate(self):
        z = GaussRational(1, Fraction(2, 3))
        assert z.conjugate() == GaussRational(1, Fraction(-2, 3))
        assert z.conjugate().conjugate() == z

    @pytest.mark.parametrize("bad", ["", "1..2", "i i", "2/3j", "1/0i", "1/0+i"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_gauss(bad)
