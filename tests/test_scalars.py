"""Exact scalar tower: rationals, the formal circle constant, Gaussian rationals."""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

# 2*pi truncated after 30 decimals: tau - R30 is about 5.8e-33
R30 = Fraction("6.283185307179586476925286766559")


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

    def test_storage_is_private_to_scalars(self):
        package = Path(__file__).resolve().parents[1] / "src" / "almostabelian"
        pattern = re.compile(r"\.(_?num|_?den)\b")
        readers = [
            f.name
            for f in sorted(package.glob("*.py"))
            if f.name != "scalars.py" and pattern.search(f.read_text())
        ]
        assert readers == []


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
