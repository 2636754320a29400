import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betahole.base_solver import (
    BetaSpec,
    alpha_from_beta,
    beta_from_alpha,
    detect_eventually_periodic,
    greedy_digits,
    is_admissible_alpha,
    is_greedy_admissible,
    periodic_alpha_to_greedy_one,
)
from betahole.errors import InadmissibleAlpha, PreconditionError
from betahole.seq_core import ONE, EPSeq, RatInterval, eps, periodic, pi_beta_at, word_zeros
from betahole.word_combinatorics import cyclic_max


def bisect_poly_root(coeffs, lo: Fraction, hi: Fraction, tol: Fraction) -> Fraction:
    """Independent oracle: sign bisection of a polynomial given by
    coefficients [c0, c1, ...] for c0 + c1 x + ...; root in (lo, hi)."""

    def val(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    assert val(lo) * val(hi) < 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = val(mid)
        if v == 0:
            return mid
        if (v > 0) == (val(hi) > 0):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


GOLDEN = bisect_poly_root([-1, -1, 1], Fraction(1), Fraction(2), Fraction(1, 10**35))
TRIBONACCI = bisect_poly_root([-1, -1, -1, 1], Fraction(1), Fraction(2), Fraction(1, 10**35))
# rational points strictly below the algebraic roots: the quasi-greedy
# expansion is left-continuous, so their digit prefixes agree with the
# roots' expansions until the approximation error blows up (~100 digits)
GOLDEN_LO = GOLDEN - Fraction(1, 10**30)
TRIBONACCI_LO = TRIBONACCI - Fraction(1, 10**30)


class TestAlphaFromBeta:
    def test_beta_two(self):
        assert alpha_from_beta(2, 10) == "1" * 10

    def test_golden(self):
        digits = alpha_from_beta(GOLDEN_LO, 16)
        assert digits == "10" * 8

    def test_tribonacci(self):
        digits = alpha_from_beta(TRIBONACCI_LO, 18)
        assert digits == "110" * 6


class TestBetaFromAlpha:
    def test_one_periodic_is_two(self):
        spec = beta_from_alpha(periodic("1"))
        assert spec.enclosure.lo == spec.enclosure.hi == 2

    def test_golden(self):
        spec = beta_from_alpha(periodic("10"))
        assert spec.enclosure.contains(GOLDEN)
        assert spec.enclosure.width() <= Fraction(1, 10**30)

    def test_tribonacci(self):
        spec = beta_from_alpha(periodic("110"))
        assert spec.enclosure.contains(TRIBONACCI)
        assert abs(spec.enclosure.mid() - TRIBONACCI) < Fraction(1, 10**12)

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleAlpha):
            beta_from_alpha(eps("0", "110"))
        with pytest.raises(InadmissibleAlpha):
            beta_from_alpha(word_zeros("11"))

    def test_rejects_nonpositive_tol(self):
        # a zero width is unreachable for an irrational beta: the bisection would not stop
        with pytest.raises(PreconditionError):
            beta_from_alpha(periodic("110"), 0)

    def test_defining_property(self):
        for text in ["(10)", "(110)", "111010(110)", "11(01)", "(1110101100)"]:
            alpha = EPSeq.parse(text)
            spec = beta_from_alpha(alpha)
            assert pi_beta_at(alpha, spec.enclosure.lo) >= 1 >= pi_beta_at(alpha, spec.enclosure.hi)

    def test_monotone_in_alpha(self):
        # alpha strictly increasing in beta
        pairs = [("(10)", "(110)"), ("(110)", "(1110)"), ("111010(110)", "11(01)")]
        for a_text, b_text in pairs:
            a = beta_from_alpha(EPSeq.parse(a_text)).enclosure
            b = beta_from_alpha(EPSeq.parse(b_text)).enclosure
            assert a.hi < b.lo or a.lo > b.hi


def fraction_bisection(alpha: EPSeq, tol: Fraction) -> RatInterval:
    """Oracle: the earlier production bisection, with pi_beta evaluated
    in Fractions at every midpoint."""
    if alpha == ONE:
        return RatInterval.point(Fraction(2))
    hi = Fraction(2)
    lo = Fraction(3, 2)
    while pi_beta_at(alpha, lo) <= 1:
        lo = 1 + (lo - 1) / 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = pi_beta_at(alpha, mid)
        if v == 1:
            return RatInterval.point(mid)
        if v > 1:
            lo = mid
        else:
            hi = mid
    return RatInterval(lo, hi)


TOLS = [Fraction(1, 2**8), Fraction(1, 10**30), Fraction(1, 10**60)]


@st.composite
def admissible_alphas(draw):
    """pre(per) with |pre| <= 6 and |per| <= 60: per is a largest rotation,
    and leading digits of pre are dropped until the sequence is admissible
    (the empty preperiod always is)."""
    n = draw(st.integers(1, 60))
    per = cyclic_max(draw(st.text("01", min_size=n, max_size=n).filter(lambda w: "1" in w)))
    pre = draw(st.text("01", max_size=6))
    return next(x for x in (eps(pre[i:], per) for i in range(len(pre) + 1)) if is_admissible_alpha(x))


class TestBisectionProperty:
    def check(self, alpha, tol):
        enclosure = beta_from_alpha(alpha, tol).enclosure
        assert enclosure == fraction_bisection(alpha, tol)
        assert pi_beta_at(alpha, enclosure.lo) >= 1 >= pi_beta_at(alpha, enclosure.hi)
        assert enclosure.width() <= tol

    @settings(max_examples=40, deadline=None)
    @given(admissible_alphas(), st.sampled_from(TOLS))
    def test_matches_fraction_bisection(self, alpha, tol):
        self.check(alpha, tol)

    @pytest.mark.parametrize("tol", TOLS, ids=["2^-8", "1e-30", "1e-60"])
    @pytest.mark.parametrize(
        "alpha",
        [eps("11", "1" + "0" * 149), periodic("1110" + "10" * 98)],
        ids=["period-150", "period-200"],
    )
    def test_long_periods(self, alpha, tol):
        assert is_admissible_alpha(alpha)
        self.check(alpha, tol)


def random_admissible_alpha(rng, max_period=8) -> EPSeq:
    while True:
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, max_period + 1))
        try:
            x = eps("1" + pre, per)
        except PreconditionError:
            continue
        if is_admissible_alpha(x) and x != periodic("1"):
            return x


class TestAlphaMonotone:
    def test_alpha_increasing_on_beta_grid(self):
        from fractions import Fraction as F

        prev = None
        for k in range(1, 40):
            b = 1 + F(k, 40)
            digits = alpha_from_beta(b, 24)
            if prev is not None:
                assert prev <= digits
            prev = digits


class TestRoundTrip:
    def test_fifty_random_alphas(self):
        rng = random.Random(2024)
        for _ in range(50):
            alpha = random_admissible_alpha(rng)
            spec = beta_from_alpha(alpha)
            d = max(len(alpha.pre) + 3 * len(alpha.per), 12)
            # the quasi-greedy expansion is left-continuous in beta, so the
            # digits at the lower enclosure endpoint match alpha's prefix
            digits = alpha_from_beta(spec.enclosure.lo, d)
            assert digits == alpha.prefix(d)
            detected = detect_eventually_periodic(alpha.prefix(len(alpha.pre) + 4 * len(alpha.per) + 4))
            assert detected == alpha
            spec2 = beta_from_alpha(detected)
            assert abs(spec2.enclosure.mid() - spec.enclosure.mid()) < Fraction(1, 10**10)


class TestGreedyDigits:
    def test_zero(self):
        spec = beta_from_alpha(periodic("110"))
        assert greedy_digits(0, spec, 8) == "0" * 8

    def test_binary_third(self):
        assert greedy_digits(Fraction(1, 3), Fraction(2), 10) == "01" * 5

    def test_half_base_two(self):
        assert greedy_digits(Fraction(1, 2), Fraction(2), 6) == "100000"

    def test_reproduces_value(self):
        # t is sandwiched between the truncation-low and truncation-high
        # values of its greedy digit prefix, with outward beta rounding
        rng = random.Random(77)
        for _ in range(25):
            alpha = random_admissible_alpha(rng, 5)
            spec = beta_from_alpha(alpha)
            t = Fraction(rng.randrange(1, 64), 64)
            digits = greedy_digits(t, spec, 40)
            low = pi_beta_at(eps(digits, "0"), spec.enclosure.hi)
            high = pi_beta_at(eps(digits, "1"), spec.enclosure.lo)
            assert low <= t <= high

    def test_monotone_in_t(self):
        spec = beta_from_alpha(periodic("110"))
        prev = None
        for k in range(1, 16):
            digits = greedy_digits(Fraction(k, 16), spec, 30)
            if prev is not None:
                assert prev <= digits
            prev = digits


class TestAdmissibility:
    def test_examples(self):
        assert is_greedy_admissible(periodic("011"), eps("111010", "110"))
        alpha = eps("111010", "110")
        assert not is_greedy_admissible(alpha, alpha)
        assert not is_greedy_admissible(periodic("110"), periodic("110"))

    def test_greedy_output_is_admissible(self):
        spec = beta_from_alpha(periodic("110"))
        digits = greedy_digits(Fraction(1, 3), spec, 36)
        detected = detect_eventually_periodic(digits)
        if detected is not None:
            assert is_greedy_admissible(detected, spec.alpha)


class TestPeriodicGreedyOne:
    def test_paper_case(self):
        # (1110101100)^inf has greedy expansion of 1 equal to 1110101101 0^inf
        got = periodic_alpha_to_greedy_one(periodic("1110101100"))
        assert got == word_zeros("1110101101")

    def test_small(self):
        assert periodic_alpha_to_greedy_one(periodic("10")) == word_zeros("11")
        assert periodic_alpha_to_greedy_one(periodic("110")) == word_zeros("111")

    def test_rejects_non_periodic(self):
        with pytest.raises(PreconditionError):
            periodic_alpha_to_greedy_one(eps("111", "001"))

    def test_value_identity(self):
        # pi_beta of alpha and of the greedy expansion of 1 both equal 1
        alpha = periodic("1110101100")
        spec = beta_from_alpha(alpha)
        g = periodic_alpha_to_greedy_one(alpha)
        mid = spec.enclosure.mid()
        assert abs(pi_beta_at(g, mid) - 1) < Fraction(1, 10**25)
