import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betahole import seq_core
from betahole.seq_core import (
    EPSeq,
    Ordering,
    RatInterval,
    eps,
    format_interval,
    is_shift_maximal,
    is_shift_minimal,
    lex_cmp,
    log_interval,
    periodic,
    pi_beta,
    pi_beta_at,
    shift,
    word_zeros,
)
from betahole.errors import PreconditionError


def naive_digits(x: EPSeq, n: int) -> str:
    return "".join(x.digit(i) for i in range(n))


# |pre|, |per| <= 6: distinct sequences differ within 6 + lcm(5, 6) = 36 digits
eps_seqs = st.builds(eps, st.text("01", max_size=6), st.text("01", min_size=1, max_size=6))


def long_prefix(x: EPSeq) -> str:
    return naive_digits(x, 100)


def random_eps(rng, max_pre=5, max_per=5) -> EPSeq:
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(max_pre + 1)))
    per = "".join(rng.choice("01") for _ in range(1, max_per + 1))
    return eps(pre, per)


class TestCanonicalize:
    def test_absorbs_preperiod(self):
        assert eps("1", "01") == periodic("10")

    def test_primitive_root(self):
        assert eps("", "0101") == periodic("01")

    def test_already_canonical(self):
        x = eps("0101", "0")
        assert (x.pre, x.per) == ("0101", "0")

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            x = random_eps(rng)
            assert eps(x.pre, x.per) == x

    def test_rejects_empty_period(self):
        with pytest.raises(PreconditionError):
            eps("01", "")

    def test_value_preserved(self):
        rng = random.Random(11)
        for _ in range(200):
            pre = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
            per = "".join(rng.choice("01") for _ in range(1, 6))
            x = eps(pre, per)
            raw = (pre + per * 20)[:40]
            assert naive_digits(x, 40) == raw


class TestParse:
    def test_round_trip(self):
        for text in ["111(001)", "(110)", "0101(0)", "(10)"]:
            assert str(EPSeq.parse(text)) == str(EPSeq.parse(str(EPSeq.parse(text))))

    def test_rejects_garbage(self):
        for bad in ["111", "11()", "1(2)", "1(0)1"]:
            with pytest.raises(PreconditionError):
                EPSeq.parse(bad)


class TestLexCmp:
    def test_spec_examples(self):
        assert lex_cmp(periodic("110"), periodic("10")) is Ordering.GREATER
        assert lex_cmp(eps("1", "01"), periodic("10")) is Ordering.EQUAL
        assert lex_cmp(eps("111", "001"), periodic("110")) is Ordering.GREATER

    def test_matches_naive_comparison(self):
        # decision bound: the verdict within the stated bound equals a
        # comparison on a 10x longer prefix
        rng = random.Random(3)
        for _ in range(300):
            x, y = random_eps(rng), random_eps(rng)
            bound = max(len(x.pre), len(y.pre)) + math.lcm(len(x.per), len(y.per))
            a, b = naive_digits(x, 10 * bound), naive_digits(y, 10 * bound)
            want = Ordering.LESS if a < b else Ordering.GREATER if a > b else Ordering.EQUAL
            assert lex_cmp(x, y) is want

    def test_total_order_on_random_triples(self):
        rng = random.Random(5)
        for _ in range(200):
            x, y, z = (random_eps(rng) for _ in range(3))
            # antisymmetry
            assert lex_cmp(x, y).value == -lex_cmp(y, x).value
            # transitivity
            if lex_cmp(x, y).value <= 0 and lex_cmp(y, z).value <= 0:
                assert lex_cmp(x, z).value <= 0

    def test_sort_key_orders_beyond_long_common_prefix(self):
        # 1^70 0^inf < 1^70 (01)^inf, equal on their first 71 digits
        x = word_zeros("1" * 70)
        y = eps("1" * 70, "01")
        assert x.prefix(71) == y.prefix(71)
        assert naive_digits(x, 200) < naive_digits(y, 200)
        assert sorted([y, x]) == [x, y]
        assert sorted([x, y]) == [x, y]

    @settings(deadline=None)
    @given(st.lists(eps_seqs, min_size=1, max_size=8))
    def test_operators_sorted_min_match_long_prefix(self, xs):
        for x in xs:
            for y in xs:
                a, b = long_prefix(x), long_prefix(y)
                assert (x == y) == (a == b)
                assert (x < y) == (a < b) and (x <= y) == (a <= b)
                assert (x > y) == (a > b) and (x >= y) == (a >= b)
        assert [long_prefix(x) for x in sorted(xs)] == sorted(map(long_prefix, xs))
        assert long_prefix(min(xs)) == min(map(long_prefix, xs))
        assert long_prefix(max(xs)) == max(map(long_prefix, xs))

    def test_operators_call_lex_cmp_once_through_the_module(self, monkeypatch):
        # the benchmark tracer rebinds seq_core.lex_cmp, so every comparison
        # must reach it by that name
        calls = []
        original = seq_core.lex_cmp

        def counted(x, y):
            calls.append((x, y))
            return original(x, y)

        monkeypatch.setattr(seq_core, "lex_cmp", counted)
        x, y = periodic("01"), periodic("1")
        assert x < y and x <= y and y > x and y >= x
        assert sorted([y, x]) == [x, y]
        assert len(calls) == 5


class TestShift:
    def test_spec_examples(self):
        assert shift(periodic("110"), 1) == periodic("101")
        assert shift(eps("111", "001"), 3) == periodic("001")
        x = eps("10", "110")
        assert shift(x, 0) == x

    def test_full_period_shift_fixes_periodic(self):
        rng = random.Random(9)
        for _ in range(100):
            x = eps("", "".join(rng.choice("01") for _ in range(1, 7)))
            assert shift(x, len(x.per)) == x

    def test_matches_naive(self):
        rng = random.Random(13)
        for _ in range(200):
            x = random_eps(rng)
            n = rng.randrange(12)
            assert naive_digits(shift(x, n), 24) == naive_digits(x, 24 + n)[n:]


class TestExtremality:
    def test_spec_examples(self):
        assert is_shift_maximal(periodic("110"))
        assert is_shift_minimal(periodic("011"))
        assert not is_shift_maximal(eps("0", "110"))

    def test_against_exhaustive_shifts(self):
        rng = random.Random(17)
        for _ in range(150):
            x = random_eps(rng, 4, 4)
            deep = [lex_cmp(shift(x, n), x).value for n in range(1, 40)]
            assert is_shift_maximal(x) == all(v <= 0 for v in deep)
            assert is_shift_minimal(x) == all(v >= 0 for v in deep)


class TestPiBeta:
    def test_geometric_series(self):
        # pi_2((01)^inf) = sum 2^-2k = 1/3
        assert pi_beta_at(periodic("01"), Fraction(2)) == Fraction(1, 3)

    def test_one_over_beta(self):
        for b in [Fraction(3, 2), Fraction(9, 5), Fraction(2)]:
            assert pi_beta_at(word_zeros("1"), b) == 1 / b

    def test_matches_partial_sums(self):
        rng = random.Random(19)
        for _ in range(60):
            x = random_eps(rng)
            b = Fraction(rng.randrange(101, 200), 100)
            exact = pi_beta_at(x, b)
            partial = sum(int(x.digit(i)) / b ** (i + 1) for i in range(220))
            tail_bound = b ** Fraction(-220) / (b - 1)
            assert abs(exact - partial) <= tail_bound

    def test_interval_monotone(self):
        x = eps("10", "110")
        iv = pi_beta(x, RatInterval(Fraction(3, 2), Fraction(8, 5)))
        assert iv.lo == pi_beta_at(x, Fraction(8, 5))
        assert iv.hi == pi_beta_at(x, Fraction(3, 2))

    def test_strictly_increasing_in_admissible_sequences(self):
        # x < y implies pi(x) < pi(y) for greedy-admissible pairs
        from betahole.base_solver import is_greedy_admissible

        alpha = eps("111", "011")
        rng = random.Random(23)
        pool = []
        while len(pool) < 20:
            x = random_eps(rng, 3, 4)
            if is_greedy_admissible(x, alpha):
                pool.append(x)
        b = Fraction(19, 10)
        for x in pool:
            for y in pool:
                if lex_cmp(x, y) is Ordering.LESS:
                    assert pi_beta_at(x, b) < pi_beta_at(y, b)


class TestLogInterval:
    def test_log2(self):
        iv = log_interval(RatInterval.point(Fraction(2)))
        assert float(iv.width()) < 1e-30
        assert abs(float(iv.lo) - math.log(2)) < 1e-14

    def test_monotone_bracket(self):
        iv = log_interval(RatInterval(Fraction(3, 2), Fraction(8, 5)))
        assert math.isclose(float(iv.lo), math.log(1.5), rel_tol=1e-12)
        assert math.isclose(float(iv.hi), math.log(1.6), rel_tol=1e-12)

    def test_log_one_is_zero(self):
        iv = log_interval(RatInterval.point(Fraction(1)))
        assert iv.lo == iv.hi == 0


def test_format_interval_outward():
    lo, hi = format_interval(RatInterval(Fraction(1, 3), Fraction(1, 3)), places=6)
    assert lo == "0.333333" and hi == "0.333334"


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10**9)


@settings(deadline=None)
@given(fractions, fractions, st.integers(0, 12))
def test_format_interval_rounds_each_end_outward_by_under_one_unit(a, b, places):
    x = RatInterval(min(a, b), max(a, b))
    lo, hi = (Fraction(s) for s in format_interval(x, places))
    unit = Fraction(1, 10**places)
    assert lo <= x.lo < lo + unit
    assert hi - unit < x.hi <= hi


nonnegative = st.fractions(min_value=0, max_value=10, max_denominator=10**6)
positive = st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6)


@settings(deadline=None)
@given(nonnegative, nonnegative, positive, positive)
def test_divide_is_the_exact_hull_of_endpoint_quotients(a, b, c, d):
    x, y = RatInterval(min(a, b), max(a, b)), RatInterval(min(c, d), max(c, d))
    quotients = [p / q for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
    assert x.divide(y) == RatInterval(min(quotients), max(quotients))
