import math
import random
from fractions import Fraction

import pytest

from betahole.base_solver import beta_from_alpha
from betahole.errors import EmptyShift, PreconditionError
from betahole.seq_core import EPSeq, RatInterval, periodic, word_zeros
from betahole.survivor_shift import (
    build_automaton,
    dimension,
    entropy,
    is_transitive_sofic,
    minimize,
    perron_root,
    spectral_radius,
)
from betahole.word_combinatorics import cyclic_max
from oracles import (
    count_words,
    count_words_oracle,
    descending_check,
    entropy_of_bounds,
    essential_part,
    oracle_words,
    succ_lists,
)

GOLDEN_MEAN_H = math.log((1 + 5**0.5) / 2)


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


class TestBuildAutomaton:
    def test_golden_mean(self):
        aut = build_automaton(periodic("01"), periodic("1"))
        assert not aut.is_empty()
        # counts are Fibonacci: B_n = F_{n+2}
        for n in range(1, 14):
            assert count_words(aut, n) == fib(n + 2)

    def test_sandwich_is_pure_cycle(self):
        aut = build_automaton(word_zeros("011"), periodic("110"))
        core = essential_part(aut)
        assert core.n_states == 3
        assert all(len(e) == 1 for e in core.edges)

    def test_full_shift(self):
        aut = build_automaton(periodic("0"), periodic("1"))
        assert count_words(aut, 10) == 1024

    def test_empty_when_bounds_pinch(self):
        # lower = upper = (10)^inf: every tail would have to equal (10)^inf,
        # which the shift of (10)^inf already violates, so Sigma is empty
        aut = build_automaton(periodic("10"), periodic("10"))
        assert aut.is_empty()
        assert count_words(aut, 6) == 0
        assert count_words_oracle(periodic("10"), periodic("10"), 6) == 0

    def test_rejects_reversed_bounds(self):
        with pytest.raises(PreconditionError):
            build_automaton(periodic("1"), periodic("01"))

    def test_word_sets_match_oracle(self):
        cases = [
            (periodic("01"), periodic("1")),
            (word_zeros("011"), periodic("110")),
            (periodic("01010111"), periodic("11101010")),
            (periodic("011"), EPSeq.parse("111010(110)")),
            (word_zeros("01"), EPSeq.parse("11(01)")),
        ]
        for lower, upper in cases:
            aut = build_automaton(lower, upper)
            for n in range(1, 13):
                assert aut.words(n) == oracle_words(lower, upper, n), (str(lower), n)


class TestEntropy:
    def test_golden_mean(self):
        res = entropy(build_automaton(periodic("01"), periodic("1")))
        assert abs(float(res.h.mid()) - GOLDEN_MEAN_H) < 1e-9
        assert float(res.h.width()) < 1e-12

    def test_cycle_entropy_zero(self):
        res = entropy(build_automaton(word_zeros("011"), periodic("110")))
        assert res.h.lo == res.h.hi == 0

    def test_full_shift_log2(self):
        res = entropy(build_automaton(periodic("0"), periodic("1")))
        assert abs(float(res.h.mid()) - math.log(2)) < 1e-12

    def test_convergence_of_count_rate(self):
        # |log(B_n)/n - h| <= C/n along n = 8..20
        aut = build_automaton(periodic("01"), periodic("1"))
        h = float(entropy(aut).h.mid())
        errs = [abs(math.log(count_words(aut, n)) / n - h) * n for n in range(8, 21)]
        assert max(errs) < 2.0

    def test_entropy_monotone_in_lower_bound(self):
        alpha = periodic("1")
        hs = []
        for w in ["01", "011", "0111"]:
            hs.append(float(entropy_of_bounds(periodic(w), alpha).h.mid()))
        assert hs == sorted(hs, reverse=True)

    def test_full_beta_shift_dimension_one(self):
        for text in ["(10)", "(110)", "111010(110)"]:
            alpha = EPSeq.parse(text)
            spec = beta_from_alpha(alpha)
            dim = dimension(entropy_of_bounds(periodic("0"), alpha), spec.enclosure)
            assert dim.lo <= 1 <= dim.hi or abs(float(dim.mid()) - 1) < 1e-9

    def test_empty_shift_raises(self):
        empty = build_automaton(periodic("10"), periodic("10"))
        assert empty.is_empty()
        with pytest.raises(EmptyShift):
            entropy(empty)


class TestPerron:
    def test_fibonacci_matrix(self):
        iv = perron_root(succ_lists([[1, 1], [1, 0]]))
        assert abs(float(iv.mid()) - (1 + 5**0.5) / 2) < 1e-13

    def test_permutation_matrix_exact(self):
        iv = perron_root(succ_lists([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert iv.lo == iv.hi == 1

    def test_spectral_radius_reducible(self):
        # two blocks: a 2-cycle (radius 1) and a full 2-shift loop (radius 2)
        mat = [
            [0, 1, 0],
            [1, 0, 0],
            [1, 0, 2],
        ]
        iv = spectral_radius(mat)
        assert abs(float(iv.mid()) - 2) < 1e-12

    def test_random_matrices_against_numpy_free_iteration(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randrange(2, 6)
            mat = [[rng.randrange(0, 2) for _ in range(n)] for _ in range(n)]
            if not any(any(row) for row in mat):
                continue
            iv = spectral_radius(mat)
            # plain float power iteration as an independent estimate
            v = [1.0] * n
            for _ in range(3000):
                w = [sum(a * x for a, x in zip(row, v)) + x0 for row, x0 in zip(mat, v)]
                m = max(w)
                if m == 0:
                    break
                v = [x / m for x in w]
            est = max(
                sum(a * x for a, x in zip(row, v)) / x0
                for row, x0 in zip(mat, v)
                if x0 > 1e-12
            ) if max(v) > 0 else 0.0
            if iv.hi == 0 or est < 1e-2:
                continue  # nilpotent: the float estimator is the noisy side
            assert float(iv.lo) - 1e-3 <= est <= float(iv.hi) + 1e-3


class TestDimension:
    def test_golden_under_two(self):
        res = entropy(build_automaton(periodic("01"), periodic("1")))
        dim = dimension(res, RatInterval.point(Fraction(2)))
        assert abs(float(dim.mid()) - GOLDEN_MEAN_H / math.log(2)) < 1e-12

    def test_zero_entropy_zero_dimension(self):
        res = entropy(build_automaton(word_zeros("011"), periodic("110")))
        dim = dimension(res, RatInterval(Fraction(3, 2), Fraction(8, 5)))
        assert dim.lo == dim.hi == 0


class TestOracle:
    def test_fibonacci(self):
        assert count_words_oracle(periodic("01"), periodic("1"), 5) == 13

    def test_sandwich_counts(self):
        for s in ["01", "011", "00101"]:
            lower, upper = word_zeros(s), periodic(cyclic_max(s))
            for n in range(len(s), 2 * len(s) + 2):
                assert count_words_oracle(lower, upper, n) == len(s)

    def test_full_shift(self):
        assert count_words_oracle(periodic("0"), periodic("1"), 10) == 1024

    def test_guard(self):
        with pytest.raises(PreconditionError):
            count_words_oracle(periodic("0"), periodic("1"), 30)


class TestTransitivity:
    def test_golden_mean(self):
        assert is_transitive_sofic(build_automaton(periodic("01"), periodic("1"))).transitive

    def test_cycle(self):
        assert is_transitive_sofic(build_automaton(word_zeros("011"), periodic("110"))).transitive

    def test_example_91_not_transitive(self):
        aut = build_automaton(periodic("01010111"), periodic("11101010"))
        report = is_transitive_sofic(aut)
        assert not report.transitive
        assert report.word_level is False

    def test_word_level_agrees_on_samples(self):
        cases = [
            (periodic("01"), periodic("1")),
            (periodic("011"), EPSeq.parse("111010(110)")),
            (periodic("01010111"), periodic("11101010")),
            (word_zeros("011"), periodic("110")),
        ]
        for lower, upper in cases:
            report = is_transitive_sofic(build_automaton(lower, upper))
            assert report.word_level == report.transitive


class TestDescending:
    def test_strict_chain(self):
        bounds = [
            (periodic("01"), periodic("1")),
            (periodic("011"), periodic("1")),
        ]
        assert descending_check(bounds)

    def test_equal_bounds_not_strict(self):
        bounds = [
            (periodic("01"), periodic("1")),
            (periodic("01"), periodic("1")),
        ]
        assert not descending_check(bounds)

    def test_maximal_ebli_chain_at_star_point(self):
        # successive maximal-EBLI right endpoints give descending subshifts
        from betahole.lyndon_intervals import plateaus

        alpha = EPSeq.parse("111010(110)")
        rep = plateaus(alpha, max_word_len=6)
        rights = [p.ebli.right_seq for p in rep.plateaus if p.kind == "ebli"]
        bounds = [(r, alpha) for r in rights[:4]]
        assert descending_check(bounds)


class TestMinimize:
    def test_equivalent_to_original_language(self):
        rng = random.Random(21)
        cases = [
            (periodic("01"), periodic("1")),
            (periodic("011"), EPSeq.parse("111010(110)")),
            (word_zeros("01"), EPSeq.parse("11(01)")),
        ]
        for lower, upper in cases:
            aut = build_automaton(lower, upper)
            mini = minimize(aut)
            assert mini.n_states <= aut.n_states
            for n in range(1, 10):
                assert count_words(mini, n) == count_words(aut, n)
