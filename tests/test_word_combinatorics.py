import random
from fractions import Fraction

import pytest

from betahole.errors import PreconditionError
from betahole.word_combinatorics import (
    cyclic_max,
    cyclic_min,
    farey_from_rational,
    farey_level,
    farey_words_of_length,
    is_balanced,
    is_farey,
    is_lyndon,
    lyndon_words,
    rotations,
    standard_factorization,
    xi,
)


class TestLyndon:
    def test_examples(self):
        assert is_lyndon("01011")
        assert not is_lyndon("0101")  # period 2
        assert not is_lyndon("0110")  # rotation 0011 is smaller

    def test_against_rotation_oracle(self):
        rng = random.Random(1)
        for _ in range(300):
            w = "".join(rng.choice("01") for _ in range(1, 10))
            want = all(w < r for r in rotations(w)[1:])
            assert is_lyndon(w) == want

    def test_generator_is_exactly_the_lyndon_words(self):
        got = set(lyndon_words(7))
        brute = set()
        for n in range(1, 8):
            for bits in range(2**n):
                w = format(bits, "0%db" % n)
                if is_lyndon(w):
                    brute.add(w)
        assert got == brute


class TestCyclicExtremes:
    def test_examples(self):
        assert cyclic_max("01011") == "11010"  # reverse of the Farey word
        assert cyclic_max("0011") == "1100"
        assert cyclic_min("110") == "011"

    def test_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            w = "".join(rng.choice("01") for _ in range(1, 9))
            rots = rotations(w)
            assert cyclic_max(w) == max(rots)
            assert cyclic_min(w) == min(rots)


class TestFareyLevels:
    def test_paper_levels(self):
        assert farey_level(1) == ["0", "01", "1"]
        assert farey_level(2) == ["0", "001", "01", "011", "1"]
        f3 = farey_level(3)
        assert "00101" in f3 and "01011" in f3
        assert f3 == sorted(f3)

    def test_sizes(self):
        for n in range(7):
            assert len(farey_level(n)) == 2**n + 1


class TestIsFarey:
    def test_examples(self):
        assert is_farey("00101")
        assert not is_farey("0010111")  # contains both 00 and 11, no chain
        assert not is_farey("0011")

    def test_matches_level_membership(self):
        # a Farey word of length n has Stern-Brocot depth <= n - 1, so
        # every Farey word of length <= 7 appears by level 6
        level = set(farey_level(6))
        for n in range(1, 8):
            for bits in range(2**n):
                w = format(bits, "0%db" % n)
                assert is_farey(w) == (w in level)

    def test_degenerate(self):
        assert is_farey("0") and is_farey("1") and is_farey("01")
        assert not is_farey("10") and not is_farey("11") and not is_farey("")


class TestXi:
    def test_examples(self):
        assert xi("011") == Fraction(2, 3)
        assert xi("01") == Fraction(1, 2)
        assert xi("00101") == Fraction(2, 5)

    def test_inverse(self):
        assert farey_from_rational(Fraction(1, 2)) == "01"
        assert farey_from_rational(Fraction(1, 3)) == "001"
        assert farey_from_rational(Fraction(2, 3)) == "011"

    def test_round_trip_on_levels(self):
        for s in farey_level(6):
            assert farey_from_rational(xi(s)) == s

    def test_injective_on_level(self):
        level = farey_level(6)
        values = [xi(s) for s in level]
        assert len(set(values)) == len(values)

    def test_words_of_length(self):
        for n in range(2, 10):
            words = farey_words_of_length(n)
            assert all(len(w) == n and is_farey(w) for w in words)
            # one word per reduced fraction k/n
            assert len(words) == sum(1 for k in range(1, n) if Fraction(k, n).denominator == n)


class TestBalanced:
    def test_examples(self):
        for s in farey_level(3):
            assert is_balanced(s)
        assert not is_balanced("1100")
        assert is_balanced("10")

    def test_subwords_of_balanced_are_balanced(self):
        w = farey_from_rational(Fraction(3, 8)) * 3
        for i in range(len(w)):
            for j in range(i + 1, min(i + 9, len(w))):
                if is_balanced(w):
                    assert is_balanced(w[i:j]) or not is_balanced(w)


class TestStandardFactorization:
    def test_examples(self):
        assert standard_factorization("011") == ("01", "1")
        assert standard_factorization("01011") == ("01", "011")
        assert standard_factorization("001") == ("0", "01")

    def test_unique_and_recombines(self):
        for s in farey_level(5):
            if len(s) < 2:
                continue
            a, b = standard_factorization(s)
            assert a + b == s
            assert is_farey(a) and is_farey(b)

    def test_rejects_non_farey(self):
        with pytest.raises(PreconditionError):
            standard_factorization("0011")


class TestFareyWordFacts:
    # Farey words reverse to their largest rotation, s^- is a palindrome,
    # and every Farey word of length >= 2 is Lyndon
    def test_reverse_palindrome_lyndon(self):
        for s in farey_level(7):
            if len(s) < 2:
                continue
            assert cyclic_max(s) == s[::-1]
            sm = s[:-1] + "0"
            assert sm == sm[::-1]
            assert is_lyndon(s)
            assert cyclic_min(s) == s
