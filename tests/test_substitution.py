import random

import pytest

from betahole.errors import NotInRange, PreconditionError
from betahole.seq_core import eps, lex_cmp, periodic, shift, word_zeros
from betahole.substitution import (
    bullet,
    phi,
    phi_inverse,
    phi_inverse_word,
    sandwich_points,
)
from betahole.word_combinatorics import cyclic_max, farey_level, is_lyndon


def random_eps(rng, max_pre=4, max_per=4):
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(max_pre + 1)))
    per = "".join(rng.choice("01") for _ in range(1, max_per + 1))
    return eps(pre, per)


FAREY_POOL = [s for s in farey_level(4) if len(s) >= 2]


class TestPhi:
    def test_paper_values(self):
        assert phi("01", "011") == "001101"  # Example of the bullet product
        assert phi("01", "11100") == "1101010010"
        assert bullet("01", "001") == "001011"
        assert bullet("01", "011") == "001101"
        assert bullet("01", "01") == "0011"

    def test_phi_of_zero_sequence(self):
        # Phi_s(0^inf) = s^- L(s)^inf
        for s in FAREY_POOL:
            want = eps(s[:-1] + "0", cyclic_max(s))
            assert phi(s, periodic("0")) == want

    def test_phi_of_one_sequence(self):
        # Phi_s(1^inf) = L(s)^+ s^inf
        from betahole.seq_core import plus

        for s in FAREY_POOL:
            want = eps(plus(cyclic_max(s)), s)
            assert phi(s, periodic("1")) == want

    def test_eps_agrees_with_word_prefixes(self):
        rng = random.Random(41)
        for _ in range(150):
            s = rng.choice(FAREY_POOL)
            x = random_eps(rng)
            y = phi(s, x)
            n = 8
            word_img = phi(s, "".join(x.digit(i) for i in range(n)))
            assert "".join(y.digit(i) for i in range(len(word_img))) == word_img

    def test_strictly_increasing(self):
        rng = random.Random(43)
        checked = 0
        while checked < 200:
            s = rng.choice(FAREY_POOL)
            x, y = random_eps(rng), random_eps(rng)
            if x == y:
                continue
            want = lex_cmp(x, y).value
            assert lex_cmp(phi(s, x), phi(s, y)).value == want
            checked += 1

    def test_plus_minus_commutation(self):
        # Phi_s(d^-) = Phi_s(d)^-, Phi_s(d^+) = Phi_s(d)^+
        rng = random.Random(47)
        for _ in range(150):
            s = rng.choice(FAREY_POOL)
            d = "".join(rng.choice("01") for _ in range(2, 7))
            img = phi(s, d)
            if d[-1] == "1":
                assert phi(s, d[:-1] + "0") == img[:-1] + "0"
            else:
                assert phi(s, d[:-1] + "1") == img[:-1] + "1"

    def test_lyndon_and_cyclic_max_commutation(self):
        # s.r Lyndon; L(s.r) = s.L(r)
        rng = random.Random(53)
        for _ in range(120):
            s, r = rng.choice(FAREY_POOL), rng.choice(FAREY_POOL)
            sr = bullet(s, r)
            assert is_lyndon(sr)
            assert cyclic_max(sr) == phi(s, cyclic_max(r))

    def test_associativity_on_sequences(self):
        # (r.s) applied to x equals r applied to (s applied to x)
        rng = random.Random(83)
        for _ in range(60):
            r, s = rng.choice(FAREY_POOL), rng.choice(FAREY_POOL)
            x = random_eps(rng)
            assert phi(bullet(r, s), x) == phi(r, phi(s, x))

    def test_associativity(self):
        rng = random.Random(59)
        for _ in range(110):
            r, s, t = (rng.choice(FAREY_POOL) for _ in range(3))
            assert bullet(bullet(r, s), t) == bullet(r, bullet(s, t))

    def test_rejects_non_lyndon(self):
        with pytest.raises(PreconditionError):
            phi("0110", "01")

    def test_partial_homomorphism_on_connectible_blocks(self):
        # Phi_s(b1 b2 ...) = Phi_s(b1) Phi_s(b2) ... whenever the last
        # digit of each block differs from the first digit of the next
        rng = random.Random(73)
        done = 0
        while done < 120:
            s = rng.choice(FAREY_POOL)
            blocks = []
            for _ in range(rng.randrange(2, 5)):
                b = "".join(rng.choice("01") for _ in range(1, 5))
                if blocks and blocks[-1][-1] == b[0]:
                    b = ("1" if b[0] == "0" else "0") + b[1:]
                blocks.append(b)
            whole = "".join(blocks)
            assert phi(s, whole) == "".join(phi(s, b) for b in blocks)
            done += 1


class TestPhiInverse:
    def test_paper_examples(self):
        assert phi_inverse("01", "001101") == "011"
        assert phi_inverse("01", eps("00", "10")) == periodic("0")
        with pytest.raises(NotInRange):
            phi_inverse("01", periodic("0"))

    def test_round_trip_words(self):
        rng = random.Random(61)
        for _ in range(250):
            s = rng.choice(FAREY_POOL)
            w = "".join(rng.choice("01") for _ in range(1, 9))
            assert phi_inverse(s, phi(s, w)) == w

    def test_round_trip_sequences(self):
        rng = random.Random(67)
        for _ in range(200):
            s = rng.choice(FAREY_POOL)
            x = random_eps(rng)
            assert phi_inverse(s, phi(s, x)) == x

    def test_reports_position(self):
        try:
            phi_inverse_word("01", "001110")
        except NotInRange as exc:
            assert exc.position == 4
        else:
            raise AssertionError("expected a parse failure")


class TestSandwich:
    def test_examples(self):
        assert set(map(str, sandwich_points("01"))) == {"(01)", "(10)"}
        assert len(sandwich_points("011")) == 3
        assert len(sandwich_points("001")) == 3

    def test_brute_force_cross_check(self):
        # enumerate all words of length n viable for both bounds; exactly
        # the rotation prefixes appear
        for s in ["01", "001", "011", "0111", "00101", "01011"]:
            n = 2 * len(s) + 4
            lower, upper = word_zeros(s), periodic(cyclic_max(s))
            viable = set()
            for bits in range(2**n):
                w = format(bits, "0%db" % n)
                ok = True
                for i in range(n):
                    tail = w[i:]
                    lo = "".join(lower.digit(k) for k in range(len(tail)))
                    hi = "".join(upper.digit(k) for k in range(len(tail)))
                    if tail < lo or tail > hi:
                        ok = False
                        break
                if ok:
                    viable.add(w)
            expected = {
                "".join(p.digit(i) for i in range(n)) for p in sandwich_points(s)
            }
            # viable length-n words that extend to members are exactly the
            # rotation prefixes; stray viable words must fail to extend
            assert expected <= viable
            for w in viable - expected:
                assert not any(
                    "".join(p.digit(i) for i in range(n)) == w for p in sandwich_points(s)
                )

    def test_points_satisfy_bounds(self):
        from betahole.seq_core import n_tails

        for s in ["01", "011", "00101"]:
            lower, upper = word_zeros(s), periodic(cyclic_max(s))
            for p in sandwich_points(s):
                for k in range(n_tails(p)):
                    t = shift(p, k)
                    assert lower <= t <= upper
