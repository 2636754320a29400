import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betahole.base_solver import beta_from_alpha, is_greedy_admissible
from betahole.classifier import (
    Position,
    classify,
    endpoint_alpha,
    endpoint_position,
    left_alpha,
    right_alpha,
    star_alpha,
    tau,
    tau_greedy_seq,
    theta,
)
from betahole.errors import PreconditionError
from betahole.seq_core import EPSeq, eps, periodic, pi_beta_at, word_zeros
from betahole.substitution import compose_chain, phi
from betahole.word_combinatorics import farey_from_rational, farey_level

F23 = [s for s in farey_level(3) if len(s) >= 2]
F2 = [s for s in farey_level(2) if len(s) >= 2]  # 001, 01, 011


class TestLocate:
    # the first Farey factor of the chain and the position at depth 1
    def test_paper_cases(self):
        record = classify(EPSeq.parse("111010(110)"))
        assert (record.chain[0], record.depth, record.position) == ("011", 1, Position.STAR)
        record = classify(EPSeq.parse("11(01)"))
        assert (record.chain[0], record.depth, record.position) == ("01", 1, Position.RIGHT)
        record = classify(periodic("10"))
        assert (record.chain[0], record.depth, record.position) == ("01", 1, Position.LEFT)

    def test_one_periodic_has_no_interval(self):
        assert classify(periodic("1")).chain == ()

    def test_defining_inequalities(self):
        for text in ["111010(110)", "(1110101100)", "1110100110111(001)", "110100000(10)"]:
            alpha = EPSeq.parse(text)
            s = classify(alpha).chain[0]
            assert left_alpha(s) <= alpha
            assert alpha <= right_alpha(s)


class TestClassify:
    @pytest.mark.parametrize(
        "text,chain,position",
        [
            ("1110100110111(001)", ("011",), Position.INTERIOR),
            ("(1100)", ("01", "01"), Position.LEFT),
            ("(110)", ("011",), Position.LEFT),
            ("111010(110)", ("011",), Position.STAR),
            ("11(01)", ("01",), Position.RIGHT),
            ("(1)", (), Position.TWO),
            ("(1110101100)", ("011",), Position.INTERIOR),
            ("110100000(10)", ("01", "01"), Position.INTERIOR),
        ],
    )
    def test_examples(self, text, chain, position):
        record = classify(EPSeq.parse(text))
        assert record.chain == chain
        assert record.position is position

    def test_endpoint_round_trip(self):
        # classify(endpoint_alpha(S, x)) returns position x with the same
        # chain, for chains over F2 u F3 of length <= 3
        rng = random.Random(7)
        chains = [(s,) for s in F23]
        chains += [tuple(rng.choices(F23, k=2)) for _ in range(8)]
        chains += [tuple(rng.choices(F23, k=3)) for _ in range(6)]
        for chain in chains:
            word = compose_chain(chain)
            if len(word) > 40:
                continue
            for which, pos in [("l", Position.LEFT), ("*", Position.STAR), ("r", Position.RIGHT)]:
                record = classify(endpoint_alpha(chain, which))
                assert record.position is pos, (chain, which)
                assert record.chain == chain, (chain, which)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(64, 100),
        st.lists(st.sampled_from(F2), max_size=2),
        st.integers(0, 2),
        st.sampled_from(["l", "*", "r"]),
    )
    def test_endpoint_round_trip_long_factor(self, k, short, at, which):
        # a Farey factor 0^k 1 needs k Stern-Brocot steps, more than the
        # default max_depth = 64; classify still returns the chain
        chain = tuple(short[:at]) + (farey_from_rational(Fraction(1, k + 1)),) + tuple(short[at:])
        record = classify(endpoint_alpha(chain, which))
        assert (record.chain, record.position) == (chain, endpoint_position(which)), (chain, which)

    def test_exactly_one_label(self):
        # rechecking the defining inequalities of the produced class
        for text in ["111010(110)", "(1100)", "11(01)", "(1110101100)"]:
            alpha = EPSeq.parse(text)
            record = classify(alpha)
            word = record.composed
            if record.position is Position.LEFT:
                assert alpha == left_alpha(word)
            elif record.position is Position.STAR:
                assert alpha == star_alpha(word)
            elif record.position is Position.RIGHT:
                assert alpha == right_alpha(word)
            else:
                assert left_alpha(word) <= alpha <= star_alpha(word)

    def test_never_exceptional_for_periodic_alpha(self):
        rng = random.Random(9)
        from betahole.base_solver import is_admissible_alpha

        found = 0
        while found < 40:
            pre = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            per = "".join(rng.choice("01") for _ in range(1, 7))
            try:
                alpha = eps("1" + pre, per)
            except Exception:
                continue
            if not is_admissible_alpha(alpha):
                continue
            found += 1
            record = classify(alpha)
            assert record.position in (
                Position.TWO,
                Position.LEFT,
                Position.STAR,
                Position.RIGHT,
                Position.INTERIOR,
            )


class TestDepthLimits:
    def test_locate_depth_exceeded(self):
        # the Stern-Brocot descent to 00001 takes 4 steps; max_depth caps
        # only the chain depth, which is 1
        deep = endpoint_alpha(["00001"], "l")
        record = classify(deep, max_depth=2)
        assert (record.chain, record.position) == (("00001",), Position.LEFT)
        record = classify(deep, max_depth=0)
        assert (record.chain, record.position) == ((), Position.DEPTH_LIMITED)

    def test_classify_depth_limited(self):
        record = classify(EPSeq.parse("110100000(10)"), max_depth=1)
        assert record.position is Position.DEPTH_LIMITED
        with pytest.raises(PreconditionError):
            tau_greedy_seq(record)


class TestEndpointAlpha:
    def test_paper_values(self):
        assert endpoint_alpha(["011"], "*") == EPSeq.parse("111010(110)")
        assert endpoint_alpha(["011"], "l") == periodic("110")
        assert endpoint_alpha(["01"], "r") == EPSeq.parse("11(01)")

    def test_composed_chain(self):
        # S = 01 . 01 = 0011
        assert endpoint_alpha(["01", "01"], "l") == periodic("1100")
        assert endpoint_alpha("0011", "*") == EPSeq.parse("11010010(1100)")


class TestTau:
    def test_star_case(self):
        alpha = EPSeq.parse("111010(110)")
        t = tau(classify(alpha), beta_from_alpha(alpha))
        assert t.greedy == eps("010", "110")

    def test_beta_two(self):
        alpha = periodic("1")
        t = tau(classify(alpha), beta_from_alpha(alpha))
        assert t.greedy == word_zeros("1")
        assert t.value.contains(Fraction(1, 2))

    def test_left_endpoint_value_matches_one_minus_inv_beta(self):
        # at beta_l^s the critical point is 1 - 1/beta
        for s in ["01", "011", "001"]:
            alpha = left_alpha(s)
            record = classify(alpha)
            spec = beta_from_alpha(alpha)
            t = tau(record, spec)
            lo, hi = spec.enclosure.lo, spec.enclosure.hi
            # both enclosures contain the true value, so they overlap
            assert t.value.lo <= 1 - 1 / hi and 1 - 1 / lo <= t.value.hi

    def test_greedy_output_is_greedy(self):
        for text in ["111010(110)", "(110)", "11(01)", "(1100)", "(1110101100)", "(1)"]:
            alpha = EPSeq.parse(text)
            t = tau(classify(alpha), beta_from_alpha(alpha))
            assert is_greedy_admissible(t.greedy, alpha)

    def test_value_agrees_with_symbolic(self):
        # numeric tau equals pi_beta of the symbolic output
        alpha = EPSeq.parse("111010(110)")
        record = classify(alpha)
        spec = beta_from_alpha(alpha)
        t = tau(record, spec)
        mid = spec.enclosure.mid()
        assert t.value.lo <= pi_beta_at(t.greedy, mid) <= t.value.hi


class TestTheta:
    def test_base_point(self):
        # t-hat = 0 maps to the anchor pi_beta(S^- L(S)^inf)
        from betahole.base_solver import TPoint
        from betahole.seq_core import RatInterval, periodic as per

        s = "011"
        alpha_hat = periodic("10")  # golden base
        alpha = phi(s, alpha_hat)
        beta, beta_hat = beta_from_alpha(alpha), beta_from_alpha(alpha_hat)
        zero_hat = TPoint(greedy=per("0"), value=RatInterval.point(0))
        t = theta(s, beta, beta_hat, zero_hat)
        assert t.greedy == phi(s, per("0"))
        assert t.greedy == eps("010", "110")

    def test_periodic_word_maps_to_image_power(self):
        from betahole.base_solver import TPoint
        from betahole.seq_core import RatInterval

        s = "01"
        alpha_hat = periodic("110")
        alpha = phi(s, alpha_hat)
        beta, beta_hat = beta_from_alpha(alpha), beta_from_alpha(alpha_hat)
        w_hat = periodic("01")
        t_hat = TPoint(greedy=w_hat, value=RatInterval.point(0))
        t = theta(s, beta, beta_hat, t_hat)
        assert t.greedy == periodic(phi(s, "01"))
        assert t.greedy == periodic("0011")

    def test_images_of_lyndon_words_stay_lyndon(self):
        # the renormalization sends beta-hat-Lyndon words to beta-Lyndon
        # words, the mechanism behind the interval transfer map
        import random

        from betahole.lyndon_intervals import is_beta_lyndon
        from betahole.word_combinatorics import lyndon_words

        rng = random.Random(31)
        alphas_hat = [periodic("10"), periodic("110"), EPSeq.parse("111010(110)")]
        pool = [w for w in lyndon_words(6, min_len=2)]
        for s in ["01", "011", "001", "00101"]:
            for alpha_hat in alphas_hat:
                alpha = phi(s, alpha_hat)
                for w_hat in rng.sample(pool, 8):
                    if not is_beta_lyndon(w_hat, alpha_hat):
                        continue
                    assert is_beta_lyndon(phi(s, w_hat), alpha), (s, w_hat)

    def test_requires_renormalization_relation(self):
        from betahole.base_solver import TPoint
        from betahole.seq_core import RatInterval

        beta = beta_from_alpha(periodic("110"))
        beta_hat = beta_from_alpha(periodic("10"))
        with pytest.raises(PreconditionError):
            theta("01", beta, beta_hat, TPoint(greedy=periodic("0"), value=RatInterval.point(0)))
