import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betahole import lyndon_intervals
from betahole.base_solver import beta_from_alpha, is_admissible_alpha, is_greedy_admissible
from betahole.classifier import classify, tau
from betahole.errors import InvariantError, NoCandidate, PreconditionError
from betahole.lyndon_intervals import (
    Ebli,
    ebli,
    einf_exceptional_stream,
    exceptional_points,
    gap_point,
    in_E_beta,
    is_beta_lyndon,
    plateaus,
    symbolic_plateau,
    v_star,
)
from betahole.seq_core import EPSeq, eps, periodic, pi_beta, seq_ge, seq_key, seq_le, seq_lt, shift, word_zeros
from betahole.windows import build_windows, maximal_windows
from betahole.word_combinatorics import cyclic_max, is_lyndon, lyndon_words
from oracles import (
    beta_lyndon_loop,
    ebli_contains,
    greedy_admissible_loop,
    in_E_beta_loop,
    is_maximal_ebli,
    nesting_or_disjoint,
)

A_STAR = EPSeq.parse("111010(110)")     # beta_*^{011}
A_91 = EPSeq.parse("(1110101100)")
A_E = EPSeq.parse("11100111(001)")


class TestIsBetaLyndon:
    def test_paper_cases(self):
        assert is_beta_lyndon("01010111", A_91)
        assert is_beta_lyndon("01011", A_91)
        assert not is_beta_lyndon("00111", A_E)
        assert not is_beta_lyndon("011", periodic("110"))

    def test_beta_two_accepts_all_but_one(self):
        one = periodic("1")
        for w in lyndon_words(6):
            assert is_beta_lyndon(w, one) == (w != "1")

    def test_no_extension_of_failed_word(self):
        # a Lyndon word that is not beta-Lyndon has no beta-Lyndon extension
        for alpha in [A_STAR, A_E, A_91]:
            bad = [v for v in lyndon_words(10) if not is_beta_lyndon(v, alpha)]
            for w in lyndon_words(14):
                if is_beta_lyndon(w, alpha):
                    assert not any(w != v and w.startswith(v) for v in bad)


class TestVStar:
    def test_paper_case(self):
        assert v_star("00111", A_E) == "01"

    def test_identity_when_beta_lyndon(self):
        assert v_star("01011", A_91) == "01011"
        assert v_star("0011", A_STAR) == "0011"  # beta-Lyndon here, so fixed

    def test_against_definition(self):
        # smallest beta-Lyndon w with w^inf >= v^inf, brute force over all
        # Lyndon words (not just length-bounded ones: lengths <= |v| suffice)
        rng = random.Random(5)
        alphas = [A_STAR, A_E, A_91]
        for _ in range(60):
            alpha = rng.choice(alphas)
            v = rng.choice(list(lyndon_words(7, min_len=2)))
            try:
                got = v_star(v, alpha)
            except NoCandidate:
                got = None
            want = None
            for w in lyndon_words(9, min_len=1):
                if is_beta_lyndon(w, alpha) and seq_ge(periodic(w), periodic(v)):
                    if want is None or seq_lt(periodic(w), periodic(want)):
                        want = w
            assert got == want, (v, str(alpha))

    def test_no_candidate(self):
        with pytest.raises(NoCandidate):
            v_star("0111", periodic("110"))


class TestEbli:
    def test_beta_two_plain(self):
        e = ebli("01", periodic("1"))
        assert e.plain and e.m is None
        assert e.left_seq == word_zeros("01")
        assert e.right_seq == periodic("01")

    def test_extended_case(self):
        e = ebli("011", A_STAR)
        assert not e.plain and e.m == 3
        assert e.left_seq == eps("010", "110")

    def test_tail_scan_case(self):
        e = ebli("0011", A_STAR)
        # verified by brute-force tail scan: no tail of alpha is <= (0011)^inf
        from betahole.seq_core import n_tails

        target = periodic("0011")
        assert all(seq_lt(target, shift(A_STAR, n)) for n in range(1, n_tails(A_STAR) + 1))
        assert e.plain

    def test_non_plain_left_endpoint_in_E_beta(self):
        for alpha in [A_STAR, A_91]:
            for w in lyndon_words(10, min_len=2):
                if not is_beta_lyndon(w, alpha):
                    continue
                e = ebli(w, alpha)
                if not e.plain:
                    assert in_E_beta(e.left_seq, alpha)

    def test_rejects_non_beta_lyndon(self):
        with pytest.raises(PreconditionError):
            ebli("011", periodic("110"))


class TestEbliEntropyConstancy:
    def test_entropy_equal_at_both_endpoints(self):
        # the entropy of the survivor subshift agrees at the left and
        # right endpoints of an EBLI (plain and extended cases)
        from betahole.survivor_shift import entropy_of_bounds

        cases = [("011", A_STAR), ("0011", A_STAR), ("01011", A_91), ("01", A_91)]
        for w, alpha in cases:
            e = ebli(w, alpha)
            h_left = entropy_of_bounds(e.left_seq, alpha).h
            h_right = entropy_of_bounds(e.right_seq, alpha).h
            assert abs(float(h_left.mid() - h_right.mid())) < 1e-9, (w, str(alpha))


class TestSymbolicPlateau:
    def test_beta_two(self):
        left, right = symbolic_plateau("01", periodic("1"))
        assert left == eps("00", "1")
        assert right == periodic("01")

    def test_extended(self):
        left, right = symbolic_plateau("011", A_STAR)
        assert left == eps("010", "110")
        assert right == periodic("011")


class TestInEBeta:
    def test_examples(self):
        assert in_E_beta(periodic("0"), A_STAR)
        assert in_E_beta(eps("010", "110"), A_STAR)
        assert not in_E_beta(word_zeros("1"), periodic("1"))

    def test_requires_admissibility(self):
        with pytest.raises(PreconditionError):
            in_E_beta(periodic("110"), periodic("110"))


class TestExceptionalPoints:
    def test_theorem_instances(self):
        assert exceptional_points(["01", "001"], "l") == [periodic("01")]
        assert exceptional_points(["011"], "l") == []
        assert exceptional_points(["011"], "*") == [periodic("011")]

    def test_counts(self):
        chain = ["01", "011", "001"]
        assert len(exceptional_points(chain, "l")) == 2
        assert len(exceptional_points(chain, "*")) == 3
        assert len(exceptional_points(chain, "r")) == 3

    def test_points_in_E_beta_and_interval(self):
        from betahole.classifier import endpoint_alpha, classify, tau

        for chain, which in [(["01", "001"], "l"), (["011"], "*"), (["01", "01"], "r")]:
            alpha = endpoint_alpha(chain, which)
            spec = beta_from_alpha(alpha)
            t = tau(classify(alpha), spec)
            pts = exceptional_points(chain, which)
            assert len(pts) == len(set(pts))
            for p in pts:
                assert in_E_beta(p, alpha)
                val = pi_beta(p, spec.enclosure)
                assert val.lo > t.value.hi  # strictly beyond tau
                assert val.hi < 1

    def test_entropy_vanishes_at_exceptional_points(self):
        # the exceptional points lie beyond tau, where the survivor
        # subshift has zero entropy; in particular entropy is locally
        # constant across each of them
        from betahole.classifier import endpoint_alpha
        from betahole.survivor_shift import entropy_of_bounds

        for chain, which in [(["01", "001"], "l"), (["011"], "*"), (["01", "01"], "r")]:
            alpha = endpoint_alpha(chain, which)
            hs = [
                float(entropy_of_bounds(p, alpha).h.hi)
                for p in exceptional_points(chain, which)
            ]
            assert all(h < 1e-9 for h in hs)
            assert all(abs(a - b) < 1e-9 for a, b in zip(hs, hs[1:]))

    def test_decreasing_order(self):
        pts = exceptional_points(["01", "011", "001"], "r")
        for a, b in zip(pts, pts[1:]):
            assert seq_lt(b, a)


class TestEinfStream:
    def test_first_elements(self):
        import itertools

        got = list(itertools.islice(einf_exceptional_stream(iter(["01", "01", "01"])), 3))
        assert got[0] == periodic("01")
        assert got[1] == periodic("0011")

    def test_paper_chain(self):
        import itertools

        got = list(itertools.islice(einf_exceptional_stream(iter(["01", "001"])), 2))
        assert got == [periodic("01"), periodic("001011")]


class TestGapPoint:
    def test_structure(self):
        alpha = EPSeq.parse("1110100110111(001)")
        for M in (2, 3, 5):
            g = gap_point(["011"], alpha, M)
            # b = S^- L(S)^M u^- L(S)^inf with S = 011, u = 11
            assert g == eps("010" + "110" * M + "10", "110")
            assert in_E_beta(g, alpha)

    def test_distinct_for_distinct_m(self):
        alpha = EPSeq.parse("1110100110111(001)")
        assert gap_point(["011"], alpha, 2) != gap_point(["011"], alpha, 3)

    def test_no_beta_lyndon_prefix_completion_beyond_construction(self):
        alpha = EPSeq.parse("1110100110111(001)")
        M = 2
        g = gap_point(["011"], alpha, M)
        start = (M + 1) * 3 + 2
        for k in range(start + 1, start + 10):
            if g.digit(k - 1) == "0":
                cand = g.prefix(k - 1) + "1"
                assert not is_beta_lyndon(cand, alpha)

    def test_below_threshold_rejected(self):
        alpha = EPSeq.parse("1110100110111(001)")
        with pytest.raises(PreconditionError):
            gap_point(["011"], alpha, 0)

    def test_requires_interior(self):
        with pytest.raises(PreconditionError):
            gap_point(["011"], A_STAR, 5)


class TestNonDenseGap:
    # at a base whose alpha begins 11101011001, the intervals of 01010111
    # and 01011 are neighbors: no beta-Lyndon word extends the former and
    # nothing fits in between
    def test_no_extension_is_beta_lyndon(self):
        w = "01010111"
        assert is_beta_lyndon(w, A_91)
        for extra in range(1, 5):
            for bits in range(2**extra):
                ext = w + format(bits, "0%db" % extra)
                assert not is_beta_lyndon(ext, A_91), ext

    def test_no_interval_in_between(self):
        lo = periodic("01010111")
        hi = word_zeros("01011")
        for u in lyndon_words(12, min_len=2):
            if not is_beta_lyndon(u, A_91):
                continue
            ui = periodic(u)
            assert not (seq_lt(lo, ui) and seq_lt(ui, hi)), u


class TestPlateaus:
    def test_beta_two_plateaus_are_plain_lyndon_intervals(self):
        rep = plateaus(periodic("1"), max_word_len=6)
        eblis = [p for p in rep.plateaus if p.kind == "ebli"]
        words = {p.ebli.w for p in eblis}
        assert words == set(lyndon_words(6, min_len=2))
        assert all(p.ebli.plain for p in eblis)
        # pairwise disjoint
        for i, a in enumerate(eblis):
            for b in eblis[i + 1 :]:
                assert seq_le(a.ebli.right_seq, b.ebli.left_seq) or seq_le(
                    b.ebli.right_seq, a.ebli.left_seq
                )
        assert rep.plateaus[-1].kind == "terminal"

    def test_left_endpoint_every_interval_is_plain(self):
        # at beta_l^{011} every beta-Lyndon interval is a plateau (B = E)
        rep = plateaus(periodic("110"), max_word_len=7)
        for p in rep.plateaus:
            if p.kind == "ebli":
                assert p.ebli.plain

    def test_star_includes_boundary_ebli(self):
        rep = plateaus(A_STAR, max_word_len=5)
        words = {p.ebli.w for p in rep.plateaus if p.kind == "ebli"}
        assert "011" in words  # its EBLI's left endpoint equals tau(beta)

    def test_nesting_or_disjoint_enumeration(self):
        for alpha in [A_STAR, A_91]:
            eblis = [
                ebli(w, alpha)
                for w in lyndon_words(10, min_len=2)
                if is_beta_lyndon(w, alpha)
            ]
            for i, a in enumerate(eblis):
                for b in eblis[i + 1 :]:
                    assert nesting_or_disjoint(a, b), (a.w, b.w)

    def test_maximality_against_windows(self):
        # maximal window closures are EBLIs; EBLIs properly inside them are
        # exactly the non-maximal ones among the window-covered EBLIs
        alpha = A_91
        mws = maximal_windows(build_windows(alpha))
        covered = ebli("01010111", alpha)
        assert not is_maximal_ebli(covered, mws)
        closure = ebli("01011", alpha)
        assert is_maximal_ebli(closure, mws)  # equal, not properly contained


@st.composite
def admissible_alphas(draw):
    """pre(per) with |pre| <= 14 and |per| <= 10: per is a largest rotation,
    pre often starts with 1110 (large bases, where EBLIs nest), and leading
    digits of pre are dropped until the sequence is admissible."""
    n = draw(st.integers(1, 10))
    per = cyclic_max(draw(st.text("01", min_size=n, max_size=n).filter(lambda w: "1" in w)))
    pre = draw(st.sampled_from(["", "1110"])) + draw(st.text("01", max_size=10))
    return next(x for x in (eps(pre[i:], per) for i in range(len(pre) + 1)) if is_admissible_alpha(x))


class TestPlateauSweep:
    @settings(max_examples=80, deadline=None)
    @given(admissible_alphas(), st.integers(0, 8))
    def test_sweep_matches_pairwise_definition(self, alpha, max_len):
        # the candidates are laminar, and the sweep keeps exactly those
        # contained in no other candidate, in increasing order
        tau_seq = tau(classify(alpha), beta_from_alpha(alpha)).greedy
        candidates = [
            ebli(w, alpha)
            for w in lyndon_words(max_len, min_len=2)
            if is_beta_lyndon(w, alpha)
        ]
        candidates = [e for e in candidates if seq_le(e.left_seq, tau_seq)]
        for i, a in enumerate(candidates):
            for b in candidates[i + 1 :]:
                assert nesting_or_disjoint(a, b), (a.w, b.w)
        expected = [
            e for e in candidates if not any(o is not e and ebli_contains(o, e) for o in candidates)
        ]
        expected.sort(key=lambda e: seq_key(e.right_seq))
        rep = plateaus(alpha, max_len, with_entropy=False)
        assert [p.ebli.w for p in rep.plateaus if p.kind == "ebli"] == [e.w for e in expected]
        assert rep.plateaus[-1].kind == "terminal"

    @staticmethod
    def _fake_eblis(monkeypatch, ends):
        """Replace the EBLIs of the three beta-Lyndon words of length <= 3
        at A_STAR by [lo 0^inf, hi 0^inf]; all start below tau = 0(101)."""
        words = [w for w in lyndon_words(3, min_len=2) if is_beta_lyndon(w, A_STAR)]
        assert len(words) == len(ends) == 3
        fake = {
            w: Ebli(w, word_zeros(lo), word_zeros(hi), None, True) for w, (lo, hi) in zip(words, ends)
        }
        monkeypatch.setattr(lyndon_intervals, "ebli", lambda w, alpha: fake[w])
        return words

    def test_touching_and_shared_left_ends(self, monkeypatch):
        # touching EBLIs are disjoint, and of two EBLIs with one left end
        # the longer contains the shorter
        words = self._fake_eblis(monkeypatch, [("0001", "001"), ("001", "01"), ("001", "0011")])
        rep = plateaus(A_STAR, max_word_len=3, with_entropy=False)
        assert [p.ebli.w for p in rep.plateaus if p.kind == "ebli"] == words[:2]

    def test_crossing_pair_raises(self, monkeypatch):
        # [0001 0^inf, 01 0^inf] and [001 0^inf, 011 0^inf] overlap without nesting
        self._fake_eblis(monkeypatch, [("0001", "01"), ("001", "011"), ("00001", "0001")])
        with pytest.raises(InvariantError, match="overlap without nesting"):
            plateaus(A_STAR, max_word_len=3, with_entropy=False)


@st.composite
def points(draw):
    """pre(per) with |pre|, |per| <= 8, or a word w as w^inf or w 0^inf."""
    kind = draw(st.sampled_from(["pre(per)", "periodic", "zeros"]))
    pre = draw(st.text("01", max_size=8))
    if kind == "pre(per)":
        return eps(pre, draw(st.text("01", min_size=1, max_size=8)))
    w = pre + "1"
    return periodic(min(w[i:] + w[:i] for i in range(len(w)))) if kind == "periodic" else word_zeros(w)


class TestOneCopyOfEachCheck:
    # is_beta_lyndon and in_E_beta reuse is_greedy_admissible and
    # is_shift_minimal; the shift loops they once ran inline are the oracles
    @settings(max_examples=300, deadline=None)
    @given(admissible_alphas(), st.text("01", min_size=1, max_size=12), points())
    def test_checks_agree_with_inline_loops(self, alpha, word, x):
        lyndon_word = min(word[i:] + word[:i] for i in range(len(word)))
        for w in (word, lyndon_word):
            assert is_beta_lyndon(w, alpha) == beta_lyndon_loop(w, alpha), (w, str(alpha))
        admissible = is_greedy_admissible(x, alpha)
        assert admissible == greedy_admissible_loop(x, alpha), (str(x), str(alpha))
        if admissible:
            assert in_E_beta(x, alpha) == in_E_beta_loop(x, alpha), (str(x), str(alpha))
        else:
            with pytest.raises(PreconditionError):
                in_E_beta(x, alpha)
            with pytest.raises(PreconditionError):
                in_E_beta_loop(x, alpha)
