import time

import pytest

from betahole.classifier import classify
from betahole.errors import PreconditionError
from betahole.lyndon_intervals import ebli, in_E_beta, is_beta_lyndon
from betahole.seq_core import EPSeq, eps, periodic
from betahole.substitution import phi
from betahole.survivor_shift import is_transitive_sofic, build_automaton
from betahole.windows import (
    Verdict,
    build_windows,
    is_transitive,
    maximal_windows,
    transitive_core,
)
from oracles import entropy_of_bounds

A_EX_A = EPSeq.parse("1110100110111(001)")  # 111 01 00110111 (001)^inf
A_EX_C = EPSeq.parse("111001(01)")
A_EX_E = EPSeq.parse("11100111(001)")
A_EX_F = EPSeq.parse("(1110101100)")


def canon(text: str) -> EPSeq:
    return EPSeq.parse(text)


class TestGoldenWindows:
    def test_case_a(self):
        t0 = time.time()
        ws = build_windows(A_EX_A)
        assert [r.v for r in ws.records] == ["01", "00110111", "001"]
        assert [r.v_star for r in ws.records] == ["01", "00110111", "001"]
        assert [r.lower_seq for r in ws.records] == [
            canon("00(110)"),
            canon("00110110(11100)"),
            canon("000(1110100110110)"),
        ]
        assert [r.upper_seq for r in ws.records] == [
            canon("(01)"),
            canon("(00110111)"),
            canon("(001)"),
        ]
        # all later windows nest inside I_3
        assert ws.tail_nested_at == 3
        assert [r.closed for r in ws.records] == [False, False, True]
        assert [r.k for r in maximal_windows(ws)] == [1, 3]
        assert time.time() - t0 < 1.0

    def test_case_c(self):
        t0 = time.time()
        ws = build_windows(A_EX_C)
        assert ws.records == ()
        assert ws.tail_nested_at is None
        assert time.time() - t0 < 1.0

    def test_case_e(self):
        t0 = time.time()
        ws = build_windows(A_EX_E)
        assert [r.v for r in ws.records] == ["00111", "001"]
        assert [r.v_star for r in ws.records] == ["01", "001"]
        assert [r.lower_seq for r in ws.records] == [
            canon("00110(110)"),
            canon("000(11100110)"),
        ]
        assert [r.upper_seq for r in ws.records] == [canon("(01)"), canon("(001)")]
        assert ws.tail_nested_at == 2
        assert [r.k for r in maximal_windows(ws)] == [1, 2]
        assert time.time() - t0 < 1.0

    def test_case_f(self):
        t0 = time.time()
        ws = build_windows(A_EX_F)
        assert [r.v for r in ws.records] == ["01011", "01"]
        assert [r.v_star for r in ws.records] == ["01011", "01"]
        assert [r.lower_seq for r in ws.records] == [
            canon("01010(110)"),
            canon("00(11101010)"),
        ]
        assert [r.upper_seq for r in ws.records] == [canon("(01011)"), canon("(01)")]
        assert ws.tail_nested_at is None
        assert [r.k for r in maximal_windows(ws)] == [1, 2]
        assert time.time() - t0 < 1.0

    def test_case_b_single_window(self):
        # one step then the construction stops; the window equals case
        # (a)'s first window
        ws = build_windows(EPSeq.parse("1110100101(01)"))
        assert [r.v for r in ws.records] == ["01"]
        assert ws.records[0].lower_seq == canon("00(110)")
        assert ws.records[0].upper_seq == canon("(01)")
        assert ws.tail_nested_at is None

    def test_case_d_accumulating(self):
        # alpha = 111 01 001 0001 00001 (0 runs growing): v_k = 0^k 1
        alpha = eps("11101001000100001", "000001")
        ws = build_windows(alpha)
        vs = [r.v for r in ws.records]
        assert vs[:4] == ["01", "001", "0001", "00001"]

    def test_rejects_non_interior(self):
        with pytest.raises(PreconditionError):
            build_windows(periodic("110"))
        with pytest.raises(PreconditionError):
            build_windows(EPSeq.parse("111010(110)"))


class TestWindowInvariants:
    @pytest.mark.parametrize("alpha", [A_EX_A, A_EX_E, A_EX_F, EPSeq.parse("110100000(10)")])
    def test_v_words_are_lyndon_with_subword_bound(self, alpha):
        from betahole.word_combinatorics import is_lyndon
        from betahole.windows import _scan_sequence

        ws = build_windows(alpha)
        A = _scan_sequence(alpha)
        for rec in ws.records:
            assert is_lyndon(rec.v)
            # every factor of v_k is dominated by the alpha prefix
            v = rec.v
            for i1 in range(len(v)):
                for i2 in range(i1 + 1, len(v) + 1):
                    assert v[i1:i2] <= A.prefix(i2 - i1)

    @pytest.mark.parametrize("alpha", [A_EX_A, A_EX_E, A_EX_F])
    def test_v_periodizations_decrease(self, alpha):
        ws = build_windows(alpha)
        for a, b in zip(ws.records, ws.records[1:]):
            if a.v != b.v:
                assert periodic(b.v) < periodic(a.v)

    @pytest.mark.parametrize("alpha", [A_EX_A, A_EX_E, A_EX_F])
    def test_closures_are_eblis(self, alpha):
        # the closure of every maximal window is the EBLI of its v*
        ws = build_windows(alpha)
        for rec in maximal_windows(ws):
            e = ebli(rec.v_star, alpha)
            assert e.left_seq == rec.lower_seq
            assert e.right_seq == rec.upper_seq

    @pytest.mark.parametrize("alpha", [A_EX_A, A_EX_E, A_EX_F])
    def test_lower_endpoints_in_E_beta(self, alpha):
        for rec in build_windows(alpha).records:
            assert in_E_beta(rec.lower_seq, alpha)

    @pytest.mark.parametrize("alpha", [A_EX_A, A_EX_E, A_EX_F])
    def test_entropy_constant_across_windows(self, alpha):
        for rec in maximal_windows(build_windows(alpha)):
            h_lo = entropy_of_bounds(rec.lower_seq, alpha).h
            h_hi = entropy_of_bounds(rec.upper_seq, alpha).h
            assert abs(float(h_lo.mid() - h_hi.mid())) < 1e-9


class TestTransitivity:
    def test_example_91(self):
        assert is_transitive("01010111", A_EX_F).verdict is Verdict.NOT_TRANSITIVE
        assert is_transitive("01011", A_EX_F).verdict is Verdict.TRANSITIVE

    def test_e_l_class(self):
        alpha = periodic("110")
        for w in ["01", "001", "0001", "00101"]:
            assert is_transitive(w, alpha).transitive

    def test_star_class(self):
        alpha = EPSeq.parse("111010(110)")
        for w in ["01", "001", "01011", "01010111"]:
            assert is_transitive(w, alpha).transitive

    def test_interior_no_windows(self):
        alpha = A_EX_C
        for w in ["01", "001", "0001", "01011"]:
            assert is_transitive(w, alpha).transitive

    def test_degree_two_threshold(self):
        alpha = EPSeq.parse("110100000(10)")
        assert is_transitive("0001", alpha).transitive
        v = is_transitive("001011", alpha)
        assert not v.transitive and "threshold" in v.reason

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            is_transitive("0110", A_EX_F)  # not Lyndon
        with pytest.raises(PreconditionError):
            is_transitive("011", periodic("110"))  # not beta-Lyndon there


class TestTransitiveCore:
    def test_identity_below_threshold(self):
        core = transitive_core("0001", EPSeq.parse("110100000(10)"))
        assert core.R == "" and core.w_hat == "0001"

    def test_degree_two_renormalization(self):
        alpha = EPSeq.parse("110100000(10)")
        core = transitive_core("001011", alpha)
        assert core.R == "01"
        assert core.w_hat == "001"
        assert phi(core.R, core.w_hat) == "001011"

    def test_full_entropy_after_renormalization(self):
        # h(K-tilde) = h(K-hat) / |R|
        alpha = EPSeq.parse("110100000(10)")
        core = transitive_core("001011", alpha)
        h_full = entropy_of_bounds(periodic("001011"), alpha).h
        h_hat = entropy_of_bounds(periodic(core.w_hat), core.alpha_hat).h
        assert abs(float(h_full.mid()) - float(h_hat.mid()) / len(core.R)) < 1e-9

    def test_right_endpoint_class(self):
        # beta_r^{01}: alpha = 11(01); words above the threshold renormalize
        alpha = EPSeq.parse("11(01)")
        core = transitive_core("0011", alpha)
        assert core.R == "01" and core.w_hat == "01"
        assert core.alpha_hat == periodic("1")

    def test_window_membership_blocks_core(self):
        with pytest.raises(PreconditionError):
            transitive_core("01010111", A_EX_F)

    def test_word_at_or_above_tau_raises_precondition(self):
        # 01 is beta-Lyndon at 11(01), but (01)^inf is not below tau; the
        # core has the verdict's precondition, not a failed Phi inverse
        with pytest.raises(PreconditionError, match="below tau"):
            transitive_core("01", EPSeq.parse("11(01)"))


class TestDepthThreeChain:
    # interior of the degree-3 basic interval of 01.01.01 = 00101101
    ALPHA = eps("11010011" + "0" * 9, "10")

    def test_classifies_depth_three(self):
        rec = classify(self.ALPHA)
        assert rec.chain == ("01", "01", "01")

    def test_second_level_core(self):
        # w = Phi_{0011}(001) sits between the level-2 and level-3
        # thresholds, so the core renormalizes by R = 0011 and lands on
        # the golden base
        w = "001011001101"
        assert is_beta_lyndon(w, self.ALPHA)
        assert not is_transitive(w, self.ALPHA).transitive
        core = transitive_core(w, self.ALPHA)
        assert core.R == "0011"
        assert core.w_hat == "001"
        assert core.alpha_hat == periodic("10")
        h_full = entropy_of_bounds(periodic(w), self.ALPHA).h
        h_hat = entropy_of_bounds(periodic(core.w_hat), core.alpha_hat).h
        assert abs(float(h_full.mid()) - float(h_hat.mid()) / len(core.R)) < 1e-9


class TestAgainstAutomaton:
    # the paper criterion and the automaton SCC verdict agree
    CASES = [
        (periodic("110"), ["01", "001", "0001", "00101", "010011"]),
        (EPSeq.parse("111010(110)"), ["01", "001", "01011", "01010111", "0010101"]),
        (A_EX_C, ["01", "001", "0001", "01011"]),
        (A_EX_F, ["01010111", "01011", "01", "001", "0101011", "0011101011"]),
        (EPSeq.parse("110100000(10)"), ["0001", "001011", "00001", "0000101"]),
    ]

    @pytest.mark.parametrize("alpha,words", CASES)
    def test_agreement(self, alpha, words):
        from betahole.classifier import tau_greedy_seq

        record = classify(alpha)
        tau_g = tau_greedy_seq(record)
        checked = 0
        for w in words:
            if not is_beta_lyndon(w, alpha) or periodic(w) >= tau_g:
                continue
            verdict = is_transitive(w, alpha, record)
            aut = build_automaton(periodic(w), alpha)
            report = is_transitive_sofic(aut)
            assert report.transitive == verdict.transitive, (str(alpha), w)
            checked += 1
        assert checked >= 3
