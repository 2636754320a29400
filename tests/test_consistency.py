"""Randomized cross-validation sweep: for random eventually periodic
bases, the class-based transitivity criterion must agree with the
automaton verdict, tau's output must be a greedy expansion, and the
classifier's endpoints must recheck."""

import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betahole.base_solver import is_admissible_alpha, is_greedy_admissible
from betahole.classifier import Position, classify, endpoint_alpha, tau_greedy_seq
from betahole.errors import PreconditionError
from betahole.lyndon_intervals import is_beta_lyndon
from betahole.seq_core import EPSeq, eps, minus, periodic
from betahole.substitution import phi
from betahole.survivor_shift import build_automaton, is_transitive_sofic
from betahole.windows import is_transitive, transitive_core
from betahole.word_combinatorics import farey_level, lyndon_words
from oracles import entropy_of_bounds, transitive_core_separate

WORD_POOL = list(lyndon_words(8, min_len=2))


def random_alphas(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, 8))
        try:
            alpha = eps("1" + pre, per)
        except Exception:
            continue
        if is_admissible_alpha(alpha) and alpha != periodic("1"):
            out.append(alpha)
    return out


def _word_route_contained(outer, inner, A):
    """Oracle for window containment by words: inner.v == outer.v, or
    inner.v begins with outer.v^- (a_1..a_{j_k}^-)^n a_1..a_{j_k} for
    some n >= 0, where a_1 a_2 ... are the digits of the scanned
    sequence A and j_k = outer.jk."""
    if inner.v == outer.v:
        return True
    head = A.prefix(outer.jk)
    block = minus(head)
    pattern = minus(outer.v)
    while len(pattern) + len(head) <= len(inner.v):
        if inner.v.startswith(pattern + head):
            return True
        pattern += block
    return False


# the alphas of the window fixtures in test_windows.py
WINDOW_FIXTURES = [
    EPSeq.parse(text)
    for text in [
        "1110100110111(001)",
        "111001(01)",
        "11100111(001)",
        "(1110101100)",
        "1110100101(01)",
        "11101001000100001(000001)",
        "110100000(10)",
        "11(01)",
        "11010011000000000(10)",
    ]
]


def _assert_containment_routes_agree(ws, alpha):
    # the endpoint-order containment test that maximal_windows uses
    # agrees with the word-pattern oracle on every (earlier, later) pair
    from betahole.windows import _scan_sequence, window_contained

    A = _scan_sequence(alpha)
    recs = ws.records
    for i, a in enumerate(recs):
        for b in recs[i + 1 :]:
            assert window_contained(a, b) == _word_route_contained(a, b, A), (str(alpha), a.k, b.k)


@pytest.mark.parametrize("alpha", random_alphas(555, 30) + WINDOW_FIXTURES, ids=str)
def test_window_containment_routes_agree_sweep(alpha):
    from betahole.windows import build_windows, maximal_windows

    record = classify(alpha)
    if record.position is not Position.INTERIOR:
        return
    ws = build_windows(alpha)
    _assert_containment_routes_agree(ws, alpha)
    maximal_windows(ws)


@st.composite
def interior_alphas(draw):
    """111 pre (per) with |pre| <= 12 and |per| <= 6, admissible and in
    the interior of a basic interval (where windows exist)."""
    pre = draw(st.text("01", min_size=4, max_size=12))
    per = draw(st.text("01", min_size=1, max_size=6))
    alpha = eps("111" + pre, per)
    assume(is_admissible_alpha(alpha) and classify(alpha).position is Position.INTERIOR)
    return alpha


@settings(max_examples=150, deadline=None)
@given(interior_alphas())
def test_window_containment_routes_agree_property(alpha):
    from betahole.windows import build_windows

    _assert_containment_routes_agree(build_windows(alpha), alpha)


@pytest.mark.parametrize("alpha", random_alphas(424242, 36), ids=str)
def test_transitivity_agreement_sweep(alpha):
    rng = random.Random(str(alpha))
    record = classify(alpha)
    tau_g = tau_greedy_seq(record)
    assert is_greedy_admissible(tau_g, alpha)
    words = [
        w
        for w in WORD_POOL
        if is_beta_lyndon(w, alpha) and periodic(w) < tau_g
    ]
    rng.shuffle(words)
    for w in words[:4]:
        verdict = is_transitive(w, alpha, record)
        sofic = is_transitive_sofic(build_automaton(periodic(w), alpha))
        assert sofic.transitive == verdict.transitive, (str(alpha), record, w)


ENDPOINT_CASES = [
    (chain, which)
    for chain in [["01", "01"], ["01", "011"], ["011", "01"], ["01", "001"], ["011", "011"], ["001", "01"]]
    for which in ["l", "*", "r"]
]


@pytest.mark.parametrize("chain,which", ENDPOINT_CASES, ids=lambda v: str(v))
def test_transitivity_agreement_at_deep_endpoints(chain, which):
    # renormalizable endpoint classes: transitive iff below the
    # first-factor threshold (checked against the automaton)
    from betahole.classifier import endpoint_alpha

    alpha = endpoint_alpha(chain, which)
    record = classify(alpha)
    assert len(record.chain) == 2
    tau_g = tau_greedy_seq(record)
    words = [
        w
        for w in WORD_POOL
        if len(w) <= 6 and is_beta_lyndon(w, alpha) and periodic(w) < tau_g
    ]
    below = [w for w in words if is_transitive(w, alpha, record).transitive]
    above = [w for w in words if w not in below]
    picked = below[:3] + above[:3]
    assert picked
    for w in picked:
        verdict = is_transitive(w, alpha, record)
        sofic = is_transitive_sofic(build_automaton(periodic(w), alpha))
        assert sofic.transitive == verdict.transitive, (str(alpha), which, w)


@pytest.mark.parametrize("alpha", random_alphas(777, 12), ids=str)
def test_transitive_core_entropy_sweep(alpha):
    # h(K-tilde) = h(K-hat)/|R| whenever the core renormalizes
    record = classify(alpha)
    tau_g = tau_greedy_seq(record)
    rng = random.Random(str(alpha) + "core")
    words = [
        w
        for w in WORD_POOL
        if is_beta_lyndon(w, alpha) and periodic(w) < tau_g
    ]
    rng.shuffle(words)
    for w in words[:3]:
        try:
            core = transitive_core(w, alpha, record)
        except PreconditionError as exc:
            if "non-transitivity window" not in str(exc):
                raise
            continue  # inside a window: no core to check
        if not core.R:
            continue
        assert phi(core.R, core.w_hat) == w
        h_full = entropy_of_bounds(periodic(w), alpha).h
        h_hat = entropy_of_bounds(periodic(core.w_hat), core.alpha_hat).h
        assert abs(float(h_full.mid()) - float(h_hat.mid()) / len(core.R)) < 1e-9


# bases where the core renormalizes: deep interiors, and the endpoints of
# basic intervals of degree 2 and 3 by their alphas.  The test checks each
# endpoint alpha, so that a broken substitution fails it rather than the
# collection of this module.
RENORMALIZING_ENDPOINTS = {
    "(1100)": (["01", "01"], "l"),
    "1101001(0110)": (["01", "01"], "*"),
    "110(1001)": (["01", "01"], "r"),
    "(110100)": (["01", "011"], "l"),
    "110101001(100110)": (["01", "011"], "*"),
    "110(101001)": (["01", "011"], "r"),
    "(111010)": (["011", "01"], "l"),
    "1110110101(101110)": (["011", "01"], "*"),
    "1110(110101)": (["011", "01"], "r"),
    "(110010)": (["01", "001"], "l"),
    "110011001(010110)": (["01", "001"], "*"),
    "110(011001)": (["01", "001"], "r"),
    "(11010010)": (["01", "01", "01"], "l"),
    "110100110010110(01101001)": (["01", "01", "01"], "*"),
    "1101001(10010110)": (["01", "01", "01"], "r"),
}
# renormalized words Phi_R(w-hat) are |R| times longer than w-hat
CORE_POOL = list(lyndon_words(10, min_len=2))


@functools.lru_cache(maxsize=None)
def _admissible_alphas():
    """500 distinct admissible alphas 1 pre (per) with |pre| <= 6 and
    |per| <= 7, drawn once with a fixed seed."""
    rng = random.Random(2026)
    out = set()
    while len(out) < 500:
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(7)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 7)))
        alpha = eps("1" + pre, per)
        if is_admissible_alpha(alpha) and alpha != periodic("1"):
            out.add(alpha)
    return sorted(out, key=str)


@st.composite
def alphas_and_words(draw):
    """A random admissible alpha and a beta-Lyndon word w of length <= 8
    with w^inf below tau."""
    alpha = draw(st.sampled_from(_admissible_alphas()))
    tau_g = tau_greedy_seq(classify(alpha))
    words = [w for w in WORD_POOL if is_beta_lyndon(w, alpha) and periodic(w) < tau_g]
    assume(words)
    # the windows and the renormalizing words lie just below tau: half
    # the draws come from the top quarter of the words by value
    words.sort(key=periodic)
    if draw(st.booleans()):
        words = words[-(len(words) + 3) // 4 :]
    return alpha, draw(st.sampled_from(words))


def _assert_core_matches_separate(w, alpha, record):
    # the core read from the verdict's window scan is the core computed on
    # its own window build, and None exactly where that one finds t_R in a
    # window
    core = is_transitive(w, alpha, record).core
    try:
        expected = transitive_core_separate(w, alpha, record)
    except PreconditionError as exc:
        assert "non-transitivity window" in str(exc)
        assert core is None, (str(alpha), w)
    else:
        assert core == expected, (str(alpha), w)


@settings(max_examples=100, deadline=None)
@given(alphas_and_words())
def test_verdict_core_matches_separate_core(case):
    alpha, w = case
    _assert_core_matches_separate(w, alpha, classify(alpha))


@pytest.mark.parametrize("text", [str(a) for a in WINDOW_FIXTURES] + list(RENORMALIZING_ENDPOINTS))
def test_verdict_core_matches_separate_core_sweep(text):
    # every word of CORE_POOL below tau: renormalized cores and windows
    # are rare among random draws
    alpha = EPSeq.parse(text)
    if text in RENORMALIZING_ENDPOINTS:
        assert endpoint_alpha(*RENORMALIZING_ENDPOINTS[text]) == alpha
    record = classify(alpha)
    tau_g = tau_greedy_seq(record)
    for w in CORE_POOL:
        if is_beta_lyndon(w, alpha) and periodic(w) < tau_g:
            _assert_core_matches_separate(w, alpha, record)


# every Farey word of length 2..6 (a Farey word of length n has
# Stern-Brocot depth n - 1, so all of them appear by level 5)
FAREY_2_6 = [s for s in farey_level(5) if 2 <= len(s) <= 6]


@st.composite
def farey_and_alpha_hats(draw):
    """A Farey word S with 2 <= |S| <= 6 and an admissible alpha-hat,
    beta-hat = 2 included."""
    s = draw(st.sampled_from(FAREY_2_6))
    pre = draw(st.text("01", max_size=5))
    per = draw(st.text("01", min_size=1, max_size=6))
    alpha_hat = eps("1" + pre, per)
    assume(is_admissible_alpha(alpha_hat))
    return s, alpha_hat


@settings(max_examples=150, deadline=None)
@given(farey_and_alpha_hats())
def test_renormalization_prefixes_the_chain(case):
    # alpha(beta) = Phi_S(alpha(beta-hat)) puts beta in the basic interval
    # I^S at the position beta-hat has in the renormalized picture; beta-hat
    # = 2 maps to the right endpoint beta_r^S
    s, alpha_hat = case
    inner = classify(alpha_hat)
    outer = classify(phi(s, alpha_hat))
    assert outer.chain == (s,) + inner.chain, (s, str(alpha_hat))
    expected = Position.RIGHT if inner.position is Position.TWO else inner.position
    assert outer.position is expected, (s, str(alpha_hat))
