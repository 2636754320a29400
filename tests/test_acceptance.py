"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

from betahole.base_solver import (
    alpha_from_beta,
    beta_from_alpha,
    detect_eventually_periodic,
    is_admissible_alpha,
)
from betahole.classifier import classify, endpoint_alpha, tau, tau_greedy_seq
from betahole.lyndon_intervals import (
    ebli,
    exceptional_points,
    in_E_beta,
    is_beta_lyndon,
    plateaus,
)
from betahole.seq_core import EPSeq, eps, periodic, pi_beta, word_zeros
from betahole.substitution import bullet, phi, phi_inverse, sandwich_points
from betahole.survivor_shift import (
    build_automaton,
    entropy,
    is_transitive_sofic,
)
from betahole.windows import build_windows, is_transitive, maximal_windows
from betahole.word_combinatorics import (
    cyclic_max,
    farey_level,
    is_farey,
    is_lyndon,
    lyndon_words,
    xi,
)
from oracles import (
    count_words,
    count_words_oracle,
    entropy_of_bounds,
    essential_part,
    nesting_or_disjoint,
    oracle_words,
)


def report(number, text):
    print("ACCEPTANCE %2d: PASS  %s" % (number, text))


def canon(text):
    return EPSeq.parse(text)


def test_criterion_01_golden_windows():
    """build_windows reproduces Example cases (a), (c), (e), (f) exactly."""
    cases = {
        "a": (
            "1110100110111(001)",
            [
                ("01", "01", "00(110)", "(01)", False),
                ("00110111", "00110111", "00110110(11100)", "(00110111)", False),
                ("001", "001", "000(1110100110110)", "(001)", True),
            ],
            3,  # all later windows nest inside I_3
        ),
        "c": ("111001(01)", [], None),
        "e": (
            "11100111(001)",
            [
                ("00111", "01", "00110(110)", "(01)", False),
                ("001", "001", "000(11100110)", "(001)", True),
            ],
            2,
        ),
        "f": (
            "(1110101100)",
            [
                ("01011", "01011", "01010(110)", "(01011)", False),
                ("01", "01", "00(11101010)", "(01)", False),
            ],
            None,
        ),
    }
    for name, (text, expect, nest) in cases.items():
        t0 = time.time()
        ws = build_windows(canon(text))
        got = [
            (r.v, r.v_star, str(r.lower_seq), str(r.upper_seq), r.closed)
            for r in ws.records
        ]
        want = [(v, vs, str(canon(lo)), str(canon(up)), c) for v, vs, lo, up, c in expect]
        assert got == want, name
        assert ws.tail_nested_at == nest, name
        assert time.time() - t0 < 1.0, name
    # maximal-window structure stated alongside the examples
    assert [r.k for r in maximal_windows(build_windows(canon("1110100110111(001)")))] == [1, 3]
    assert [r.k for r in maximal_windows(build_windows(canon("11100111(001)")))] == [1, 2]
    report(1, "golden window construction, Example cases (a)(c)(e)(f)")


def test_criterion_02_example_91():
    """Transitivity verdicts and window entropy constancy at the Example
    base alpha = (1110101100)^inf."""
    alpha = canon("(1110101100)")
    assert not is_transitive("01010111", alpha).transitive
    assert is_transitive("01011", alpha).transitive
    h1 = entropy_of_bounds(periodic("01010111"), alpha).h
    h2 = entropy_of_bounds(periodic("01011"), alpha).h
    assert abs(float(h1.mid() - h2.mid())) < 1e-9
    assert float(h1.width()) < 1e-9 and float(h2.width()) < 1e-9
    report(2, "non-transitivity example verdicts + entropy constancy <= 1e-9")


def test_criterion_03_golden_mean():
    """Golden-mean shift: entropy log((1+sqrt5)/2) within 1e-9 and exact
    Fibonacci word counts up to n = 18 against the brute-force oracle."""
    lower, upper = periodic("01"), periodic("1")
    aut = build_automaton(lower, upper)
    res = entropy(aut)
    assert abs(float(res.h.mid()) - math.log((1 + 5**0.5) / 2)) < 1e-9
    fib = [1, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 19):
        auto_count = count_words(aut, n)
        assert auto_count == fib[n + 1]  # B_n = F_{n+2}, F_1 = F_2 = 1
        assert auto_count == count_words_oracle(lower, upper, n)
    report(3, "golden-mean entropy within 1e-9; Fibonacci counts exact to n=18")


def test_criterion_04_sandwich_lemma():
    """For every Farey word s with |s| <= 8 the sandwich automaton has
    entropy < 1e-12 and exactly |s| bi-infinite orbits; sandwich_points
    matches brute-force enumeration at n = 2|s|."""
    words = sorted({s for s in farey_level(7) if 2 <= len(s) <= 8}, key=len)
    assert len(words) == 21  # sum of phi(m), m = 2..8
    for s in words:
        lower, upper = word_zeros(s), periodic(cyclic_max(s))
        aut = build_automaton(lower, upper)
        res = entropy(aut)
        assert float(res.h.hi) < 1e-12, s
        core = essential_part(aut)
        assert core.n_states == len(s) and all(len(e) == 1 for e in core.edges), s
        n = 2 * len(s)
        brute = oracle_words(lower, upper, n, horizon=4 * len(s))
        expected = {p.prefix(n) for p in sandwich_points(s)}
        assert brute == expected, s
    report(4, "Farey sandwich sets: zero entropy, |s| orbits, oracle match (|s| <= 8)")


def test_criterion_05_farey_algebra():
    """Farey word algebra over all levels F_n, n <= 10, under 5 seconds."""
    t0 = time.time()
    level = farey_level(10)
    seen = set(level)
    values = []
    for s in level:
        values.append(xi(s))
        if len(s) < 2:
            continue
        assert cyclic_max(s) == s[::-1], s
        sm = s[:-1] + "0"
        assert sm == sm[::-1], s
        assert is_lyndon(s), s
        u0_img = "".join("0" if c == "0" else "01" for c in s)
        u1_img = "".join("01" if c == "0" else "1" for c in s)
        assert is_farey(u0_img) and is_farey(u1_img), s
    assert len(set(values)) == len(values)  # xi injective
    from betahole.word_combinatorics import farey_from_rational

    for s in level:
        assert farey_from_rational(xi(s)) == s
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(5, "Farey algebra over F_10 (%.2fs): reverse, palindrome, U-closure, xi" % elapsed)


def test_criterion_06_substitution_algebra():
    """Associativity, strict monotonicity, inverse round trips, and the
    worked product example."""
    assert bullet("01", "011") == "001101"
    rng = random.Random(20240808)
    pool = [s for s in farey_level(4) if len(s) >= 2]

    def rand_eps():
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, 5))
        return eps(pre, per)

    triples = [(rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(100)]
    for r, s, t in triples:
        left = bullet(bullet(r, s), t)
        assert left == bullet(r, bullet(s, t))
        assert phi_inverse(r, phi(r, bullet(s, t))) == bullet(s, t)
    pairs = 0
    while pairs < 200:
        s = rng.choice(pool)
        x, y = rand_eps(), rand_eps()
        if x == y:
            continue
        fx, fy = phi(s, x), phi(s, y)
        assert (fx < fy) == (x < y)
        assert phi_inverse(s, fx) == x
        pairs += 1
    report(6, "substitution algebra: 100 associativity triples, 200 monotone pairs")


def test_criterion_07_round_trip():
    """beta_from_alpha . alpha_from_beta recovers beta within 1e-10 for 50
    random eventually periodic alphas; tribonacci within 1e-12."""
    rng = random.Random(123)
    done = 0
    while done < 50:
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("01") for _ in range(1, 9))
        try:
            alpha = eps("1" + pre, per)
        except Exception:
            continue
        if not is_admissible_alpha(alpha) or alpha == periodic("1"):
            continue
        spec = beta_from_alpha(alpha)
        d = max(len(alpha.pre) + 3 * len(alpha.per), 12)
        digits = alpha_from_beta(spec.enclosure.lo, d)
        detected = detect_eventually_periodic(digits)
        assert detected is not None
        spec2 = beta_from_alpha(detected)
        assert abs(spec2.enclosure.mid() - spec.enclosure.mid()) < Fraction(1, 10**10)
        done += 1
    # tribonacci: the real root of x^3 = x^2 + x + 1, bisected independently
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > Fraction(1, 10**20):
        mid = (lo + hi) / 2
        if mid**3 - mid**2 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    spec = beta_from_alpha(periodic("110"))
    assert abs(spec.enclosure.mid() - (lo + hi) / 2) < Fraction(1, 10**12)
    report(7, "beta round trip on 50 random alphas (1e-10); tribonacci (1e-12)")


def test_criterion_08_exceptional_points():
    """The stated instances of the endpoint bifurcation-difference sets."""
    assert exceptional_points(["01", "001"], "l") == [periodic("01")]
    assert exceptional_points(["011"], "*") == [periodic("011")]
    for chain, which in [(["01", "001"], "l"), (["011"], "*")]:
        alpha = endpoint_alpha(chain, which)
        spec = beta_from_alpha(alpha)
        t = tau(classify(alpha), spec)
        for p in exceptional_points(chain, which):
            assert in_E_beta(p, alpha)
            val = pi_beta(p, spec.enclosure)
            assert val.lo > t.value.hi and val.hi < 1
    report(8, "exceptional points: stated instances, E_beta membership, (tau, 1)")


def test_criterion_09_beta_two_plateaus():
    """beta = 2: plateaus are exactly the plain Lyndon intervals (lengths
    2..8), pairwise disjoint, entropies strictly decreasing; a 200-point
    staircase is monotone.  Tolerance 1e-9, runtime < 30 s."""
    t0 = time.time()
    one = periodic("1")
    rep = plateaus(one, max_word_len=8)
    eblis = [p for p in rep.plateaus if p.kind == "ebli"]
    assert {p.ebli.w for p in eblis} == set(lyndon_words(8, min_len=2))
    assert all(p.ebli.plain for p in eblis)
    for i, a in enumerate(eblis):
        for b in eblis[i + 1 :]:
            assert a.ebli.right_seq <= b.ebli.left_seq or b.ebli.right_seq <= a.ebli.left_seq
    # sorted by increasing right endpoint: entropies strictly decreasing
    hs = [float(p.entropy.mid()) for p in eblis]
    assert all(x - y > 1e-9 for x, y in zip(hs, hs[1:]))
    # 200-point staircase through the CLI sampler
    from betahole.cli import run

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "stairs.csv")
        assert run(["staircase", "--alpha", "(1)", "--points", "200", "--out", out]) == 0
        rows = open(out).read().strip().splitlines()[1:]
    assert len(rows) == 200
    dims = [(float(r.split(",")[2]), float(r.split(",")[3])) for r in rows]
    for (lo1, hi1), (lo2, hi2) in zip(dims, dims[1:]):
        assert lo2 <= hi1 + 1e-9  # non-increasing within tolerance
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(9, "beta=2 plateaus are the plain Lyndon intervals; monotone staircase (%.1fs)" % elapsed)


def test_criterion_10_ebli_invariants():
    """EBLI structure on the two featured bases, word length <= 10."""
    for text in ["111010(110)", "(1110101100)"]:
        alpha = canon(text)
        eblis = [
            ebli(w, alpha) for w in lyndon_words(10, min_len=2) if is_beta_lyndon(w, alpha)
        ]
        assert len(eblis) > 20
        for i, a in enumerate(eblis):
            for b in eblis[i + 1 :]:
                assert nesting_or_disjoint(a, b), (text, a.w, b.w)
        for e in eblis:
            if not e.plain:
                assert in_E_beta(e.left_seq, alpha), (text, e.w)
        record = classify(alpha)
        from betahole.classifier import Position

        if record.position is Position.INTERIOR:
            for rec in maximal_windows(build_windows(alpha)):
                closure = ebli(rec.v_star, alpha)
                assert closure.left_seq == rec.lower_seq
                assert closure.right_seq == rec.upper_seq
    report(10, "EBLI nesting/disjointness, E_beta left endpoints, window closures")


def test_criterion_11_transitivity_cross_validation():
    """Paper-criterion verdicts agree with the automaton SCC oracle on at
    least 20 cases spanning the base classes."""
    cases = [
        # E_L endpoint (beta_l^{011})
        (periodic("110"), ["01", "001", "0001", "00101", "010011"]),
        # first-order star endpoint
        (canon("111010(110)"), ["01", "001", "01011", "01010111", "0010101"]),
        # interior without windows
        (canon("111001(01)"), ["01", "001", "0001", "01011"]),
        # interior with windows
        (canon("(1110101100)"), ["01010111", "01011", "01", "001", "0101011", "0011101011"]),
        # degree-2 chain interior (threshold case)
        (canon("110100000(10)"), ["0001", "001011", "00001", "0000101"]),
        # right endpoint of a Farey interval
        (canon("11(01)"), ["0011", "001", "0001"]),
    ]
    checked = 0
    for alpha, words in cases:
        record = classify(alpha)
        tau_g = tau_greedy_seq(record)
        for w in words:
            if not is_beta_lyndon(w, alpha) or periodic(w) >= tau_g:
                continue
            verdict = is_transitive(w, alpha, record)
            sofic = is_transitive_sofic(build_automaton(periodic(w), alpha))
            assert sofic.transitive == verdict.transitive, (str(alpha), w)
            checked += 1
    assert checked >= 20
    report(11, "transitivity: paper criteria vs automaton SCC on %d cases" % checked)


def test_criterion_12_descending_entropies():
    """At beta_*^{011} the entropies at successive maximal-EBLI right
    endpoints strictly decrease with gaps >= 1e-9."""
    alpha = canon("111010(110)")
    rep = plateaus(alpha, max_word_len=10)
    eblis = [p for p in rep.plateaus if p.kind == "ebli"]
    assert len(eblis) >= 8
    hs = [float(p.entropy.mid()) for p in eblis]  # sorted by right endpoint
    for x, y in zip(hs, hs[1:]):
        assert x - y >= 1e-9, (x, y)
    report(12, "strictly decreasing plateau entropies at beta_*^{011} (%d EBLIs)" % len(eblis))
