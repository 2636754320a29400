"""The kneading-polynomial entropy of ``lyndon_intervals.plateau_entropy``
against the automaton and its Perron roots.

- The root routine on synthetic polynomials: a double smallest root, roots
  exactly at dyadic points, and no root in (0, 1).
- Oracle agreement: the enclosure overlaps ``oracles.entropy_of_bounds``,
  and zero entropy is exactly zero on both paths.
- Exact certificates (ROADMAP item 11): (1 - z) det(I - zA) equals the
  kneading polynomial as integer polynomials, where A is the automaton of
  Sigma_{w^inf, alpha}, and the engine's greatest point is the automaton's
  greatest infinite path.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betahole import survivor_shift
from betahole.base_solver import is_admissible_alpha
from betahole.errors import PreconditionError
from betahole.lyndon_intervals import _first_tail_at_or_below, _greatest_point, is_beta_lyndon, plateau_entropy
from betahole.seq_core import EPSeq, RatInterval, eps, periodic
from betahole.survivor_shift import (
    ENTROPY_TOL,
    _inverse_smallest_root,
    _kneading_poly,
    build_automaton,
)
from betahole.word_combinatorics import lyndon_words
from oracles import beta_lyndon_loop, det_one_minus_zA, entropy_of_bounds, extreme_path, first_tail_loop

WORDS = list(lyndon_words(8))


def poly_mul(*factors):
    out = [1]
    for f in factors:
        nxt = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                nxt[i + j] += a * b
        out = nxt
    return out


# ---------------------------------------------------------------------------
# the root routine on synthetic polynomials


def test_double_smallest_root(monkeypatch):
    # (1 - z - z^2)^2 (1 - z): a double root at 1/phi, so Descartes' count
    # never falls to one around it until the square-free part takes over
    calls = []
    real = survivor_shift._squarefree_part

    def counting(coeffs):
        calls.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(survivor_shift, "_squarefree_part", counting)
    f = poly_mul([1, -1, -1], [1, -1, -1], [1, -1])
    lam = _inverse_smallest_root(f)
    assert calls == [f]
    assert lam.width() <= ENTROPY_TOL
    # phi is the root of x^2 - x - 1 above 1
    assert lam.lo**2 - lam.lo - 1 <= 0 <= lam.hi**2 - lam.hi - 1


def test_squarefree_part():
    f = poly_mul([1, -1, -1], [1, -1, -1], [1, -1], [1, -1], [1, 0, 1])
    g = survivor_shift._squarefree_part(f)
    expected = poly_mul([1, -1, -1], [1, -1], [1, 0, 1])
    assert g in (expected, [-c for c in expected])


@pytest.mark.parametrize(
    "factors, lam",
    [
        # 1/2 is the left end of the first Descartes node
        ([[1, -2], [1, -1, -1]], Fraction(2)),
        # 5/8 is a midpoint of the isolation tree: (1/2, 1) holds two roots
        # and its left half ends at the root 3/4
        ([[3, -4], [5, -8]], Fraction(8, 5)),
        # 5/8 is isolated on (1/2, 1) and hit exactly by the refinement
        ([[5, -8], [1, 1]], Fraction(8, 5)),
        # a double root at a dyadic point
        ([[3, -4], [3, -4], [1, -1]], Fraction(4, 3)),
    ],
)
def test_root_at_a_dyadic_point_is_exact(factors, lam):
    assert _inverse_smallest_root(poly_mul(*factors)) == RatInterval.point(lam)


@pytest.mark.parametrize("factors", [[[1, -1], [1, 0, 1]], [[1, -1], [1, -1], [1, 1]], [[1, 0, 0, -1]], [[2, -1]]])
def test_no_root_in_the_unit_interval_is_lambda_one(factors):
    assert _inverse_smallest_root(poly_mul(*factors)) == RatInterval.point(1)


def test_root_meets_a_finer_tolerance():
    tol = Fraction(1, 10**60)
    lam = _inverse_smallest_root(poly_mul([1, -1, -1], [1, -1]), tol)
    assert lam.width() <= tol
    assert lam.lo**2 - lam.lo - 1 <= 0 <= lam.hi**2 - lam.hi - 1


# ---------------------------------------------------------------------------
# random admissible alphas and beta-Lyndon words


@functools.lru_cache(maxsize=None)
def _alphas():
    """400 admissible alphas, drawn once with a fixed seed: 1 pre (per)
    with |pre| <= 5 and |per| <= 7, and largest rotations of words of
    length <= 9 (purely periodic)."""
    rng = random.Random(27)
    out = set()
    while len(out) < 400:
        word = "".join(rng.choice("01") for _ in range(rng.randint(1, 9)))
        if rng.random() < 0.6:
            alpha = eps("1" + word[: rng.randrange(6)], word[rng.randrange(len(word)) :] or "1")
        else:
            alpha = periodic(max(word[i:] + word[:i] for i in range(len(word))))
        if is_admissible_alpha(alpha) and alpha != periodic("1"):
            out.add(alpha)
    return sorted(out, key=str)


@st.composite
def alphas_and_words(draw):
    alpha = draw(st.sampled_from(_alphas()))
    words = [w for w in WORDS if is_beta_lyndon(w, alpha)]
    return alpha, draw(st.sampled_from(words))


EXTENDED = (EPSeq.parse("(1110101100)"), "01011")
EXTENDED_ZERO = (EPSeq.parse("111010(110)"), "011")
# sigma^3(alpha) = (01)^inf exactly: ebli's m is 3, and alpha stays the
# greatest point
TAIL_EQUALS_W = (EPSeq.parse("11(10)"), "01")
TAIL_EQUALS_W_ZERO = (EPSeq.parse("11(01)"), "01")
LONG_EXTENDED = (EPSeq.parse("1110100110111(001)"), "0010111")


@settings(max_examples=120, deadline=None)
@given(alphas_and_words())
@example(EXTENDED)
@example(EXTENDED_ZERO)
@example(TAIL_EQUALS_W)
@example(TAIL_EQUALS_W_ZERO)
@example(LONG_EXTENDED)
def test_agrees_with_automaton_oracle(case):
    alpha, w = case
    res = plateau_entropy(w, alpha)
    ref = entropy_of_bounds(periodic(w), alpha)
    assert res.perron.width() <= ENTROPY_TOL
    assert ref.perron.width() <= ENTROPY_TOL
    assert res.perron.lo <= ref.perron.hi and ref.perron.lo <= res.perron.hi
    assert res.h.lo <= ref.h.hi and ref.h.lo <= res.h.hi
    if ref.h == RatInterval.point(0):
        assert res.h == RatInterval.point(0)


def test_examples_cover_extended_and_zero_entropy():
    kinds = set()
    for alpha, w in (EXTENDED, EXTENDED_ZERO, TAIL_EQUALS_W, TAIL_EQUALS_W_ZERO, LONG_EXTENDED):
        extended = _greatest_point(w, alpha) != alpha
        zero = plateau_entropy(w, alpha).h == RatInterval.point(0)
        kinds.add((extended, zero))
        if _first_tail_at_or_below(alpha, w) is not None and not extended:
            kinds.add("tail equals w^inf")
    assert kinds >= {(True, False), (True, True), (False, False), (False, True), "tail equals w^inf"}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(lyndon_words(10)) + ["0110", "1", "10", "0101"]), st.integers(0, 399))
def test_first_tail_and_precondition_match_the_loops(w, i):
    alpha = _alphas()[i]
    assert _first_tail_at_or_below(alpha, w) == first_tail_loop(alpha, w)
    if beta_lyndon_loop(w, alpha):
        plateau_entropy(w, alpha)
    else:
        with pytest.raises(PreconditionError):
            plateau_entropy(w, alpha)


# ---------------------------------------------------------------------------
# exact certificates


def one_minus_z_times(coeffs):
    out = coeffs + [0]
    for i, c in enumerate(coeffs):
        out[i + 1] -= c
    while out[-1] == 0:
        out.pop()
    return out


@settings(max_examples=80, deadline=None)
@given(alphas_and_words())
@example(EXTENDED)
@example(EXTENDED_ZERO)
@example(TAIL_EQUALS_W)
@example(LONG_EXTENDED)
def test_kneading_identity_and_greatest_point(case):
    alpha, w = case
    aut = build_automaton(periodic(w), alpha)
    if aut.n_states > 60:  # keeps the trace computation cheap
        return
    u = _greatest_point(w, alpha)
    assert u == extreme_path(aut, "1")
    assert periodic(w) == extreme_path(aut, "0")
    assert one_minus_z_times(det_one_minus_zA(aut)) == _kneading_poly(periodic(w), u)
