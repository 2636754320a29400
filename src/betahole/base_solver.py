"""Conversions between a base beta, its quasi-greedy expansion alpha(beta),
and greedy expansions of points t in [0, 1).

The exact direction is symbolic: an admissible eventually periodic alpha
pins beta down as the unique root of pi_beta(alpha) = 1 in (1, 2], which
we enclose by bisection at dyadic points (pi_beta is strictly decreasing
in beta), each step decided by the sign of an integer polynomial.  The
numeric direction runs the quasi-greedy orbit of 1 with exact rational
arithmetic for a rational beta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InadmissibleAlpha, InvariantError, PreconditionError
from .seq_core import (
    EPSeq,
    ONE,
    RatInterval,
    eps,
    is_shift_maximal,
    n_tails,
    pi_beta,
    shift,
)

DEFAULT_TOL = Fraction(1, 10**30)
# longest period detect_eventually_periodic tries
MAX_PERIOD = 64


# bounded: the word searches test the same few alphas thousands of times
@functools.lru_cache(maxsize=256)
def is_admissible_alpha(alpha: EPSeq) -> bool:
    """Quasi-greedy admissibility: 0^inf < sigma^n(alpha) <= alpha for n >= 1."""
    if alpha.per == "0":
        return False  # would end in 0^inf
    return is_shift_maximal(alpha)


def check_admissible_alpha(alpha: EPSeq) -> EPSeq:
    if not is_admissible_alpha(alpha):
        raise InadmissibleAlpha("not a quasi-greedy expansion of 1: %s" % (alpha,))
    return alpha


@dataclass(frozen=True)
class BetaSpec:
    """A base beta given by its quasi-greedy expansion plus an enclosure."""

    alpha: EPSeq
    enclosure: RatInterval


def _excess_poly(alpha: EPSeq):
    """Integer coefficients, highest degree first, of
    f(b) = (P(b) - b^m)(b^n - 1) + Q(b), where P and Q are the digit
    polynomials of alpha = p(q), m = |p| and n = |q|.  Then
    pi_b(alpha) - 1 = f(b) / (b^m (b^n - 1)), so for b > 1 the sign of
    f(b) is the sign of pi_b(alpha) - 1."""
    m, n = len(alpha.pre), len(alpha.per)
    head = [-1] + [int(d) for d in alpha.pre]  # P(b) - b^m, degree m
    coeffs = [0] * (m + n + 1)
    for i, c in enumerate(head):
        coeffs[i] += c  # times b^n
        coeffs[i + n] -= c  # times -1
    for i, d in enumerate(alpha.per):
        coeffs[m + 1 + i] += int(d)  # Q(b), degree n - 1
    return coeffs


def _sign_at(coeffs, a: int, k: int) -> int:
    """Sign of f(a / 2^k): Horner's rule on 2^(k deg f) f(a / 2^k), in integers."""
    h = coeffs[0]
    for i in range(1, len(coeffs)):
        h *= a
        c = coeffs[i]
        if c:
            h += c << (k * i)
    return (h > 0) - (h < 0)


def beta_from_alpha(alpha: EPSeq, tol: Optional[Fraction] = None) -> BetaSpec:
    """Enclose the unique beta in (1, 2] with pi_beta(alpha) = 1.

    Bisection with lo = a_lo / 2^k and hi = a_hi / 2^k held as integers
    over a common power of two; each midpoint is decided by the sign of
    the integer polynomial of ``_excess_poly``.
    """
    if tol is None:
        tol = DEFAULT_TOL
    tol = Fraction(tol)
    if tol <= 0:
        raise PreconditionError("beta_from_alpha needs tol > 0")
    check_admissible_alpha(alpha)
    if alpha == ONE:
        return BetaSpec(alpha, RatInterval.point(Fraction(2)))
    f = _excess_poly(alpha)
    # pi is strictly decreasing in beta; find lo with pi > 1, keep hi = 2
    k, a_lo, a_hi = 1, 3, 4
    while _sign_at(f, a_lo, k) <= 0:
        k, a_lo, a_hi = k + 1, a_lo + (1 << k), 2 * a_hi  # lo <- 1 + (lo - 1) / 2
    # hi - lo > tol, cross-multiplied
    while (a_hi - a_lo) * tol.denominator > tol.numerator << k:
        k, a_lo, a_hi = k + 1, 2 * a_lo, 2 * a_hi
        mid = (a_lo + a_hi) >> 1
        # f has leading coefficient -1, so its rational roots are integers,
        # and mid / 2^k is a non-integer dyadic in (1, 2): f(mid / 2^k) != 0
        if _sign_at(f, mid, k) > 0:
            a_lo = mid
        else:
            a_hi = mid
    return BetaSpec(alpha, RatInterval(Fraction(a_lo, 1 << k), Fraction(a_hi, 1 << k)))


def alpha_from_beta(beta: Union[Fraction, int, str], n: int) -> str:
    """First n digits of alpha(beta) for an exactly known rational beta.

    Quasi-greedy orbit: x0 = 1; digit 1 iff beta x > 1, keeping x in (0, 1].
    """
    beta = Fraction(beta)
    if not 1 < beta <= 2:
        raise PreconditionError("alpha_from_beta needs 1 < beta <= 2")
    x = Fraction(1)
    digits = []
    for _ in range(n):
        y = beta * x
        if y > 1:
            digits.append("1")
            x = y - 1
        else:
            digits.append("0")
            x = y
        if not 0 < x <= 1:
            raise InvariantError("quasi-greedy orbit left (0, 1]: %s" % (x,))
    return "".join(digits)


def is_greedy_admissible(x: EPSeq, alpha: EPSeq) -> bool:
    """Parry condition sigma^n(x) < alpha for all n >= 0, checked on the
    n_tails(x) distinct tails."""
    check_admissible_alpha(alpha)
    return all(shift(x, k) < alpha for k in range(n_tails(x)))


def periodic_alpha_to_greedy_one(alpha: EPSeq) -> EPSeq:
    """For purely periodic alpha = (a_1 ... a_m)^inf with a_m = 0, the
    greedy expansion of 1: a_1 ... a_{m-1} 1 0^inf."""
    if alpha.pre != "":
        raise PreconditionError("alpha is not purely periodic: %s" % (alpha,))
    if alpha.per[-1] != "0":
        raise PreconditionError("period must end in 0 to form the greedy expansion")
    return eps(alpha.per[:-1] + "1", "0")


def detect_eventually_periodic(digits: str) -> Optional[EPSeq]:
    """Smallest (pre, per) consistent with the digit prefix, requiring at
    least two full periods of evidence beyond the preperiod; None if no
    such pattern fits.  This certifies nothing about unseen digits."""
    n = len(digits)
    best = None
    for q in range(1, min(MAX_PERIOD, n // 2) + 1):
        # smallest p such that digits[i] == digits[i + q] for all i in [p, n - q)
        p = n - q
        while p >= 1 and digits[p - 1] == digits[p - 1 + q]:
            p -= 1
        if p + 2 * q <= n:
            cand = eps(digits[:p], digits[p : p + q])
            if cand.prefix(n) == digits:
                score = (p + q, q)
                if best is None or score < best[0]:
                    best = (score, cand)
    return best[1] if best else None


def t_point_value(x: EPSeq, beta: BetaSpec) -> RatInterval:
    """Numeric enclosure of pi_beta(x) for a BetaSpec."""
    return pi_beta(x, beta.enclosure)


@dataclass(frozen=True)
class TPoint:
    """A point t with its greedy expansion and a numeric enclosure."""

    greedy: EPSeq
    value: RatInterval
