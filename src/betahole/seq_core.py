"""Exact arithmetic on finite 0-1 words and eventually periodic sequences.

Words are plain strings over the alphabet {'0', '1'}.  An infinite,
eventually periodic sequence pre . per . per . per ... is held as an
:class:`EPSeq` in canonical form: the period block is primitive (not a
proper power) and the preperiod is as short as possible.  Canonical form
makes value equality coincide with structural equality, so EPSeq objects
can be dict keys and golden-test fixtures.

Sequences compare lexicographically, digit by digit: ``lex_cmp`` decides
the order, and the operators ``<``, ``<=``, ``>`` and ``>=`` on EPSeq
(so ``sorted`` and ``min`` too) each make one ``lex_cmp`` call.  A finite
word enters a comparison as a sequence, e.g. w^inf (``periodic``) or
w 0^inf (``word_zeros``).

The numeric kernel is exact rational arithmetic (fractions.Fraction).
A base beta is carried as a rational interval enclosure, and pi_beta
maps an EPSeq to a rational interval using monotonicity in beta.  Log
is bounded in integer fixed point with directed rounding.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, PreconditionError


def check_word(w: str, allow_empty: bool = True) -> str:
    if not allow_empty and not w:
        raise PreconditionError("empty word not allowed here")
    if any(c not in "01" for c in w):
        raise PreconditionError("word must consist of digits 0/1: %r" % (w,))
    return w


def plus(w: str) -> str:
    """Replace the final digit 0 of w by 1."""
    if not w or w[-1] != "0":
        raise PreconditionError("plus() needs a word ending in 0: %r" % (w,))
    return w[:-1] + "1"


def minus(w: str) -> str:
    """Replace the final digit 1 of w by 0."""
    if not w or w[-1] != "1":
        raise PreconditionError("minus() needs a word ending in 1: %r" % (w,))
    return w[:-1] + "0"


def primitive_root(w: str) -> str:
    """Shortest u with w = u^k."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class EPSeq:
    """Eventually periodic 0-1 sequence pre.per^inf, canonical.

    Canonical means: per is primitive, and pre cannot be shortened by
    rotating per (the last digit of pre never equals the last digit of
    per).  Two EPSeq values denote the same infinite sequence iff they
    are equal as (pre, per) pairs.
    """

    pre: str
    per: str

    def __post_init__(self):
        check_word(self.pre)
        check_word(self.per, allow_empty=False)
        per = primitive_root(self.per)
        pre = self.pre
        while pre and pre[-1] == per[-1]:
            per = per[-1] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    def __lt__(self, other: "EPSeq") -> bool:
        return lex_cmp(self, other) is Ordering.LESS

    def __le__(self, other: "EPSeq") -> bool:
        return lex_cmp(self, other) is not Ordering.GREATER

    def digit(self, i: int) -> str:
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, n: int) -> str:
        p, q = self.pre, self.per
        if n <= len(p):
            return p[:n]
        k = n - len(p)
        reps = k // len(q) + 1
        return p + (q * reps)[:k]

    def __str__(self):
        return "%s(%s)" % (self.pre, self.per)

    @staticmethod
    def parse(text: str) -> "EPSeq":
        """Parse the text grammar PRE(PER), e.g. '111(001)' or '(10)'."""
        text = text.strip()
        if not text.endswith(")") or "(" not in text:
            raise PreconditionError("EPSeq text must look like PRE(PER): %r" % (text,))
        pre, per = text[:-1].split("(", 1)
        if ")" in per or "(" in per:
            raise PreconditionError("malformed EPSeq text: %r" % (text,))
        if not per:
            raise PreconditionError("empty period in %r" % (text,))
        return EPSeq(check_word(pre), check_word(per))


def eps(pre: str, per: str) -> EPSeq:
    return EPSeq(pre, per)


def periodic(word: str) -> EPSeq:
    """word^inf."""
    return EPSeq("", check_word(word, allow_empty=False))


def word_zeros(word: str) -> EPSeq:
    """word 0^inf."""
    return EPSeq(word, "0")


ZERO = EPSeq("", "0")
ONE = EPSeq("", "1")


def lex_cmp(x: EPSeq, y: EPSeq) -> Ordering:
    """Exact lexicographic comparison of two sequences.

    A decision is always reached within max(|pre|) + lcm(|per|) digits:
    if two eventually periodic sequences agree that far, their tails are
    periodic with the common period and they agree forever.
    """
    if x == y:
        return Ordering.EQUAL
    bound = max(len(x.pre), len(y.pre)) + math.lcm(len(x.per), len(y.per))
    for i in range(bound):
        dx, dy = x.digit(i), y.digit(i)
        if dx != dy:
            return Ordering.LESS if dx < dy else Ordering.GREATER
    raise InvariantError("distinct canonical EPSeqs agree beyond the decision bound")


def shift(x: EPSeq, n: int) -> EPSeq:
    """The shifted sequence sigma^n(x), canonical."""
    if n < 0:
        raise PreconditionError("shift count must be >= 0")
    if n <= len(x.pre):
        return EPSeq(x.pre[n:], x.per)
    k = (n - len(x.pre)) % len(x.per)
    return EPSeq("", x.per[k:] + x.per[:k])


def n_tails(x: EPSeq) -> int:
    """Number of shifts after which the tails of x start repeating."""
    return len(x.pre) + len(x.per)


def is_shift_maximal(x: EPSeq) -> bool:
    """sigma^n(x) <= x for all n >= 1."""
    return all(shift(x, n) <= x for n in range(1, n_tails(x) + 1))


def is_shift_minimal(x: EPSeq) -> bool:
    """sigma^n(x) >= x for all n >= 1."""
    return all(shift(x, n) >= x for n in range(1, n_tails(x) + 1))


# ---------------------------------------------------------------------------
# rational interval enclosures


@dataclass(frozen=True)
class RatInterval:
    """Closed rational interval [lo, hi]; the exact value lies inside."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionError("interval endpoints out of order")

    @staticmethod
    def point(v) -> "RatInterval":
        f = Fraction(v)
        return RatInterval(f, f)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, v) -> bool:
        return self.lo <= v <= self.hi

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def max(self, other: "RatInterval") -> "RatInterval":
        """Enclosure of max(a, b) for a in self, b in other."""
        return RatInterval(max(self.lo, other.lo), max(self.hi, other.hi))

    def divide(self, other: "RatInterval") -> "RatInterval":
        """Self / other for other strictly positive."""
        if other.lo <= 0:
            raise PreconditionError("interval division needs a positive divisor")
        if self.lo < 0:
            raise PreconditionError("interval division implemented for nonnegative numerators")
        return RatInterval(self.lo / other.hi, self.hi / other.lo)


# Certified logarithm in integer fixed point.  A value is carried as an
# integer F standing for F / 2^bits; every rounding is directed, so the
# integer results are proven lower and upper bounds.
_LOG_ERR = Fraction(1, 10**32)


def _atanh_fixed(a: int, b: int, bits: int):
    """Integers lo <= 2^bits atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    Sums atanh z = sum_k z^(2k+1) / (2k+1) with floored powers T_k of z:
    T_k undershoots z^(2k+1) 2^bits by less than 2 / (1 - z^2) <= 9/4, so
    each floored term is short by less than 4.  Once T_N = 0 the tail
    left out is below 9/4 * 9/8 / (2N+1) < 1, or below 9/8 if T_0 = 0
    already.  Hence hi = lo + 4N + 2.
    """
    term = (a << bits) // b
    z2 = (a * a << bits) // (b * b)
    total = 0
    k = 0
    while term:
        total += term // (2 * k + 1)
        term = (term * z2) >> bits
        k += 1
    return total, total + 4 * k + 2


@functools.lru_cache(maxsize=16)
def _ln2_fixed(bits: int):
    """Bounds on 2^bits ln 2 = 2^bits 2 atanh(1/3), computed on first use."""
    lo, hi = _atanh_fixed(1, 3, bits)
    return 2 * lo, 2 * hi


def _log_bound(x: Fraction, prec: int, upper: bool) -> Fraction:
    """A lower (upper=False) or upper bound on log x, off by < 2^-(prec+1)."""
    p, q = x.numerator, x.denominator
    # x = 2^k m with m in (3/4, 3/2], so |(m-1)/(m+1)| <= 1/5
    k = p.bit_length() - q.bit_length()
    if p << max(-k, 0) < q << max(k, 0):
        k -= 1
    if 2 * (p << max(-k, 0)) > 3 * (q << max(k, 0)):
        k += 1
    # error in units of 2^-bits: under 7 bits/4 + 16 from the series, 2
    # from rounding m, and |k| times the width of ln 2, under 5 bits/2 + 16;
    # these guard bits keep the sum below 2^(bits - prec - 1)
    bits = prec + 10 + prec.bit_length() + abs(k).bit_length()
    num, den = p << max(bits - k, 0), q << max(k - bits, 0)
    m = -(-num // den) if upper else num // den  # m 2^bits, rounded outward
    a, b = m - (1 << bits), m + (1 << bits)
    s = 0  # log 1 = 0 exactly
    if a > 0:
        lo, hi = _atanh_fixed(a, b, bits)
        s = 2 * hi if upper else 2 * lo
    elif a < 0:
        lo, hi = _atanh_fixed(-a, b, bits)
        s = -2 * lo if upper else -2 * hi
    if k:
        ln2_lo, ln2_hi = _ln2_fixed(bits)
        s += k * (ln2_hi if (k > 0) == upper else ln2_lo)
    return Fraction(s, 1 << bits)


def log_interval(x: RatInterval, err: Fraction = _LOG_ERR) -> RatInterval:
    """Certified enclosure of {log v : v in x}, at most err wider than
    [log x.lo, log x.hi]; log 1 is exactly 0."""
    if x.lo <= 0:
        raise PreconditionError("log of a nonpositive number")
    prec = (err.denominator // err.numerator).bit_length()
    return RatInterval(_log_bound(x.lo, prec, False), _log_bound(x.hi, prec, True))


def format_interval(x: RatInterval, places: int = 15):
    """Outward-rounded decimal strings (lo, hi); deterministic."""
    scale = 10**places
    lo_i = math.floor(x.lo * scale)
    hi_i = math.ceil(x.hi * scale)

    def render(v: int) -> str:
        sign = "-" if v < 0 else ""
        v = abs(v)
        whole, frac = divmod(v, scale)
        return "%s%d.%0*d" % (sign, whole, places, frac)

    return render(lo_i), render(hi_i)


# ---------------------------------------------------------------------------
# evaluation of pi_beta


def pi_beta_at(x: EPSeq, beta: Fraction) -> Fraction:
    """Exact value sum d_i beta^-i at a rational beta > 1."""
    if beta <= 1:
        raise PreconditionError("pi_beta needs beta > 1")
    beta = Fraction(beta)
    b, c = beta.numerator, beta.denominator
    # with m = |pre|, n = |per| and the homogeneous Horner sums
    # H_k = sum_{i<k} d_i b^(k-1-i) c^i over the first k digits,
    # pi_beta(x) = (c H_(m+n) - c^(n+1) H_m) / (b^m (b^n - c^n))
    m, n = len(x.pre), len(x.per)
    h = head = 0
    ck = 1
    for k, d in enumerate(x.pre + x.per):
        if k == m:
            head = h
        h = h * b + (ck if d == "1" else 0)
        ck *= c
    cn = c**n
    return Fraction(c * h - cn * c * head, b**m * (b**n - cn))


def pi_beta(x: EPSeq, beta) -> RatInterval:
    """Enclosure of pi_beta(x) over a rational beta enclosure.

    For fixed x the map beta -> pi_beta(x) is nonincreasing (digits are
    nonnegative), so the enclosure is [value at hi, value at lo].
    """
    if isinstance(beta, RatInterval):
        return RatInterval(pi_beta_at(x, beta.hi), pi_beta_at(x, beta.lo))
    return RatInterval.point(pi_beta_at(x, Fraction(beta)))
