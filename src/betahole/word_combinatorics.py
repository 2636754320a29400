"""Lyndon and Farey word machinery.

Farey words are generated by mediant insertion starting from the level
(0, 1); equivalently they are the words reachable from {0, 1, 01} by the
substitutions U0: 0->0, 1->01 and U1: 0->01, 1->1.  Membership is decided
by running those substitutions backwards, which is quadratic in the word
length instead of exponential level enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .seq_core import check_word


def rotations(w: str):
    return [w[i:] + w[:i] for i in range(len(w))]


def cyclic_max(w: str) -> str:
    """L(w): lexicographically largest rotation."""
    check_word(w, allow_empty=False)
    return max(rotations(w))


def is_lyndon(w: str) -> bool:
    """Aperiodic and strictly smallest among its rotations."""
    check_word(w, allow_empty=False)
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def lyndon_words(max_len: int, min_len: int = 1):
    """All Lyndon words over {0,1} with min_len <= length <= max_len.

    Duval's generation, in lexicographic order.
    """
    w = "0"
    while True:
        if min_len <= len(w) <= max_len:
            yield w
        t = (w * (max_len // len(w) + 1))[:max_len]
        while t and t[-1] == "1":
            t = t[:-1]
        if not t:
            return
        w = t[:-1] + "1"


def farey_level(n: int) -> list:
    """The ordered Farey level F_n (2^n + 1 words)."""
    if n < 0:
        raise PreconditionError("farey_level needs n >= 0")
    level = ["0", "1"]
    for _ in range(n):
        nxt = []
        for a, b in zip(level, level[1:]):
            nxt.extend([a, a + b])
        nxt.append(level[-1])
        level = nxt
    return level


def _inverse_u0(w: str):
    # U0: 0 -> 0, 1 -> 01.  Image words never start with 1 and every 1
    # is preceded by a 0.
    out = []
    i = 0
    while i < len(w):
        if w[i] == "1":
            return None
        if i + 1 < len(w) and w[i + 1] == "1":
            out.append("1")
            i += 2
        else:
            out.append("0")
            i += 1
    return "".join(out)


def _inverse_u1(w: str):
    # U1: 0 -> 01, 1 -> 1.  Image words never end with 0 and every 0 is
    # followed by a 1.
    out = []
    i = 0
    while i < len(w):
        if w[i] == "0":
            if i + 1 >= len(w) or w[i + 1] != "1":
                return None
            out.append("0")
            i += 2
        else:
            out.append("1")
            i += 1
    return "".join(out)


def is_farey(w: str) -> bool:
    """Membership in F by repeated de-substitution down to {0, 1, 01}."""
    check_word(w)
    while True:
        if w in ("0", "1", "01"):
            return True
        if not w:
            return False
        if w == "0" * len(w) or w == "1" * len(w):
            return False
        has00 = "00" in w
        has11 = "11" in w
        if has00 and has11:
            return False
        if not has11:
            w2 = _inverse_u0(w)
        else:
            w2 = _inverse_u1(w)
        if w2 is None:
            return False
        w = w2


def xi(w: str) -> Fraction:
    """Frequency of the digit 1; bijection F -> Q intersect [0,1]."""
    if not is_farey(w):
        raise PreconditionError("xi is defined on Farey words only: %r" % (w,))
    return Fraction(w.count("1"), len(w))


def farey_from_rational(r) -> str:
    """The unique Farey word s with xi(s) = r, by Stern-Brocot descent."""
    r = Fraction(r)
    if r < 0 or r > 1:
        raise PreconditionError("farey_from_rational needs 0 <= r <= 1")
    if r == 0:
        return "0"
    if r == 1:
        return "1"
    lw, lf = "0", Fraction(0)
    rw, rf = "1", Fraction(1)
    while True:
        mw = lw + rw
        mf = Fraction(lf.numerator + rf.numerator, lf.denominator + rf.denominator)
        if r == mf:
            return mw
        if r < mf:
            rw, rf = mw, mf
        else:
            lw, lf = mw, mf
