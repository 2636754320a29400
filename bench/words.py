"""String-level words and eventually periodic sequences for the benchmark.

This module deliberately shares no code with ``betahole``: the workload
generator and the output checks use it as an independent reference.  A
sequence ``pre . per . per ...`` is a pair ``(pre, per)`` in canonical form
(primitive period, shortest preperiod), so equal sequences are equal pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = ("", "0")


def primitive(w):
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


def canon(pre, per):
    per = primitive(per)
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1] + per[:-1]
    return pre, per


def parse(text):
    pre, per = text[:-1].split("(", 1)
    return canon(pre, per)


def fmt(x):
    return "%s(%s)" % x


def prefix(x, n):
    pre, per = x
    if n <= len(pre):
        return pre[:n]
    k = n - len(pre)
    return pre + (per * (k // len(per) + 1))[:k]


def cmp(x, y):
    """Lexicographic order of two sequences: -1, 0 or 1."""
    if x == y:
        return 0
    n = max(len(x[0]), len(y[0])) + lcm(len(x[1]), len(y[1]))
    a, b = prefix(x, n), prefix(y, n)
    return -1 if a < b else 1


def shift(x, n):
    pre, per = x
    if n <= len(pre):
        return canon(pre[n:], per)
    k = (n - len(pre)) % len(per)
    return canon("", per[k:] + per[:k])


def n_tails(x):
    return len(x[0]) + len(x[1])


def is_shift_maximal(x):
    return all(cmp(shift(x, n), x) <= 0 for n in range(1, n_tails(x) + 1))


def is_admissible(alpha):
    """Quasi-greedy expansion of 1: shift-maximal and not ending in 0^inf."""
    return alpha[1] != "0" and is_shift_maximal(alpha)


def rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def is_lyndon(w):
    return all(w < r for r in rotations(w)[1:])


def parry(w, alpha):
    """Parry condition: every shift of w^inf lies strictly below alpha."""
    return all(cmp(canon("", r), alpha) < 0 for r in rotations(w))


def minus(w):
    return w[:-1] + "0"


def plus(w):
    return w[:-1] + "1"


def lyndon_words(max_len, min_len=1):
    """Lyndon words in lexicographic order (Duval)."""
    w = "0"
    while True:
        if len(w) >= min_len:
            yield w
        t = (w * (max_len // len(w) + 1))[:max_len]
        t = t.rstrip("1")
        if not t:
            return
        w = t[:-1] + "1"


def farey_words(max_len):
    """Farey words of length 2 .. max_len, by mediant insertion."""
    level, out = ["0", "1"], set()
    while True:
        nxt = [level[0]]
        for a, b in zip(level, level[1:]):
            if len(a) + len(b) <= max_len:
                nxt.append(a + b)
                out.add(a + b)
            nxt.append(b)
        if len(nxt) == len(level):
            return sorted(out, key=lambda w: (len(w), w))
        level = nxt


def endpoints(s):
    """(left, star, right) quasi-greedy expansions for the Farey word s."""
    big = max(rotations(s))
    return (
        canon("", big),
        canon(plus(big) + minus(s), big),
        canon(plus(big), s),
    )


FAREY = farey_words(24)
ENDPOINTS = [(s,) + endpoints(s) for s in FAREY]


def depth1_class(alpha):
    """(s, position) at the first renormalization level, or None.

    position is one of two, left, star, right, interior, or ``deeper`` when
    alpha lies strictly between the star and right endpoints of I^s.
    """
    if alpha == ("", "1"):
        return "", "two"
    for s, left, star, right in ENDPOINTS:
        if cmp(left, alpha) <= 0 and cmp(alpha, right) <= 0:
            if alpha == left:
                return s, "left"
            if alpha == right:
                return s, "right"
            c = cmp(alpha, star)
            return s, ("star" if c == 0 else "interior" if c < 0 else "deeper")
    return None


def tau_seq(s, position):
    """Greedy expansion of tau(beta) for a first-level class."""
    if position == "two":
        return ("1", "0")
    if position in ("left", "right"):
        return canon(s, "0")
    return canon(minus(s), max(rotations(s)))


def scan_sequence(alpha):
    """The sequence whose tails define the windows (greedy 1 for periodic alpha)."""
    pre, per = alpha
    return canon(per[:-1] + "1", "0") if pre == "" else alpha


def window_words(alpha, s):
    """The words v_1, v_2, ... of the non-transitivity windows of an interior
    alpha at the first level, with the scan position j_k of each."""
    A = scan_sequence(alpha)
    j, seen, out = len(s), set(), []
    while True:
        tail = shift(A, j)
        if tail == ZERO or tail in seen:
            return out
        seen.add(tail)
        limit = max(len(A[0]) - j, 0) + len(A[1])
        n = next((n for n in range(1, limit + 1) if cmp(shift(A, j + n), tail) <= 0), None)
        if n is None:
            return out
        out.append((j, prefix(A, j + n)[j:]))
        j += n


def pi_at(x, beta):
    """Exact sum d_i beta^-i at a rational beta > 1."""
    t = 1 / Fraction(beta)
    pre, per = x
    head = Fraction(0)
    for c in reversed(pre):
        head = (head + int(c)) * t
    body = Fraction(0)
    for c in reversed(per):
        body = (body + int(c)) * t
    return head + t ** len(pre) * body / (1 - t ** len(per))


def quasi_greedy_digits(beta, n):
    """First n digits of alpha(beta) for a rational beta in (1, 2]."""
    x, out = Fraction(1), []
    for _ in range(n):
        y = beta * x
        out.append("1" if y > 1 else "0")
        x = y - 1 if y > 1 else y
    return "".join(out)
