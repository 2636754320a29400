"""Substitutions on 0-1 words and sequences.

Besides the elementary U0 / U1 maps, this module implements the
four-block substitution Phi_s of a Lyndon word s: runs of the argument
map to blocks

    0-run of length k  ->  s^-  L(s)^(k-1)
    1-run of length l  ->  L(s)^+  s^(l-1)

so the only blocks ever emitted are s^-, s, L(s), L(s)^+, and their
admissible successions form a small directed graph: after s^- or L(s)
come L(s) or L(s)^+; after s or L(s)^+ come s or s^-.  The inverse map
chunks a sequence into |s|-blocks, identifies each one (the four blocks
are pairwise distinct words), checks the succession rule, and reads the
preimage digit off the block kind.
"""

from __future__ import annotations

from functools import reduce

from .errors import InvariantError, NotInLambda, NotInRange, PreconditionError
from .seq_core import EPSeq, check_word, minus, periodic, plus, shift
from .word_combinatorics import cyclic_max, farey_words_of_length, is_farey, is_lyndon


def _sub_word(w: str, image0: str, image1: str) -> str:
    return "".join(image0 if c == "0" else image1 for c in w)


def u0(x):
    """U0: 0 -> 0, 1 -> 01, on a word or an EPSeq."""
    if isinstance(x, EPSeq):
        return EPSeq(_sub_word(x.pre, "0", "01"), _sub_word(x.per, "0", "01"))
    return _sub_word(check_word(x), "0", "01")


def u1(x):
    """U1: 0 -> 01, 1 -> 1, on a word or an EPSeq."""
    if isinstance(x, EPSeq):
        return EPSeq(_sub_word(x.pre, "01", "1"), _sub_word(x.per, "01", "1"))
    return _sub_word(check_word(x), "01", "1")


def _runs(w: str):
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        out.append((w[i], j - i))
        i = j
    return out


class _Blocks:
    def __init__(self, s: str):
        if not is_lyndon(s) or len(s) < 2:
            raise PreconditionError("Phi needs a Lyndon word of length >= 2: %r" % (s,))
        self.s = s
        self.L = cyclic_max(s)
        self.s_minus = minus(s)
        self.L_plus = plus(self.L)
        # the four blocks are pairwise distinct words
        self.kind = {self.s_minus: "s_minus", s: "s", self.L: "L", self.L_plus: "L_plus"}

    def image_of_runs(self, runs) -> str:
        out = []
        for digit, count in runs:
            if digit == "0":
                out.append(self.s_minus + self.L * (count - 1))
            else:
                out.append(self.L_plus + self.s * (count - 1))
        return "".join(out)


def phi_word(s: str, w: str) -> str:
    """Phi_s applied to a finite word."""
    check_word(w)
    return _Blocks(s).image_of_runs(_runs(w))


def _phi_eps(s: str, x: EPSeq) -> EPSeq:
    blocks = _Blocks(s)
    if set(x.per) == {"0"}:
        # tail 0^inf: final (infinite) 0-run gives s^- L(s)^inf
        runs = _runs(x.pre)
        if runs and runs[-1][0] == "0":
            head = blocks.image_of_runs(runs[:-1]) + blocks.s_minus + blocks.L * (runs[-1][1] - 1)
        else:
            head = blocks.image_of_runs(runs) + blocks.s_minus
        return EPSeq(head, blocks.L)
    if set(x.per) == {"1"}:
        runs = _runs(x.pre)
        if runs and runs[-1][0] == "1":
            head = blocks.image_of_runs(runs[:-1]) + blocks.L_plus + blocks.s * (runs[-1][1] - 1)
        else:
            head = blocks.image_of_runs(runs) + blocks.L_plus
        return EPSeq(head, blocks.s)
    # rotate the period so it starts at a run boundary; then no run spans
    # a period seam and the block images repeat periodically
    per = x.per
    k = next(i for i in range(len(per)) if per[i - 1] != per[i])
    pre = x.pre + per[:k]
    per = per[k:] + per[:k]
    if pre and pre[-1] == per[0]:
        # the boundary run spans the pre|per seam: shift the period start
        # past its first run so both seams are clean
        f = 1
        while f < len(per) and per[f] == per[0]:
            f += 1
        pre = pre + per[:f]
        per = per[f:] + per[:f]
    return EPSeq(blocks.image_of_runs(_runs(pre)), blocks.image_of_runs(_runs(per)))


def phi(s: str, x):
    """Phi_s on a word or an EPSeq (period maps to period)."""
    if isinstance(x, EPSeq):
        return _phi_eps(s, x)
    return phi_word(s, x)


def bullet(s: str, r: str) -> str:
    """s . r := Phi_s(r); Lyndon whenever r is Lyndon."""
    return phi_word(s, r)


def compose_chain(chain) -> str:
    """r1 . r2 . ... . rn (associative), '' for the empty chain."""
    chain = list(chain)
    if not chain:
        return ""
    return reduce(bullet, chain)


# block kinds and the succession rule of the directed graph
_KIND_DIGIT = {"s_minus": "0", "L": "0", "L_plus": "1", "s": "1"}
_NEXT = {
    "s_minus": ("L", "L_plus"),
    "L": ("L", "L_plus"),
    "s": ("s", "s_minus"),
    "L_plus": ("s", "s_minus"),
}


def _next_kind(blocks: _Blocks, chunk: str, prev, pos: int) -> str:
    """Kind of the block chunk at digit pos, following a block of kind
    prev (None at the start); NotInRange when chunk is no block or breaks
    the succession rule."""
    kind = blocks.kind.get(chunk)
    if kind is None:
        raise NotInRange("unrecognized block at digit %d" % pos, position=pos)
    if prev is None:
        if kind not in ("s_minus", "L_plus"):
            raise NotInRange("sequence must start with s^- or L(s)^+", position=0)
    elif kind not in _NEXT[prev]:
        raise NotInRange("block succession %s -> %s violates the graph" % (prev, kind), position=pos)
    return kind


def phi_inverse_word(s: str, w: str):
    """Parse a finite word as Phi_s(v); returns (v, kinds)."""
    blocks = _Blocks(s)
    m = len(s)
    if len(w) % m != 0:
        raise NotInRange("length %d not a multiple of |s| = %d" % (len(w), m), position=len(w))
    kinds = []
    prev = None
    for pos in range(0, len(w), m):
        prev = _next_kind(blocks, w[pos : pos + m], prev, pos)
        kinds.append(prev)
    return "".join(_KIND_DIGIT[k] for k in kinds), kinds


def phi_inverse(s: str, x):
    """Inverse of Phi_s on a word or EPSeq; NotInRange on parse failure.

    For an EPSeq the block stream is itself eventually periodic: parse
    until the pair (tail of x at the chunk boundary, previous block kind)
    repeats, then fold.
    """
    if not isinstance(x, EPSeq):
        return phi_inverse_word(s, x)[0]
    blocks = _Blocks(s)
    m = len(s)
    digits = []
    prev = None
    seen = {}
    pos = 0
    while True:
        state = (shift(x, pos), prev)
        if state in seen:
            start = seen[state]
            pre = "".join(digits[:start])
            per = "".join(digits[start:])
            return EPSeq(pre, per)
        seen[state] = len(digits)
        prev = _next_kind(blocks, x.prefix(pos + m)[pos:], prev, pos)
        digits.append(_KIND_DIGIT[prev])
        pos += m


def lambda_decompose(word: str):
    """Chain [s1, ..., sk] of Farey factors with word = s1 . s2 . ... . sk.

    Candidate first factors s1 are Farey words whose length divides
    |word| and is at most |word| / 2; Phi_{s1}(r) always begins with
    s1^-, which prunes most candidates before attempting a parse.  The
    chain is unique; if two distinct chains validate, that is a genuine
    inconsistency and an InvariantError is raised.
    """
    if not is_lyndon(word):
        raise NotInLambda("%r is not Lyndon" % (word,))
    found = []
    if is_farey(word):
        found.append([word])
    n = len(word)
    for d in range(2, n // 2 + 1):
        if n % d != 0:
            continue
        for s1 in farey_words_of_length(d):
            if len(s1) < 2 or not word.startswith(minus(s1)):
                continue
            try:
                pre, _ = phi_inverse_word(s1, word)
            except NotInRange:
                continue
            try:
                rest = lambda_decompose(pre)
            except NotInLambda:
                continue
            found.append([s1] + rest)
    if not found:
        raise NotInLambda("%r admits no Farey substitution chain" % (word,))
    if len(found) > 1:
        raise InvariantError("ambiguous Lambda chains for %r: %r" % (word, found))
    return found[0]


def sandwich_points(s: str):
    """The |s| shift orbits of s^inf: the full solution set of
    s 0^inf <= sigma^n(z) <= L(s)^inf for all n."""
    if not is_farey(s) or len(s) < 2:
        raise PreconditionError("sandwich_points needs a Farey word of length >= 2")
    base = periodic(s)
    return [shift(base, j) for j in range(len(s))]
