"""beta-Lyndon words, extended beta-Lyndon intervals (EBLIs), entropy
plateaus, membership in the bifurcation set E_beta, and the exceptional
points of E_beta \\ B_beta.

A Lyndon word w is beta-Lyndon when w^inf is a valid greedy expansion,
i.e. every shift of w^inf stays strictly below alpha(beta).  Its plain
interval is [pi(w 0^inf), pi(w^inf)]; when some tail of alpha drops to
or below w^inf the interval extends leftward to w^- (a_1..a_m^-)^inf
with m the first such shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .base_solver import BetaSpec, beta_from_alpha, is_greedy_admissible
from .classifier import Position, classify, tau
from .errors import InvariantError, NoCandidate, PreconditionError
from .seq_core import (
    EPSeq,
    RatInterval,
    eps,
    is_shift_minimal,
    minus,
    n_tails,
    periodic,
    seq_ge,
    seq_key,
    seq_le,
    seq_lt,
    shift,
    word_zeros,
)
from .substitution import bullet, compose_chain
from .word_combinatorics import is_lyndon, lyndon_words


def is_beta_lyndon(w: str, alpha: EPSeq) -> bool:
    """Lyndon, and w^inf is a greedy expansion for the base with this alpha."""
    return is_lyndon(w) and is_greedy_admissible(periodic(w), alpha)


def v_star(v: str, alpha: EPSeq) -> str:
    """The smallest beta-Lyndon word w with w^inf >= v^inf.

    If v is beta-Lyndon this is v itself.  Otherwise no extension of v
    is beta-Lyndon, and the completion is a modified prefix u^+ of v, so
    the search over Lyndon words of length <= |v| is total.
    """
    if not is_lyndon(v):
        raise PreconditionError("v_star needs a Lyndon word: %r" % (v,))
    if is_beta_lyndon(v, alpha):
        return v
    target = periodic(v)
    best: Optional[str] = None
    for w in lyndon_words(len(v)):
        if not seq_ge(periodic(w), target):
            continue
        if not is_beta_lyndon(w, alpha):
            continue
        if best is None or seq_lt(periodic(w), periodic(best)):
            best = w
    if best is None:
        raise NoCandidate("no beta-Lyndon word >= %r for this base" % (v,))
    return best


@dataclass(frozen=True)
class Ebli:
    """Extended beta-Lyndon interval [left_seq, right_seq] (by value)."""

    w: str
    left_seq: EPSeq
    right_seq: EPSeq
    m: Optional[int]
    plain: bool


def ebli(w: str, alpha: EPSeq) -> Ebli:
    """The (possibly extended) interval of the beta-Lyndon word w."""
    if not is_beta_lyndon(w, alpha):
        raise PreconditionError("%r is not beta-Lyndon for alpha = %s" % (w, alpha))
    target = periodic(w)
    m = None
    for n in range(1, n_tails(alpha) + 1):
        if seq_le(shift(alpha, n), target):
            m = n
            break
    if m is None:
        return Ebli(w, word_zeros(w), target, None, True)
    head = alpha.prefix(m)
    # the first tail at or below w^inf always follows a digit 1 of alpha
    if not head.endswith("1"):
        raise InvariantError("tail %d of %s does not follow a digit 1" % (m, alpha))
    return Ebli(w, eps(minus(w), minus(head)), target, m, False)


def symbolic_plateau(w: str, alpha: EPSeq) -> Tuple[EPSeq, EPSeq]:
    """The lexicographic plateau of a -> h(Sigma_{a,b}) attached to w:
    [w^- alpha, w^inf] in the plain case, [w^- (a_1..a_m^-)^inf, w^inf]
    otherwise."""
    e = ebli(w, alpha)
    if e.plain:
        left = eps(minus(w) + alpha.pre, alpha.per)
    else:
        left = e.left_seq
    return left, e.right_seq


def in_E_beta(b: EPSeq, alpha: EPSeq) -> bool:
    """Membership of t in the bifurcation set: sigma^n(b) >= b for all n."""
    if not is_greedy_admissible(b, alpha):
        raise PreconditionError("%s is not a greedy expansion for this base" % (b,))
    return is_shift_minimal(b)


@dataclass(frozen=True)
class Plateau:
    """One entropy plateau: an EBLI, or the terminal interval [tau, 1)."""

    kind: str  # "ebli" | "terminal"
    ebli: Optional[Ebli]
    entropy: Optional[RatInterval]


@dataclass(frozen=True)
class PlateauReport:
    plateaus: Tuple[Plateau, ...]
    max_word_len: int
    complete: bool
    unresolved: Tuple[Tuple[EPSeq, EPSeq], ...]


def plateaus(
    alpha: EPSeq,
    max_word_len: int = 12,
    with_entropy: bool = True,
    beta: Optional[BetaSpec] = None,
) -> PlateauReport:
    """Entropy plateaus up to the word-length cutoff.

    Enumerates beta-Lyndon words w with |w| <= max_word_len whose EBLI
    touches [0, tau(beta)], keeps the set-inclusion-maximal ones, and
    appends the terminal plateau [tau(beta), 1) of entropy zero.  The
    enumeration is cutoff-limited, so the report carries an explicit
    completeness flag and the uncovered gaps inside [0, tau(beta)].
    ``beta`` is the enclosure of the base to use; by default it is
    computed from alpha.

    EBLIs are nested or disjoint.  One sweep in order of (left end
    ascending, right end descending) keeps a stack of open, nested
    EBLIs: those ending at or before the next left end are closed, an
    EBLI is maximal when none stays open, and an open one ending before
    the next right end is a crossing, which raises InvariantError.
    """
    record = classify(alpha)
    if beta is None:
        beta = beta_from_alpha(alpha)
    tau_point = tau(record, beta)
    candidates: List[Ebli] = []
    for w in lyndon_words(max_word_len, min_len=2):
        if not is_beta_lyndon(w, alpha):
            continue
        e = ebli(w, alpha)
        if seq_le(e.left_seq, tau_point.greedy):
            candidates.append(e)
    candidates.sort(key=lambda e: seq_key(e.right_seq), reverse=True)
    candidates.sort(key=lambda e: seq_key(e.left_seq))
    maximal: List[Ebli] = []
    stack: List[Ebli] = []
    for e in candidates:
        while stack and seq_le(stack[-1].right_seq, e.left_seq):
            stack.pop()
        if not stack:
            maximal.append(e)
        elif seq_lt(stack[-1].right_seq, e.right_seq):
            raise InvariantError("EBLIs of %r and %r overlap without nesting" % (stack[-1].w, e.w))
        stack.append(e)
    out: List[Plateau] = []
    if with_entropy:
        from .survivor_shift import entropy_of_bounds

        for e in maximal:
            res = entropy_of_bounds(e.right_seq, alpha)
            out.append(Plateau("ebli", e, res.h))
    else:
        out.extend(Plateau("ebli", e, None) for e in maximal)
    out.append(Plateau("terminal", None, RatInterval.point(0)))
    gaps = []
    prev: Optional[EPSeq] = None
    for e in maximal:
        if prev is not None and seq_lt(prev, e.left_seq):
            gaps.append((prev, e.left_seq))
        prev = e.right_seq
    if prev is not None and seq_lt(prev, tau_point.greedy):
        gaps.append((prev, tau_point.greedy))
    return PlateauReport(tuple(out), max_word_len, False, tuple(gaps))


def exceptional_points(chain, which: str) -> List[EPSeq]:
    """E_beta \\ B_beta at an endpoint of a basic interval, in decreasing
    order: r_1^inf, (r_1.r_2)^inf, ... (k-1 points at the left endpoint,
    k at the star and right endpoints)."""
    from .word_combinatorics import is_farey

    chain = list(chain)
    if not chain:
        raise PreconditionError("exceptional_points needs a nonempty chain")
    if not all(is_farey(r) and len(r) >= 2 for r in chain):
        raise PreconditionError("chain factors must be Farey words of length >= 2")
    stop = len(chain) - 1 if which in ("l", "ell", "left") else len(chain)
    out = []
    word = ""
    for i in range(stop):
        word = chain[i] if not word else bullet(word, chain[i])
        out.append(periodic(word))
    return out


def einf_exceptional_stream(farey_words):
    """Lazily yields s_1^inf, (s_1.s_2)^inf, ... for an infinitely
    renormalizable base given by its Farey word stream."""
    word = ""
    for s in farey_words:
        word = s if not word else bullet(word, s)
        yield periodic(word)


def gap_point(chain, alpha: EPSeq, M: int) -> EPSeq:
    """Left endpoint of a beta-Lyndon gap:
    b = S^- L(S)^M u^- L(S)^inf, where u is the suffix of S that begins
    the largest rotation.  Requires beta in the interior of I^S and
    M >= N with sigma^{|S|}(alpha) < S^- L(S)^N 0^inf."""
    word = compose_chain(chain) if not isinstance(chain, str) else chain
    record = classify(alpha)
    if record.position is not Position.INTERIOR or record.composed != word:
        raise PreconditionError("gap_point needs beta in the interior of I^S")
    from .word_combinatorics import cyclic_max

    L = cyclic_max(word)
    j = next(i for i in range(len(word)) if word[i:] + word[:i] == L)
    u = word[j:]
    tail = shift(alpha, len(word))
    N = 0
    while not seq_lt(tail, eps(minus(word) + L * N, "0")):
        N += 1
        if N > n_tails(alpha) + len(word) + 8:
            raise PreconditionError("no finite N: is beta really interior?")
    if M < N:
        raise PreconditionError("M = %d below the threshold N = %d" % (M, N))
    return eps(minus(word) + L * M + minus(u), L)
