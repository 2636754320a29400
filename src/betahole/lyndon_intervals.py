"""beta-Lyndon words, extended beta-Lyndon intervals (EBLIs), entropy
plateaus and the entropy h(K_beta(t)) at their right ends, membership in
the bifurcation set E_beta, and the exceptional points of
E_beta \\ B_beta.

A Lyndon word w is beta-Lyndon when w^inf is a valid greedy expansion,
i.e. every shift of w^inf stays strictly below alpha(beta).  Its plain
interval is [pi(w 0^inf), pi(w^inf)]; when some tail of alpha drops to
or below w^inf the interval extends leftward to w^- (a_1..a_m^-)^inf
with m the first such shift.  The entropy at t = w^inf
(``plateau_entropy``) is read from the kneading polynomial of w^inf and
the greatest point of Sigma_{w^inf, alpha}, which that same m gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Tuple

from .base_solver import check_admissible_alpha, is_greedy_admissible
from .classifier import ClassRecord, Position, classify, endpoint_position, tau_greedy_seq
from .errors import InvariantError, NoCandidate, PreconditionError
from .seq_core import (
    EPSeq,
    RatInterval,
    eps,
    is_shift_minimal,
    minus,
    n_tails,
    periodic,
    shift,
    word_zeros,
)
from .substitution import bullet
from .survivor_shift import EntropyResult, _kneading_entropy
from .word_combinatorics import cyclic_max, is_farey, is_lyndon, lyndon_words


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
    # a Lyndon word is primitive, so w^inf has empty preperiod and period w
    best = min((x for x in map(periodic, lyndon_words(len(v)))
                if x >= target and is_beta_lyndon(x.per, alpha)), default=None)
    if best is None:
        raise NoCandidate("no beta-Lyndon word >= %r for this base" % (v,))
    return best.per


@dataclass(frozen=True)
class Ebli:
    """Extended beta-Lyndon interval [left_seq, right_seq] (by value)."""

    w: str
    left_seq: EPSeq
    right_seq: EPSeq
    m: Optional[int]  # the first tail of alpha at or below w^inf; None when plain

    @property
    def plain(self) -> bool:
        return self.m is None


def _window(alpha: EPSeq, w: str) -> int:
    """|alpha.pre| + |alpha.per| |w|: at least the decision bound of
    ``lex_cmp`` (the longer preperiod plus the lcm of the periods) for a
    tail of alpha against a sequence of period |w|, so two such sequences
    are equal when their first this many digits are."""
    return len(alpha.pre) + len(alpha.per) * len(w)


def _first_tail_at_or_below(alpha: EPSeq, w: str) -> Optional[int]:
    """m, the first n >= 1 with sigma^n(alpha) <= w^inf; None when there is
    none.  Each tail is compared with w^inf as a digit string of length
    ``_window(alpha, w)``."""
    size = _window(alpha, w)
    digits = alpha.prefix(n_tails(alpha) + size)
    target = (w * (size // len(w) + 1))[:size]
    for n in range(1, n_tails(alpha) + 1):
        if digits[n : n + size] <= target:
            return n
    return None


def _greatest_point(w: str, alpha: EPSeq) -> EPSeq:
    """The greatest point of Sigma_{w^inf, alpha} for a beta-Lyndon w:
    (a_1..a_m^-)^inf, the upper end implied by the extended EBLI's left
    end, when the first tail sigma^m(alpha) at or below w^inf is strictly
    below it, and alpha otherwise.  A first such tail equal to w^inf
    leaves alpha in the shift, since every later tail is a rotation of
    the Lyndon word's w^inf and so not below it."""
    m = _first_tail_at_or_below(alpha, w)
    if m is None or shift(alpha, m) == periodic(w):
        return alpha
    return periodic(minus(alpha.prefix(m)))


def plateau_entropy(w: str, alpha: EPSeq) -> EntropyResult:
    """h(K_beta(t)) at t = w^inf for a beta-Lyndon word w: the entropy of
    Sigma_{v,u}, where v = w^inf and u is its greatest point, taken from
    the kneading polynomial of (v, u) rather than from an automaton.

    v is the least point (w is Lyndon and w^inf is admissible), so with
    A the adjacency matrix of the automaton of Sigma_{v,u}, of periods q
    = |w| and p = |u.per|,
      (1 - z) det(I - zA) = (1 - z^p)(1 - z^q)(1 - sum_{n>=1} (u_n - v_n) z^n)
    is an identity of integer polynomials.  It is the kneading
    determinant of a lexicographic shift with eventually periodic
    kneading data, whose inverse is the Artin-Mazur zeta function
    (Milnor-Thurston 1988; Hubbard-Sparrow 1990 for the two kneading
    sequences of a Lorenz map; Flatto-Lagarias-Poonen 1994 for the beta
    shift, v = 0^inf); the tests check it exactly on random pairs.  So
    lambda = exp h is 1 / z0 for the smallest root z0 of the right side
    in (0, 1), and 1 when it has none.  Raises PreconditionError when w
    is not beta-Lyndon for alpha.
    """
    check_admissible_alpha(alpha)
    # w^inf is admissible when its greatest shift, L(w)^inf, lies below alpha
    size = _window(alpha, w)
    if not (is_lyndon(w) and (cyclic_max(w) * (size // len(w) + 1))[:size] < alpha.prefix(size)):
        raise PreconditionError("%r is not beta-Lyndon for alpha = %s" % (w, alpha))
    return _kneading_entropy(periodic(w), _greatest_point(w, alpha))


def ebli(w: str, alpha: EPSeq) -> Ebli:
    """The (possibly extended) interval of the beta-Lyndon word w."""
    if not is_beta_lyndon(w, alpha):
        raise PreconditionError("%r is not beta-Lyndon for alpha = %s" % (w, alpha))
    target = periodic(w)
    m = _first_tail_at_or_below(alpha, w)
    if m is None:
        return Ebli(w, word_zeros(w), target, None)
    head = alpha.prefix(m)
    # the first tail at or below w^inf always follows a digit 1 of alpha
    if not head.endswith("1"):
        raise InvariantError("tail %d of %s does not follow a digit 1" % (m, alpha))
    return Ebli(w, eps(minus(w), minus(head)), target, m)


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
    entropy: RatInterval


@dataclass(frozen=True)
class PlateauReport:
    plateaus: Tuple[Plateau, ...]
    max_word_len: int
    complete: bool
    unresolved: Tuple[Tuple[EPSeq, EPSeq], ...]


def plateaus(alpha: EPSeq, max_word_len: int = 12) -> PlateauReport:
    """Entropy plateaus up to the word-length cutoff.

    Enumerates beta-Lyndon words w with |w| <= max_word_len whose EBLI
    touches [0, tau(beta)], keeps the set-inclusion-maximal ones, and
    appends the terminal plateau [tau(beta), 1) of entropy zero.  The
    enumeration is cutoff-limited, so the report carries an explicit
    completeness flag and the uncovered gaps inside [0, tau(beta)].

    EBLIs are nested or disjoint.  One sweep in order of (left end
    ascending, right end descending) keeps a stack of open, nested
    EBLIs: those ending at or before the next left end are closed, an
    EBLI is maximal when none stays open, and an open one ending before
    the next right end is a crossing, which raises InvariantError.
    """
    tau_seq = tau_greedy_seq(classify(alpha))
    candidates: List[Ebli] = []
    for w in lyndon_words(max_word_len, min_len=2):
        if not is_beta_lyndon(w, alpha):
            continue
        e = ebli(w, alpha)
        if e.left_seq <= tau_seq:
            candidates.append(e)
    candidates.sort(key=lambda e: e.right_seq, reverse=True)
    candidates.sort(key=lambda e: e.left_seq)
    maximal: List[Ebli] = []
    stack: List[Ebli] = []
    for e in candidates:
        while stack and stack[-1].right_seq <= e.left_seq:
            stack.pop()
        if not stack:
            maximal.append(e)
        elif stack[-1].right_seq < e.right_seq:
            raise InvariantError("EBLIs of %r and %r overlap without nesting" % (stack[-1].w, e.w))
        stack.append(e)
    out = [Plateau("ebli", e, plateau_entropy(e.w, alpha).h) for e in maximal]
    out.append(Plateau("terminal", None, RatInterval.point(0)))
    gaps = []
    prev: Optional[EPSeq] = None
    for e in maximal:
        if prev is not None and prev < e.left_seq:
            gaps.append((prev, e.left_seq))
        prev = e.right_seq
    if prev is not None and prev < tau_seq:
        gaps.append((prev, tau_seq))
    return PlateauReport(tuple(out), max_word_len, False, tuple(gaps))


def exceptional_points(chain, which: str) -> List[EPSeq]:
    """E_beta \\ B_beta at an endpoint of a basic interval, in decreasing
    order: r_1^inf, (r_1.r_2)^inf, ... (k-1 points at the left endpoint,
    k at the star and right endpoints)."""
    chain = list(chain)
    if not chain:
        raise PreconditionError("exceptional_points needs a nonempty chain")
    if not all(is_farey(r) and len(r) >= 2 for r in chain):
        raise PreconditionError("chain factors must be Farey words of length >= 2")
    stop = len(chain) - 1 if endpoint_position(which) is Position.LEFT else len(chain)
    return list(islice(einf_exceptional_stream(chain), stop))


def einf_exceptional_stream(farey_words):
    """Lazily yields s_1^inf, (s_1.s_2)^inf, ... for an infinitely
    renormalizable base given by its Farey word stream."""
    word = ""
    for s in farey_words:
        word = s if not word else bullet(word, s)
        yield periodic(word)


def gap_point(record: ClassRecord, M: int) -> EPSeq:
    """Left endpoint of a beta-Lyndon gap:
    b = S^- L(S)^M u^- L(S)^inf, where S is the composed chain of the
    classification and u is the suffix of S that begins the largest
    rotation.  Requires beta in the interior of I^S and M >= N with
    sigma^{|S|}(alpha) < S^- L(S)^N 0^inf."""
    if record.position is not Position.INTERIOR:
        raise PreconditionError("gap_point needs beta in the interior of I^S")
    alpha, word = record.alpha, record.composed
    L = cyclic_max(word)
    j = next(i for i in range(len(word)) if word[i:] + word[:i] == L)
    u = word[j:]
    tail = shift(alpha, len(word))
    N = 0
    while tail >= eps(minus(word) + L * N, "0"):
        N += 1
        if N > n_tails(alpha) + len(word) + 8:
            raise PreconditionError("no finite N: is beta really interior?")
    if M < N:
        raise PreconditionError("M = %d below the threshold N = %d" % (M, N))
    return eps(minus(word) + L * M + minus(u), L)
