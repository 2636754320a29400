"""Non-transitivity windows inside basic intervals, and the transitivity
decision procedure across all classes of eventually periodic bases.

For beta in the interior of a basic interval I^S the hole positions
split into windows where the survivor subshift cannot be transitive.
The windows come from special Lyndon words v_k read off alpha(beta):
starting at j_1 = |S|, each step finds the first later tail of alpha
that drops to or below the current one; the digits in between form v_k.
Window k is [t_k^low, t_k^high) with

    b(t_k^low)  = v_k^- (a_1 .. a_{j_k}^-)^inf
    b(t_k^high) = (v_k^*)^inf

(closed on the right in the special case v_k beta-Lyndon with
sigma^{j_k}(alpha) = v_k^inf).  For purely periodic alpha the scan runs
on the greedy expansion of 1 instead, and stops when it reaches the
0^inf tail.  Tails of an eventually periodic sequence repeat, so the
scan is run with cycle detection: when a tail recurs, every later window
nests inside the one where the cycle began, and a marker is emitted
instead of the infinite list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .classifier import ClassRecord, Position, classify, tau_greedy_seq
from .errors import InvariantError, PreconditionError
from .lyndon_intervals import is_beta_lyndon, v_star
from .seq_core import (
    EPSeq,
    ZERO,
    eps,
    minus,
    periodic,
    seq_le,
    seq_lt,
    shift,
)
from .substitution import compose_chain, phi_inverse, phi_inverse_word
from .word_combinatorics import cyclic_max, is_lyndon


@dataclass(frozen=True)
class WindowRecord:
    k: int
    jk: int
    nk: int
    v: str
    v_star: str
    lower_seq: EPSeq
    upper_seq: EPSeq
    closed: bool

    def contains_value(self, x: EPSeq) -> bool:
        """Membership of a greedy sequence's value in the window."""
        if not seq_le(self.lower_seq, x):
            return False
        return seq_le(x, self.upper_seq) if self.closed else seq_lt(x, self.upper_seq)


@dataclass(frozen=True)
class WindowSet:
    records: Tuple[WindowRecord, ...]
    tail_nested_at: Optional[int]  # index k whose window absorbs all later ones

    def __iter__(self):
        return iter(self.records)

    def covers(self, x: EPSeq) -> bool:
        return any(rec.contains_value(x) for rec in self.records)


def _scan_sequence(alpha: EPSeq) -> EPSeq:
    if alpha.pre == "":
        from .base_solver import periodic_alpha_to_greedy_one

        return periodic_alpha_to_greedy_one(alpha)
    return alpha


# window steps build_windows takes before giving up
MAX_WINDOWS = 4096


def build_windows(alpha: EPSeq, record: Optional[ClassRecord] = None) -> WindowSet:
    """The full window list for beta in the interior of a basic interval.

    ``record`` is the classification of alpha; by default it is computed.
    """
    if record is None:
        record = classify(alpha)
    if record.position is not Position.INTERIOR:
        raise PreconditionError(
            "windows are defined for the interior of a basic interval; got %s" % record.position
        )
    A = _scan_sequence(alpha)
    j = len(record.composed)
    records: List[WindowRecord] = []
    seen = {}
    k = 0
    while len(records) < MAX_WINDOWS:
        tail = shift(A, j)
        if tail == ZERO:
            return WindowSet(tuple(records), None)
        if tail in seen:
            prev = records[seen[tail]]
            if _next_v(A, j) != prev.v:
                raise InvariantError("cycle with non-constant v words")
            return WindowSet(tuple(records), prev.k)
        seen[tail] = k
        v = _next_v(A, j)
        if v is None:
            return WindowSet(tuple(records), None)
        k += 1
        n = len(v)
        if not is_lyndon(v):
            raise InvariantError("window word %r is not Lyndon" % (v,))
        head = A.prefix(j)
        if not head.endswith("1"):
            raise InvariantError("window head %r does not end in 1" % (head,))
        star = v_star(v, alpha)
        closed = star == v and shift(A, j) == periodic(v)
        records.append(
            WindowRecord(
                k=k,
                jk=j,
                nk=n,
                v=v,
                v_star=star,
                lower_seq=eps(minus(v), minus(head)),
                upper_seq=periodic(star),
                closed=closed,
            )
        )
        j += n
    raise PreconditionError("window construction exceeded %d steps" % MAX_WINDOWS)


def _next_v(A: EPSeq, j: int) -> Optional[str]:
    """Digits a_{j+1} .. a_{j+n} with n minimal such that
    sigma^{j+n}(A) <= sigma^j(A); None when no such n exists."""
    tail = shift(A, j)
    limit = max(len(A.pre) - j, 0) + len(A.per)
    for n in range(1, limit + 1):
        if seq_le(shift(A, j + n), tail):
            return A.prefix(j + n)[j:]
    return None


def window_contained(outer: WindowRecord, inner: WindowRecord) -> bool:
    """Set inclusion of window intervals (half-open / closed aware)."""
    if not seq_le(outer.lower_seq, inner.lower_seq):
        return False
    if seq_lt(inner.upper_seq, outer.upper_seq):
        return True
    if inner.upper_seq == outer.upper_seq:
        return outer.closed or not inner.closed
    return False


def maximal_windows(ws: WindowSet) -> List[WindowRecord]:
    """The inclusion-maximal windows, by the endpoint test
    ``window_contained``.

    A later window is nested in an earlier one or lies to its left, and
    never contains it, so maximality is containment in no earlier window.
    """
    recs = list(ws.records)
    out = []
    for b_idx, b in enumerate(recs):
        contained = False
        for a in recs[:b_idx]:
            if window_contained(a, b):
                contained = True
            elif not seq_le(b.upper_seq, a.lower_seq):
                raise InvariantError(
                    "windows %d, %d neither nested nor left-separated" % (a.k, b.k)
                )
        if not contained:
            out.append(b)
    return out


# ---------------------------------------------------------------------------
# transitivity


class Verdict(enum.Enum):
    TRANSITIVE = "transitive"
    NOT_TRANSITIVE = "not_transitive"


@dataclass(frozen=True)
class TransitivityVerdict:
    verdict: Verdict
    reason: str

    @property
    def transitive(self) -> bool:
        return self.verdict is Verdict.TRANSITIVE


def _r1_threshold(chain) -> EPSeq:
    r1 = chain[0]
    return eps(minus(r1), cyclic_max(r1))


def is_transitive(w: str, alpha: EPSeq, record: Optional[ClassRecord] = None) -> TransitivityVerdict:
    """Transitivity of the survivor subshift at the right endpoint of the
    beta-Lyndon interval of w.

    Dispatch: bases in E_L and first-order star endpoints are always
    transitive; renormalizable endpoint classes are transitive exactly
    below the first-factor threshold r_1^- L(r_1)^inf; interiors add the
    window test (and, for chains of length >= 2, the threshold test).
    """
    if record is None:
        record = classify(alpha)
    if not is_beta_lyndon(w, alpha):
        raise PreconditionError("%r is not beta-Lyndon here" % (w,))
    t_r = periodic(w)
    tau_greedy = tau_greedy_seq(record)
    if not seq_lt(t_r, tau_greedy):
        raise PreconditionError("t_R must lie below tau(beta)")
    pos, depth = record.position, record.depth
    if pos is Position.TWO or (pos is Position.LEFT and depth == 1):
        return TransitivityVerdict(Verdict.TRANSITIVE, "base in E_L")
    if pos is Position.STAR and depth == 1:
        return TransitivityVerdict(Verdict.TRANSITIVE, "right endpoint of a first-order basic interval")
    if pos is Position.INTERIOR:
        if depth >= 2 and not seq_lt(t_r, _r1_threshold(record.chain)):
            return TransitivityVerdict(Verdict.NOT_TRANSITIVE, "at or above the renormalization threshold")
        ws = build_windows(alpha, record)
        for rec in ws.records:
            if rec.contains_value(t_r):
                return TransitivityVerdict(Verdict.NOT_TRANSITIVE, "inside non-transitivity window %d" % rec.k)
        return TransitivityVerdict(Verdict.TRANSITIVE, "outside all non-transitivity windows")
    # renormalizable endpoint classes: LEFT/STAR of depth >= 2, RIGHT
    if seq_lt(t_r, _r1_threshold(record.chain)):
        return TransitivityVerdict(Verdict.TRANSITIVE, "below the renormalization threshold")
    return TransitivityVerdict(Verdict.NOT_TRANSITIVE, "at or above the renormalization threshold")


@dataclass(frozen=True)
class TransitiveCore:
    """Renormalization data of the full-entropy transitive subshift
    containing b(t_R, beta): K' is the Phi_R image of the survivor set
    of (w-hat, alpha-hat), so h(K-tilde) = h(K-hat) / |R|."""

    R: str
    w_hat: str
    alpha_hat: EPSeq


def transitive_core(w: str, alpha: EPSeq, record: Optional[ClassRecord] = None) -> TransitiveCore:
    if record is None:
        record = classify(alpha)
    if not is_beta_lyndon(w, alpha):
        raise PreconditionError("%r is not beta-Lyndon here" % (w,))
    t_r = periodic(w)
    chain = record.chain
    if record.position is Position.INTERIOR and build_windows(alpha, record).covers(t_r):
        raise PreconditionError("t_R lies in a non-transitivity window; no full-entropy core")
    if not chain:
        return TransitiveCore("", w, alpha)
    # the unique i with S_i^- L(S_i)^inf < w^inf < S_{i+1}^- L(S_{i+1})^inf
    # (thresholds increase with i, so take the largest index cleared)
    target_i = None
    for i in range(1, len(chain) + 1):
        s_i = compose_chain(chain[:i])
        if seq_lt(eps(minus(s_i), cyclic_max(s_i)), t_r):
            target_i = i
        else:
            break
    if target_i is None:
        return TransitiveCore("", w, alpha)
    R = compose_chain(chain[:target_i])
    if record.position is Position.INTERIOR:
        A = _scan_sequence(alpha)
        threshold = _r1_threshold(chain)
        n0 = _first_tail_below(A, len(record.composed), threshold)
        alpha_used = alpha if n0 is None else periodic(minus(A.prefix(n0)))
    else:
        alpha_used = alpha
    alpha_hat = phi_inverse(R, alpha_used)
    w_hat, _ = phi_inverse_word(R, w)
    return TransitiveCore(R, w_hat, alpha_hat)


def _first_tail_below(A: EPSeq, j1: int, threshold: EPSeq) -> Optional[int]:
    limit = len(A.pre) + len(A.per) + j1
    for n in range(j1, limit + 1):
        if seq_lt(shift(A, n), threshold):
            return n
    return None
