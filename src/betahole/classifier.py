"""Renormalization classification of a base beta from alpha(beta).

The parameter interval (1, 2] splits into basic intervals I^S (S a chain
of Farey substitutions), the gaps between them, and exceptional sets
that only carry aperiodic expansions.  An eventually periodic admissible
alpha therefore lands, after finitely many descent steps, at one of:

  * beta = 2                         (alpha = 1^inf)
  * the left endpoint of I^S         (alpha = L(S)^inf)
  * the interior of I^S
  * the star endpoint of I^S         (alpha = L(S)^+ S^- L(S)^inf)
  * the right endpoint beta_r^S      (alpha = L(S)^+ S^inf)

The descent locates each Farey factor by Stern-Brocot search comparing
alpha against explicitly constructed interval endpoints of the composed
chain, so no inverse substitution parse is needed (interiors of deeper
basic intervals are not in the range of the first-level substitution).
Each descent takes fewer than n_tails(alpha) steps (``_locate_factor``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from .base_solver import BetaSpec, TPoint, check_admissible_alpha, t_point_value
from .errors import InvariantError, PreconditionError
from .seq_core import (
    EPSeq,
    ONE,
    eps,
    minus,
    n_tails,
    periodic,
    plus,
    word_zeros,
)
from .substitution import compose_chain, phi
from .word_combinatorics import cyclic_max


class Position(enum.Enum):
    TWO = "two"                    # beta = 2 (alpha = 1^inf; no Farey interval)
    LEFT = "left"                  # beta_l^S
    INTERIOR = "interior"          # beta in (beta_l^S, beta_*^S)
    STAR = "star"                  # beta_*^S
    RIGHT = "right"                # beta_r^S
    DEPTH_LIMITED = "depth_limited"  # chain cut at classify's max_depth


@dataclass(frozen=True)
class ClassRecord:
    chain: Tuple[str, ...]
    position: Position
    alpha: EPSeq

    @property
    def composed(self) -> str:
        """The full substitution word S = r1 . r2 . ... . rn."""
        return compose_chain(self.chain)

    @property
    def depth(self) -> int:
        return len(self.chain)


def left_alpha(word: str) -> EPSeq:
    """alpha(beta_l^S) = L(S)^inf."""
    return periodic(cyclic_max(word))


def star_alpha(word: str) -> EPSeq:
    """alpha(beta_*^S) = L(S)^+ S^- L(S)^inf."""
    L = cyclic_max(word)
    return eps(plus(L) + minus(word), L)


def right_alpha(word: str) -> EPSeq:
    """alpha(beta_r^S) = L(S)^+ S^inf."""
    return eps(plus(cyclic_max(word)), word)


# the spellings of the endpoints beta_l^S, beta_*^S and beta_r^S
_ENDPOINTS = {
    "l": Position.LEFT, "ell": Position.LEFT, "left": Position.LEFT,
    "*": Position.STAR, "s": Position.STAR, "star": Position.STAR,
    "r": Position.RIGHT, "right": Position.RIGHT,
}


def endpoint_position(which: str) -> Position:
    """The endpoint of a basic interval that ``which`` names."""
    if which not in _ENDPOINTS:
        raise PreconditionError("which must be one of l, *, r")
    return _ENDPOINTS[which]


def endpoint_alpha(chain, which: str) -> EPSeq:
    """Defining alpha for beta_l^S / beta_*^S / beta_r^S of a chain."""
    word = compose_chain(chain) if not isinstance(chain, str) else chain
    if not word:
        raise PreconditionError("empty chain has no endpoints")
    position = endpoint_position(which)
    if position is Position.LEFT:
        return left_alpha(word)
    if position is Position.STAR:
        return star_alpha(word)
    return right_alpha(word)


def _locate_factor(alpha: EPSeq, prefix_chain: Tuple[str, ...]):
    """Stern-Brocot descent for the next Farey factor r such that alpha
    lies in J^{S.r} (weakly), where S is the composed prefix chain.

    Returns (r, flag) with flag in {"left", "right", "inside"}; alpha must
    not be 1^inf, which lies in no such interval.

    The descent takes fewer than n_tails(alpha) steps: the candidate at
    step i has length >= i + 2, and n_tails(alpha) >= m = |S.r| >= |r|
    for an admissible alpha in J^W = [L^inf, L^+ W^inf], W = S.r (Lyndon,
    see ``bullet``), L = L(W) = c_1..c_m with c_m = 0.  Proof: alpha =
    L^inf has m tails.  Otherwise alpha begins with L^+ (were it L^k L^+
    with k >= 1, sigma^m(alpha) > alpha), so alpha = L^+ z, z <= W^inf.
    If n_tails(alpha) < m, z = sigma^s(alpha) for some s <= m - 2, so
    z = (c_{s+1}..c_{m-1} 1)^inf > sigma^s(L^inf) >= W^inf.  A longer
    descent is a bug: InvariantError.
    """
    lw, rw = "0", "1"
    for _ in range(n_tails(alpha)):
        cand = lw + rw
        w = compose_chain(prefix_chain + (cand,))
        lo, hi = left_alpha(w), right_alpha(w)
        if alpha < lo:
            rw = cand
            continue
        if alpha <= hi:
            if alpha == lo:
                return cand, "left"
            if alpha == hi:
                return cand, "right"
            return cand, "inside"
        lw = cand
    raise InvariantError("Stern-Brocot descent found no factor of %s" % (alpha,))


def classify(alpha: EPSeq, max_depth: int = 64) -> ClassRecord:
    """Full renormalization classification of an admissible alpha; a chain
    deeper than ``max_depth`` gives DEPTH_LIMITED with the factors found."""
    check_admissible_alpha(alpha)
    if alpha == ONE:
        return ClassRecord((), Position.TWO, alpha)
    chain: Tuple[str, ...] = ()
    for _ in range(max_depth):
        r, flag = _locate_factor(alpha, chain)
        chain = chain + (r,)
        word = compose_chain(chain)
        if flag == "left":
            record = ClassRecord(chain, Position.LEFT, alpha)
            break
        if flag == "right":
            record = ClassRecord(chain, Position.RIGHT, alpha)
            break
        star = star_alpha(word)
        if alpha == star:
            record = ClassRecord(chain, Position.STAR, alpha)
            break
        if alpha < star:
            record = ClassRecord(chain, Position.INTERIOR, alpha)
            break
    else:
        return ClassRecord(chain, Position.DEPTH_LIMITED, alpha)
    # eventually periodic alpha can never sit in the exceptional sets
    if record.position not in (Position.LEFT, Position.STAR, Position.RIGHT, Position.INTERIOR):
        raise InvariantError("classify ended at position %s" % (record.position,))
    return record


def tau_greedy_seq(record: ClassRecord) -> EPSeq:
    """Greedy expansion of tau(beta) per class:
      beta = 2      -> 1 0^inf            (tau = 1/2)
      beta_l^S      -> S 0^inf            (same value as S^- L(S)^inf)
      interior, *   -> S^- L(S)^inf
      beta_r^S      -> S 0^inf
    """
    if record.position is Position.DEPTH_LIMITED:
        raise PreconditionError("tau undefined for a depth-limited classification")
    if record.position is Position.TWO:
        return word_zeros("1")
    word = record.composed
    if record.position in (Position.LEFT, Position.RIGHT):
        return word_zeros(word)
    return eps(minus(word), cyclic_max(word))


def tau(record: ClassRecord, beta: BetaSpec) -> TPoint:
    """The critical point tau(beta): the smallest t with dim_H K_beta(t) = 0."""
    greedy = tau_greedy_seq(record)
    return TPoint(greedy=greedy, value=t_point_value(greedy, beta))


def theta(chain, beta: BetaSpec, beta_hat: BetaSpec, t_hat: TPoint) -> TPoint:
    """Theta_{S,beta}(t-hat) = pi_beta(Phi_S(b(t-hat, beta-hat))).

    Requires the renormalization relation alpha(beta) = Phi_S(alpha(beta-hat)),
    which is verified directly.
    """
    word = compose_chain(chain) if not isinstance(chain, str) else chain
    if phi(word, beta_hat.alpha) != beta.alpha:
        raise PreconditionError("alpha(beta) != Phi_S(alpha(beta-hat))")
    image = phi(word, t_hat.greedy)
    return TPoint(greedy=image, value=t_point_value(image, beta))
