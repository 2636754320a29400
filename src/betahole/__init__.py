"""Exact computational toolkit for beta-transformations with a hole at 0.

Given a base beta in (1, 2], specified numerically or by its quasi-greedy
expansion alpha(beta), the package classifies beta by renormalization,
computes the critical point tau(beta), beta-Lyndon intervals and entropy
plateaus, non-transitivity windows and transitivity verdicts, survivor
set entropy and Hausdorff dimension, and the exceptional points of the
bifurcation set.
"""

from .base_solver import (
    BetaSpec,
    TPoint,
    alpha_from_beta,
    beta_from_alpha,
    is_greedy_admissible,
    periodic_alpha_to_greedy_one,
)
from .classifier import ClassRecord, Position, classify, endpoint_alpha, tau, theta
from .errors import BetaholeError
from .lyndon_intervals import (
    Ebli,
    ebli,
    einf_exceptional_stream,
    exceptional_points,
    gap_point,
    in_E_beta,
    is_beta_lyndon,
    plateau_entropy,
    plateaus,
    v_star,
)
from .seq_core import EPSeq, Ordering, RatInterval, eps, lex_cmp, periodic, pi_beta, shift, word_zeros
from .substitution import bullet, phi, phi_inverse, sandwich_points
from .survivor_shift import (
    EntropyResult,
    ShiftAutomaton,
    build_automaton,
    dimension,
    entropy,
    is_transitive_sofic,
)
from .windows import WindowRecord, WindowSet, build_windows, is_transitive, maximal_windows, transitive_core
from .word_combinatorics import (
    cyclic_max,
    farey_from_rational,
    farey_level,
    is_farey,
    is_lyndon,
    xi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
