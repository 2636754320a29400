"""Reference implementations kept for the tests: brute-force oracles,
the earlier production routines, and helpers that no library code calls.
None of this is imported by the library.

- ``oracle_words`` / ``count_words_oracle``: the words of
  Sigma_{lower,upper} by depth-first search with direct suffix-bound
  checks, independent of the automaton machinery (no depth folding, no
  state sharing); ``descending_check`` compares subshift languages with
  it.
- ``build_automaton_frozenset``: the automaton construction with
  frozenset states of folded depths and a fixpoint out-trim, the oracle
  for the bitmask ``survivor_shift.build_automaton``.
- ``pi_beta_fraction``: the Fraction recursion for pi_beta at a rational
  beta, the oracle for the integer Horner ``seq_core.pi_beta_at``.
- ``essential_states`` / ``essential_part``: the restriction of an
  automaton to the states on bi-infinite paths.
- ``ebli_contains`` / ``nesting_or_disjoint`` / ``is_maximal_ebli``:
  pairwise EBLI containment and laminarity, and maximality against the
  closures of the non-transitivity windows, the O(N^2) checks behind
  the plateau sweep.
- ``greedy_admissible_loop`` / ``beta_lyndon_loop`` / ``in_E_beta_loop``:
  the shift loops that ``is_greedy_admissible``, ``is_beta_lyndon`` and
  ``in_E_beta`` once ran inline, over every tail up to n_tails(x).
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from betahole.base_solver import check_admissible_alpha
from betahole.errors import PreconditionError
from betahole.seq_core import EPSeq, n_tails, periodic, seq_ge, seq_le, seq_lt, shift
from betahole.survivor_shift import ShiftAutomaton, _nontrivial_sccs
from betahole.word_combinatorics import is_lyndon


def _fold(i: int, pre: int, per: int) -> int:
    return i if i < pre else pre + (i - pre) % per


def build_automaton_frozenset(lower: EPSeq, upper: EPSeq) -> ShiftAutomaton:
    """Deterministic automaton for Sigma_{lower,upper}, out-trimmed; each
    state is the pair of frozensets of pinned (folded) depths."""
    if not seq_le(lower, upper):
        raise PreconditionError("need lower <= upper")
    pa, qa = len(lower.pre), len(lower.per)
    pb, qb = len(upper.pre), len(upper.per)

    def step(key, d):
        A, B = key
        for i in A | {0}:
            if d < lower.digit(i):
                return None
        for j in B | {0}:
            if d > upper.digit(j):
                return None
        A2 = frozenset(_fold(i + 1, pa, qa) for i in A | {0} if lower.digit(i) == d)
        B2 = frozenset(_fold(j + 1, pb, qb) for j in B | {0} if upper.digit(j) == d)
        return (A2, B2)

    start_key = (frozenset(), frozenset())
    index = {start_key: 0}
    edges: List[Dict[str, int]] = [{}]
    todo = [start_key]
    while todo:
        key = todo.pop()
        i = index[key]
        for d in "01":
            nxt = step(key, d)
            if nxt is None:
                continue
            if nxt not in index:
                index[nxt] = len(edges)
                edges.append({})
                todo.append(nxt)
            edges[i][d] = index[nxt]

    alive = set(range(len(edges)))
    changed = True
    while changed:
        changed = False
        for i in list(alive):
            if not any(j in alive for j in edges[i].values()):
                alive.discard(i)
                changed = True
    if 0 not in alive:
        return ShiftAutomaton(lower, upper, [], None)
    remap = {old: new for new, old in enumerate(sorted(alive))}
    new_edges: List[Dict[str, int]] = [{} for _ in remap]
    for old, new in remap.items():
        for d, j in edges[old].items():
            if j in remap:
                new_edges[new][d] = remap[j]
    return ShiftAutomaton(lower, upper, new_edges, remap[0])


def pi_beta_fraction(x: EPSeq, beta: Fraction) -> Fraction:
    """Exact value sum d_i beta^-i at a rational beta > 1, by Horner's rule
    in Fractions on the preperiod and the period."""
    t = 1 / Fraction(beta)
    p, q = x.pre, x.per
    head = Fraction(0)
    for c in reversed(p):
        head = (head + int(c)) * t
    body = Fraction(0)
    for c in reversed(q):
        body = (body + int(c)) * t
    return head + t ** len(p) * body / (1 - t ** len(q))


def essential_states(edges: List[Dict[str, int]]) -> set:
    """States lying on some bi-infinite path: reachable from a cycle."""
    seed = set()
    for comp in _nontrivial_sccs([out.values() for out in edges]):
        seed.update(comp)
    reach = set(seed)
    todo = list(seed)
    while todo:
        i = todo.pop()
        for j in edges[i].values():
            if j not in reach:
                reach.add(j)
                todo.append(j)
    return reach


def essential_part(aut: ShiftAutomaton) -> ShiftAutomaton:
    """Restriction to states on bi-infinite paths (in- and out-trimmed)."""
    if aut.is_empty():
        return aut
    keep = essential_states(aut.edges)
    remap = {old: new for new, old in enumerate(sorted(keep))}
    edges: List[Dict[str, int]] = [{} for _ in remap]
    for old, new in remap.items():
        for d, j in aut.edges[old].items():
            if j in remap:
                edges[new][d] = remap[j]
    start = remap.get(aut.start)
    return ShiftAutomaton(aut.lower, aut.upper, edges, start)


# ---------------------------------------------------------------------------
# words of Sigma_{lower,upper} by brute force


def _oracle_step(pins, d: str, lower: EPSeq, upper: EPSeq):
    """Advance the unfolded pinned-suffix sets by one digit; None when
    some suffix would leave the [lower, upper] corridor."""
    A, B = pins
    A2, B2 = [], []
    for i in A + [0]:
        c = lower.digit(i)
        if d < c:
            return None
        if d == c:
            A2.append(i + 1)
    for j in B + [0]:
        c = upper.digit(j)
        if d > c:
            return None
        if d == c:
            B2.append(j + 1)
    return (A2, B2)


def _extendable(pins, lower: EPSeq, upper: EPSeq, depth: int) -> bool:
    if depth == 0:
        return True
    for d in "01":
        nxt = _oracle_step(pins, d, lower, upper)
        if nxt is not None and _extendable(nxt, lower, upper, depth - 1):
            return True
    return False


def oracle_words(lower: EPSeq, upper: EPSeq, n: int, horizon: int = 48):
    """Set of length-n words extendable to a sequence in Sigma_{lower,upper},
    by depth-first search with direct suffix-bound checks.  Extendability
    is verified to depth n + horizon, which is heuristic but exact for
    every sofic shift whose transients die out within the horizon."""
    if n > 24:
        raise PreconditionError("oracle is brute force; n <= 24")
    out = set()

    def rec(word: str, pins):
        if len(word) == n:
            if _extendable(pins, lower, upper, horizon):
                out.add(word)
            return
        for d in "01":
            nxt = _oracle_step(pins, d, lower, upper)
            if nxt is not None:
                rec(word + d, nxt)

    rec("", ([], []))
    return out


def count_words_oracle(lower: EPSeq, upper: EPSeq, n: int, horizon: int = 48) -> int:
    return len(oracle_words(lower, upper, n, horizon))


def descending_check(bounds: List[Tuple[EPSeq, EPSeq]], n_window: int = 12) -> bool:
    """Strictly descending subsh({X_i}): languages nested with a strict
    inclusion witnessed at some length."""
    for (lo1, up1), (lo2, up2) in zip(bounds, bounds[1:]):
        strict = False
        for n in range(1, n_window + 1):
            w1 = oracle_words(lo1, up1, n)
            w2 = oracle_words(lo2, up2, n)
            if not w2 <= w1:
                return False
            if w2 < w1:
                strict = True
                break
        if not strict:
            return False
    return True


# ---------------------------------------------------------------------------
# EBLI containment


def ebli_contains(outer, inner) -> bool:
    """Set inclusion of two EBLIs, by their end sequences."""
    return seq_le(outer.left_seq, inner.left_seq) and seq_le(inner.right_seq, outer.right_seq)


def nesting_or_disjoint(a, b) -> bool:
    """Two EBLIs either do not overlap or one contains the other."""
    if ebli_contains(a, b) or ebli_contains(b, a):
        return True
    return seq_le(a.right_seq, b.left_seq) or seq_le(b.right_seq, a.left_seq)


def is_maximal_ebli(e, windows) -> bool:
    """Maximal iff not properly contained in the closure of a
    non-transitivity window."""
    for rec in windows:
        inside = seq_le(rec.lower_seq, e.left_seq) and seq_le(e.right_seq, rec.upper_seq)
        equal = rec.lower_seq == e.left_seq and rec.upper_seq == e.right_seq
        if inside and not equal:
            return False
    return True


# ---------------------------------------------------------------------------
# the shift loops once inline in the library's admissibility checks


def greedy_admissible_loop(x: EPSeq, alpha: EPSeq) -> bool:
    """Parry condition sigma^n(x) < alpha, over n = 0 .. n_tails(x)."""
    check_admissible_alpha(alpha)
    return all(seq_lt(shift(x, k), alpha) for k in range(n_tails(x) + 1))


def beta_lyndon_loop(w: str, alpha: EPSeq) -> bool:
    """Lyndon, and every shift of w^inf lies strictly below alpha."""
    if not is_lyndon(w):
        return False
    check_admissible_alpha(alpha)
    x = periodic(w)
    return all(seq_lt(shift(x, k), alpha) for k in range(len(w)))


def in_E_beta_loop(b: EPSeq, alpha: EPSeq) -> bool:
    """sigma^n(b) >= b for n = 1 .. n_tails(b), for a greedy expansion b."""
    if not greedy_admissible_loop(b, alpha):
        raise PreconditionError("%s is not a greedy expansion for this base" % (b,))
    return all(seq_ge(shift(b, n), b) for n in range(1, n_tails(b) + 1))
