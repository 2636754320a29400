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
- ``entropy_of_bounds``: entropy of Sigma_{lower,upper} from its
  automaton and Perron roots, the production path before
  ``lyndon_intervals.plateau_entropy`` read it from the kneading
  polynomial, and the oracle for it.
- ``first_tail_loop``: the shift loop ``ebli`` once ran for its m, the
  oracle for the digit-string ``_first_tail_at_or_below``.
- ``det_one_minus_zA`` / ``extreme_path``: det(I - zA) of an automaton
  by traces and Newton's identities, and its greatest or least infinite
  path; with them the kneading identity (1 - z) det(I - zA) = G and the
  engine's greatest point are checked exactly.
- ``pi_beta_fraction``: the Fraction recursion for pi_beta at a rational
  beta, the oracle for the integer Horner ``seq_core.pi_beta_at``.
- ``essential_states`` / ``essential_part``: the restriction of an
  automaton to the states on bi-infinite paths.
- ``count_words``: the number of length-n paths from an automaton's
  start state.
- ``perron_root_dense``: the earlier dense Perron kernel, power
  iteration on A + I for every irreducible A, the oracle for the sparse
  ``survivor_shift.perron_root``; ``succ_lists`` turns a dense matrix
  into the successor lists that ``perron_root`` reads.
- ``ebli_contains`` / ``nesting_or_disjoint`` / ``is_maximal_ebli``:
  pairwise EBLI containment and laminarity, and maximality against the
  closures of the non-transitivity windows, the O(N^2) checks behind
  the plateau sweep.
- ``greedy_admissible_loop`` / ``beta_lyndon_loop`` / ``in_E_beta_loop``:
  the shift loops that ``is_greedy_admissible``, ``is_beta_lyndon`` and
  ``in_E_beta`` once ran inline, over every tail up to n_tails(x).
- ``transitive_core_separate``: the transitive core computed on its own,
  with its own window build, as it was before ``windows.is_transitive``
  returned the core with the verdict; the reference for that core.
- ``word_level_check_bounded``: the word-level transitivity check with
  its bounded connector search, the reference for the reachability
  closure in ``survivor_shift._word_level_check``.
"""

from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Tuple

from betahole.base_solver import check_admissible_alpha, periodic_alpha_to_greedy_one
from betahole.classifier import Position, classify
from betahole.errors import PreconditionError
from betahole.lyndon_intervals import is_beta_lyndon
from betahole.seq_core import EPSeq, RatInterval, eps, minus, n_tails, periodic, shift
from betahole.substitution import compose_chain, phi_inverse, phi_inverse_word
from betahole.survivor_shift import (
    ENTROPY_TOL,
    EntropyResult,
    ShiftAutomaton,
    _nontrivial_sccs,
    build_automaton,
    entropy,
)
from betahole.windows import TransitiveCore, build_windows
from betahole.word_combinatorics import cyclic_max, is_lyndon


def _fold(i: int, pre: int, per: int) -> int:
    return i if i < pre else pre + (i - pre) % per


def build_automaton_frozenset(lower: EPSeq, upper: EPSeq) -> ShiftAutomaton:
    """Deterministic automaton for Sigma_{lower,upper}, out-trimmed; each
    state is the pair of frozensets of pinned (folded) depths."""
    if lower > upper:
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
        return ShiftAutomaton([], None)
    remap = {old: new for new, old in enumerate(sorted(alive))}
    new_edges: List[Dict[str, int]] = [{} for _ in remap]
    for old, new in remap.items():
        for d, j in edges[old].items():
            if j in remap:
                new_edges[new][d] = remap[j]
    return ShiftAutomaton(new_edges, remap[0])


def entropy_of_bounds(lower: EPSeq, upper: EPSeq) -> EntropyResult:
    """Entropy of Sigma_{lower,upper} from its automaton and the Perron
    roots of its components."""
    return entropy(build_automaton(lower, upper))


def first_tail_loop(alpha: EPSeq, w: str) -> Optional[int]:
    """The first n >= 1 with sigma^n(alpha) <= w^inf, by the shift loop
    over alpha's distinct tails; None when there is none."""
    target = periodic(w)
    return next((n for n in range(1, n_tails(alpha) + 1) if shift(alpha, n) <= target), None)


def det_one_minus_zA(aut: ShiftAutomaton) -> List[int]:
    """Coefficients, lowest degree first and without trailing zeros, of
    det(I - zA) for the automaton's adjacency matrix A: the traces
    p_k = tr(A^k), then Newton's identities k c_k = -sum_{i<=k} p_i c_(k-i)
    in Fractions."""
    n = aut.n_states
    succ = [list(out.values()) for out in aut.edges]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(n):
        nxt = [[0] * n for _ in range(n)]
        for i, row in enumerate(power):
            for j, a in enumerate(row):
                if a:
                    for t in succ[j]:
                        nxt[i][t] += a
        power = nxt
        traces.append(sum(power[i][i] for i in range(n)))
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        coeffs.append(-sum(traces[i - 1] * coeffs[k - i] for i in range(1, k + 1)) / k)
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("det(I - zA) with a non-integer coefficient")
    out = [int(c) for c in coeffs]
    while out[-1] == 0:
        out.pop()
    return out


def extreme_path(aut: ShiftAutomaton, digit: str) -> EPSeq:
    """The greatest (digit "1") or least (digit "0") infinite path label of
    the out-trimmed automaton: from the start state, read ``digit`` when it
    has an edge and the other digit otherwise, until a state repeats."""
    other = "0" if digit == "1" else "1"
    state, seen, labels = aut.start, {}, []
    while state not in seen:
        seen[state] = len(labels)
        d = digit if digit in aut.edges[state] else other
        labels.append(d)
        state = aut.edges[state][d]
    start = seen[state]
    return EPSeq("".join(labels[:start]), "".join(labels[start:]))


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
    return ShiftAutomaton(edges, start)


def count_words(aut: ShiftAutomaton, n: int) -> int:
    """Number of length-n words of the subshift (paths from start)."""
    if aut.start is None:
        return 0
    vec = [0] * aut.n_states
    vec[aut.start] = 1
    for _ in range(n):
        nxt = [0] * aut.n_states
        for i, c in enumerate(vec):
            if c:
                for j in aut.edges[i].values():
                    nxt[j] += c
        vec = nxt
    return sum(vec)


# ---------------------------------------------------------------------------
# the dense Perron kernel


def succ_lists(mat: List[List[int]]) -> List[List[int]]:
    """Successor lists of a dense nonnegative integer matrix: row i lists
    column j mat[i][j] times."""
    return [[j for j, a in enumerate(row) for _ in range(a)] for row in mat]


def perron_root_dense(mat: List[List[int]], tol: Fraction = ENTROPY_TOL) -> RatInterval:
    """Certified enclosure, of width at most tol, of the Perron root of an
    irreducible nonnegative integer matrix.

    Power iteration on A + I (primitive for irreducible A) in integer
    fixed point: the vector is kept at about ``bits`` bits and its entries
    at >= 1.  Every few steps the Collatz-Wielandt quotients of the step
    just taken bound the root of A + I exactly; the brackets are
    intersected.  When the bracket stops improving the vector is too
    coarse for tol, and ``bits`` doubles, so the loop always ends.
    """
    n = len(mat)
    if tol <= 0:
        raise PreconditionError("perron_root needs a positive tolerance")
    if n == 0:
        raise PreconditionError("perron_root needs an irreducible matrix")
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in mat]
    # irreducible: state 0 reaches every state, and every state reaches 0
    back: List[List[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, _ in row:
            back[j].append(i)
    for graph in ([[j for j, _ in row] for row in rows], back):
        seen = {0}
        todo = [0]
        while todo:
            for j in graph[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) < n:
            raise PreconditionError("perron_root needs an irreducible matrix")
    if n == 1:
        return RatInterval.point(Fraction(mat[0][0]))
    # A as a sum of selection layers: the k-th unit in row i sits in column
    # layers[k][i], and index n reads a padding 0 kept at the end of u, so
    # (A u)_i = sum_k u[layers[k][i]] runs as C-level maps
    layers: List[List[int]] = []
    for i, row in enumerate(rows):
        cols = [j for j, a in row for _ in range(a)]
        for k, j in enumerate(cols):
            if k == len(layers):
                layers.append([n] * n)
            layers[k][i] = j
    bits = (tol.denominator // tol.numerator).bit_length() + 16
    u = [1 << bits] * n + [0]
    # bracket lo_n/lo_d <= root of A + I <= hi_n/hi_d
    lo_n, lo_d = 1, 1
    hi_n, hi_d = len(layers) + 1, 1
    stalled = 0
    step = 0
    while True:
        w = u
        for layer in layers:
            w = map(add, w, map(u.__getitem__, layer))
        w = list(w)
        step += 1
        if step % 8 == 0:  # certify every 8 steps
            # argmin and argmax of w_i / u_i by cross-multiplication
            wa, ua = wb, ub = w[0], u[0]
            for wi, ui in zip(w, u):
                if wi * ua < wa * ui:
                    wa, ua = wi, ui
                elif wi * ub > wb * ui:
                    wb, ub = wi, ui
            improved = False
            if wa * lo_d > lo_n * ua:
                lo_n, lo_d = wa, ua
                improved = True
            if wb * hi_d < hi_n * ub:
                hi_n, hi_d = wb, ub
                improved = True
            width_n, width_d = hi_n * lo_d - lo_n * hi_d, hi_d * lo_d
            if width_n * tol.denominator <= tol.numerator * width_d:
                return RatInterval(Fraction(lo_n - lo_d, lo_d), Fraction(hi_n - hi_d, hi_d))
            # exact power iteration only ever tightens the quotients, so a
            # check that improves neither bound means rounding noise has
            # caught up; a slowly shrinking bracket is not a stall
            if not improved:
                stalled += 1
                if stalled == 2:
                    bits *= 2
                    stalled = 0
            shift = max(w).bit_length() - bits
            if shift > 0:
                w = [(x >> shift) or 1 for x in w]
        w.append(0)
        u = w


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
    return outer.left_seq <= inner.left_seq and inner.right_seq <= outer.right_seq


def nesting_or_disjoint(a, b) -> bool:
    """Two EBLIs either do not overlap or one contains the other."""
    if ebli_contains(a, b) or ebli_contains(b, a):
        return True
    return a.right_seq <= b.left_seq or b.right_seq <= a.left_seq


def is_maximal_ebli(e, windows) -> bool:
    """Maximal iff not properly contained in the closure of a
    non-transitivity window."""
    for rec in windows:
        inside = rec.lower_seq <= e.left_seq and e.right_seq <= rec.upper_seq
        equal = rec.lower_seq == e.left_seq and rec.upper_seq == e.right_seq
        if inside and not equal:
            return False
    return True


# ---------------------------------------------------------------------------
# the shift loops once inline in the library's admissibility checks


def greedy_admissible_loop(x: EPSeq, alpha: EPSeq) -> bool:
    """Parry condition sigma^n(x) < alpha, over n = 0 .. n_tails(x)."""
    check_admissible_alpha(alpha)
    return all(shift(x, k) < alpha for k in range(n_tails(x) + 1))


def beta_lyndon_loop(w: str, alpha: EPSeq) -> bool:
    """Lyndon, and every shift of w^inf lies strictly below alpha."""
    if not is_lyndon(w):
        return False
    check_admissible_alpha(alpha)
    x = periodic(w)
    return all(shift(x, k) < alpha for k in range(len(w)))


def in_E_beta_loop(b: EPSeq, alpha: EPSeq) -> bool:
    """sigma^n(b) >= b for n = 1 .. n_tails(b), for a greedy expansion b."""
    if not greedy_admissible_loop(b, alpha):
        raise PreconditionError("%s is not a greedy expansion for this base" % (b,))
    return all(shift(b, n) >= b for n in range(1, n_tails(b) + 1))


# ---------------------------------------------------------------------------
# the transitive core on its own window build


def _r1_threshold(chain) -> EPSeq:
    r1 = chain[0]
    return eps(minus(r1), cyclic_max(r1))


def _scan_sequence(alpha: EPSeq) -> EPSeq:
    if alpha.pre == "":
        return periodic_alpha_to_greedy_one(alpha)
    return alpha


def _first_tail_below(A: EPSeq, j1: int, threshold: EPSeq) -> Optional[int]:
    limit = len(A.pre) + len(A.per) + j1
    for n in range(j1, limit + 1):
        if shift(A, n) < threshold:
            return n
    return None


def transitive_core_separate(w: str, alpha: EPSeq, record=None) -> TransitiveCore:
    """The core with its own checks and window build.  It does not test
    t_R < tau, so a word at or above tau may fail inside
    ``phi_inverse_word`` with NotInRange.  (The window test was
    ``WindowSet.covers``, written out here.)"""
    if record is None:
        record = classify(alpha)
    if not is_beta_lyndon(w, alpha):
        raise PreconditionError("%r is not beta-Lyndon here" % (w,))
    t_r = periodic(w)
    chain = record.chain
    if record.position is Position.INTERIOR and any(
        rec.contains_value(t_r) for rec in build_windows(alpha, record).records
    ):
        raise PreconditionError("t_R lies in a non-transitivity window; no full-entropy core")
    if not chain:
        return TransitiveCore("", w, alpha)
    # the unique i with S_i^- L(S_i)^inf < w^inf < S_{i+1}^- L(S_{i+1})^inf
    # (thresholds increase with i, so take the largest index cleared)
    target_i = None
    for i in range(1, len(chain) + 1):
        s_i = compose_chain(chain[:i])
        if eps(minus(s_i), cyclic_max(s_i)) < t_r:
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


# ---------------------------------------------------------------------------
# the word-level transitivity check with a bounded connector search


def word_level_check_bounded(aut: ShiftAutomaton, d: int) -> bool:
    """For all word pairs (u, w) of length d, a connector v with
    u v w legal exists, |v| bounded by 4 |Q| + 8."""
    if aut.is_empty():
        return False

    def run(state, word):
        for c in word:
            state = aut.edges[state].get(c)
            if state is None:
                return None
        return state

    words = sorted(aut.words(d))
    bound = 4 * aut.n_states + 8
    for u in words:
        p = run(aut.start, u)
        if p is None:
            return False
        reach = {p}
        frontier = {p}
        for _ in range(bound):
            frontier = {q2 for q in frontier for q2 in aut.edges[q].values()} - reach
            if not frontier:
                break
            reach |= frontier
        for w in words:
            if not any(run(q, w) is not None for q in reach | {p}):
                return False
    return True
