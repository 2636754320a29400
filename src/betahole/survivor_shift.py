"""Automaton presentation of the subshift Sigma_{lower,upper}, its
entropy via a certified Perron root, and sofic transitivity.  The
brute-force word oracles that check the automaton live in the tests.

Sigma_{a,b} = { z : a <= sigma^n(z) <= b for all n }.  A word is viable
when none of its suffixes has dropped below a or risen above b.  The
automaton state records, for each bound, the set of suffix lengths that
are still *pinned* to that bound (equal to its prefix so far); suffixes
that have gone strictly to the safe side impose no further constraint
and are dropped.  Tracking the full set of pinned depths is what makes
the construction sound for arbitrary bounds; tracking only the deepest
match is correct only when the bounds are shift-extremal, and lower
bounds of the form w 0^inf (left endpoints of Lyndon intervals) are not.
Pinned depths beyond the preperiod are folded modulo the period, so the
state space is finite; each set is held as an int bitmask over the
folded depths.

Entropy of the presented sofic shift is log of the largest Perron root
over the strongly connected components of the trimmed automaton that
carry a cycle; each component goes to ``perron_root`` as its square
submatrix.  The root is certified by Collatz-Wielandt bounds evaluated
exactly on an integer approximation of the Perron vector: for any
positive integer vector u and irreducible nonnegative A,
min_i (Au)_i/u_i <= lambda <= max_i (Au)_i/u_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional

from .errors import EmptyShift, InvariantError, PreconditionError
from .seq_core import (
    EPSeq,
    RatInterval,
    log_interval,
    seq_le,
)

ENTROPY_TOL = Fraction(1, 10**18)
# length of the word pairs the word-level transitivity check connects
WORD_CHECK_LEN = 4


@dataclass
class ShiftAutomaton:
    """Deterministic (right-resolving) presentation of Sigma_{lower,upper}.

    states are indices; edges[i][digit] = target index.  After
    construction the automaton is out-trimmed: every surviving state has
    an infinite outgoing path, so paths from ``start`` of length n count
    exactly the words of length n occurring in the subshift.
    """

    lower: EPSeq
    upper: EPSeq
    edges: List[Dict[str, int]]
    start: Optional[int]

    @property
    def n_states(self) -> int:
        return len(self.edges)

    def is_empty(self) -> bool:
        return self.start is None

    def count_words(self, n: int) -> int:
        """Number of length-n words of the subshift (paths from start)."""
        if self.start is None:
            return 0
        vec = [0] * self.n_states
        vec[self.start] = 1
        for _ in range(n):
            nxt = [0] * self.n_states
            for i, c in enumerate(vec):
                if c:
                    for j in self.edges[i].values():
                        nxt[j] += c
            vec = nxt
        return sum(vec)

    def words(self, n: int):
        """The actual set of length-n words (for language comparisons)."""
        if self.start is None:
            return set()
        frontier = {(self.start, "")}
        for _ in range(n):
            frontier = {
                (j, w + d) for (i, w) in frontier for d, j in self.edges[i].items()
            }
        return {w for (_, w) in frontier}


def build_automaton(lower: EPSeq, upper: EPSeq) -> ShiftAutomaton:
    """Deterministic automaton for Sigma_{lower,upper}, out-trimmed."""
    if not seq_le(lower, upper):
        raise PreconditionError("need lower <= upper")
    # bit i of a mask is folded depth i; a bound of preperiod p and period
    # q has depths 0 .. p + q - 1, and advancing past the last folds to p
    lo_digits, up_digits = lower.pre + lower.per, upper.pre + upper.per
    lo_full, up_full = (1 << len(lo_digits)) - 1, (1 << len(up_digits)) - 1
    lo_top, up_top = 1 << (len(lo_digits) - 1), 1 << (len(up_digits) - 1)
    lo_back, up_back = 1 << len(lower.pre), 1 << len(upper.pre)
    lo_one = int(lo_digits[::-1], 2)  # lower depths reading 1
    up_zero = up_full ^ int(up_digits[::-1], 2)  # upper depths reading 0

    # a state is (A, B): the pinned lower and upper depths, as masks
    index = {(0, 0): 0}
    keys = [(0, 0)]
    edges: List[Dict[str, int]] = [{}]
    todo = [0]
    while todo:
        i = todo.pop()
        A, B = keys[i]
        A, B = A | 1, B | 1  # depth 0 is pinned to both bounds
        for d in "01":
            if d == "0":
                # rejected when a pinned lower depth reads 1
                if A & lo_one:
                    continue
                A2, B2 = A, B & up_zero
            else:
                # rejected when a pinned upper depth reads 0
                if B & up_zero:
                    continue
                A2, B2 = A & lo_one, B
            A2 = ((A2 << 1) & lo_full) | (lo_back if A2 & lo_top else 0)
            B2 = ((B2 << 1) & up_full) | (up_back if B2 & up_top else 0)
            key = (A2, B2)
            j = index.get(key)
            if j is None:
                j = index[key] = len(keys)
                keys.append(key)
                edges.append({})
                todo.append(j)
            edges[i][d] = j

    # out-trim: keep only states with an infinite outgoing path, by
    # dropping states whose live successor count falls to zero
    n = len(edges)
    live = [len(out) for out in edges]
    preds: List[List[int]] = [[] for _ in range(n)]
    for i, out in enumerate(edges):
        for j in out.values():
            preds[j].append(i)
    dead = [i for i in range(n) if not live[i]]
    for j in dead:
        for i in preds[j]:
            live[i] -= 1
            if not live[i]:
                dead.append(i)
    if not live[0]:
        return ShiftAutomaton(lower, upper, [], None)
    remap = {old: new for new, old in enumerate(i for i in range(n) if live[i])}
    new_edges: List[Dict[str, int]] = [{} for _ in remap]
    for old, new in remap.items():
        for d, j in edges[old].items():
            if j in remap:
                new_edges[new][d] = remap[j]
    return ShiftAutomaton(lower, upper, new_edges, remap[0])


# ---------------------------------------------------------------------------
# graph utilities


def strongly_connected_components(succ) -> List[List[int]]:
    """Tarjan, iterative, over successor collections succ[v] (lists, or the
    ``values()`` of automaton edges); components in reverse topological
    order."""
    n = len(succ)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _nontrivial_sccs(succ) -> List[List[int]]:
    """The components of ``strongly_connected_components(succ)`` that carry
    a cycle: two or more states, or one state with a self-loop."""
    return [comp for comp in strongly_connected_components(succ)
            if len(comp) > 1 or comp[0] in succ[comp[0]]]


def minimize(aut: ShiftAutomaton) -> ShiftAutomaton:
    """Quotient by follower-language equivalence (partition refinement)."""
    if aut.is_empty():
        return aut
    n = aut.n_states
    block = [0] * n
    # initial split by available digit set
    sigs = {}
    for i in range(n):
        key = frozenset(aut.edges[i].keys())
        block[i] = sigs.setdefault(key, len(sigs))
    while True:
        sigs = {}
        new_block = [0] * n
        for i in range(n):
            key = (block[i], tuple(sorted((d, block[j]) for d, j in aut.edges[i].items())))
            new_block[i] = sigs.setdefault(key, len(sigs))
        if new_block == block:
            break
        block = new_block
    m = max(block) + 1
    edges: List[Dict[str, int]] = [{} for _ in range(m)]
    for i in range(n):
        for d, j in aut.edges[i].items():
            edges[block[i]][d] = block[j]
    return ShiftAutomaton(aut.lower, aut.upper, edges, block[aut.start])


# ---------------------------------------------------------------------------
# Perron root and entropy


def perron_root(mat: List[List[int]], tol: Fraction = ENTROPY_TOL) -> RatInterval:
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


def _max_scc_root(succ, tol: Fraction) -> Optional[RatInterval]:
    """Maximum Perron root over the nontrivial SCCs of the graph with
    successor collections succ (a target listed k times is an entry k);
    each SCC goes to ``perron_root`` as its square submatrix in state
    order.  None when the graph has no cycle."""
    out = None
    for comp in _nontrivial_sccs(succ):
        comp.sort()
        pos = {v: k for k, v in enumerate(comp)}
        sub = []
        for v in comp:
            row = [0] * len(comp)
            for w in succ[v]:
                k = pos.get(w)
                if k is not None:
                    row[k] += 1
            sub.append(row)
        root = perron_root(sub, tol)
        out = root if out is None else out.max(root)
    return out


def spectral_radius(mat: List[List[int]], tol: Fraction = ENTROPY_TOL) -> RatInterval:
    """Perron root of a general nonnegative integer matrix: the maximum
    of the per-SCC roots, 0 for a nilpotent matrix."""
    succ = [[j for j, a in enumerate(row) if a for _ in range(a)] for row in mat]
    root = _max_scc_root(succ, tol)
    return RatInterval.point(Fraction(0)) if root is None else root


@dataclass(frozen=True)
class EntropyResult:
    """Entropy enclosure (natural log), Perron root enclosure, and the
    Hausdorff dimension h / log beta when a beta enclosure is supplied."""

    h: RatInterval
    perron: RatInterval
    dim: Optional[RatInterval] = None


def entropy(aut: ShiftAutomaton, tol: Fraction = ENTROPY_TOL) -> EntropyResult:
    if aut.is_empty():
        raise EmptyShift("entropy of the empty shift is undefined")
    lam = _max_scc_root([out.values() for out in aut.edges], tol)
    # an out-trimmed nonempty automaton has a cycle, and a nontrivial SCC
    # of a 0/1 matrix has Perron root >= 1
    if lam is None:
        raise InvariantError("out-trimmed nonempty automaton without a cycle")
    if lam.lo < 1:
        raise InvariantError("Perron root enclosure below 1: %r" % (lam,))
    h = log_interval(lam)
    return EntropyResult(h=h, perron=lam)


def dimension(result: EntropyResult, beta_enclosure: RatInterval) -> RatInterval:
    """dim_H = h / log beta with outward rounding."""
    if beta_enclosure.lo <= 1:
        raise PreconditionError("dimension needs beta > 1")
    return result.h.divide(log_interval(beta_enclosure))


def entropy_of_bounds(lower: EPSeq, upper: EPSeq, beta_enclosure: Optional[RatInterval] = None,
                      tol: Fraction = ENTROPY_TOL) -> EntropyResult:
    aut = build_automaton(lower, upper)
    res = entropy(aut, tol)
    if beta_enclosure is not None:
        return EntropyResult(h=res.h, perron=res.perron, dim=dimension(res, beta_enclosure))
    return res


# ---------------------------------------------------------------------------
# transitivity


@dataclass(frozen=True)
class TransitivityReport:
    """SCC-based verdict plus the bounded word-level cross-check.

    The primary verdict is the automaton one: the minimized presentation
    has a single essential strongly connected component and every word of
    the shift can be read inside it.  The word-level check searches for
    bounded connectors between sampled word pairs, which is the direct
    reading of the transitivity definition; both are reported.
    """

    transitive: bool
    scc_irreducible: bool
    word_level: Optional[bool] = None


def is_transitive_sofic(aut: ShiftAutomaton) -> TransitivityReport:
    if aut.is_empty():
        return TransitivityReport(False, False, None)
    mini = minimize(aut)
    comps = _nontrivial_sccs([out.values() for out in mini.edges])
    if len(comps) != 1:
        return TransitivityReport(False, False, _word_level_check(aut, WORD_CHECK_LEN))
    core = set(comps[0])
    # every word readable from start must also be readable inside the core:
    # track (state, set of core states where the word is alive)
    start = (mini.start, frozenset(core))
    seen = {start}
    todo = [start]
    ok = True
    while todo and ok:
        q, alive = todo.pop()
        for d, q2 in mini.edges[q].items():
            alive2 = frozenset(mini.edges[s][d] for s in alive if d in mini.edges[s])
            if not alive2:
                ok = False
                break
            st = (q2, alive2)
            if st not in seen:
                seen.add(st)
                todo.append(st)
    word = _word_level_check(aut, WORD_CHECK_LEN)
    return TransitivityReport(ok, ok, word)


def _word_level_check(aut: ShiftAutomaton, d: int) -> bool:
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
