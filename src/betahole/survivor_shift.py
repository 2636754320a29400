"""Automaton presentation of the subshift Sigma_{lower,upper}, its
entropy via a certified Perron root, the kneading-polynomial entropy
kernel, and sofic transitivity.  The brute-force word oracles that check
the automaton live in the tests.

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
carry a cycle; each component goes to ``perron_root`` as its successor
lists.  The root is certified by Collatz-Wielandt bounds evaluated
exactly on an integer approximation of the Perron vector: for any
positive integer vector u and irreducible nonnegative A,
min_i (Au)_i/u_i <= lambda <= max_i (Au)_i/u_i.  The power steps run on
A for an aperiodic component and on A + I for a periodic one.

When lower and upper are the least and the greatest point of the shift,
no automaton is needed: lambda is 1 / z0 for the smallest root z0 in
(0, 1) of the integer kneading polynomial
G(z) = (1 - z^p)(1 - z^q)(1 - sum_{n>=1} (u_n - v_n) z^n), with p and q
the periods of upper and lower, and 1 when there is none.  The root is
isolated by Descartes' rule on dyadic intervals and refined by Newton
steps inside a bracket that exact integer signs of G move
(``_kneading_entropy``; ``lyndon_intervals.plateau_entropy`` is its
caller, and the identity is cited there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, itemgetter
from typing import Dict, List, Optional

from .errors import EmptyShift, InvariantError, PreconditionError
from .seq_core import (
    EPSeq,
    RatInterval,
    log_interval,
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

    edges: List[Dict[str, int]]
    start: Optional[int]

    @property
    def n_states(self) -> int:
        return len(self.edges)

    def is_empty(self) -> bool:
        return self.start is None

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
    if lower > upper:
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
        return ShiftAutomaton([], None)
    remap = {old: new for new, old in enumerate(i for i in range(n) if live[i])}
    new_edges: List[Dict[str, int]] = [{} for _ in remap]
    for old, new in remap.items():
        for d, j in edges[old].items():
            if j in remap:
                new_edges[new][d] = remap[j]
    return ShiftAutomaton(new_edges, remap[0])


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
    return ShiftAutomaton(edges, block[aut.start])


# ---------------------------------------------------------------------------
# Perron root and entropy


def _period(succ) -> int:
    """Period of a strongly connected graph given by successor lists: the
    gcd of level[i] + 1 - level[j] over its edges, where level[i] is the
    length of a path from state 0 to state i (Denardo 1977).  The search
    that finds the levels also proves that state 0 reaches every state; a
    backward search proves that every state reaches 0."""
    n = len(succ)
    if n == 0:
        raise PreconditionError("perron_root needs an irreducible matrix")
    level = [-1] * n
    level[0] = 0
    todo = [0]
    back: List[List[int]] = [[] for _ in range(n)]
    period = 0
    for i in todo:
        for j in succ[i]:
            back[j].append(i)
            if level[j] < 0:  # a search-tree edge adds 0 to the gcd
                level[j] = level[i] + 1
                todo.append(j)
            else:
                period = gcd(period, level[i] + 1 - level[j])
    seen = {0}
    found = [0]
    for j in found:
        for i in back[j]:
            if i not in seen:
                seen.add(i)
                found.append(i)
    if len(todo) < n or len(found) < n:
        raise PreconditionError("perron_root needs an irreducible matrix")
    return period


def perron_root(succ, tol: Fraction = ENTROPY_TOL) -> RatInterval:
    """Certified enclosure, of width at most tol, of the Perron root of an
    irreducible nonnegative integer matrix A given by successor lists: row
    i lists column j A[i][j] times.

    Power iteration in integer fixed point on A + cI, which is primitive:
    c = 0 when A has period 1 (an irreducible aperiodic matrix is
    primitive), c = 1 when it is periodic.  The vector is kept at about
    ``bits`` bits and its entries at >= 1.  Every 8 steps the
    Collatz-Wielandt quotients of the step just taken bound the root of
    A + cI exactly; the brackets are intersected.  When the bracket stops
    improving the vector is too coarse for tol, and ``bits`` doubles, so
    the loop always ends.
    """
    if tol <= 0:
        raise PreconditionError("perron_root needs a positive tolerance")
    c = 0 if _period(succ) == 1 else 1
    n = len(succ)
    if n == 1:
        return RatInterval.point(Fraction(len(succ[0])))
    # A as a sum of selection layers: the k-th unit in row i sits in column
    # layers[k][i], and index n reads a padding 0 kept at the end of u, so
    # (A u)_i = sum_k u[layers[k][i]] runs as C-level gathers and maps
    layers: List[List[int]] = []
    for i, row in enumerate(succ):
        for k, j in enumerate(row):
            if k == len(layers):
                layers.append([n] * n)
            layers[k][i] = j
    gathers = [itemgetter(*layer) for layer in layers]
    bits = (tol.denominator // tol.numerator).bit_length() + 16
    u = [1 << bits] * n + [0]
    # bracket lo_n/lo_d <= root of A + cI <= hi_n/hi_d
    lo_n, lo_d = c, 1
    hi_n, hi_d = len(layers) + c, 1
    stalled = 0
    step = 0
    while True:
        w = u if c else gathers[0](u)
        for get in gathers[1 - c:]:
            w = map(add, w, get(u))
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
                return RatInterval(Fraction(lo_n - c * lo_d, lo_d), Fraction(hi_n - c * hi_d, hi_d))
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


def _max_scc_root(succ) -> Optional[RatInterval]:
    """Maximum Perron root over the nontrivial SCCs of the graph with
    successor collections succ (a target listed k times is an entry k);
    each SCC goes to ``perron_root`` as its successor lists, relabelled in
    state order.  None when the graph has no cycle."""
    out = None
    for comp in _nontrivial_sccs(succ):
        comp.sort()
        pos = {v: k for k, v in enumerate(comp)}
        sub = [[pos[w] for w in succ[v] if w in pos] for v in comp]
        root = perron_root(sub, ENTROPY_TOL)
        out = root if out is None else out.max(root)
    return out


def spectral_radius(mat: List[List[int]]) -> RatInterval:
    """Perron root of a general nonnegative integer matrix: the maximum
    of the per-SCC roots, 0 for a nilpotent matrix."""
    succ = [[j for j, a in enumerate(row) if a for _ in range(a)] for row in mat]
    root = _max_scc_root(succ)
    return RatInterval.point(Fraction(0)) if root is None else root


@dataclass(frozen=True)
class EntropyResult:
    """Entropy enclosure (natural log) and the Perron root enclosure,
    of width at most ENTROPY_TOL, that it is the log of."""

    h: RatInterval
    perron: RatInterval


def entropy(aut: ShiftAutomaton) -> EntropyResult:
    if aut.is_empty():
        raise EmptyShift("entropy of the empty shift is undefined")
    lam = _max_scc_root([out.values() for out in aut.edges])
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


# ---------------------------------------------------------------------------
# kneading polynomial and its smallest root

# isolation depth past which the polynomial is replaced by its square-free
# part; Descartes' count never falls to one around a multiple root
_SQUAREFREE_DEPTH = 32


def _series_numerator(x: EPSeq) -> List[int]:
    """Coefficients, lowest degree first, of (1 - z^q) sum_{n>=1} x_n z^n
    for x = p(q): P(z) (1 - z^q) + z^|p| Q(z), where P and Q are the
    digit polynomials of p and q, starting at z^1."""
    a, q = len(x.pre), len(x.per)
    out = [0] * (a + q + 1)
    for i, d in enumerate(x.pre, 1):
        if d == "1":
            out[i] += 1
            out[i + q] -= 1
    for j, d in enumerate(x.per, 1):
        if d == "1":
            out[a + j] += 1
    return out


def _times_one_minus_power(c: List[int], n: int) -> List[int]:
    """Coefficients of (1 - z^n) c(z), lowest degree first."""
    out = c + [0] * n
    for i, a in enumerate(c):
        out[i + n] -= a
    return out


def _kneading_poly(lower: EPSeq, upper: EPSeq) -> List[int]:
    """Coefficients, lowest degree first and without trailing zeros, of
    G(z) = (1 - z^p)(1 - z^q)(1 - sum_{n>=1} (u_n - v_n) z^n), where
    v = lower and u = upper have periods q and p."""
    p, q = len(upper.per), len(lower.per)
    # (1 - z^p) minus (1 - z^p) sum u_n z^n; the latter has degree >= p
    head = [-c for c in _series_numerator(upper)]
    head[0] += 1
    head[p] -= 1
    a = _times_one_minus_power(head, q)
    b = _times_one_minus_power(_series_numerator(lower), p)
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] += c
    while a[-1] == 0:
        a.pop()
    return a


def _horner(coeffs: List[int], a: int, k: int) -> int:
    """2^(k deg f) f(a / 2^k) in integers, coefficients lowest degree first."""
    h = 0
    for i, c in enumerate(reversed(coeffs)):
        h = h * a + (c << (k * i) if c else 0)
    return h


def _taylor_shift(coeffs: List[int]) -> List[int]:
    """Coefficients of f(x + 1), lowest degree first.

    Kronecker substitution: f(2^B + 1) = sum_j c_j 2^(B j) by Horner, and
    the signed digits c_j are read back.  |c_j| <= max |f_i| 2^(deg f + 1),
    so B = bits(max |f_i|) + deg f + 2 keeps each below 2^(B - 1).
    """
    d = len(coeffs) - 1
    B = max(map(abs, coeffs)).bit_length() + d + 2
    h = 0
    for a in reversed(coeffs):
        h = (h << B) + h + a
    mask, half = (1 << B) - 1, 1 << (B - 1)
    out = []
    for _ in range(d + 1):
        c = h & mask
        if c >= half:
            c -= 1 << B
        out.append(c)
        h = (h - c) >> B
    return out


def _sign_variations(coeffs: List[int]) -> int:
    """Sign changes along the coefficients, zeros skipped."""
    count, last = 0, 0
    for c in coeffs:
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
            last = c
    return count


def _poly_divmod(a, b):
    """Quotient and remainder of a / b over the rationals, lowest degree
    first; b has a nonzero leading coefficient."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for s in range(len(a) - len(b), -1, -1):
        coef = rem[s + len(b) - 1] / b[-1]
        quot[s] = coef
        for i, c in enumerate(b):
            rem[s + i] -= coef * c
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _squarefree_part(coeffs: List[int]) -> List[int]:
    """f / gcd(f, f') as a primitive integer polynomial: the same roots,
    each simple."""
    a, b = coeffs, [i * c for i, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    quot, rem = _poly_divmod(coeffs, a)
    if rem:
        raise InvariantError("the gcd does not divide the polynomial")
    den = 1
    for c in quot:
        den = den * c.denominator // gcd(den, c.denominator)
    out = [int(c * den) for c in quot]
    g = 0
    for c in out:
        g = gcd(g, c)
    return [c // g for c in out]


def _isolate(coeffs: List[int]):
    """The smallest root of f in [1/2, 1), for f without roots in (0, 1/2):
    None when there is none; (k, c, None) when it is exactly c / 2^k; else
    (k, c, g), where g is f or its square-free part and has exactly one
    root in (c / 2^k, (c + 1) / 2^k), a simple one, and none at either end.

    Descartes' rule on dyadic subintervals, left half first (Vincent;
    Collins-Akritas 1976).  A node holds q(x) = 2^(k deg f) f((c + x) / 2^k),
    and the sign variations of (1 + x)^deg q(1 / (1 + x)) bound its roots in
    (0, 1).  Every interval left of a node is already excluded, so q(0) = 0
    makes the node's left end the smallest root.  Past _SQUAREFREE_DEPTH
    the search restarts on the square-free part, whose roots are simple, so
    the count reaches 0 or 1 on small enough intervals (Vincent's theorem).
    """

    def halved(q):
        d = len(q) - 1
        return [a << (d - i) for i, a in enumerate(q)]  # 2^d q(x / 2)

    squarefree = False
    # entries (k, c, q, right): a right half's q is shifted by 1 when popped
    stack = [(1, 1, halved(coeffs), True)]
    while stack:
        k, c, q, right = stack.pop()
        if right:
            q = _taylor_shift(q)
        if q[0] == 0:
            return k, c, None
        count = _sign_variations(_taylor_shift(q[::-1]))
        if count == 0:
            continue
        if count == 1 and sum(q):
            return k, c, coeffs
        if k == _SQUAREFREE_DEPTH and not squarefree:
            coeffs, squarefree = _squarefree_part(coeffs), True
            stack = [(1, 1, halved(coeffs), True)]
            continue
        left = halved(q)
        stack.append((k + 1, 2 * c + 1, left, True))
        stack.append((k + 1, 2 * c, left, False))
    return None


def _inverse_smallest_root(coeffs: List[int], tol: Fraction = ENTROPY_TOL) -> RatInterval:
    """Enclosure, of width at most tol, of 1 / z0, where z0 is the smallest
    root in [1/2, 1) of the integer polynomial f (lowest degree first), and
    f has no root in (0, 1/2); exactly 1 when f has no root in (0, 1).

    After ``_isolate``, one safeguarded loop shrinks the bracket
    lo / 2^K < z0 < hi / 2^K, starting from a float Newton estimate.  Each
    round takes the Newton step from the last point when it lands inside
    the bracket and the midpoint otherwise.  A Newton step s leaves an
    error of about s^2 f''/2f', so the round then probes 4 s^2 past the new
    point, towards the root, and bisects when the bracket has not halved.
    The exact sign of f at each dyadic point, from integer Horner, moves
    one end; no float decides anything.  The bracket shrinks every round,
    and one unit is narrow enough: with z0 >= 1/2, 1/z0 is known to within
    2^K / (lo hi) < 2^(2 - K), and 2^(2 - K) < tol for the K below.
    """
    found = _isolate(coeffs)
    if found is None:
        return RatInterval.point(Fraction(1))
    k, c, f = found
    if f is None:
        return RatInterval.point(Fraction(1 << k, c))
    df = [i * a for i, a in enumerate(f)][1:]
    K = max(k, (tol.denominator // tol.numerator).bit_length() + 3)
    lo, hi = c << (K - k), (c + 1) << (K - k)
    lo_positive = _horner(f, lo, K) > 0

    def cut(point):
        """Move the end of the bracket on point's side of z0 to point,
        or both ends when point is z0; the value of f there."""
        nonlocal lo, hi
        value = _horner(f, point, K)
        if value == 0:
            lo = hi = point
        elif (value > 0) == lo_positive:
            lo = point
        else:
            hi = point
        return value

    x = _float_newton(f, lo / (1 << K), hi / (1 << K))
    x = min(max(round(x * (1 << K)), lo + 1), hi - 1)
    fx = cut(x)
    # 1/z0 lies in [2^K / hi, 2^K / lo], of width 2^K (hi - lo) / (lo hi)
    while ((hi - lo) << K) * tol.denominator > tol.numerator * lo * hi:
        width = hi - lo
        dfx = _horner(df, x, K)
        y = x - fx // dfx if dfx else None
        if y is None or not lo < y < hi:
            y = (lo + hi) >> 1
        fy = cut(y)
        probe = max(4 * (y - x) ** 2 >> K, 1)
        z = y + probe if lo == y else y - probe
        if lo < z < hi:
            cut(z)
        if hi - lo > width >> 1:
            cut((lo + hi) >> 1)
        x, fx = y, fy
    return RatInterval(Fraction(1 << K, hi), Fraction(1 << K, lo))


def _float_newton(f: List[int], lo: float, hi: float) -> float:
    """A float estimate of the root of f in (lo, hi): Newton steps from
    the midpoint while they stay inside and still move it."""
    # coefficients scaled to at most 64 bits, so that none overflows a float
    scale = 1 << max(max(map(abs, f)).bit_length() - 64, 0)
    f = [a / scale for a in f]
    x = (lo + hi) / 2
    for _ in range(32):
        v = dv = 0.0
        for a in reversed(f):
            dv = dv * x + v
            v = v * x + a
        if not dv:
            break
        y = x - v / dv
        if not lo < y < hi or y == x:
            break
        x = y
    return x


def _kneading_entropy(lower: EPSeq, upper: EPSeq) -> EntropyResult:
    """Entropy of Sigma_{lower,upper} from its kneading polynomial, for
    bounds that are the least and the greatest point of the shift:
    lambda = 1 / z0, with z0 the smallest root of ``_kneading_poly`` in
    (0, 1), and lambda = 1 when there is none.  A shift on two symbols
    has lambda <= 2, so z0 >= 1/2."""
    lam = _inverse_smallest_root(_kneading_poly(lower, upper))
    return EntropyResult(h=log_interval(lam), perron=lam)


# ---------------------------------------------------------------------------
# transitivity


@dataclass(frozen=True)
class TransitivityReport:
    """The automaton verdict and the word-level cross-check.

    ``transitive``: the minimized presentation has a single essential
    strongly connected component and every word of the shift can be read
    inside it.  ``word_level``: every pair (u, w) of words of length
    WORD_CHECK_LEN has a connector v with u v w in the language, which is
    the direct reading of the transitivity definition on short words.
    Both are False for the empty shift.
    """

    transitive: bool
    word_level: bool


def is_transitive_sofic(aut: ShiftAutomaton) -> TransitivityReport:
    if aut.is_empty():
        return TransitivityReport(False, False)
    word_level = _word_level_check(aut)
    mini = minimize(aut)
    comps = _nontrivial_sccs([out.values() for out in mini.edges])
    if len(comps) != 1:
        return TransitivityReport(False, word_level)
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
    return TransitivityReport(ok, word_level)


def _word_level_check(aut: ShiftAutomaton) -> bool:
    """For all word pairs (u, w) of length WORD_CHECK_LEN some state
    reachable from the end of u reads w (a nonempty automaton)."""
    edges = aut.edges

    def run(state, word):
        for c in word:
            state = edges[state].get(c)
            if state is None:
                return None
        return state

    words = aut.words(WORD_CHECK_LEN)
    for p in {run(aut.start, u) for u in words}:
        reach, todo = {p}, [p]
        for q in todo:
            for q2 in edges[q].values():
                if q2 not in reach:
                    reach.add(q2)
                    todo.append(q2)
        if not all(any(run(q, w) is not None for q in reach) for w in words):
            return False
    return True
