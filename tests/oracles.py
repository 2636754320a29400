"""Reference implementations kept for the tests: the earlier production
routines, and helpers that no library code calls.

- ``build_automaton_frozenset``: the automaton construction with
  frozenset states of folded depths and a fixpoint out-trim, the oracle
  for the bitmask ``survivor_shift.build_automaton``.
- ``pi_beta_fraction``: the Fraction recursion for pi_beta at a rational
  beta, the oracle for the integer Horner ``seq_core.pi_beta_at``.
- ``essential_states`` / ``essential_part``: the restriction of an
  automaton to the states on bi-infinite paths.
"""

from fractions import Fraction
from typing import Dict, List

from betahole.errors import PreconditionError
from betahole.seq_core import EPSeq, seq_le
from betahole.survivor_shift import ShiftAutomaton, _nontrivial_sccs


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
