"""Property tests for the entropy kernel: the integer fixed-point Perron
root and the fixed-point logarithm, each against an independent oracle.

The oracles are the earlier production routines: float power iteration
certified by exact Collatz-Wielandt quotients on a rounded vector, the
dense integer kernel on A + I (``oracles.perron_root_dense``), and the
recursive Fraction series for log with an explicit tail bound.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betahole.errors import PreconditionError
from betahole.seq_core import RatInterval, log_interval
from betahole.survivor_shift import ENTROPY_TOL, _period, perron_root
from oracles import perron_root_dense, succ_lists

# ---------------------------------------------------------------------------
# oracles


def collatz_wielandt(mat, u):
    """min_i (Au)_i/u_i <= lambda <= max_i (Au)_i/u_i for positive u."""
    ratios = [Fraction(sum(a * x for a, x in zip(row, u)), u[i]) for i, row in enumerate(mat)]
    return RatInterval(min(ratios), max(ratios))


def perron_oracle(mat):
    """Float power iteration on A + I, certified on the vector rounded to
    integers; returns the intersected bracket once it stops shrinking."""
    n = len(mat)
    if n == 1:
        return RatInterval.point(Fraction(mat[0][0]))
    v = [1.0] * n
    best = None
    stalled = 0
    for _ in range(400):
        for _ in range(256):
            w = [sum(a * x for a, x in zip(row, v)) + v[i] for i, row in enumerate(mat)]
            big = max(w)
            v = [x / big for x in w]
        cw = collatz_wielandt(mat, [max(1, round(x * 10**15)) for x in v])
        if best is None:
            best = cw
            continue
        lo, hi = max(best.lo, cw.lo), min(best.hi, cw.hi)
        prev = best.width()
        best = RatInterval(lo, hi)
        stalled = stalled + 1 if best.width() > prev * Fraction(9, 10) else 0
        if stalled >= 3 or best.width() <= ENTROPY_TOL:
            break
    return best


def log_oracle(x, err):
    """Enclosure of log x: 2 atanh((x-1)/(x+1)) summed in Fraction after
    halving x into (1, 2], with the tail bound added to the upper end."""
    if x == 1:
        return RatInterval.point(0)
    if x < 1:
        inner = log_oracle(1 / x, err)
        return RatInterval(-inner.hi, -inner.lo)
    halvings = 0
    while x > 2:
        x /= 2
        halvings += 1
    z = (x - 1) / (x + 1)
    z2 = z * z
    total = Fraction(0)
    term = z
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        tail = term / ((2 * k + 1) * (1 - z2))
        if 2 * tail < err:
            break
    out = RatInterval(2 * total, 2 * total + 2 * tail)
    if halvings:
        ln2 = log_oracle(Fraction(2), err / (2 * halvings))
        out = RatInterval(out.lo + halvings * ln2.lo, out.hi + halvings * ln2.hi)
    return out


def charpoly_sign(mat, x):
    """Sign of det(x I - A) at a rational x, by fraction-free (Bareiss)
    elimination of the integer matrix a I - b A, x = a/b."""
    a, b = x.numerator, x.denominator
    n = len(mat)
    m = [[(a if i == j else 0) - b * mat[i][j] for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * (1 if m[n - 1][n - 1] > 0 else -1)


def meets(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


# ---------------------------------------------------------------------------
# strategies


@st.composite
def irreducible_matrices(draw, max_n=12, max_entry=2):
    """Random nonnegative integer matrices made irreducible by a cycle
    through all indices in a random order."""
    n = draw(st.integers(1, max_n))
    entries = st.integers(0, max_entry)
    mat = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    for i, j in zip(order, order[1:] + order[:1]):
        if n > 1:
            mat[i][j] = max(mat[i][j], 1)
    return mat


def permuted(draw, n, edges):
    """Dense matrix of the edge multiset on n states, relabelled by a
    random permutation."""
    order = draw(st.permutations(range(n)))
    mat = [[0] * n for _ in range(n)]
    for i, j in edges:
        mat[order[i]][order[j]] += 1
    return mat


def is_primitive(mat):
    """Some power of A is positive; A^((n-1)^2 + 1) suffices (Wielandt)."""
    n = len(mat)
    reach = [[bool(a) for a in row] for row in mat]
    power = reach
    for _ in range((n - 1) ** 2):
        power = [[any(p and reach[k][j] for k, p in enumerate(row)) for j in range(n)] for row in power]
    return all(all(row) for row in power)


@st.composite
def block_cyclic_edges(draw, period):
    """States in ``period`` blocks, every edge from block k to block k + 1
    (mod period).  The first state of each block reaches all of the next
    block, and all of a block reaches the next first state, so the graph is
    strongly connected, and the cycle through the first states has length
    ``period``: the period is exactly ``period``."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=period, max_size=period))
    blocks, n = [], 0
    for size in sizes:
        blocks.append(list(range(n, n + size)))
        n += size
    edges = []
    for k, block in enumerate(blocks):
        nxt = blocks[(k + 1) % period]
        edges += [(block[0], j) for j in nxt] + [(i, nxt[0]) for i in block[1:]]
        edges += draw(st.lists(st.tuples(st.sampled_from(block), st.sampled_from(nxt)), max_size=4))
    return n, edges, blocks


@st.composite
def aperiodic_matrices(draw):
    mat = draw(irreducible_matrices(max_n=8))
    assume(is_primitive(mat))
    return mat, 1


@st.composite
def periodic_matrices(draw):
    period = draw(st.integers(2, 5))
    n, edges, _ = draw(block_cyclic_edges(period))
    return permuted(draw, n, edges), period


@st.composite
def nearly_periodic_matrices(draw):
    """A period-2 graph plus one chord inside a block: the chord closes an
    odd cycle, so the period is 1 and the steps run on A, which converge
    slowly while A keeps an eigenvalue near -lambda."""
    n, edges, blocks = draw(block_cyclic_edges(2))
    block = draw(st.sampled_from(blocks))
    edges.append((draw(st.sampled_from(block)), draw(st.sampled_from(block))))
    return permuted(draw, n, edges), 1


positive_rationals = st.fractions(min_value=0, max_value=4, max_denominator=10**12).filter(lambda f: f > 0)
tolerances = st.one_of(
    st.just(Fraction(1, 10**32)),
    st.integers(1, 200).map(lambda k: Fraction(1, 2**k)),
    st.fractions(min_value=Fraction(1, 10**40), max_value=1).filter(lambda f: f > 0),
)


# ---------------------------------------------------------------------------
# Perron root


@settings(max_examples=60, deadline=None)
@given(irreducible_matrices())
def test_perron_root_meets_tol_and_oracle(mat):
    iv = perron_root(succ_lists(mat))
    assert iv.width() <= ENTROPY_TOL
    assert meets(iv, perron_oracle(mat))
    # exact: the characteristic polynomial is >= 0 right of its largest
    # real root, and changes sign there (the Perron root is simple; no
    # other real eigenvalue lies within the bracket for these matrices)
    assert charpoly_sign(mat, iv.hi) >= 0
    assert charpoly_sign(mat, iv.lo) <= 0


@settings(max_examples=30, deadline=None)
@given(irreducible_matrices(max_n=6, max_entry=5), st.integers(1, 120))
def test_perron_root_any_tolerance(mat, k):
    tol = Fraction(1, 2**k)
    iv = perron_root(succ_lists(mat), tol)
    assert iv.width() <= tol
    assert meets(iv, perron_oracle(mat))


@pytest.mark.parametrize("family", [aperiodic_matrices, periodic_matrices, nearly_periodic_matrices],
                         ids=["aperiodic", "periodic", "nearly-periodic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_perron_root_against_dense_oracle(family, data):
    # aperiodic matrices take power steps on A, periodic ones on A + I
    mat, period = data.draw(family())
    succ = succ_lists(mat)
    assert _period(succ) == period
    iv = perron_root(succ)
    assert meets(iv, perron_root_dense(mat))
    assert iv.width() <= ENTROPY_TOL
    assert charpoly_sign(mat, iv.hi) >= 0
    assert charpoly_sign(mat, iv.lo) <= 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3),
       st.data())
def test_period_of_cycle_with_chords(length, chords, data):
    # an n-cycle with chords i -> j: each chord closes a cycle of length
    # (i - j) mod n + 1, and these lengths with n generate every cycle
    chords = [(i % length, j % length) for i, j in chords]
    edges = [(i, (i + 1) % length) for i in range(length)] + chords
    expected = length
    for i, j in chords:
        expected = math.gcd(expected, (i - j) % length + 1)
    assert _period(succ_lists(permuted(data.draw, length, edges))) == expected


def test_perron_root_cycle_is_exact():
    iv = perron_root(succ_lists([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    assert iv.lo == iv.hi == 1


def test_perron_root_small_spectral_gap():
    # a 40-cycle with one chord closing a 38-cycle: period 2, so the steps
    # run on A + I, and |lambda_2 + 1| / (lambda + 1) is close to 1, so the
    # bracket shrinks slowly without being stalled
    mat = [[1 if j == (i + 1) % 40 else 0 for j in range(40)] for i in range(40)]
    mat[0][3] += 1
    iv = perron_root(succ_lists(mat))
    assert iv.width() <= ENTROPY_TOL
    assert charpoly_sign(mat, iv.hi) >= 0 and charpoly_sign(mat, iv.lo) <= 0


def test_perron_root_rejects_reducible():
    with pytest.raises(PreconditionError):
        perron_root(succ_lists([[1, 1], [0, 1]]))
    with pytest.raises(PreconditionError):
        perron_root(succ_lists([[1, 1], [1, 0]]), Fraction(0))
    for mat in (
        [[1, 0, 1], [1, 0, 1], [1, 0, 1]],  # zero column: state 1 is never entered
        [[1, 1], [0, 0]],  # zero row
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # two disjoint cycles
        [],
    ):
        with pytest.raises(PreconditionError):
            perron_root(succ_lists(mat))


# ---------------------------------------------------------------------------
# logarithm


@settings(max_examples=150, deadline=None)
@given(positive_rationals, positive_rationals, tolerances)
def test_log_interval_against_series(a, b, err):
    lo, hi = min(a, b), max(a, b)
    iv = log_interval(RatInterval(lo, hi), err)
    # the oracle is far tighter than the kernel, so a bound rounded the
    # wrong way shows
    at_lo, at_hi = log_oracle(lo, err / 2**40), log_oracle(hi, err / 2**40)
    # log lo lies in at_lo and log hi in at_hi, so the bounds must reach them
    assert iv.lo <= at_lo.hi and at_hi.lo <= iv.hi
    # no wider than [log lo, log hi] plus err
    assert iv.width() <= at_hi.hi - at_lo.lo + err


def test_log_of_one_is_exactly_zero():
    iv = log_interval(RatInterval.point(1))
    assert iv.lo == iv.hi == 0
    assert log_interval(RatInterval.point(1), Fraction(1, 3)) == RatInterval.point(0)


def test_log_of_power_of_two_is_tight():
    iv = log_interval(RatInterval.point(Fraction(1, 2**40)))
    ref = log_oracle(Fraction(1, 2**40), Fraction(1, 10**40))
    assert meets(iv, ref) and iv.width() <= Fraction(1, 10**32)


def test_log_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        log_interval(RatInterval(Fraction(0), Fraction(1)))
