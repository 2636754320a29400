"""Oracle tests for the path from bounds to certified entropy: the bitmask
automaton construction against the frozenset one, the per-SCC Perron
roots read off the automaton's edges against a dense matrix built here,
the integer Horner pi_beta_at against the Fraction recursion, and the
word-level transitivity check against its bounded-search form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betahole import survivor_shift
from betahole.errors import InvariantError
from betahole.seq_core import EPSeq, RatInterval, periodic, pi_beta_at, word_zeros
from betahole.survivor_shift import (
    WORD_CHECK_LEN,
    ShiftAutomaton,
    build_automaton,
    entropy,
    is_transitive_sofic,
    perron_root,
    spectral_radius,
)
from oracles import build_automaton_frozenset, pi_beta_fraction, succ_lists, word_level_check_bounded

words = st.text(alphabet="01", max_size=5)
periods = st.text(alphabet="01", min_size=1, max_size=6)
sequences = st.one_of(
    st.builds(EPSeq, words, periods),
    st.builds(word_zeros, words),
    st.builds(periodic, periods),
)


@st.composite
def bound_pairs(draw):
    a, b = draw(sequences), draw(sequences)
    return (a, b) if a <= b else (b, a)


# bounds whose automaton has two or three nontrivial SCCs
MULTI_SCC = [
    ("0(011)", "111(0100)"),
    ("0(011)", "11(10)"),
    ("0000(10111)", "1(1000)"),
    ("0(01011)", "11(0110)"),
    ("000(0111)", "111(1000)"),
    ("0(01)", "110(01)"),
]


def dense_perron(aut):
    """Maximum perron_root over the cyclic classes of the dense adjacency
    matrix, found by transitive closure; None when there is no cycle."""
    n = aut.n_states
    mat = [[0] * n for _ in range(n)]
    for i, out in enumerate(aut.edges):
        for j in out.values():
            mat[i][j] += 1
    reach = []
    for i in range(n):
        seen, todo = set(), [i]
        while todo:
            for j, a in enumerate(mat[todo.pop()]):
                if a and j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    classes = {frozenset(j for j in reach[i] if i in reach[j]) for i in range(n) if i in reach[i]}
    out = None
    for comp in classes:
        comp = sorted(comp)
        root = perron_root(succ_lists([[mat[a][b] for b in comp] for a in comp]))
        out = root if out is None else out.max(root)
    return out, len(classes)


class TestBuildAutomaton:
    @settings(max_examples=100, deadline=None)
    @given(bound_pairs())
    @example((word_zeros("011"), periodic("110")))
    @example((periodic("10"), periodic("10")))
    @example((EPSeq.parse("0(011)"), EPSeq.parse("111(0100)")))
    @example((word_zeros("01"), EPSeq.parse("11(01)")))
    def test_equals_frozenset_construction(self, bounds):
        lower, upper = bounds
        aut, ref = build_automaton(lower, upper), build_automaton_frozenset(lower, upper)
        assert aut.start == ref.start
        assert aut.edges == ref.edges


class TestEntropyPerron:
    @settings(max_examples=100, deadline=None)
    @given(bound_pairs())
    def test_equals_dense_per_scc_roots(self, bounds):
        aut = build_automaton(*bounds)
        if aut.is_empty():
            return
        root, _ = dense_perron(aut)
        assert entropy(aut).perron == root

    @pytest.mark.parametrize("lower, upper", MULTI_SCC)
    def test_several_nontrivial_sccs(self, lower, upper):
        aut = build_automaton(EPSeq.parse(lower), EPSeq.parse(upper))
        root, n_classes = dense_perron(aut)
        assert n_classes >= 2
        assert entropy(aut).perron == root

    def test_two_sccs_hand_built(self):
        # states 0, 1: golden-mean component; 2: full 2-shift loop reached from 0
        edges = [{"0": 0, "1": 1}, {"0": 0}, {"0": 2, "1": 2}]
        aut = ShiftAutomaton(edges, 0)
        assert entropy(aut).perron == RatInterval.point(2)
        assert dense_perron(aut)[0] == RatInterval.point(2)

    def test_acyclic_automaton_raises(self):
        edges = [{"0": 1, "1": 2}, {"1": 2}, {}]
        aut = ShiftAutomaton(edges, 0)
        with pytest.raises(InvariantError):
            entropy(aut)

    def test_root_below_one_raises(self, monkeypatch):
        monkeypatch.setattr(survivor_shift, "perron_root",
                            lambda mat, tol: RatInterval.point(Fraction(1, 2)))
        with pytest.raises(InvariantError):
            entropy(build_automaton(periodic("01"), periodic("1")))

    def test_spectral_radius_of_nilpotent_matrix_is_zero(self):
        assert spectral_radius([[0, 1, 1], [0, 0, 1], [0, 0, 0]]) == RatInterval.point(0)


betas = st.one_of(
    st.just(Fraction(2)),
    st.integers(2, 5).map(Fraction),
    st.fractions(min_value=1, max_value=3, max_denominator=10**15).filter(lambda f: f > 1),
    # dyadic, like the ends of a beta enclosure
    st.integers(1, 2**100 - 1).map(lambda k: Fraction(2**100 + k, 2**100)),
)
long_sequences = st.builds(EPSeq, st.text(alphabet="01", max_size=12),
                           st.text(alphabet="01", min_size=1, max_size=20))


@settings(max_examples=100, deadline=None)
@given(st.one_of(sequences, long_sequences), betas)
@example(periodic("01"), Fraction(2))
@example(EPSeq.parse("1(0)"), Fraction(2))
@example(EPSeq.parse("(1)"), Fraction(3, 2))
def test_pi_beta_at_equals_fraction_recursion(x, beta):
    assert pi_beta_at(x, beta) == pi_beta_fraction(x, beta)


@settings(max_examples=300, deadline=None)
@given(bound_pairs())
@example((periodic("01010111"), periodic("11101010")))  # not transitive
@example((periodic("10"), periodic("10")))  # empty
def test_word_level_matches_bounded_search(bounds):
    # the reachability closure gives the verdict of the bounded connector
    # search, since 4 |Q| + 8 steps reach every reachable state
    aut = build_automaton(*bounds)
    assert is_transitive_sofic(aut).word_level is word_level_check_bounded(aut, WORD_CHECK_LEN)
