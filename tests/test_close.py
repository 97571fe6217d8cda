"""The values-first closure engine against the interleaved reference.

automata.close closes the values first (close_values) and then replays
the witness ops on the tables that closure recorded.  reference_close is
the engine as it was before that split: it builds and compares witnesses
while it discovers the values.  Every witness closure of the builders must
come out identical under both, and a refused closure must run no witness op.
"""

from operator import lt

import pytest

import synlat
from synlat import terms
from synlat.automata import close, close_values
from synlat.errors import BudgetError

from conftest import build, random_regex_corpus

LATTICE_BUDGET = 200   # larger lattice quotients are skipped: their reference closures take seconds each


def reference_close(seeds, letter_ops, pair_ops, less, budget, what):
    """Closure with witnesses maintained throughout; returns (values, witnesses, index, right, pairs)."""
    values = []
    witnesses = []
    index = {}

    def add(v, w):
        i = index.get(v)
        if i is not None:
            if less(w, witnesses[i]):
                witnesses[i] = w
            return i
        if len(values) >= budget:
            raise BudgetError(what, budget)
        i = index[v] = len(values)
        values.append(v)
        witnesses.append(w)
        return i

    for v, w in seeds:
        add(v, w)
    right = []
    pairs = [[] for _ in pair_ops]
    i = 0
    while i < len(values):
        vi = values[i]
        right.append(tuple(add(fn(vi), wfn(witnesses[i])) for fn, wfn in letter_ops))
        if pair_ops:
            for table in pairs:
                table.append([])
            for j in range(i + 1):
                vj, wi, wj = values[j], witnesses[i], witnesses[j]
                for table, (fn, wfn) in zip(pairs, pair_ops):
                    table[i].append(add(fn(vi, vj), wfn(wi, wj)))
        i += 1
    return values, witnesses, index, right, pairs


def checked_close(whats):
    """close, asserted equal to reference_close on the same arguments; records each closure's name."""

    def run(seeds, letter_ops, pair_ops, less, budget, what):
        seeds = list(seeds)
        try:
            got = close(seeds, letter_ops, pair_ops, less, budget, what)
        except BudgetError:
            with pytest.raises(BudgetError):
                reference_close(seeds, letter_ops, pair_ops, less, budget, what)
            raise
        assert got == reference_close(seeds, letter_ops, pair_ops, less, budget, what)
        whats.append(what)
        return got

    return run


def assert_engine_matches_reference(monkeypatch, dfa, pt):
    whats = []
    monkeypatch.setattr(synlat.canonical, "close", checked_close(whats))
    monkeypatch.setattr(synlat.syntactic, "close", checked_close(whats))
    synlat.build_lattice_automaton(pt, dfa)   # closes the meet automaton first
    assert whats == ["canonical automaton states"] * 2
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        try:
            build_algebra(pt, dfa, budget=LATTICE_BUDGET)
        except BudgetError:
            continue
        assert whats[-1] == "lattice algebra elements"


def test_engine_matches_reference_on_a_plus_b_plus(monkeypatch):
    _, dfa, pt = build("a+b+", "ab")
    assert_engine_matches_reference(monkeypatch, dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_engine_matches_reference_on_random_corpus(monkeypatch, seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_engine_matches_reference(monkeypatch, dfa, synlat.build_profile_table(dfa))


def test_close_values_order_and_tables():
    # seeds 0 and 1, the repeated 0 dropped; row i runs the letter op, then both pair
    # ops for each j <= i, so row 2 finds 3 by its letter op before 4 = (2 + 2) % 5
    values, index, right, pairs = close_values(
        [0, 1, 0], [lambda v: min(v + 1, 4)], [lambda a, b: max(a, b), lambda a, b: (a + b) % 5], 10, "values"
    )
    assert values == [0, 1, 2, 3, 4]
    assert index == {v: i for i, v in enumerate(values)}
    assert right == [(1,), (2,), (3,), (4,), (4,)]
    assert pairs[0] == [[0], [1, 1], [2, 2, 2], [3, 3, 3, 3], [4, 4, 4, 4, 4]]
    assert pairs[1][4] == [4, 0, 1, 2, 3]
    with pytest.raises(BudgetError, match="values exceeded budget of 4"):
        close_values([0, 1], [lambda v: min(v + 1, 4)], (), 4, "values")


def test_close_replaces_a_witness_only_by_a_strictly_earlier_one():
    # witnesses ordered by length: op b's tie with op a's and never replace them; the
    # pair op's "sp" ties with "sa" at value 1 and is shorter than "saa" at value 2
    succ = lambda v: min(v + 1, 2)
    letter_ops = [(succ, lambda w: w + "a"), (succ, lambda w: w + "b")]
    pair_ops = [(lambda a, b: min(a + b, 2), lambda wi, wj: wi[:1] + "p")]
    shorter = lambda x, y: len(x) < len(y)
    values, witnesses, *_ = close([(0, "s")], letter_ops, pair_ops, shorter, 10, "values")
    assert values == [0, 1, 2]
    assert witnesses == ["s", "sa", "sp"]


def no_witness_op(*_):
    raise AssertionError("a witness op ran")


def test_refused_close_runs_no_witness_op():
    with pytest.raises(BudgetError):
        close([(0, "")], [(lambda v: (v + 1) % 5, no_witness_op)], [(max, no_witness_op)], lt, 4, "values")


def test_refused_builders_run_no_witness_op(monkeypatch):
    # each budget is one short of the full closure, so the refusal comes after every seed
    _, dfa, pt = build("a+b+", "ab")
    la = synlat.build_lattice_automaton(pt, dfa)
    builds = [
        lambda budget: synlat.build_meet_automaton(pt, dfa, budget).states,
        lambda budget: synlat.syntactic_semiring(pt, dfa, budget),
        lambda budget: synlat.syntactic_lattice_algebra(pt, dfa, budget),
        lambda budget: synlat.transition_lattice_algebra(pt, dfa, budget),
    ]
    sizes = [len(b(10**6)) for b in builds]
    monkeypatch.setattr(synlat.syntactic, "build_lattice_automaton", lambda pt, dfa: la)
    for name in ("mf_meet", "lf_meet", "lf_join", "lf_mul_letter"):
        monkeypatch.setattr(terms.FormInterner, name, no_witness_op)
    for b, n in zip(builds, sizes):
        with pytest.raises(BudgetError):
            b(n - 1)


@pytest.mark.parametrize("budget", [5, 43])
def test_refused_semiring_builds_no_table_or_witness(monkeypatch, budget):
    # the 44-element semiring of a 15-element monoid: 5 stops the monoid's closure, 43 the values'
    _, dfa, pt = build("(a|b)*a(a|b)(a|b)", "ab")

    def built(*_):
        raise AssertionError("a table or witness was built")

    for name in ("spanning_tree", "quotient_bits", "tree_words", "_square"):
        monkeypatch.setattr(synlat.syntactic, name, built)
    with pytest.raises(BudgetError, match=f"^semiring elements exceeded budget of {budget}$"):
        synlat.syntactic_semiring(pt, dfa, budget)
