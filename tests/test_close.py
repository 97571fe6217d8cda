"""The values-first closure engine against the interleaved reference.

automata.close closes the values first (close_values) and then replays
the witness ops on the tables that closure recorded.  reference_close is
the engine as it was before that split: it builds and compares witnesses
while it discovers the values.  Every witness closure of the builders must
come out identical under both, and a refused closure must run no witness op.
The semiring's count bounds, which let the replay skip witness ops, must
change nothing either: made exact or dropped, the closure is the same.
"""

import pytest

import synlat
from synlat import terms
from synlat.automata import close, close_values
from synlat.errors import BudgetError

from conftest import build, random_regex_corpus

LATTICE_BUDGET = 200   # larger lattice quotients are skipped: their reference closures take seconds each


def reference_close(seeds, letter_ops, pair_ops, key, budget, what):
    """Closure with witnesses maintained throughout; returns (values, witnesses, index, right, pairs)."""
    values = []
    witnesses = []
    keys = []
    index = {}

    def add(v, w):
        i = index.get(v)
        if i is not None:
            k = key(w)
            if k < keys[i]:
                witnesses[i] = w
                keys[i] = k
            return i
        if len(values) >= budget:
            raise BudgetError(what, budget)
        i = index[v] = len(values)
        values.append(v)
        witnesses.append(w)
        keys.append(key(w))
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
                for table, (fn, wfn, *_) in zip(pairs, pair_ops):   # a count bound, if any, is ignored
                    table[i].append(add(fn(vi, vj), wfn(wi, wj)))
        i += 1
    return values, witnesses, index, right, pairs


def checked_close(whats):
    """close, asserted equal to reference_close on the same arguments; records each closure's name."""

    def run(seeds, letter_ops, pair_ops, key, budget, what):
        seeds = list(seeds)
        try:
            got = close(seeds, letter_ops, pair_ops, key, budget, what)
        except BudgetError:
            with pytest.raises(BudgetError):
                reference_close(seeds, letter_ops, pair_ops, key, budget, what)
            raise
        assert got == reference_close(seeds, letter_ops, pair_ops, key, budget, what)
        whats.append(what)
        return got

    return run


def assert_engine_matches_reference(monkeypatch, dfa, pt):
    whats = []
    monkeypatch.setattr(synlat.canonical, "close", checked_close(whats))
    monkeypatch.setattr(synlat.syntactic, "close", checked_close(whats))
    synlat.build_lattice_automaton(pt, dfa)   # closes the meet automaton first
    synlat.syntactic_semiring(pt, dfa)
    assert whats == ["canonical automaton states"] * 2 + ["semiring elements"]
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


def bound_variants(runs):
    """close, asserted equal with each pair op's bound made exact and with no bound at all.

    An exact bound is the member count of the witness op's result, so it
    skips exactly the ops whose result has more members than the stored
    witness; an op with as many members must still run, for the key's
    tie-break.
    """

    def run(seeds, letter_ops, pair_ops, key, budget, what):
        seeds = list(seeds)
        got = close(seeds, letter_ops, pair_ops, key, budget, what)
        exact = [(fn, wfn, lambda wi, wj, wfn=wfn: wfn(wi, wj).bit_count()) for fn, wfn, *_ in pair_ops]
        unbounded = [(fn, wfn) for fn, wfn, *_ in pair_ops]
        assert close(seeds, letter_ops, exact, key, budget, what) == got
        assert close(seeds, letter_ops, unbounded, key, budget, what) == got
        runs.append(what)
        return got

    return run


def assert_bounds_change_nothing(monkeypatch, dfa, pt):
    runs = []
    monkeypatch.setattr(synlat.syntactic, "close", bound_variants(runs))
    synlat.syntactic_semiring(pt, dfa)
    assert runs == ["semiring elements"]


def test_semiring_bounds_change_nothing_on_a_plus_b_plus(monkeypatch):
    _, dfa, pt = build("a+b+", "ab")
    assert_bounds_change_nothing(monkeypatch, dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_semiring_bounds_change_nothing_on_random_corpus(monkeypatch, seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_bounds_change_nothing(monkeypatch, dfa, synlat.build_profile_table(dfa))


def test_semiring_bound_skips_witness_products(monkeypatch):
    # without the bound the replay runs all 1,980 products of the 44-element semiring
    _, dfa, pt = build("(a|b)*a(a|b)(a|b)", "ab")
    calls = []
    mf_mul = terms.FormInterner.mf_mul

    def counted(self, u, v):
        calls.append(None)
        return mf_mul(self, u, v)

    monkeypatch.setattr(terms.FormInterner, "mf_mul", counted)
    assert len(synlat.syntactic_semiring(pt, dfa)) == 44
    assert len(calls) < 1980


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


def no_witness_op(*_):
    raise AssertionError("a witness op ran")


def test_refused_close_runs_no_witness_op():
    with pytest.raises(BudgetError):
        close([(0, "")], [(lambda v: (v + 1) % 5, no_witness_op)], [(max, no_witness_op)], len, 4, "values")


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
    for name in ("mf_meet", "mf_mul", "lf_meet", "lf_join", "lf_mul_letter"):
        monkeypatch.setattr(terms.FormInterner, name, no_witness_op)
    for b, n in zip(builds, sizes):
        with pytest.raises(BudgetError):
            b(n - 1)
