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
from synlat.terms import lattice_form_key, lattice_form_str

from conftest import build, certified_lattice_algebra, random_regex_corpus

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
    """close, with the caller's least-witness certificate, asserted equal to reference_close
    without one; records each closure's name and whether it passed a certificate."""

    def run(seeds, letter_ops, pair_ops, less, budget, what, least=None):
        seeds = list(seeds)
        try:
            got = close(seeds, letter_ops, pair_ops, less, budget, what, least)
        except BudgetError:
            with pytest.raises(BudgetError):
                reference_close(seeds, letter_ops, pair_ops, less, budget, what)
            raise
        assert got == reference_close(seeds, letter_ops, pair_ops, less, budget, what)
        whats.append((what, least is not None))
        return got

    return run


def assert_engine_matches_reference(monkeypatch, dfa, pt):
    whats = []
    monkeypatch.setattr(synlat.canonical, "close", checked_close(whats))
    monkeypatch.setattr(synlat.syntactic, "close", checked_close(whats))
    synlat.build_lattice_automaton(pt, dfa)   # closes the meet automaton first
    assert whats == [("canonical automaton states", False)] * 2
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        try:
            build_algebra(pt, dfa, budget=LATTICE_BUDGET)
        except BudgetError:
            continue
        assert whats[-1] == ("lattice algebra elements", True)


def test_engine_matches_reference_on_a_plus_b_plus(monkeypatch):
    _, dfa, pt = build("a+b+", "ab")
    assert_engine_matches_reference(monkeypatch, dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_engine_matches_reference_on_random_corpus(monkeypatch, seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_engine_matches_reference(monkeypatch, dfa, synlat.build_profile_table(dfa))


def test_certificate_never_overwrites_a_witness(monkeypatch):
    # the residual quotient of ((λ|b)ab)* keeps six replay witnesses that are not least forms:
    # each has the inner b∧ba or b∧ab where λ∧bbab or λ∧babb has the same meet and sorts first
    _, dfa, pt = build("((%e|b)ab)*", "ab")
    alg, least = certified_lattice_algebra(synlat.syntactic_lattice_algebra, pt, dfa)
    monkeypatch.setattr(synlat.syntactic, "close", lambda *args, least=None: reference_close(*args))
    reference = synlat.syntactic_lattice_algebra(pt, dfa)
    assert len(alg) == 249
    assert alg.labels() == reference.labels()
    assert [alg.element_of_form(f) for f in least] == list(range(len(alg)))
    assert all(lattice_form_key(f) <= lattice_form_key(e.witness) for f, e in zip(least, alg.elements))
    differ = {
        i: (label, lattice_form_str(f)) for i, (label, f) in enumerate(zip(alg.labels(), least))
        if label != lattice_form_str(f)
    }
    assert differ == {
        48: ("(a∧ba)∨(b∧ba)", "(λ∧bbab)∨(a∧ba)"),
        103: ("(a∧ba)∨(b∧ab)", "(λ∧babb)∨(a∧ba)"),
        113: ("bb∨(b∧ba)", "bb∨(λ∧bbab)"),
        143: ("bb∨(a∧ba)∨(b∧ba)", "bb∨(λ∧bbab)∨(a∧ba)"),
        165: ("(a∧ab)∨(a∧ba)∨(b∧ba)", "(λ∧bbab)∨(a∧ab)∨(a∧ba)"),
        196: ("bb∨(a∧ab)∨(b∧ba)", "bb∨(λ∧bbab)∨(a∧ab)"),
    }


def test_certified_replay_runs_few_witness_ops(monkeypatch):
    # the replay without a certificate runs 263,682 pair witness ops on these 513 elements
    _, dfa, pt = build("(ab|ba)*", "ab")
    calls = []
    for name in ("lf_meet", "lf_join"):
        op = getattr(terms.FormInterner, name)
        monkeypatch.setattr(terms.FormInterner, name, lambda self, f, g, op=op: calls.append(1) or op(self, f, g))
    assert len(synlat.syntactic_lattice_algebra(pt, dfa)) == 513
    assert 0 < len(calls) <= 1000


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


def test_refused_lattice_builds_compute_no_least_form(monkeypatch):
    # the certificate is computed from the closed values, so a refusal comes first
    _, dfa, pt = build("a+b+", "ab")
    monkeypatch.setattr(synlat.syntactic, "_least_lattice_forms", no_witness_op)
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        with pytest.raises(BudgetError, match="^lattice algebra elements exceeded budget of 21$"):
            build_algebra(pt, dfa, 21)


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
