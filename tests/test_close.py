"""The breadth-first tree read of least forms against the layered search and the witness replay.

Every witness in the package is its least form, read off close_values'
breadth-first spanning tree (automata.least_forms).
layered_least_forms is the layered least-form search the semiring used
before: every tree read of the builders must equal it.  reference_close is
the closure engine that built witnesses before: it maintains them while it
discovers the values, a value keeping the first witness that reaches it
unless a later one is strictly before it.  With the tuple normalizers of
terms (mf_meet, mf_mul, lf_meet, lf_join, multiply_lattice_forms) and the
orders meet_form_key and lattice_form_key, the reference_* builders below
rebuild the automata and algebras that way; tests/test_forms.py compares the
builders with them.
"""

from operator import and_, or_

import pytest
from hypothesis import given, strategies as st

import synlat
from synlat import terms
from synlat.atoms import quotient_bits, top
from synlat.automata import access_words, close_values, number
from synlat.cli import main
from synlat.errors import EXIT_INCONSISTENT, BudgetError, InconsistencyError
from synlat.syntactic import semiring_action_bits
from synlat.terms import lattice_form_key, lattice_form_str

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


def square(lower, upper):
    """t[i][j] = lower[i][j] for j <= i and upper[j][i] for j > i, from reference_close's triangles."""
    return tuple(tuple(low) + tuple(up[i] for up in upper[i + 1:]) for i, low in enumerate(lower))


def meet_less(x, y):
    return terms.meet_form_key(x) < terms.meet_form_key(y)


def lattice_less(x, y):
    return terms.lattice_form_key(x) < terms.lattice_form_key(y)


def reference_meet_automaton(pt, dfa):
    seeds = [(bits, terms.meet_form([w])) for bits, w in zip(pt.residual_bits, access_words(dfa))]
    seeds.append((top(pt).bits, terms.meet_form([])))
    return reference_close(seeds, (), [(and_, terms.mf_meet)], meet_less, 10**6, "states")


def reference_lattice_automaton(pt, ma):
    seeds = [(v.bits, terms.lattice_form([w])) for v, w in zip(ma.states, ma.witnesses)]
    seeds.append((0, terms.lattice_form([])))
    return reference_close(seeds, (), [(or_, terms.lf_join)], lattice_less, 10**6, "states")


def reference_semiring(pt, dfa):
    """The semiring's former builder: {1, letters, ⊤} closed under meet and both products.
    Returns reference_close's result, its pair tables squared into (meet, product) tables."""
    one_map = pt.residual_bits
    letter_maps = [tuple(one_map[row[li]] for row in dfa.delta) for li in range(len(dfa.alphabet))]
    seeds = [(one_map, terms.meet_form([""]))]
    seeds += [(m, terms.meet_form([a])) for m, a in zip(letter_maps, dfa.alphabet)]
    seeds.append(((top(pt).bits,) * dfa.n_states, terms.meet_form([])))

    def product(mi, mj):
        return tuple(semiring_action_bits(pt, mj, x) for x in mi)

    pair_ops = [
        (lambda mi, mj: tuple(map(and_, mi, mj)), terms.mf_meet),
        (product, terms.mf_mul),
        (lambda mi, mj: product(mj, mi), lambda wi, wj: terms.mf_mul(wj, wi)),
    ]
    values, witnesses, index, right, (meets, muls, swapped) = reference_close(
        seeds, (), pair_ops, meet_less, 10**6, "semiring elements"
    )
    return values, witnesses, index, right, (square(meets, meets), square(muls, swapped))


def reference_lattice_algebra(pt, dfa, cols, budget):
    """{1, letters, ⊤, ⊥} on the columns cols closed under letter quotients, ∧ and ∨.
    Returns reference_close's result, its pair tables squared into (meet, join) tables."""
    letter_maps = [tuple(quotient_bits(pt, x, a) for x in cols) for a in dfa.alphabet]
    seeds = [(cols, terms.lattice_form([[""]]))]
    seeds += [(m, terms.lattice_form([[a]])) for m, a in zip(letter_maps, dfa.alphabet)]
    seeds += [((top(pt).bits,) * len(cols), terms.TOP_FORM), ((0,) * len(cols), terms.BOT_FORM)]
    letter_ops = [
        (lambda m, a=a: tuple(quotient_bits(pt, x, a) for x in m),
         lambda w, a=a: terms.multiply_lattice_forms(w, ((a,),)))
        for a in dfa.alphabet
    ]
    pair_ops = [
        (lambda mi, mj: tuple(map(and_, mi, mj)), terms.lf_meet),
        (lambda mi, mj: tuple(map(or_, mi, mj)), terms.lf_join),
    ]
    values, witnesses, index, right, (meets, joins) = reference_close(
        seeds, letter_ops, pair_ops, lattice_less, budget, "lattice algebra elements"
    )
    return values, witnesses, index, right, (square(meets, meets), square(joins, joins))


def layered_least_forms(right):
    """Each value's least form over the ops of a one-seed closure's table, as a sorted
    tuple of op indices, found by a layered search; value 0's is ().

    Forms compare by length, then as tuples.  Layer k extends each least form of
    layer k−1 by every op numbered after its last one.  The layer is visited in
    order, so the first candidate to reach a value not reached before is its least
    form; a least k-form extends the least (k−1)-form of its prefix's value, since
    a smaller prefix would give a smaller k-form.
    """
    least = {0: ()}
    layer = [(0, ())]
    while layer:
        extended = []
        for v, form in layer:
            row = right[v]
            for t in range(form[-1] + 1 if form else 0, len(row)):
                u = row[t]
                if u not in least:
                    least[u] = longer = form + (t,)
                    extended.append((u, longer))
        layer = extended
    return [least[v] for v in range(len(right))]


def recorded_closures(closed, real=synlat.automata.close_values):
    """automata.close_values, each result's (tree, right) appended to closed."""

    def run(*args, **kwargs):
        result = real(*args, **kwargs)
        closed.append((result[3], result[2]))
        return result

    return run


def checked_least_forms(calls, module, closed, real=synlat.automata.least_forms):
    """automata.least_forms, its forms asserted equal to layered_least_forms of the table of the
    closure in closed that grew the tree; records the calling module."""

    def run(tree, generators):
        got = real(tree, generators)
        right = next(r for t, r in closed if t is tree)
        assert got == [tuple(map(generators.__getitem__, p)) for p in layered_least_forms(right)]
        calls.append(module)
        return got

    return run


def assert_engine_matches_reference(monkeypatch, dfa, pt):
    calls = []
    closed = []
    for name in ("canonical", "syntactic"):   # the automata call canonical's; the algebras syntactic's
        module = getattr(synlat, name)
        monkeypatch.setattr(module, "close_values", recorded_closures(closed))
        monkeypatch.setattr(module, "least_forms", checked_least_forms(calls, name, closed))
    synlat.build_lattice_automaton(pt, dfa)   # the meet automaton's witnesses first
    assert calls == ["canonical"] * 2
    synlat.syntactic_semiring(pt, dfa)
    assert calls[2:] == ["syntactic"]
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        try:
            build_algebra(pt, dfa, budget=LATTICE_BUDGET)
        except BudgetError:
            continue
        assert calls[-2:] == ["syntactic", "syntactic"]   # the inners, then the joins


def test_engine_matches_reference_on_a_plus_b_plus(monkeypatch):
    _, dfa, pt = build("a+b+", "ab")
    assert_engine_matches_reference(monkeypatch, dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_engine_matches_reference_on_random_corpus(monkeypatch, seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_engine_matches_reference(monkeypatch, dfa, synlat.build_profile_table(dfa))


def test_least_forms_replace_six_replayed_witnesses():
    # the one witness change from the replay: in the residual quotient of ((λ|b)ab)* the replay
    # kept six witnesses that are not least forms, each with the inner b∧ba or b∧ab where
    # λ∧bbab or λ∧babb has the same meet and sorts first; the builder gives the least forms
    _, dfa, pt = build("((%e|b)ab)*", "ab")
    alg = synlat.syntactic_lattice_algebra(pt, dfa)
    _, replayed, *_ = reference_lattice_algebra(pt, dfa, pt.residual_bits, 10**6)
    assert len(alg) == len(replayed) == 249
    assert [alg.element_of_form(e.witness) for e in alg.elements] == list(range(len(alg)))
    assert all(lattice_form_key(e.witness) <= lattice_form_key(f) for e, f in zip(alg.elements, replayed))
    differ = {
        i: (lattice_form_str(f), label) for i, (f, label) in enumerate(zip(replayed, alg.labels()))
        if lattice_form_str(f) != label
    }
    assert differ == {
        48: ("(a∧ba)∨(b∧ba)", "(λ∧bbab)∨(a∧ba)"),
        103: ("(a∧ba)∨(b∧ab)", "(λ∧babb)∨(a∧ba)"),
        113: ("bb∨(b∧ba)", "bb∨(λ∧bbab)"),
        143: ("bb∨(a∧ba)∨(b∧ba)", "bb∨(λ∧bbab)∨(a∧ba)"),
        165: ("(a∧ab)∨(a∧ba)∨(b∧ba)", "(λ∧bbab)∨(a∧ab)∨(a∧ba)"),
        196: ("bb∨(a∧ab)∨(b∧ba)", "bb∨(λ∧bbab)∨(a∧ab)"),
    }


def recorded_ops(calls):
    """op(name, fn): fn, each of its calls appended to calls as (name, *operands)."""

    def op(name, fn):
        def run(*args):
            calls.append((name, *args))
            return fn(*args)

        return run

    return op


def test_close_values_order_and_tables():
    # seeds 0 and 1, the repeated 0 dropped; row i runs the letter op, then both pair
    # ops for each j <= i, so row 2 finds 3 by its letter op before 4 = (2 + 2) % 5
    calls = []
    op = recorded_ops(calls)
    values, index, right, tree = close_values(
        [0, 1, 0], [lambda v: min(v + 1, 4)], [op("max", max), op("sum", lambda a, b: (a + b) % 5)], 10, "values"
    )
    assert values == [0, 1, 2, 3, 4]
    assert index == {v: i for i, v in enumerate(values)}
    assert right == [(1,), (2,), (3,), (4,), (4,)]
    assert tree == [(1, 0), (2, 0)]   # the letter op's finds only: 4 came from a pair op
    assert calls == [(name, i, j) for i in range(5) for j in range(i + 1) for name in ("max", "sum")]
    with pytest.raises(BudgetError, match="values exceeded budget of 4"):
        close_values([0, 1], [lambda v: min(v + 1, 4)], (), 4, "values")


def spanning_tree(right):
    """(parent, op) of values 1, 2, ...: the first cell of right, row by row, that holds each value."""
    tree = [None] * len(right)
    for i, row in enumerate(right):
        for k, j in enumerate(row):
            if tree[j] is None:
                tree[j] = (i, k)
    return tree[1:]


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.integers(0, n - 1), st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=4))))
def test_close_values_tree_is_the_first_cell_reaching_each_value_on_random_closures(closure):
    # one seed under random maps of 0..n-1: value j is first reached at tree[j - 1] of its table
    seed, maps = closure
    values, index, right, tree = close_values([seed], [m.__getitem__ for m in maps], (), 12, "values")
    assert tree == spanning_tree(right)
    assert all(right[i][k] == j and i < j for j, (i, k) in enumerate(tree, 1))


def test_number_stops_at_the_last_value_and_guards_the_values():
    # 1 closed under "· 3" and pairwise "·" mod 7 finds 1, 3, 2, 6 by rows 0 to 2's letter op,
    # 4 by 2 · 2 in row 2 and 5 by 6 · 2 in row 3; the unstopped closure goes on to row 5
    calls = []
    op = recorded_ops(calls)
    ops = [op("·3", lambda v: v * 3 % 7)], [op("·", lambda v, w: v * w % 7)]
    full, _, full_right, _ = close_values([1], *ops, 10, "units")
    assert full == [1, 3, 2, 6, 4, 5]
    unstopped = calls[:]
    for values, last, rows in [([5, 4, 6, 2, 3, 1], ("·", 6, 2), 4), ([6, 2, 1, 3], ("·3", 2), 2)]:
        calls.clear()
        order, index, right = number(values, [1], *ops, "units")
        assert order == full[:len(values)]   # a prefix of the unstopped closure
        assert index == {v: i for i, v in enumerate(order)}
        assert calls == unstopped[:len(calls)] and calls[-1] == last   # no op after the last value
        assert len(calls) < len(unstopped)
        assert right == full_right[:rows]   # the complete rows only
    message = "^the numbering closure does not reach exactly the units$"
    with pytest.raises(InconsistencyError, match=message):
        number([1, 3, 2, 6, 4, 5, 0], [1], *ops, "units")   # the closure holds too few values
    with pytest.raises(InconsistencyError, match=message):
        number([1, 3, 2, 6, 4, 0], [1], *ops, "units")   # it holds 5, foreign to them


def no_witness_op(*_):
    raise AssertionError("a witness op ran")


def test_refused_builders_run_no_witness_op(monkeypatch):
    # each budget is one short of the full closure, so the refusal comes after every seed
    _, dfa, pt = build("a+b+", "ab")
    builds = [
        lambda budget: synlat.build_meet_automaton(pt, dfa, budget).states,
        lambda budget: synlat.build_lattice_automaton(pt, dfa, budget).states,
        lambda budget: synlat.syntactic_semiring(pt, dfa, budget),
        lambda budget: synlat.syntactic_lattice_algebra(pt, dfa, budget),
        lambda budget: synlat.transition_lattice_algebra(pt, dfa, budget),
    ]
    sizes = [len(b(10**6)) for b in builds]
    assert sizes[:2] == [6, 7]   # the lattice automaton refuses after the meet states are closed
    for module in (synlat.automata, synlat.canonical, synlat.syntactic):
        monkeypatch.setattr(module, "least_forms", no_witness_op)
    for b, n in zip(builds, sizes):
        with pytest.raises(BudgetError):
            b(n - 1)


def test_transition_algebra_runs_no_automaton_witness_search(monkeypatch):
    # its columns are the lattice automaton's states, taken from the state closures alone
    _, dfa, pt = build("a+b+", "ab")
    states = synlat.build_lattice_automaton(pt, dfa).states
    monkeypatch.setattr(synlat.canonical, "least_forms", no_witness_op)
    assert synlat.transition_lattice_algebra(pt, dfa).columns == states


def test_refused_lattice_builds_compute_no_least_form(monkeypatch):
    # the least forms are computed from the closed values, so a refusal comes first
    _, dfa, pt = build("a+b+", "ab")
    monkeypatch.setattr(synlat.syntactic, "_least_lattice_forms", no_witness_op)
    for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
        with pytest.raises(BudgetError, match="^lattice algebra elements exceeded budget of 21$"):
            build_algebra(pt, dfa, 21)


LATTICE_BUILDS = [synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra]


@pytest.mark.parametrize("build_algebra", LATTICE_BUILDS)
def test_each_values_closure_refuses_one_short_of_its_count(monkeypatch, build_algebra):
    # the images, the meet values and the lattice values are closed in turn, each a subset of the
    # next; one short of a closure's count stops that closure, before any tree is read
    _, dfa, pt = build("a+b+", "ab")
    real = synlat.syntactic.close_values
    sizes = []   # the value count of each closure that returns

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        sizes.append(len(result[0]))
        return result

    monkeypatch.setattr(synlat.syntactic, "close_values", recorded)
    n = len(build_algebra(pt, dfa))
    counts = sizes[:3]
    assert counts[0] < counts[1] < counts[2] == n   # 5 < 11 < 22, and 5 < 12 < 33 for the transition algebra
    for module in (synlat.automata, synlat.syntactic):
        monkeypatch.setattr(module, "least_forms", no_witness_op)
    for closed, count in enumerate(counts):
        sizes.clear()
        with pytest.raises(BudgetError, match=f"^lattice algebra elements exceeded budget of {count - 1}$"):
            build_algebra(pt, dfa, count - 1)
        assert sizes == counts[:closed]   # the closures before it returned; it refused


def with_changed_closure(monkeypatch, closure, change):
    """syntactic.close_values, its closure-th call's values changed by change(values, index)."""
    real = synlat.syntactic.close_values
    calls = []

    def changed(*args, **kwargs):
        values, index, right, tree = real(*args, **kwargs)
        if len(calls) == closure:
            change(values, index)
        calls.append(args)
        return values, index, right, tree

    monkeypatch.setattr(synlat.syntactic, "close_values", changed)


def one_more(values, index):
    index[-1] = len(values)
    values.append(-1)   # no packed value is negative


def one_fewer(values, index):
    del index[values.pop()]


@pytest.mark.parametrize("build_algebra", LATTICE_BUILDS)
@pytest.mark.parametrize("closure,change", [(2, one_more), (1, one_fewer)], ids=["more", "fewer"])
def test_a_wrong_value_count_is_an_inconsistency(monkeypatch, build_algebra, closure, change):
    # one value too many among the lattice values (the third closure) leaves the numbering closure
    # short of their count; one meet value too few (the second) makes the count too small, and the
    # numbering closure stops holding a value outside them
    _, dfa, pt = build("a+b+", "ab")
    with_changed_closure(monkeypatch, closure, change)
    with pytest.raises(InconsistencyError, match="^the numbering closure does not reach exactly the lattice algebra"):
        build_algebra(pt, dfa)


def test_a_wrong_value_count_exits_4(monkeypatch, capsys):
    with_changed_closure(monkeypatch, 2, one_more)
    code = main(["algebra", "--level", "lattice", "--regex", "a+b+", "--alphabet", "ab"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_INCONSISTENT, "")
    assert err == "internal inconsistency: the numbering closure does not reach exactly the lattice algebra elements\n"


def forbid_tables_and_witnesses(monkeypatch):
    """Make every letter quotient and tree read raise, in each module the builders reach them through."""

    def built(*_):
        raise AssertionError("a letter quotient, table or witness was built")

    for module in (synlat.atoms, synlat.automata, synlat.syntactic):
        for name in ("quotient_bits", "tree_words", "least_forms"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, built)


@pytest.mark.parametrize("budget", [5, 43])
def test_refused_semiring_builds_no_table_or_witness(monkeypatch, budget):
    # the 44-element semiring of a 15-element monoid: 5 stops the monoid's closure, 43 the values'
    _, dfa, pt = build("(a|b)*a(a|b)(a|b)", "ab")
    forbid_tables_and_witnesses(monkeypatch)
    with pytest.raises(BudgetError, match=f"^semiring elements exceeded budget of {budget}$"):
        synlat.syntactic_semiring(pt, dfa, budget)


@pytest.mark.parametrize("budget", [4, 10, 21])
def test_refused_residual_lattice_build_evaluates_no_letter_quotient(monkeypatch, budget):
    # one short of the 5 images, the 11 meet values and the 22 lattice values in turn: the
    # monoid is closed as coded transformations, so nothing before the refusal takes a letter quotient
    _, dfa, pt = build("a+b+", "ab")
    forbid_tables_and_witnesses(monkeypatch)
    with pytest.raises(BudgetError, match=f"^lattice algebra elements exceeded budget of {budget}$"):
        synlat.syntactic_lattice_algebra(pt, dfa, budget)
