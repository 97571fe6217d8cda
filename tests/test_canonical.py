import random

import pytest
from hypothesis import given, strategies as st

import synlat
from synlat.automata import Dfa
from synlat.canonical import _meet_states, build_lattice_automaton, build_meet_automaton, hasse
from synlat.terms import meet_form_key

from conftest import build, random_ast, random_regex_corpus
from test_automata import states_by_name

ORDER_BUDGET = 600   # skips only the lattice quotients over 2,000 elements, whose builds take 30 s and more


def reference_atoms(pt, dfa):
    """Named AtomSets of the a+b+ construction."""
    L, K, empty, bstar = states_by_name(dfa)
    aL, aK, aE, aB = (synlat.residual_atoms(pt, q) for q in (L, K, empty, bstar))
    return {
        "L": aL, "K": aK, "empty": aE, "bstar": aB,
        "bplus": synlat.meet(aK, aB),
        "Klam": synlat.join(aK, aB),
        "top": synlat.top(pt),
    }


def test_meet_automaton_of_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    ma = build_meet_automaton(pt, dfa)
    ra = reference_atoms(pt, dfa)
    expected = {ra[k] for k in ("L", "K", "empty", "bstar", "bplus", "top")}
    assert set(ma.states) == expected
    assert len(ma.states) == 6
    finals = {ma.states[i] for i in ma.finals}
    assert finals == {ra["bstar"], ra["top"]}
    assert ma.states[ma.initial] == ra["L"]


def test_meet_automaton_inclusion_covers():
    _, dfa, pt = build("a+b+", "ab")
    ma = build_meet_automaton(pt, dfa)
    ra = reference_atoms(pt, dfa)
    pos = {name: ma.states.index(ra[name]) for name in ("L", "K", "empty", "bstar", "bplus", "top")}
    expected = {
        (pos["empty"], pos["L"]), (pos["empty"], pos["bplus"]),
        (pos["L"], pos["K"]), (pos["bplus"], pos["K"]), (pos["bplus"], pos["bstar"]),
        (pos["K"], pos["top"]), (pos["bstar"], pos["top"]),
    }
    assert set(ma.order.covers) == expected


def test_meet_automaton_transitions_follow_quotients():
    _, dfa, pt = build("a+b+", "ab")
    ma = build_meet_automaton(pt, dfa)
    ra = reference_atoms(pt, dfa)
    bplus = ma.states.index(ra["bplus"])
    # the b+ state steps to ∅ on a and to b* on b
    assert ma.states[ma.delta[bplus][0]] == ra["empty"]
    assert ma.states[ma.delta[bplus][1]] == ra["bstar"]


def test_meet_automaton_of_empty_language():
    _, dfa, pt = build("%0", "a")
    ma = build_meet_automaton(pt, dfa)
    assert len(ma.states) == 2
    assert set(ma.states) == {synlat.bottom(pt), synlat.top(pt)}


def subset_meet_oracle(pt, dfa):
    """Meets of all residual subsets (empty subset included), deduplicated."""
    from itertools import combinations

    residuals = [synlat.residual_atoms(pt, q) for q in range(dfa.n_states)]
    out = {synlat.top(pt)}
    for k in range(1, len(residuals) + 1):
        for combo in combinations(residuals, k):
            acc = combo[0]
            for x in combo[1:]:
                acc = synlat.meet(acc, x)
            out.add(acc)
    return out


@pytest.mark.parametrize("pattern,alphabet", [("a*", "ab"), ("a+b+", "ab"), ("(ab)*", "ab")])
def test_meet_states_equal_subset_meet_enumeration(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    ma = build_meet_automaton(pt, dfa)
    assert set(ma.states) == subset_meet_oracle(pt, dfa)


def test_lattice_automaton_of_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    la = build_lattice_automaton(pt, dfa)
    ra = reference_atoms(pt, dfa)
    assert len(la.states) == 7
    assert set(la.states) == {ra[k] for k in ra}
    finals = {la.states[i] for i in la.finals}
    assert finals == {ra["bstar"], ra["top"], ra["Klam"]}


def test_lattice_automaton_inclusion_covers():
    _, dfa, pt = build("a+b+", "ab")
    la = build_lattice_automaton(pt, dfa)
    ra = reference_atoms(pt, dfa)
    pos = {name: la.states.index(ra[name]) for name in ra}
    expected = {
        (pos["empty"], pos["L"]), (pos["empty"], pos["bplus"]),
        (pos["L"], pos["K"]), (pos["bplus"], pos["K"]), (pos["bplus"], pos["bstar"]),
        (pos["K"], pos["Klam"]), (pos["bstar"], pos["Klam"]), (pos["Klam"], pos["top"]),
    }
    assert set(la.order.covers) == expected


def test_lattice_automaton_klam_transitions():
    # K^λ steps to K on a and to b* on b
    _, dfa, pt = build("a+b+", "ab")
    la = build_lattice_automaton(pt, dfa)
    ra = reference_atoms(pt, dfa)
    klam = la.states.index(ra["Klam"])
    assert la.states[la.delta[klam][0]] == ra["K"]
    assert la.states[la.delta[klam][1]] == ra["bstar"]


def test_lattice_automaton_of_empty_language():
    _, dfa, pt = build("%0", "a")
    la = build_lattice_automaton(pt, dfa)
    assert len(la.states) == 2


def test_hasse_chain_and_antichain():
    _, dfa, pt = build("a+b+", "ab")
    ra = reference_atoms(pt, dfa)
    chain = [synlat.bottom(pt), ra["bplus"], ra["bstar"]]
    assert hasse(chain).covers == ((0, 1), (1, 2))
    anti = [ra["L"], ra["bstar"]]
    assert hasse(anti).covers == ()
    with pytest.raises(ValueError):
        hasse([ra["L"], ra["L"]])
    _, _, other = build("a*", "ab")
    with pytest.raises(ValueError, match="^AtomSets belong to different profile tables$"):
        hasse([ra["L"], synlat.residual_atoms(other, 0)])


def brute_force_covers(n, le):
    """Cover pairs of the order le: i below j with nothing strictly between, by i, then j."""
    above = [{j for j in range(n) if j != i and le(i, j)} for i in range(n)]
    below = [{i for i in range(n) if i != j and le(i, j)} for j in range(n)]
    return tuple((i, j) for i in range(n) for j in sorted(above[i]) if not above[i] & below[j])


@pytest.mark.parametrize("seed", range(1, 4))
def test_orders_match_brute_force_reduction(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        pt = synlat.build_profile_table(dfa)
        for aut in (build_meet_automaton(pt, dfa), build_lattice_automaton(pt, dfa)):
            bits = [s.bits for s in aut.states]
            assert aut.order.covers == brute_force_covers(len(bits), lambda i, j: bits[i] | bits[j] == bits[j])
        algebras = [synlat.syntactic_semiring(pt, dfa)]
        for build_algebra in (synlat.syntactic_lattice_algebra, synlat.transition_lattice_algebra):
            try:
                algebras.append(build_algebra(pt, dfa, budget=ORDER_BUDGET))
            except synlat.BudgetError:
                pass
        for alg in algebras:
            meet = alg.meet_table
            assert alg.order.covers == brute_force_covers(len(meet), lambda i, j: meet[i][j] == i)


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("a*", "ab"), ("a(b|c)*", "abc"), ("(a|bb)*", "ab")])
def test_closure_totality_finals_and_sizes(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    ma = build_meet_automaton(pt, dfa)
    la = build_lattice_automaton(pt, dfa)
    mstates, lstates = set(ma.states), set(la.states)
    # meet/join closure
    for x in ma.states:
        for y in ma.states:
            assert synlat.meet(x, y) in mstates
    for x in la.states:
        for y in la.states:
            assert synlat.join(x, y) in lstates
            assert synlat.meet(x, y) in lstates
    # transition totality via the stored delta plus quotient agreement
    for aut in (ma, la):
        states = set(aut.states)
        for i, x in enumerate(aut.states):
            for li, a in enumerate(alphabet):
                img = synlat.quotient_letter(pt, x, a)
                assert img in states
                assert aut.states[aut.delta[i][li]] == img
    # final-state law
    for aut in (ma, la):
        for i, x in enumerate(aut.states):
            assert (i in aut.finals) == synlat.contains_lambda(pt, x)
    # size chain
    assert dfa.n_states <= len(ma.states) <= len(la.states)


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("(a|bb)*", "ab"), ("a?b", "ab")])
def test_lattice_automaton_accepts_the_language(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    la = build_lattice_automaton(pt, dfa)
    as_dfa = Dfa(
        tuple(alphabet),
        la.delta,
        la.initial,
        frozenset(la.finals),
    )
    assert synlat.equivalent(as_dfa, dfa)


def test_meet_automaton_refuses_the_profile_table_of_another_dfa():
    _, dfa, _ = build("a+b+", "ab")
    _, _, other = build("a*", "ab")
    with pytest.raises(ValueError, match="^profile table was built from a different DFA$"):
        build_meet_automaton(other, dfa)


def test_meet_automaton_budget():
    _, dfa, pt = build("a+b+", "ab")
    with pytest.raises(synlat.BudgetError):
        build_meet_automaton(pt, dfa, budget=3)


def assert_meet_closure_ranks_the_witnesses(dfa, pt):
    """The lattice automaton takes the meet states as its generators in the order of the closure
    of ⊤ under "∧ residual", unsorted: that is the meet_form_key order of their witnesses."""
    ma = build_meet_automaton(pt, dfa)
    _, (meets, _, _, _), _ = _meet_states(pt, dfa, len(ma.states))
    witness = {s.bits: w for s, w in zip(ma.states, ma.witnesses)}
    keys = [meet_form_key(witness[v]) for v in meets]
    assert len(keys) == len(witness)
    assert all(k < later for k, later in zip(keys, keys[1:]))


def test_meet_closure_ranks_the_witnesses_of_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    assert_meet_closure_ranks_the_witnesses(dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_meet_closure_ranks_the_witnesses_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_meet_closure_ranks_the_witnesses(dfa, synlat.build_profile_table(dfa))


@given(st.integers(min_value=0), st.sampled_from(["ab", "ba", "abc", "cba"]))
def test_meet_closure_ranks_the_witnesses_on_random_languages(seed, alphabet):
    # witness words compare by (length, string), which is not the order of a reversed alphabet
    dfa = synlat.compile_canonical_dfa(random_ast(random.Random(seed), alphabet, max_nodes=10))
    assert_meet_closure_ranks_the_witnesses(dfa, synlat.build_profile_table(dfa))
