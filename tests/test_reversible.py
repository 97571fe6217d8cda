import pytest

import synlat
from synlat.errors import BudgetError
from synlat.oracle import oracle_identity_counterexample
from synlat.reversible import (
    DEFAULT_QUADRUPLE_BUDGET,
    _omega_powers,
    check_reversibility_identity,
    evaluate_identity_sides,
    find_forbidden_configuration,
    identity_counterexample_from_configuration,
    is_reversible,
)
from synlat.syntactic import IntRows

from conftest import build, random_regex_corpus
from test_automata import states_by_name
from test_syntactic import dihedral_dfa


def test_forbidden_configuration_of_a_plus_b_plus():
    _, dfa, _ = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    fw = find_forbidden_configuration(dfa)
    assert fw is not None
    assert (fw.f, fw.g, fw.h, fw.x, fw.y) == (L, K, bstar, "a", "b")
    # the witness satisfies its own invariants
    assert fw.f != fw.g and fw.g != fw.h
    assert synlat.run(dfa, fw.f, fw.x) == fw.g == synlat.run(dfa, fw.g, fw.x)
    assert synlat.run(dfa, fw.g, fw.y) == fw.h


def test_no_forbidden_configuration_for_a_star():
    _, dfa, _ = build("a*", "ab")
    assert find_forbidden_configuration(dfa) is None


def test_no_forbidden_configuration_single_state():
    _, dfa, _ = build("%0", "a")
    assert find_forbidden_configuration(dfa) is None


def test_identity_check_finds_counterexample_for_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    m = synlat.syntactic_monoid(dfa)
    ic = check_reversibility_identity(m, pt, dfa)
    assert ic is not None
    assert ic.lhs != ic.rhs
    lhs, rhs = evaluate_identity_sides(pt, dfa, m, ic.p, ic.u, ic.v, ic.w, ic.state)
    assert (lhs, rhs) == (ic.lhs, ic.rhs)


def test_identity_check_none_for_a_star():
    _, dfa, pt = build("a*", "ab")
    m = synlat.syntactic_monoid(dfa)
    assert check_reversibility_identity(m, pt, dfa) is None


def test_identity_sides_equal_when_z_equals_t():
    _, dfa, pt = build("a+b+", "ab")
    m = synlat.syntactic_monoid(dfa)
    for p in ("a", "b", "ab"):
        for u in ("", "a"):
            for v in ("b", "ab"):
                for q in range(dfa.n_states):
                    lhs, rhs = evaluate_identity_sides(pt, dfa, m, p, u, v, v, q)
                    assert lhs == rhs


def test_identity_quantification_soundness():
    # replacing words by other representatives of the same class keeps verdicts
    _, dfa, pt = build("a+b+", "ab")
    m = synlat.syntactic_monoid(dfa)
    pairs = [("a", "aa"), ("b", "bbb"), ("ab", "aabb"), ("ba", "baba")]
    for w1, w2 in pairs:
        assert m.element_of_word(w1) == m.element_of_word(w2)
    for q in range(dfa.n_states):
        base = evaluate_identity_sides(pt, dfa, m, "a", "", "b", "ab", q)
        swapped = evaluate_identity_sides(pt, dfa, m, "aa", "", "bbb", "aabb", q)
        assert (base[0] == base[1]) == (swapped[0] == swapped[1])


def test_is_reversible_examples():
    _, dfa, _ = build("a+b+", "ab")
    report = is_reversible(dfa)
    assert not report.reversible
    assert report.forbidden is not None and report.identity_counterexample is not None
    _, dstar, _ = build("a*", "ab")
    report = is_reversible(dstar)
    assert report.reversible
    assert report.forbidden is None and report.identity_counterexample is None
    _, dempty, _ = build("%0", "a")
    assert is_reversible(dempty).reversible


def test_is_reversible_lambda_language():
    # L = {λ}: the only merge target is the sink, which nothing escapes
    _, dfa, _ = build("%e", "a")
    assert dfa.n_states == 2
    report = is_reversible(dfa)
    assert report.reversible


def test_case_construction_from_witness():
    _, dfa, pt = build("a+b+", "ab")
    m = synlat.syntactic_monoid(dfa)
    fw = find_forbidden_configuration(dfa, m)
    ic = identity_counterexample_from_configuration(pt, dfa, m, fw)
    assert ic.state == fw.f
    assert ic.lhs != ic.rhs
    # case IV here: s = b separates L from K, r = λ separates K from b*
    assert (ic.p, ic.u, ic.v, ic.w) == ("a", "", "b", "ab")


def test_case_construction_when_s_is_accepted_from_f_and_r_is_not_from_g():
    # (a*b)*: f = h = 0 is final and g = 1 is not, so s = r = λ separate them; s is accepted
    # from f and r is not from g, which gives u = s, v = y·r and w = s
    _, dfa, pt = build("(a*b)*", "ab")
    m = synlat.syntactic_monoid(dfa)
    fw = find_forbidden_configuration(dfa, m)
    assert (fw.f, fw.g, fw.h, fw.x, fw.y) == (0, 1, 0, "a", "b")
    assert synlat.accepts(dfa, "", fw.f) and not synlat.accepts(dfa, "", fw.g)
    ic = identity_counterexample_from_configuration(pt, dfa, m, fw)
    assert (ic.p, ic.u, ic.v, ic.w, ic.state) == ("a", "", "b", "", 0)
    assert ic.lhs != ic.rhs


def test_quadruple_budget():
    _, dfa, pt = build("a+b+", "ab")
    m = synlat.syntactic_monoid(dfa)
    with pytest.raises(BudgetError):
        check_reversibility_identity(m, pt, dfa, quadruple_budget=10)


def test_equivalence_of_methods_on_random_corpus():
    # smaller sibling of acceptance criterion 7
    reversible = irreversible = 0
    for ast in random_regex_corpus(seed=2024, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        m = synlat.syntactic_monoid(dfa)
        pt = synlat.build_profile_table(dfa)
        try:
            ic = check_reversibility_identity(m, pt, dfa, quadruple_budget=200_000)
        except BudgetError:
            continue
        fw = find_forbidden_configuration(dfa, m)
        assert (fw is None) == (ic is None), ast
        if fw is None:
            reversible += 1
        else:
            irreversible += 1
            built = identity_counterexample_from_configuration(pt, dfa, m, fw)
            assert built.lhs != built.rhs
    assert reversible and irreversible  # corpus exercises both verdicts


def test_omega_powers_from_idempotent_flags_match_omega_power():
    for ast in random_regex_corpus(seed=7, count=60):
        m = synlat.syntactic_monoid(synlat.compile_canonical_dfa(ast))
        idempotent = [synlat.omega_power(m, e) == e for e in range(len(m))]
        assert _omega_powers(m, idempotent) == [synlat.omega_power(m, e) for e in range(len(m))], ast


def test_omega_powers_on_states_past_ascii():
    # D_130: 260 elements on 130 states, coded past ASCII in the monoid's closure
    m = synlat.syntactic_monoid(dihedral_dfa(130))
    omega = [synlat.omega_power(m, e) for e in range(len(m))]
    assert set(omega) == {m.identity}   # a group's only idempotent
    assert _omega_powers(m, [e == m.identity for e in range(len(m))]) == omega


def test_identity_check_matches_brute_force_on_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    m = synlat.syntactic_monoid(dfa)
    expected = oracle_identity_counterexample(m, pt, dfa)
    assert expected is not None
    assert check_reversibility_identity(m, pt, dfa) == expected


@pytest.mark.parametrize("seed", range(1, 11))
def test_identity_check_matches_brute_force_on_random_corpus(seed):
    # the reduced check reports the n⁴ loop's first counterexample exactly
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        m = synlat.syntactic_monoid(dfa)
        if len(m) ** 4 > 200_000:
            continue
        pt = synlat.build_profile_table(dfa)
        assert check_reversibility_identity(m, pt, dfa) == oracle_identity_counterexample(m, pt, dfa), ast


def test_quadruple_budget_counts_reduced_substitutions():
    # (aab|bba)*: 35 elements, 7 idempotents, (7 + 1)·(35·34/2) = 4,760 pair steps
    _, dfa, pt = build("(aab|bba)*", "ab")
    m = synlat.syntactic_monoid(dfa)
    assert len(m) == 35
    assert len({synlat.omega_power(m, e) for e in range(len(m))}) == 7
    assert check_reversibility_identity(m, pt, dfa, quadruple_budget=4_760) is None
    with pytest.raises(BudgetError):
        check_reversibility_identity(m, pt, dfa, quadruple_budget=4_759)


def _no_rows(monkeypatch):
    def no_rows(table, *i):
        raise AssertionError("a Cayley table row was built")

    monkeypatch.setattr(IntRows, "__getitem__", no_rows)
    monkeypatch.setattr(IntRows, "__iter__", no_rows)


def test_quadruple_budget_refusal_builds_no_table_row(monkeypatch):
    # 255 elements, 129 idempotents: 130·(255·254/2) = 4,210,050 pair steps
    _, dfa, pt = build("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "ab")
    m = synlat.syntactic_monoid(dfa)
    _no_rows(monkeypatch)
    with pytest.raises(BudgetError) as exc:
        check_reversibility_identity(m, pt, dfa, quadruple_budget=1_000_000)
    assert exc.value.needed == 4_210_050
    assert str(exc.value) == "identity-check quadruples exceeded budget of 1000000 (needs 4210050)"


def _symmetric_group_dfa(q):
    """Minimal DFA of S_q acting on 0..q-1 by a transposition (a) and a q-cycle (b)."""
    gens = ((1, 0) + tuple(range(2, q)), tuple((i + 1) % q for i in range(q)))
    delta = tuple(tuple(g[s] for g in gens) for s in range(q))
    return synlat.minimize(synlat.Dfa(("a", "b"), delta, 0, frozenset({0})))


def test_s6_verdict_within_default_budget():
    # 720 elements, one idempotent: 2·(720·719/2) = 517,680 pair steps
    dfa = _symmetric_group_dfa(6)
    m = synlat.syntactic_monoid(dfa)
    assert len(m) == 720
    report = is_reversible(dfa, monoid=m)   # no budget given: the default bounds it
    assert report.reversible
    assert report.forbidden is None and report.identity_counterexample is None


def test_s7_refused_before_any_table_row(monkeypatch):
    # 5,040 elements, one idempotent: 2·(5040·5039/2) = 25,396,560 pair steps
    dfa = _symmetric_group_dfa(7)
    pt = synlat.build_profile_table(dfa)
    m = synlat.syntactic_monoid(dfa)
    assert len(m) == 5040
    _no_rows(monkeypatch)
    # a library call that gives no budget is bounded by the CLI's default
    for refuse in (lambda: check_reversibility_identity(m, pt, dfa), lambda: is_reversible(dfa, pt, m)):
        with pytest.raises(BudgetError) as exc:
            refuse()
        assert exc.value.needed == 25_396_560
        assert exc.value.limit == DEFAULT_QUADRUPLE_BUDGET
