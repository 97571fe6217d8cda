"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9's axiom clause
checks the lattice-algebra laws on the transition lattice algebra, the
quotient by equal action on every lattice-automaton state, which is the
largest congruence inside equal action on the residuals.  The residual
quotient itself is not a lattice algebra (λ∧ab and a∧b act equally on the
residuals of a+b+ yet multiply differently on the left); the clause prints
its first violation as the obstruction.
"""

import random
import time

import synlat
from synlat import terms as tm
from synlat.atoms import residual_atoms
from synlat.canonical import build_lattice_automaton, build_meet_automaton
from synlat.oracle import oracle_enumerate_saturated, oracle_lattice_congruent, \
    oracle_monoid_congruent, oracle_semiring_congruent
from synlat.reversible import check_reversibility_identity, find_forbidden_configuration
from synlat.syntactic import check_lattice_algebra_axioms, extend_semiring_action

from conftest import build, random_lattice_form, random_regex_corpus, words_upto
from test_automata import states_by_name
from test_syntactic import LATTICE_IMAGE_TRIPLES, SEMIRING_IMAGES, named_atoms, atom_name
from test_terms import random_term


def report(number, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s < {budget:g}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def language_of_state(dfa, q, depth=7):
    return frozenset(w for w in words_upto(dfa.alphabet, depth) if synlat.accepts(dfa, w, state=q))


def test_criterion_1_canonical_automaton():
    start = time.perf_counter()
    _, dfa, _ = build("a+b+", "ab")
    ok = dfa.n_states == 4
    L, K, empty, bstar = states_by_name(dfa)
    words = words_upto("ab", 7)
    expected = {
        L: frozenset(w for w in words if w and set(w) == {"a", "b"} and "ba" not in w),
        K: frozenset(w for w in words if w.endswith("b") and "ba" not in w),
        empty: frozenset(),
        bstar: frozenset(w for w in words if set(w) <= {"b"}),
    }
    for q, lang in expected.items():
        ok = ok and language_of_state(dfa, q) == lang
    ok = ok and dfa.finals == frozenset({bstar})
    edges = {
        (L, "a", K), (L, "b", empty), (K, "a", K), (K, "b", bstar),
        (bstar, "a", empty), (bstar, "b", bstar), (empty, "a", empty), (empty, "b", empty),
    }
    got = {(q, a, dfa.step(q, a)) for q in range(4) for a in "ab"}
    ok = ok and got == edges
    report(1, ok, time.perf_counter() - start, 1.0, "canonical automaton of a+b+: 4 residuals, reference transitions")


def test_criterion_2_meet_automaton():
    start = time.perf_counter()
    _, dfa, pt = build("a+b+", "ab")
    ma = build_meet_automaton(pt, dfa)
    names = named_atoms(dfa, pt)
    ok = len(ma.states) == 6
    ok = ok and set(ma.states) == {names[k] for k in ("L", "K", "0", "b*", "b+", "A*")}
    ok = ok and {ma.states[i] for i in ma.finals} == {names["b*"], names["A*"]}
    pos = {k: ma.states.index(names[k]) for k in ("L", "K", "0", "b*", "b+", "A*")}
    expected_covers = {
        (pos["0"], pos["L"]), (pos["0"], pos["b+"]), (pos["L"], pos["K"]),
        (pos["b+"], pos["K"]), (pos["b+"], pos["b*"]), (pos["K"], pos["A*"]),
        (pos["b*"], pos["A*"]),
    }
    ok = ok and set(ma.order.covers) == expected_covers
    report(2, ok, time.perf_counter() - start, 1.0, "meet automaton adds b+ and A*, expected inclusion covers")


def test_criterion_3_lattice_automaton():
    start = time.perf_counter()
    _, dfa, pt = build("a+b+", "ab")
    la = build_lattice_automaton(pt, dfa)
    names = named_atoms(dfa, pt)
    ok = len(la.states) == 7
    ok = ok and names["Kλ"] in set(la.states)
    ok = ok and {la.states[i] for i in la.finals} == {names["b*"], names["A*"], names["Kλ"]}
    report(3, ok, time.perf_counter() - start, 1.0, "lattice automaton adds K^λ with three finals")


def test_criterion_4_syntactic_semiring():
    start = time.perf_counter()
    _, dfa, pt = build("a+b+", "ab")
    sr = synlat.syntactic_semiring(pt, dfa)
    names = named_atoms(dfa, pt)
    ok = len(sr) == 11
    by_witness = {e.witness: e for e in sr.elements}
    ok = ok and set(by_witness) == set(SEMIRING_IMAGES)
    columns = [names[c] for c in ("L", "K", "0", "b*", "A*", "b+")]
    for witness, expected in SEMIRING_IMAGES.items():
        e = by_witness[witness]
        got = tuple(atom_name(names, extend_semiring_action(pt, e.mapping, c)) for c in columns)
        ok = ok and got == expected
    # order covers keyed by witnesses
    w = {e.witness: i for i, e in enumerate(sr.elements)}
    expected_covers = {
        (w[("ba",)], w[("", "ab")]),
        (w[("", "ab")], w[("", "a")]), (w[("", "ab")], w[("", "b")]),
        (w[("", "ab")], w[("a", "ab")]), (w[("", "ab")], w[("b", "ab")]),
        (w[("", "a")], w[("",)]), (w[("", "a")], w[("a",)]),
        (w[("", "b")], w[("",)]), (w[("", "b")], w[("b",)]),
        (w[("a", "ab")], w[("a",)]), (w[("a", "ab")], w[("ab",)]),
        (w[("b", "ab")], w[("b",)]), (w[("b", "ab")], w[("ab",)]),
        (w[("",)], w[()]), (w[("a",)], w[()]), (w[("b",)], w[()]), (w[("ab",)], w[()]),
    }
    ok = ok and set(sr.order.covers) == expected_covers
    report(4, ok, time.perf_counter() - start, 1.0, "11 elements, full image table and order covers match")


def test_criterion_5_syntactic_lattice_algebra():
    start = time.perf_counter()
    _, dfa, pt = build("a+b+", "ab")
    alg = synlat.syntactic_lattice_algebra(pt, dfa)
    names = named_atoms(dfa, pt)
    L, K, _, bstar = states_by_name(dfa)
    ok = len(alg) == 22
    triples = {
        tuple(atom_name(names, e.mapping[q]) for q in (L, K, bstar)) for e in alg.elements
    }
    ok = ok and triples == LATTICE_IMAGE_TRIPLES
    el = lambda *inners: alg.element_of_form(synlat.lattice_form(inners))
    join = alg.join_table
    ok = ok and el([""]) == join[el(["", "a"])][el(["", "b"])]
    ok = ok and el(["a"]) == join[el(["", "a"])][el(["a", "ab"])]
    ok = ok and el(["b"]) == join[el(["", "b"])][el(["b", "ab"])]
    f1, f2 = synlat.lattice_form([["", "ab"]]), synlat.lattice_form([["a", "b"]])
    ok = ok and alg.element_of_form(f1) == alg.element_of_form(f2)
    ok = ok and synlat.eval_lattice_form(pt, names["Kλ"], f1) == names["b*"]
    ok = ok and synlat.eval_lattice_form(pt, names["Kλ"], f2) == names["b+"]
    report(5, ok, time.perf_counter() - start, 5.0, "22 elements, reference image triples, identities hold")


def test_criterion_6_example_regression():
    start = time.perf_counter()
    pt, x = tm.finite_language_context(["aa", "bb"], "ab")
    lhs = synlat.eval_term(pt, x, synlat.parse_term("a(avb) ^ b(avb)", "ab"))
    rhs = synlat.eval_term(pt, x, synlat.parse_term("(a^b)(avb)", "ab"))
    ok = synlat.contains_lambda(pt, lhs) and rhs == synlat.bottom(pt) and lhs != rhs
    report(6, ok, time.perf_counter() - start, 1.0, "L={aa,bb}: λ ∈ L∘(a(a∨b)∧b(a∨b)), L∘((a∧b)(a∨b)) = ∅")


def test_criterion_7_reversibility_equivalence():
    start = time.perf_counter()
    quadruple_budget = 1_000_000
    graded = disagreements = reversible_count = 0
    rng_seed = 424242
    batch = 0
    while graded < 200:
        batch += 1
        for ast in random_regex_corpus(seed=rng_seed + batch, count=60):
            try:
                dfa = synlat.compile_canonical_dfa(ast, state_budget=512)
                monoid = synlat.syntactic_monoid(dfa, budget=4096)
                pt = synlat.build_profile_table(dfa, budget=4096)
                ic = check_reversibility_identity(monoid, pt, dfa, quadruple_budget)
            except synlat.BudgetError:
                continue
            fw = find_forbidden_configuration(dfa, monoid)
            if (fw is None) != (ic is None):
                disagreements += 1
            if fw is None:
                reversible_count += 1
            graded += 1
            if graded >= 200:
                break
    _, dab, _ = build("a+b+", "ab")
    _, dstar, _ = build("a*", "ab")
    _, dempty, _ = build("%0", "a")
    ok = disagreements == 0
    ok = ok and not synlat.is_reversible(dab).reversible
    ok = ok and synlat.is_reversible(dstar).reversible
    ok = ok and synlat.is_reversible(dempty).reversible
    detail = f"{graded} regexes, {reversible_count} reversible, {disagreements} disagreements"
    report(7, ok, time.perf_counter() - start, 300.0, detail)


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(8675309)
    graded = 0
    ok = True
    batch = 0
    while graded < 30 and ok:
        batch += 1
        for ast in random_regex_corpus(seed=31337 + batch, count=20, max_nodes=6):
            try:
                dfa = synlat.compile_canonical_dfa(ast, state_budget=64)
                pt = synlat.build_profile_table(dfa, budget=4096)
                monoid = synlat.syntactic_monoid(dfa, budget=512)
                if len(monoid) > 12:
                    continue
                semiring = synlat.syntactic_semiring(pt, dfa, budget=4096)
                if len(semiring) > 24:
                    continue
                algebra = synlat.syntactic_lattice_algebra(pt, dfa, budget=4096, with_tables=False)
                sat_m, _ = oracle_enumerate_saturated(pt, dfa, "monoid")
                sat_s, _ = oracle_enumerate_saturated(pt, dfa, "semiring")
                sat_l, _ = oracle_enumerate_saturated(pt, dfa, "lattice")
            except synlat.BudgetError:
                continue
            ok = ok and sat_m == frozenset(e.mapping for e in monoid.elements)
            ok = ok and sat_s == frozenset(e.mapping for e in semiring.elements)
            ok = ok and sat_l == frozenset(e.mapping for e in algebra.elements)
            ok = ok and len(monoid) <= len(semiring) <= len(algebra)
            # congruence oracles agree with engine element-map equality
            n = dfa.n_states
            alphabet = dfa.alphabet
            for _ in range(10):
                w1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
                w2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
                engine_eq = tuple(synlat.run(dfa, q, w1) for q in range(n)) == tuple(
                    synlat.run(dfa, q, w2) for q in range(n)
                )
                ok = ok and oracle_monoid_congruent(pt, dfa, w1, w2) == engine_eq
                f1 = random_lattice_form(rng, alphabet, max_len=2)
                f2 = random_lattice_form(rng, alphabet, max_len=2)
                maps = [
                    tuple(synlat.eval_lattice_form(pt, residual_atoms(pt, q), f) for q in range(n))
                    for f in (f1, f2)
                ]
                ok = ok and oracle_lattice_congruent(pt, dfa, f1, f2) == (maps[0] == maps[1])
                u1, u2 = (tuple(fi[0]) if fi else () for fi in (f1, f2))
                sem = [
                    tuple(synlat.eval_meet_form(pt, residual_atoms(pt, q), u) for q in range(n))
                    for u in (u1, u2)
                ]
                ok = ok and oracle_semiring_congruent(pt, dfa, u1, u2) == (sem[0] == sem[1])
            graded += 1
            if graded >= 30 or not ok:
                break
    report(8, ok, time.perf_counter() - start, 600.0, f"{graded} regexes at all three levels")


def test_criterion_9_free_structure_properties():
    start = time.perf_counter()
    rng = random.Random(99)

    # 9a: normalization soundness on lattice-automaton states of random regexes
    sound = True
    for ast in random_regex_corpus(seed=1717, count=10, max_alphabet=2):
        dfa = synlat.compile_canonical_dfa(ast)
        pt = synlat.build_profile_table(dfa)
        la = build_lattice_automaton(pt, dfa)
        for _ in range(20):
            t = random_term(rng, ast.alphabet)
            f = synlat.normalize_lattice(t)
            embedded = tm.embed_lattice_form(f)
            for x in la.states:
                sound = sound and synlat.eval_term(pt, x, t) == synlat.eval_term(pt, x, embedded)
    print(f"ACCEPTANCE 9a (normalization soundness): {'PASS' if sound else 'FAIL'}")

    # 9b: separation completeness on random canonical forms
    complete = True
    checked = 0
    while checked < 120:
        f1 = random_lattice_form(rng, "ab")
        f2 = random_lattice_form(rng, "ab")
        if f1 == f2:
            continue
        lang = synlat.separating_language(f1, f2)
        complete = complete and (
            synlat.lambda_in_action(lang, "ab", f1) != synlat.lambda_in_action(lang, "ab", f2)
        )
        checked += 1
    print(f"ACCEPTANCE 9b (separation completeness): {'PASS' if complete else 'FAIL'}")

    # 9c: axiom validator on the transition lattice algebra of every
    # language of the corpus.  The residual quotient of the same language is
    # checked too, and its first violation printed: equal action on the
    # residuals is not a congruence, so that quotient is not lawful.
    axioms_ok = True
    first_violation = None
    obstruction = None

    def check(pt, dfa, residual_quotient):
        nonlocal axioms_ok, first_violation, obstruction
        rep = check_lattice_algebra_axioms(residual_quotient)
        if not rep.ok and obstruction is None:
            obstruction = rep.violations[0].describe(residual_quotient)
        alg = synlat.transition_lattice_algebra(pt, dfa)
        rep = check_lattice_algebra_axioms(alg)
        if not rep.ok and first_violation is None:
            first_violation = rep.violations[0].describe(alg)
        axioms_ok = axioms_ok and rep.ok

    corpus = [("a+b+", "ab")]
    built = 0
    batch = 0
    while built < 10:
        batch += 1
        for ast in random_regex_corpus(seed=5150 + batch, count=20, max_nodes=6):
            try:
                dfa = synlat.compile_canonical_dfa(ast, state_budget=64)
                pt = synlat.build_profile_table(dfa, budget=2048)
                alg = synlat.syntactic_lattice_algebra(pt, dfa, budget=2048)
                if len(alg) > 40:
                    continue
            except synlat.BudgetError:
                continue
            check(pt, dfa, alg)
            built += 1
            if built >= 10:
                break
    for pattern, alphabet in corpus:
        _, dfa, pt = build(pattern, alphabet)
        check(pt, dfa, synlat.syntactic_lattice_algebra(pt, dfa))
    status = "PASS" if axioms_ok else "FAIL"
    print(f"ACCEPTANCE 9c (lattice-algebra axioms, transition lattice algebra): {status}")
    if not axioms_ok:
        print(f"  first violation: {first_violation}")
    if obstruction is not None:
        print(f"  residual quotient obstruction: {obstruction}")
        print("  cause: equal action on the residuals is not compatible with multiplication;")
        print("  forms acting alike on every residual can act differently on other lattice-automaton states")

    report(9, sound and complete and axioms_ok, time.perf_counter() - start, 300.0)
