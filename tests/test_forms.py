"""Interned witness forms against the tuple-of-strings reference normalizers.

Every witness closure runs on terms.FormInterner ids.  Each test here
rebuilds the closure through canonical.close with the reference ops
(terms.mf_meet, mf_mul, lf_meet, lf_join, multiply_lattice_forms, ordered
by meet_form_key and lattice_form_key) and asserts the same values in the same
order, the same witnesses and the same op tables.
"""

import random
from operator import and_, or_

import pytest

import synlat
from synlat import terms
from synlat.atoms import quotient_bits, top
from synlat.automata import access_words
from synlat.canonical import close
from synlat.syntactic import _square, semiring_action_bits

from conftest import build, random_lattice_form, random_regex_corpus

LATTICE_BUDGET = 200   # larger lattice quotients are skipped: their reference closures take seconds each


def meet_less(x, y):
    return terms.meet_form_key(x) < terms.meet_form_key(y)


def lattice_less(x, y):
    return terms.lattice_form_key(x) < terms.lattice_form_key(y)


def reference_meet_automaton(pt, dfa):
    seeds = [(bits, terms.meet_form([w])) for bits, w in zip(pt.residual_bits, access_words(dfa))]
    seeds.append((top(pt).bits, terms.meet_form([])))
    values, witnesses, *_ = close(seeds, (), [(and_, terms.mf_meet)], meet_less, 10**6, "states")
    return values, witnesses


def reference_lattice_automaton(pt, ma):
    seeds = [(v.bits, terms.lattice_form([w])) for v, w in zip(ma.states, ma.witnesses)]
    seeds.append((0, terms.lattice_form([])))
    values, witnesses, *_ = close(seeds, (), [(or_, terms.lf_join)], lattice_less, 10**6, "states")
    return values, witnesses


def reference_semiring(pt, dfa):
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
    values, witnesses, _, _, (meets, muls, swapped) = close(
        seeds, (), pair_ops, meet_less, 10**6, "semiring elements"
    )
    return values, witnesses, _square(meets, meets), _square(muls, swapped)


def reference_lattice_algebra(pt, dfa, cols, budget):
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
    values, witnesses, _, _, (meets, joins) = close(
        seeds, letter_ops, pair_ops, lattice_less, budget, "lattice algebra elements"
    )
    return values, witnesses, _square(meets, meets), _square(joins, joins)


def bit_maps(elements):
    return [tuple(x.bits for x in e.mapping) for e in elements]


def assert_interned_witnesses_match_reference(dfa, pt):
    ma = synlat.build_meet_automaton(pt, dfa)
    assert ([s.bits for s in ma.states], list(ma.witnesses)) == reference_meet_automaton(pt, dfa)

    la = synlat.build_lattice_automaton(pt, dfa)
    assert ([s.bits for s in la.states], list(la.witnesses)) == reference_lattice_automaton(pt, ma)

    sr = synlat.syntactic_semiring(pt, dfa)
    values, witnesses, meet_table, mul_table = reference_semiring(pt, dfa)
    assert bit_maps(sr.elements) == values
    assert [e.witness for e in sr.elements] == witnesses
    assert (sr.meet_table, sr.mul_table) == (meet_table, mul_table)

    quotients = [
        (synlat.syntactic_lattice_algebra, pt.residual_bits),
        (synlat.transition_lattice_algebra, tuple(s.bits for s in la.states)),
    ]
    for build_algebra, cols in quotients:
        try:
            alg = build_algebra(pt, dfa, budget=LATTICE_BUDGET)
        except synlat.BudgetError:
            continue
        values, witnesses, meet_table, join_table = reference_lattice_algebra(pt, dfa, cols, LATTICE_BUDGET)
        assert bit_maps(alg.elements) == values
        assert [e.witness for e in alg.elements] == witnesses
        assert (alg.meet_table, alg.join_table) == (meet_table, join_table)


def test_interned_witnesses_of_a_plus_b_plus():
    _, dfa, pt = build("a+b+", "ab")
    assert_interned_witnesses_match_reference(dfa, pt)


@pytest.mark.parametrize("seed", range(1, 6))
def test_interned_witnesses_on_random_corpus(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        assert_interned_witnesses_match_reference(dfa, synlat.build_profile_table(dfa))


def test_interner_ops_match_reference_normalizers():
    forms = terms.FormInterner()
    rng = random.Random(7)
    specials = [terms.TOP_FORM, terms.BOT_FORM]
    ties = meet_ties = 0
    for _ in range(400):
        f, g = (rng.choice(specials) if rng.random() < 0.15 else random_lattice_form(rng, "ab") for _ in "fg")
        fi, gi = forms.lattice(f), forms.lattice(g)
        assert forms.lattice_form(fi) == f
        for x, y, xi, yi in ((f, g, fi, gi), (g, f, gi, fi), (f, f, fi, fi)):
            assert forms.lattice_form(forms.lf_meet(xi, yi)) == terms.lf_meet(x, y)
            assert forms.lattice_form(forms.lf_join(xi, yi)) == terms.lf_join(x, y)
            rx, ry = terms.lattice_form_key(x), terms.lattice_form_key(y)
            assert (forms.lattice_less(xi, yi), forms.lattice_less(yi, xi)) == (rx < ry, ry < rx)
        ties += len(f) == len(g) and f != g
        for a in "ab":
            assert forms.lattice_form(forms.lf_mul_letter(fi, a)) == terms.multiply_lattice_forms(f, ((a,),))
        for u, v in zip(f, g):
            ui, vi = forms.meet_form(u), forms.meet_form(v)
            assert forms.words_of(ui) == u
            assert forms.words_of(forms.mf_meet(ui, vi)) == terms.mf_meet(u, v)
            assert forms.words_of(forms.mf_mul(ui, vi)) == terms.mf_mul(u, v)
            for x, y, xi, yi in ((u, v, ui, vi), (v, u, vi, ui), (u, u, ui, ui)):
                rx, ry = terms.meet_form_key(x), terms.meet_form_key(y)
                assert (forms.meet_less(xi, yi), forms.meet_less(yi, xi)) == (rx < ry, ry < rx)
            meet_ties += len(u) == len(v) and u != v
            assert forms.keys[forms.inner(u)] == terms.meet_form_key(u)
    assert ties > 50   # lattice_less's tie path, equal inner-set counts, was compared
    assert meet_ties > 50   # and meet_less's one, equal word counts
    masks = forms.masks
    for u, mu in enumerate(masks):
        brute = sum(1 << v for v, mv in enumerate(masks) if mu & mv == mu and mu != mv)
        assert forms.sup[u] == brute
