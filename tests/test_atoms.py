import random

import pytest

import synlat
from synlat.atoms import build_profile_table, quotient_word, word_in

from conftest import build, words_upto
from test_automata import states_by_name


def brute_profiles(dfa, depth):
    """profile(w) for all |w| <= depth, as state bitmasks."""
    out = set()
    for w in words_upto(dfa.alphabet, depth):
        mask = 0
        for q in range(dfa.n_states):
            if synlat.accepts(dfa, w, state=q):
                mask |= 1 << q
        out.add(mask)
    return out


def test_profiles_of_a_plus_b_plus_match_word_enumeration():
    _, dfa, pt = build("a+b+", "ab")
    by_words = brute_profiles(dfa, 8)
    assert by_words == brute_profiles(dfa, 9)  # stabilized
    assert set(pt.profiles) == by_words
    assert pt.profiles[pt.lambda_profile] == sum(1 << q for q in dfa.finals)


def test_profiles_of_empty_language():
    _, dfa, pt = build("%0", "a")
    assert pt.n_profiles == 1
    assert pt.profiles == (0,)


def test_profiles_of_full_language():
    _, dfa, pt = build("(a|b)*", "ab")
    assert dfa.n_states == 1
    assert pt.profiles == (1,)


def test_residual_atoms_and_lambda_membership():
    _, dfa, pt = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    assert synlat.contains_lambda(pt, synlat.residual_atoms(pt, bstar))
    assert not synlat.contains_lambda(pt, synlat.residual_atoms(pt, L))
    assert synlat.contains_lambda(pt, synlat.top(pt))
    # atoms of a residual are exactly the profiles containing its state
    for q in range(dfa.n_states):
        x = synlat.residual_atoms(pt, q)
        assert x.bits == sum(1 << i for i, p in enumerate(pt.profiles) if p >> q & 1)


def lang_of(pt, x, depth=6):
    return frozenset(w for w in words_upto(pt.dfa.alphabet, depth) if word_in(pt, x, w))


def test_meet_join_match_language_operations():
    _, dfa, pt = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    aK, aB = synlat.residual_atoms(pt, K), synlat.residual_atoms(pt, bstar)
    # K ∩ b* = b+, K ∪ b* = K ∪ {λ}
    assert lang_of(pt, synlat.meet(aK, aB)) == frozenset(
        w for w in words_upto("ab", 6) if w and set(w) == {"b"}
    )
    assert lang_of(pt, synlat.join(aK, aB)) == lang_of(pt, aK) | frozenset([""]) | lang_of(pt, aB)


def test_lattice_units():
    _, dfa, pt = build("a+b+", "ab")
    for q in range(dfa.n_states):
        x = synlat.residual_atoms(pt, q)
        assert synlat.meet(x, synlat.top(pt)) == x
        assert synlat.join(x, synlat.bottom(pt)) == x


def test_quotient_letter_examples():
    _, dfa, pt = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    aL, aK, aB = (synlat.residual_atoms(pt, q) for q in (L, K, bstar))
    assert synlat.quotient_letter(pt, aL, "a") == aK
    bplus = synlat.meet(aK, aB)
    assert synlat.quotient_letter(pt, bplus, "b") == aB
    assert synlat.quotient_letter(pt, synlat.bottom(pt), "a") == synlat.bottom(pt)
    with pytest.raises(ValueError):
        synlat.quotient_letter(pt, aL, "z")


def test_leq_examples():
    _, dfa, pt = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    aL, aK, aB = (synlat.residual_atoms(pt, q) for q in (L, K, bstar))
    bplus = synlat.meet(aK, aB)
    assert synlat.leq(bplus, aB)
    assert synlat.leq(aL, aK)
    assert synlat.leq(aL, aL)
    assert not synlat.leq(aK, aB)


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("(a|bb)*", "ab"), ("a(b|c)*", "abc")])
def test_transition_coherence(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    for q in range(dfa.n_states):
        for a in alphabet:
            assert synlat.quotient_letter(pt, synlat.residual_atoms(pt, q), a) == synlat.residual_atoms(
                pt, dfa.step(q, a)
            )


def lattice_closure(pt, dfa):
    """All positive combinations of residuals (meet closure then join closure)."""
    values = [synlat.residual_atoms(pt, q) for q in range(dfa.n_states)] + [synlat.top(pt)]
    seen = {v.bits for v in values}
    i = 0
    while i < len(values):
        for j in range(i + 1):
            m = synlat.meet(values[i], values[j])
            if m.bits not in seen:
                seen.add(m.bits)
                values.append(m)
        i += 1
    if 0 not in seen:
        values.append(synlat.bottom(pt))
        seen.add(0)
    i = 0
    while i < len(values):
        for j in range(i + 1):
            m = synlat.join(values[i], values[j])
            if m.bits not in seen:
                seen.add(m.bits)
                values.append(m)
        i += 1
    return values


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("a*", "ab")])
def test_quotients_distribute_over_meet_and_join(pattern, alphabet):
    _, dfa, pt = build(pattern, alphabet)
    values = lattice_closure(pt, dfa)
    for x in values:
        for y in values:
            for a in alphabet:
                qa = lambda z: synlat.quotient_letter(pt, z, a)
                assert qa(synlat.meet(x, y)) == synlat.meet(qa(x), qa(y))
                assert qa(synlat.join(x, y)) == synlat.join(qa(x), qa(y))


def test_word_semantics_soundness():
    # membership via profiles equals direct evaluation of the residual combination
    _, dfa, pt = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    combos = [
        ("K∧b*", lambda w: synlat.accepts(dfa, w, state=K) and synlat.accepts(dfa, w, state=bstar),
         synlat.meet(synlat.residual_atoms(pt, K), synlat.residual_atoms(pt, bstar))),
        ("L∨b*", lambda w: synlat.accepts(dfa, w, state=L) or synlat.accepts(dfa, w, state=bstar),
         synlat.join(synlat.residual_atoms(pt, L), synlat.residual_atoms(pt, bstar))),
        ("(L∧K)∨b*", lambda w: (synlat.accepts(dfa, w, state=L) and synlat.accepts(dfa, w, state=K))
         or synlat.accepts(dfa, w, state=bstar),
         synlat.join(synlat.meet(synlat.residual_atoms(pt, L), synlat.residual_atoms(pt, K)),
                     synlat.residual_atoms(pt, bstar))),
    ]
    for _, direct, x in combos:
        for w in words_upto("ab", 6):
            assert word_in(pt, x, w) == direct(w)


def test_atomset_uniqueness_on_closure():
    # distinct AtomSets in the closure represent distinct languages
    _, dfa, pt = build("a+b+", "ab")
    values = lattice_closure(pt, dfa)
    langs = [lang_of(pt, v, depth=5) for v in values]
    assert len(set(langs)) == len(values)


def test_quotient_word_matches_runs():
    _, dfa, pt = build("(ab)*", "ab")
    for q in range(dfa.n_states):
        for w in words_upto("ab", 4):
            expected = synlat.residual_atoms(pt, synlat.run(dfa, q, w))
            assert quotient_word(pt, synlat.residual_atoms(pt, q), w) == expected


def test_table_mismatch_rejected():
    _, _, pt1 = build("a+b+", "ab")
    _, _, pt2 = build("a*", "ab")
    with pytest.raises(ValueError):
        synlat.meet(synlat.top(pt1), synlat.top(pt2))
    with pytest.raises(ValueError):
        synlat.quotient_letter(pt1, synlat.top(pt2), "a")


def test_profile_budget():
    _, dfa, _ = build("a+b+", "ab")
    with pytest.raises(synlat.BudgetError):
        build_profile_table(dfa, budget=2)


def test_atomset_indices_match_a_scan_of_every_profile():
    # a word of 70 letters has 72 profiles, more bits than a machine word
    _, _, pt = build("a" * 70, "a")
    rng = random.Random(0)
    for bits in [0, 1, (1 << pt.n_profiles) - 1] + [rng.getrandbits(pt.n_profiles) for _ in range(200)]:
        scan = tuple(i for i in range(pt.n_profiles) if bits >> i & 1)
        assert synlat.AtomSet(pt, bits).indices() == scan
