import random

import pytest
from hypothesis import given, strategies as st

import synlat
from synlat import terms as tm
from synlat.errors import InputError, SignatureError, TermSyntaxError

from conftest import build, random_lattice_form
from test_automata import states_by_name


def T(text, alphabet="ab"):
    return synlat.parse_term(text, alphabet)


# --- parsing ---

def test_parse_term_shapes():
    assert T("a") == tm.Sym("a")
    assert T("ab") == tm.Cat(tm.Sym("a"), tm.Sym("b"))
    assert T("a.b") == tm.Cat(tm.Sym("a"), tm.Sym("b"))
    assert T("a^b v T") == tm.Join(tm.Meet(tm.Sym("a"), tm.Sym("b")), tm.TopT())
    assert T("_") == tm.BotT()
    assert T("%e a") == tm.Cat(tm.Lam(), tm.Sym("a"))
    assert T("a(avb)") == tm.Cat(tm.Sym("a"), tm.Join(tm.Sym("a"), tm.Sym("b")))


def test_parse_term_errors():
    for bad in ["", "a^", "(a", "a)", "%x", "c"]:
        with pytest.raises(TermSyntaxError):
            T(bad)
    with pytest.raises(InputError, match="clash with term syntax"):
        synlat.parse_term("a", "av")  # reserved letter in alphabet
    # normalization and evaluation recurse on the tree, so deep terms are refused when parsed
    for deep in ["(" * 1500 + "a" + ")" * 1500, "(" * 101 + "a" + ")" * 101, "a" * 1500, "a^" * 700 + "a"]:
        with pytest.raises(TermSyntaxError, match="deep"):
            T(deep)
    _, dfa, pt = build("a+b+", "ab")
    word = T("(" * 100 + "a" * 500 + ")" * 100)
    assert synlat.normalize_monoid(word) == "a" * 500
    assert synlat.normalize_lattice(word) == (("a" * 500,),)
    assert synlat.eval_term(pt, synlat.residual_atoms(pt, dfa.initial), word) == synlat.residual_atoms(pt, 1)   # a*bb*


def test_terms_at_the_height_bound_compare_hash_and_repr():
    # a word of MAX_TERM_HEIGHT letters is a chain of that many Cats
    n = tm.MAX_TERM_HEIGHT
    a, b = T("a" * n), T("a" * n)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == repr(b) == "Cat(left=" * (n - 1) + "Sym(char='a')" + ", right=Sym(char='a'))" * (n - 1)
    other = T("a" * (n - 1) + "b")
    assert a != other and len({a, other}) == 2
    assert tm.Cat(tm.Sym("a"), tm.Sym("b")) != tm.Meet(tm.Sym("a"), tm.Sym("b"))


# --- normal forms ---

def test_normalize_monoid_unit_laws():
    assert synlat.normalize_monoid(T("(a%e)(ba)")) == "aba"
    with pytest.raises(SignatureError):
        synlat.normalize_monoid(T("a^b"))


def test_normalize_semiring_aci():
    assert synlat.normalize_semiring(T("a^(b^a)")) == ("a", "b")
    assert synlat.normalize_semiring(T("T")) == ()
    assert synlat.normalize_semiring(T("aT")) == ()  # ⊤ is the multiplicative zero
    assert synlat.normalize_semiring(T("(a^b)c", "abc")) == ("ac", "bc")
    with pytest.raises(SignatureError):
        synlat.normalize_semiring(T("avb"))


def test_normalize_lattice_removes_superfluous():
    assert synlat.normalize_lattice(T("(a^b)va")) == (("a",),)
    assert synlat.normalize_lattice(T("_")) == ()
    assert synlat.normalize_lattice(T("Tva")) == ((),)
    assert synlat.normalize_lattice(T("av(b^a)")) == (("a",),)  # {a} ⊂ {a,b} absorbs
    assert synlat.normalize_lattice(T("av(b^ab)")) == (("a",), ("b", "ab"))  # incomparable


def test_lattice_form_canonicalization():
    assert synlat.lattice_form([["b", "a"], ["a", "b", "b"]]) == (("a", "b"),)
    assert synlat.lattice_form([["a", "b"], ["a"]]) == (("a",),)
    assert synlat.lattice_form([[], ["a"]]) == ((),)


@given(
    st.lists(
        st.lists(st.text(alphabet="ab", max_size=3), min_size=0, max_size=3),
        min_size=0,
        max_size=4,
    )
)
def test_lattice_form_is_antichain_and_idempotent(inners):
    f = synlat.lattice_form(inners)
    for u in f:
        for v in f:
            if u != v:
                assert not set(u) <= set(v)
    assert synlat.lattice_form(f) == f
    assert f == tuple(sorted(f, key=tm.meet_form_key))


# --- multiplication ---

def test_multiply_examples():
    ab = synlat.lattice_form([["a"], ["b"]])
    c = synlat.lattice_form([["c"]])
    assert synlat.multiply_lattice_forms(ab, c) == (("ac",), ("bc",))
    u = synlat.lattice_form([["a", "b"]])
    cd = synlat.lattice_form([["c"], ["d"]])
    assert synlat.multiply_lattice_forms(u, cd) == (("ac", "bc"), ("ad", "bd"))
    top = tm.TOP_FORM
    assert synlat.multiply_lattice_forms(top, synlat.lattice_form([["a"]])) == top


def test_multiply_zero_laws():
    a = synlat.lattice_form([["a"]])
    assert synlat.multiply_lattice_forms(a, tm.TOP_FORM) == tm.TOP_FORM
    assert synlat.multiply_lattice_forms(a, tm.BOT_FORM) == tm.BOT_FORM
    assert synlat.multiply_lattice_forms(tm.BOT_FORM, a) == tm.BOT_FORM
    assert synlat.multiply_lattice_forms(tm.TOP_FORM, a) == tm.TOP_FORM
    # ⊥·⊤ = ⊤ and ⊤·⊥ = ⊥: the right factor wins
    assert synlat.multiply_lattice_forms(tm.BOT_FORM, tm.TOP_FORM) == tm.TOP_FORM
    assert synlat.multiply_lattice_forms(tm.TOP_FORM, tm.BOT_FORM) == tm.BOT_FORM


def random_finite_language(rng, alphabet="ab", max_words=4, max_len=3):
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(rng.randint(0, max_words))
    ]


def test_multiply_agrees_with_sequential_evaluation():
    # x∘(f·g) == (x∘f)∘g on 20 random finite languages
    rng = random.Random(32)
    for _ in range(20):
        lang = random_finite_language(rng)
        pt, x = tm.finite_language_context(lang, "ab")
        f = random_lattice_form(rng, "ab")
        g = random_lattice_form(rng, "ab")
        product = synlat.multiply_lattice_forms(f, g)
        direct = synlat.eval_lattice_form(pt, x, product)
        staged = synlat.eval_lattice_form(pt, synlat.eval_lattice_form(pt, x, f), g)
        assert direct == staged


# --- evaluation ---

def test_eval_term_identity_action():
    _, dfa, pt = build("a+b+", "ab")
    for q in range(dfa.n_states):
        x = synlat.residual_atoms(pt, q)
        assert synlat.eval_term(pt, x, tm.Lam()) == x


def test_eval_term_display_equations():
    _, dfa, pt = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    x = synlat.residual_atoms(pt, L)
    assert synlat.eval_term(pt, x, T("T")) == synlat.top(pt)
    assert synlat.eval_term(pt, x, T("_")) == synlat.bottom(pt)
    assert synlat.eval_term(pt, x, T("a")) == synlat.residual_atoms(pt, K)
    assert synlat.eval_term(pt, x, T("ab")) == synlat.residual_atoms(pt, bstar)
    assert synlat.eval_term(pt, x, T("a^%e")) == synlat.meet(
        synlat.residual_atoms(pt, K), x
    )
    assert synlat.eval_term(pt, x, T("avb")) == synlat.join(
        synlat.residual_atoms(pt, K), synlat.residual_atoms(pt, empty)
    )


def test_example_language_aa_bb():
    # for L = {aa, bb}: λ ∈ L∘(a(a∨b) ∧ b(a∨b)) and L∘((a∧b)(a∨b)) = ∅
    pt, x = tm.finite_language_context(["aa", "bb"], "ab")
    good = synlat.eval_term(pt, x, T("a(avb) ^ b(avb)"))
    assert synlat.contains_lambda(pt, good)
    bad = synlat.eval_term(pt, x, T("(a^b)(avb)"))
    assert bad == synlat.bottom(pt)
    # right distributivity over a non-word factor genuinely fails here
    assert good != bad


def test_general_right_distributivity_fails_for_a_plus_b_plus_too():
    # the same two terms evaluated on L = a+b+: the b-branch evaluates to ∅,
    # so here neither side contains λ (the λ-containment above is a fact about
    # L = {aa,bb}, not a general one)
    _, dfa, pt = build("a+b+", "ab")
    x = synlat.residual_atoms(pt, dfa.initial)
    good = synlat.eval_term(pt, x, T("a(avb) ^ b(avb)"))
    assert not synlat.contains_lambda(pt, good)
    assert good == synlat.bottom(pt)


def test_eval_matches_normal_form_evaluation():
    _, dfa, pt = build("a+b+", "ab")
    for q in range(dfa.n_states):
        x = synlat.residual_atoms(pt, q)
        for text in ["a(avb)", "(a^b)vba", "T^ab", "_vb", "a^b^%e", "abab"]:
            t = T(text)
            f = synlat.normalize_lattice(t)
            assert synlat.eval_term(pt, x, t) == synlat.eval_lattice_form(pt, x, f)


def random_term(rng, alphabet, max_nodes=8):
    def gen(budget):
        if budget <= 1:
            roll = rng.random()
            if roll < 0.7:
                return tm.Sym(rng.choice(alphabet)), 1
            return [tm.Lam(), tm.TopT(), tm.BotT()][rng.randrange(3)], 1
        kind = rng.choice(["cat", "meet", "join", "leaf"])
        if kind == "leaf" or budget < 3:
            return gen(1)
        left_budget = rng.randint(1, budget - 2)
        left, lu = gen(left_budget)
        right, ru = gen(budget - 1 - lu)
        cls = {"cat": tm.Cat, "meet": tm.Meet, "join": tm.Join}[kind]
        return cls(left, right), lu + ru + 1

    return gen(max_nodes)[0]


def test_normalization_soundness_on_lattice_states():
    # eval(x, t) == eval(x, embed(normalize(t))) across random terms and random regexes
    from conftest import random_regex_corpus

    rng = random.Random(5)
    for ast in random_regex_corpus(seed=99, count=10, max_alphabet=2):
        dfa = synlat.compile_canonical_dfa(ast)
        pt = synlat.build_profile_table(dfa)
        la = synlat.build_lattice_automaton(pt, dfa)
        terms_sample = [random_term(rng, ast.alphabet) for _ in range(30)]
        for x in la.states:
            for t in terms_sample:
                f = synlat.normalize_lattice(t)
                embedded = tm.embed_lattice_form(f)
                assert synlat.eval_term(pt, x, t) == synlat.eval_term(pt, x, embedded)
                assert synlat.normalize_lattice(embedded) == f


# --- separation ---

def test_separating_language_examples():
    u = synlat.lattice_form([["ab"]])
    v = synlat.lattice_form([["ba"]])
    assert synlat.separating_language(u, v) == ("ab",)
    n1 = synlat.lattice_form([["a"]])
    n2 = synlat.lattice_form([["a"], ["b"]])
    assert synlat.separating_language(n1, n2) == ("b",)
    n3 = synlat.lattice_form([["a", "b"]])
    assert synlat.separating_language(n3, n1) == ("a",)
    with pytest.raises(ValueError):
        synlat.separating_language(n1, n1)


def test_separating_language_bounds():
    assert synlat.separating_language(tm.TOP_FORM, tm.BOT_FORM) == ()
    lang = synlat.separating_language(tm.TOP_FORM, synlat.lattice_form([["a"]]))
    assert synlat.lambda_in_action(lang, "ab", tm.TOP_FORM) != synlat.lambda_in_action(
        lang, "ab", synlat.lattice_form([["a"]])
    )


def test_separating_language_completeness_on_random_forms():
    rng = random.Random(13)
    checked = 0
    while checked < 80:
        f1 = random_lattice_form(rng, "ab")
        f2 = random_lattice_form(rng, "ab")
        if f1 == f2:
            continue
        lang = synlat.separating_language(f1, f2)
        left = synlat.lambda_in_action(lang, "ab", f1)
        right = synlat.lambda_in_action(lang, "ab", f2)
        assert left != right, (f1, f2, lang)
        checked += 1


@given(
    st.lists(st.lists(st.text(alphabet="ab", max_size=2), max_size=3), max_size=3),
    st.lists(st.lists(st.text(alphabet="ab", max_size=2), max_size=3), max_size=3),
)
def test_separating_language_completeness_hypothesis(i1, i2):
    f1, f2 = synlat.lattice_form(i1), synlat.lattice_form(i2)
    if f1 == f2:
        return
    lang = synlat.separating_language(f1, f2)
    assert synlat.lambda_in_action(lang, "ab", f1) != synlat.lambda_in_action(lang, "ab", f2)
