import re

import pytest

import synlat
from synlat import regex as rx
from synlat.automata import access_words
from synlat.errors import BudgetError, InputError, RegexSyntaxError

from conftest import ast_matches, build, random_regex_corpus, words_upto


def test_parse_plus_concat():
    ast = synlat.parse_regex("a+b+", "ab")
    assert ast.root == rx.Concat((rx.Plus(rx.Letter("a")), rx.Plus(rx.Letter("b"))))
    assert ast.alphabet == ("a", "b")


def test_parse_group_star():
    ast = synlat.parse_regex("a(b|c)*", "abc")
    assert ast.root == rx.Concat(
        (rx.Letter("a"), rx.Star(rx.Union((rx.Letter("b"), rx.Letter("c")))))
    )


def test_parse_escapes():
    assert synlat.parse_regex("%e", "a").root == rx.Epsilon()
    assert synlat.parse_regex("%0", "a").root == rx.Empty()


def test_parse_precedence():
    # union loosest, then concatenation, then postfix
    ast = synlat.parse_regex("ab|c", "abc")
    assert ast.root == rx.Union((rx.Concat((rx.Letter("a"), rx.Letter("b"))), rx.Letter("c")))
    ast = synlat.parse_regex("ab*", "ab")
    assert ast.root == rx.Concat((rx.Letter("a"), rx.Star(rx.Letter("b"))))


def test_parse_empty_pattern_rejected():
    with pytest.raises(RegexSyntaxError):
        synlat.parse_regex("", "a")


@pytest.mark.parametrize("bad", ["a|", "(", "()", "a)", "%x", "*a", "ab", "a||b"])
def test_parse_errors_have_positions(bad):
    with pytest.raises(RegexSyntaxError) as exc:
        synlat.parse_regex(bad, "a")
    assert exc.value.pos >= 0


def test_letter_outside_alphabet():
    with pytest.raises(RegexSyntaxError):
        synlat.parse_regex("ab", "a")


@pytest.mark.parametrize("letter", [*"|()*+?%", "λ", "⊤", "⊥", "∧", "∨", " ", "\t", "\x7f", "é", "ab", ""])
def test_alphabet_letter_of_pattern_syntax_is_an_input_error(letter):
    # no pattern can ever write a metacharacter, and a letter outside printable ASCII
    # could read as a symbol the outputs print (λ, ⊤, ⊥, ∧, ∨)
    metacharacter = len(letter) == 1 and letter in "|()*+?%"
    message = "clash with pattern syntax" if metacharacter else "not printable non-space ASCII"
    with pytest.raises(InputError, match=message):
        synlat.parse_regex("a", ("a", letter))


def count_residuals_bruteforce(ast, alphabet, depth=6):
    """Distinct rows of the prefix-by-suffix membership matrix, via the AST matcher."""
    suffixes = words_upto(alphabet, depth)
    rows = set()
    for prefix in words_upto(alphabet, depth):
        rows.add(tuple(ast_matches(ast, prefix + s) for s in suffixes))
    return len(rows)


def test_compile_a_plus_b_plus():
    _, dfa, _ = build("a+b+", "ab")
    assert dfa.n_states == 4
    # initial is the language, finals exactly the residuals containing λ
    assert dfa.initial == 0
    assert dfa.finals == frozenset({synlat.run(dfa, 0, "ab")})


def test_compile_empty_language():
    _, dfa, _ = build("%0", "a")
    assert dfa.n_states == 1
    assert dfa.finals == frozenset()


def test_compile_a_star_two_states():
    # oracle: residual count by brute-force membership matrix
    ast, dfa, _ = build("a*", "ab")
    assert count_residuals_bruteforce(ast, "ab", depth=4) == 2
    assert dfa.n_states == 2


@pytest.mark.parametrize(
    "pattern,alphabet",
    [("a+b+", "ab"), ("a*", "ab"), ("a(b|c)*", "abc"), ("(ab)*", "ab"), ("a?b", "ab")],
)
def test_compile_minimal_state_count(pattern, alphabet):
    ast, dfa, _ = build(pattern, alphabet)
    assert dfa.n_states == count_residuals_bruteforce(ast, alphabet, depth=5)


@pytest.mark.parametrize("pattern,alphabet", [("a+b+", "ab"), ("(a|bb)*", "ab"), ("a?b*a", "ab")])
def test_states_recognize_left_quotients(pattern, alphabet):
    # the state reached by u accepts exactly u^{-1}L, against the AST matcher
    ast, dfa, _ = build(pattern, alphabet)
    for u in words_upto(alphabet, 4):
        q = synlat.run(dfa, dfa.initial, u)
        for v in words_upto(alphabet, 4):
            assert synlat.accepts(dfa, v, state=q) == ast_matches(ast, u + v)


def test_state_budget():
    ast = synlat.parse_regex("(a|b)(a|b)(a|b)(a|b)", "ab")
    with pytest.raises(BudgetError):
        synlat.compile_canonical_dfa(ast, state_budget=2)


def test_alphabet_matters_for_quotients():
    # b^{-1}(a+b+) = ∅ exists only when b is in the alphabet
    _, over_ab, _ = build("a+", "ab")
    _, over_a, _ = build("a+", "a")
    assert over_ab.n_states == 3  # a+, a*, ∅
    assert over_a.n_states == 2   # a+, a*


def recursive_derivative(node, letter):
    """The derivative with the concatenation rule d(h·T) = d(h)·T ∪ d(T) applied recursively."""
    if isinstance(node, rx.Concat):
        head, tail = node.parts[0], rx.cat(node.parts[1:])
        branches = [rx.cat([recursive_derivative(head, letter), tail])]
        if rx.nullable(head):
            branches.append(recursive_derivative(tail, letter))
        return rx.alt(branches)
    if isinstance(node, rx.Union):
        return rx.alt(recursive_derivative(p, letter) for p in node.parts)
    if isinstance(node, rx.Star):
        return rx.cat([recursive_derivative(node.inner, letter), node])
    return rx.derivative(node, letter)


def test_derivative_matches_recursive_rule():
    # looping over the parts of a concatenation builds the same normalized nodes
    for ast in random_regex_corpus(seed=5, count=200):
        frontier = [rx.desugar(ast.root)]
        for _ in range(3):
            frontier = [rx.derivative(n, a) for n in frontier for a in ast.alphabet]
            for n in frontier:
                for a in ast.alphabet:
                    assert rx.derivative(n, a) == recursive_derivative(n, a)


def test_nesting_limits():
    depth = rx.MAX_NESTING
    assert synlat.parse_regex("(" * depth + "a" + ")" * depth, "a").root == rx.Letter("a")
    with pytest.raises(RegexSyntaxError):
        synlat.parse_regex("(" * (depth + 1) + "a" + ")" * (depth + 1), "a")
    assert synlat.compile_canonical_dfa(synlat.parse_regex("a" + "*" * (depth - 1), "a")).n_states == 1
    with pytest.raises(RegexSyntaxError):
        synlat.parse_regex("a" + "*" * depth, "a")


def test_state_labels_render_the_derivative_along_each_access_word():
    # the reference derives each residual again, along the state's shortlex-least word
    for ast in random_regex_corpus(seed=5, count=200):
        dfa = synlat.compile_canonical_dfa(ast)
        root = rx.desugar(ast.root)
        for q, word in enumerate(access_words(dfa)):
            node = root
            for a in word:
                node = rx.derivative(node, a)
            assert dfa.state_labels[q] == rx.regex_to_str(node)


def stdlib_pattern(node):
    """The surface AST in Python's re syntax."""
    if isinstance(node, rx.Empty):
        return "(?!)"
    if isinstance(node, rx.Epsilon):
        return "(?:)"
    if isinstance(node, rx.Letter):
        return re.escape(node.char)
    if isinstance(node, rx.Concat):
        return "".join(f"(?:{stdlib_pattern(p)})" for p in node.parts)
    if isinstance(node, rx.Union):
        return "|".join(f"(?:{stdlib_pattern(p)})" for p in node.parts)
    postfix = {rx.Star: "*", rx.Plus: "+", rx.Optional: "?"}[type(node)]
    return f"(?:{stdlib_pattern(node.inner)}){postfix}"


@pytest.mark.parametrize("seed", range(1, 6))
def test_compiled_dfa_agrees_with_stdlib_re(seed):
    for ast in random_regex_corpus(seed=seed, count=60):
        dfa = synlat.compile_canonical_dfa(ast)
        pattern = re.compile(stdlib_pattern(ast.root))
        for w in words_upto(ast.alphabet, 5):
            assert synlat.accepts(dfa, w) == (pattern.fullmatch(w) is not None), (pattern.pattern, w)
