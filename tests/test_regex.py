import re

import pytest
from hypothesis import given

import synlat
from synlat import regex as rx
from synlat.automata import access_words
from synlat.cli import main
from synlat.errors import EXIT_PARSE, BudgetError, InputError, RegexSyntaxError

from conftest import ast_matches, build, random_regex_corpus, words_upto
from test_records import _agree, _regex_reference, regex_trees


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


@pytest.mark.parametrize("bad,message", [
    ("(a", "unclosed group (at position 0)"),
    ("a%", "dangling escape (at position 1)"),
])
def test_parse_errors_name_the_fault_and_its_position(bad, message):
    with pytest.raises(RegexSyntaxError, match=f"^{re.escape(message)}$"):
        synlat.parse_regex(bad, "ab")


def test_empty_alphabet_is_an_input_error(capsys):
    with pytest.raises(InputError, match="^alphabet must be non-empty$"):
        synlat.parse_regex("a", "")
    assert main(["automaton", "--regex", "a", "--alphabet", "", "--level", "dfa"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: alphabet must be non-empty\n"


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
        if head.nullable:
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


def test_only_the_states_minimize_keeps_are_labelled(monkeypatch):
    # 26 levels of (a(a(…)*)*)* have 28 derivative states, of 286,262 characters
    # of labels in all, and a 2-state minimal DFA
    pattern = "a"
    for _ in range(26):
        pattern = f"(a{pattern})*"
    real, rendered = rx.regex_to_str, []

    def regex_to_str(node):
        rendered.append(real(node))
        return rendered[-1]

    monkeypatch.setattr(rx, "regex_to_str", regex_to_str)
    dfa = synlat.compile_canonical_dfa(synlat.parse_regex(pattern, "ab"))
    assert dfa.n_states == 2
    assert list(dfa.state_labels) == rendered
    assert rendered[1] == "∅"


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


# --- each node's key, nullable and hash, against recursive references ---

def reference_key(node):
    """The sort key alt orders unions by, recomputed over the whole tree."""
    if isinstance(node, rx.Empty):
        return (0,)
    if isinstance(node, rx.Epsilon):
        return (1,)
    if isinstance(node, rx.Letter):
        return (2, node.char)
    if isinstance(node, rx.Star):
        return (3, reference_key(node.inner))
    if isinstance(node, rx.Concat):
        return (4,) + tuple(reference_key(p) for p in node.parts)
    if isinstance(node, rx.Union):
        return (5,) + tuple(reference_key(p) for p in node.parts)
    if isinstance(node, rx.Plus):
        return (6, reference_key(node.inner))
    if isinstance(node, rx.Optional):
        return (7, reference_key(node.inner))
    raise TypeError(f"unknown node {node!r}")


def reference_nullable(node):
    """Whether the node's language holds λ, recomputed over the whole tree."""
    if isinstance(node, (rx.Epsilon, rx.Star, rx.Optional)):
        return True
    if isinstance(node, (rx.Empty, rx.Letter)):
        return False
    if isinstance(node, rx.Plus):
        return reference_nullable(node.inner)
    if isinstance(node, rx.Concat):
        return all(reference_nullable(p) for p in node.parts)
    if isinstance(node, rx.Union):
        return any(reference_nullable(p) for p in node.parts)
    raise TypeError(f"unknown node {node!r}")


def subtrees(node):
    yield node
    for child in getattr(node, "parts", ()):
        yield from subtrees(child)
    if hasattr(node, "inner"):
        yield from subtrees(node.inner)


def made_from(tree):
    """The tree, its desugared form and that form's derivatives by words of up to two letters."""
    made = [tree, rx.desugar(tree)]
    frontier = made[1:]
    for _ in range(2):
        frontier = [rx.derivative(n, a) for n in frontier for a in "ab"]
        made.extend(frontier)
    return made


@given(regex_trees, regex_trees)
def test_node_fields_match_recursive_references_on_random_trees(x, y):
    made_x, made_y = made_from(x), made_from(y)
    for node in made_x + made_y:
        for n in subtrees(node):
            assert n.key == reference_key(n)
            assert n.nullable is reference_nullable(n)
    for u in made_x:
        for v in made_y:
            _agree(u, v, _regex_reference)


def test_hash_and_equality_do_not_walk_a_deep_chain():
    chain = rx.Letter("a")
    for _ in range(10_000):
        inner = chain
        chain = rx.Star(rx.Concat((rx.Letter("a"), inner)))
    assert hash(chain) == hash(chain) and chain == chain
    assert rx.Star(rx.Concat((rx.Letter("a"), inner))) == chain
    assert rx.Star(rx.Concat((rx.Letter("b"), inner))) != chain
    assert chain.nullable and not chain.inner.nullable
