"""Shared fixtures: independent regex matcher, corpus generators, cached builds."""

import random

from hypothesis import settings

import synlat
from synlat import regex as rx

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
# CI reruns the render tests, the least-form checks and the reversed-alphabet tables
# with --hypothesis-profile=ci, on fresh random examples
settings.register_profile("ci", deadline=None, max_examples=1000)
settings.load_profile("suite")

_BUILD_CACHE = {}


def build(pattern, alphabet):
    """(ast, dfa, profile table), cached per (pattern, alphabet)."""
    key = (pattern, tuple(alphabet))
    if key not in _BUILD_CACHE:
        ast = synlat.parse_regex(pattern, alphabet)
        dfa = synlat.compile_canonical_dfa(ast)
        pt = synlat.build_profile_table(dfa)
        _BUILD_CACHE[key] = (ast, dfa, pt)
    return _BUILD_CACHE[key]


def ast_matches(ast, word):
    """Regex membership decided on the surface AST, independent of automata.

    Walks sets of end positions through the tree; stars iterate to fixpoint.
    """

    def ends(node, starts):
        if not starts:
            return set()
        if isinstance(node, rx.Empty):
            return set()
        if isinstance(node, rx.Epsilon):
            return set(starts)
        if isinstance(node, rx.Letter):
            return {i + 1 for i in starts if i < len(word) and word[i] == node.char}
        if isinstance(node, rx.Concat):
            cur = set(starts)
            for part in node.parts:
                cur = ends(part, cur)
            return cur
        if isinstance(node, rx.Union):
            out = set()
            for part in node.parts:
                out |= ends(part, starts)
            return out
        if isinstance(node, rx.Star):
            cur = set(starts)
            while True:
                new = ends(node.inner, cur) - cur
                if not new:
                    return cur
                cur |= new
        if isinstance(node, rx.Plus):
            return ends(rx.Star(node.inner), ends(node.inner, starts))
        if isinstance(node, rx.Optional):
            return set(starts) | ends(node.inner, starts)
        raise TypeError(node)

    return len(word) in ends(ast.root, {0})


def words_upto(alphabet, n):
    out = [""]
    frontier = [""]
    for _ in range(n):
        frontier = [w + a for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def random_ast(rng, alphabet, max_nodes=8):
    """Random surface AST with at most max_nodes nodes."""

    def gen(budget):
        if budget <= 1:
            roll = rng.random()
            if roll < 0.85:
                return rx.Letter(rng.choice(alphabet)), 1
            if roll < 0.95:
                return rx.Epsilon(), 1
            return rx.Empty(), 1
        kind = rng.choices(
            ["letter", "concat", "union", "star", "plus", "optional"],
            weights=[0.28, 0.26, 0.2, 0.12, 0.08, 0.06],
        )[0]
        if kind == "letter":
            return rx.Letter(rng.choice(alphabet)), 1
        if kind in ("star", "plus", "optional"):
            inner, used = gen(budget - 1)
            cls = {"star": rx.Star, "plus": rx.Plus, "optional": rx.Optional}[kind]
            return cls(inner), used + 1
        if budget < 3:
            return rx.Letter(rng.choice(alphabet)), 1
        left_budget = rng.randint(1, budget - 2)
        left, lu = gen(left_budget)
        right, ru = gen(budget - 1 - lu)
        cls = rx.Concat if kind == "concat" else rx.Union
        return cls((left, right)), lu + ru + 1

    root, _ = gen(max_nodes)
    return rx.RegexAst(root, tuple(alphabet))


def random_regex_corpus(seed, count, max_alphabet=3, max_nodes=8):
    """Deterministic list of random ASTs over alphabets of size 1..max_alphabet."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.randint(1, max_alphabet)
        alphabet = "abc"[:size]
        out.append(random_ast(rng, alphabet, max_nodes))
    return out


def random_lattice_form(rng, alphabet, max_inners=3, max_words=3, max_len=3):
    """Random canonical lattice form."""
    inners = []
    for _ in range(rng.randint(0, max_inners)):
        words = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
            for _ in range(rng.randint(1, max_words))
        ]
        inners.append(words)
    return synlat.lattice_form(inners)
