"""Shared fixtures: independent regex matcher, corpus generators, cached builds."""

import random

from hypothesis import settings

import synlat

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


# A surface pattern is the tree a pattern is written as, before any normalization, as
# tuples: ("letter", c), ("epsilon",), ("empty",), ("star" | "plus" | "optional", inner)
# or ("concat" | "union", *parts).  The language oracles read it, so that they stay
# independent of the normalizing constructors the parser builds through.
POSTFIX = {"*": "star", "+": "plus", "?": "optional"}
OPERATOR = {kind: op for op, kind in POSTFIX.items()}


def surface(text):
    """The surface pattern of a well-formed pattern text."""
    pos = 0

    def expr():
        nonlocal pos
        terms = [term()]
        while pos < len(text) and text[pos] == "|":
            pos += 1
            terms.append(term())
        return terms[0] if len(terms) == 1 else ("union", *terms)

    def term():
        factors = []
        while pos < len(text) and text[pos] not in "|)":
            factors.append(factor())
        return factors[0] if len(factors) == 1 else ("concat", *factors)

    def factor():
        nonlocal pos
        c = text[pos]
        if c == "(":
            pos += 1
            node = expr()
        elif c == "%":
            pos += 1
            node = ("epsilon",) if text[pos] == "e" else ("empty",)
        else:
            node = ("letter", c)
        pos += 1
        while pos < len(text) and text[pos] in POSTFIX:
            node = (POSTFIX[text[pos]], node)
            pos += 1
        return node

    return expr()


def pattern_text(node):
    """The text of a surface pattern, with a group wherever precedence needs one."""
    kind = node[0]
    if kind == "letter":
        return node[1]
    if kind in ("epsilon", "empty"):
        return "%e" if kind == "epsilon" else "%0"
    if kind == "union":
        return "|".join(map(pattern_text, node[1:]))
    if kind == "concat":
        return "".join(f"({pattern_text(p)})" if p[0] == "union" else pattern_text(p) for p in node[1:])
    inner = pattern_text(node[1])
    return (f"({inner})" if node[1][0] in ("concat", "union") else inner) + OPERATOR[kind]


def ast_matches(pattern, word):
    """Regex membership decided on the surface pattern, independent of automata.

    Walks sets of end positions through the tree; stars iterate to fixpoint.
    """

    def ends(node, starts):
        kind = node[0]
        if not starts or kind == "empty":
            return set()
        if kind == "epsilon":
            return set(starts)
        if kind == "letter":
            return {i + 1 for i in starts if i < len(word) and word[i] == node[1]}
        if kind == "concat":
            cur = set(starts)
            for part in node[1:]:
                cur = ends(part, cur)
            return cur
        if kind == "union":
            out = set()
            for part in node[1:]:
                out |= ends(part, starts)
            return out
        if kind == "optional":
            return set(starts) | ends(node[1], starts)
        cur = set(starts) if kind == "star" else ends(node[1], starts)
        while True:
            new = ends(node[1], cur) - cur
            if not new:
                return cur
            cur |= new

    return len(word) in ends(pattern, {0})


def words_upto(alphabet, n):
    out = [""]
    frontier = [""]
    for _ in range(n):
        frontier = [w + a for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def random_pattern(rng, alphabet, max_nodes=8):
    """Random surface pattern with at most max_nodes nodes."""

    def gen(budget):
        if budget <= 1:
            roll = rng.random()
            if roll < 0.85:
                return ("letter", rng.choice(alphabet)), 1
            if roll < 0.95:
                return ("epsilon",), 1
            return ("empty",), 1
        kind = rng.choices(
            ["letter", "concat", "union", "star", "plus", "optional"],
            weights=[0.28, 0.26, 0.2, 0.12, 0.08, 0.06],
        )[0]
        if kind == "letter":
            return ("letter", rng.choice(alphabet)), 1
        if kind in ("star", "plus", "optional"):
            inner, used = gen(budget - 1)
            return (kind, inner), used + 1
        if budget < 3:
            return ("letter", rng.choice(alphabet)), 1
        left_budget = rng.randint(1, budget - 2)
        left, lu = gen(left_budget)
        right, ru = gen(budget - 1 - lu)
        return (kind, left, right), lu + ru + 1

    return gen(max_nodes)[0]


def random_ast(rng, alphabet, max_nodes=8):
    """The parse of a random surface pattern's text."""
    return synlat.parse_regex(pattern_text(random_pattern(rng, alphabet, max_nodes)), alphabet)


def random_pattern_corpus(seed, count, max_alphabet=3, max_nodes=8):
    """Deterministic list of (surface pattern, alphabet) over alphabets of size 1..max_alphabet."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.randint(1, max_alphabet)
        alphabet = "abc"[:size]
        out.append((random_pattern(rng, alphabet, max_nodes), alphabet))
    return out


def random_regex_corpus(seed, count, max_alphabet=3, max_nodes=8):
    """The parses of random_pattern_corpus's patterns."""
    corpus = random_pattern_corpus(seed, count, max_alphabet, max_nodes)
    return [synlat.parse_regex(pattern_text(pattern), alphabet) for pattern, alphabet in corpus]


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
