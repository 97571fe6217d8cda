"""Regex parsing and compilation to the canonical (minimal complete) DFA.

Grammar:  expr := term ('|' term)* ; term := factor+ ;
factor := base ('*'|'+'|'?')* ; base := letter | '%e' | '%0' | '(' expr ')'.
Union binds loosest, then concatenation, then the postfix operators.

Compilation takes Brzozowski derivatives under similarity normalization
(union is flattened/sorted/deduplicated, unit and annihilator laws applied)
and finishes with Hopcroft minimization, so states correspond one-to-one to
the distinct left quotients of the language no matter what the normalization
missed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import DEFAULT_STATE_BUDGET, Dfa, access_words, minimize
from .errors import BudgetError, RegexSyntaxError


class Node:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Empty(Node):          # %0, the empty language
    pass


@dataclass(frozen=True, slots=True)
class Epsilon(Node):        # %e, the language {λ}
    pass


@dataclass(frozen=True, slots=True)
class Letter(Node):
    char: str


@dataclass(frozen=True, slots=True)
class Concat(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Union(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Star(Node):
    inner: Node


@dataclass(frozen=True, slots=True)
class Plus(Node):           # sugar: x+ == x x*
    inner: Node


@dataclass(frozen=True, slots=True)
class Optional(Node):       # sugar: x? == x | %e
    inner: Node


@dataclass(frozen=True)
class RegexAst:
    root: Node
    alphabet: tuple[str, ...]


def parse_regex(text: str, alphabet) -> RegexAst:
    alphabet = tuple(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet letters must be distinct")
    if text == "":
        raise RegexSyntaxError('empty pattern (use "%e" for λ, "%0" for ∅)', 0)

    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def parse_expr():
        nonlocal pos
        terms = [parse_term()]
        while peek() == "|":
            pos += 1
            terms.append(parse_term())
        return terms[0] if len(terms) == 1 else Union(tuple(terms))

    def parse_term():
        nonlocal pos
        factors = []
        while True:
            c = peek()
            if c is None or c in "|)":
                break
            factors.append(parse_factor())
        if not factors:
            raise RegexSyntaxError("expected a letter, escape, or group", pos)
        return factors[0] if len(factors) == 1 else Concat(tuple(factors))

    def parse_factor():
        nonlocal pos
        node = parse_base()
        while peek() in ("*", "+", "?"):
            op = text[pos]
            pos += 1
            node = {"*": Star, "+": Plus, "?": Optional}[op](node)
        return node

    def parse_base():
        nonlocal pos
        c = peek()
        if c == "(":
            open_pos = pos
            pos += 1
            node = parse_expr()
            if peek() != ")":
                raise RegexSyntaxError("unclosed group", open_pos)
            pos += 1
            return node
        if c == "%":
            if pos + 1 >= len(text):
                raise RegexSyntaxError("dangling escape", pos)
            esc = text[pos + 1]
            if esc == "e":
                pos += 2
                return Epsilon()
            if esc == "0":
                pos += 2
                return Empty()
            raise RegexSyntaxError(f"unknown escape %{esc}", pos)
        if c in ("*", "+", "?"):
            raise RegexSyntaxError(f"postfix {c!r} with nothing to repeat", pos)
        if c in alphabet:
            pos += 1
            return Letter(c)
        raise RegexSyntaxError(f"letter {c!r} is not in the alphabet", pos)

    root = parse_expr()
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return RegexAst(root, alphabet)


# --- similarity-normalizing constructors (used from desugaring onward) ---

_EMPTY = Empty()
_EPSILON = Epsilon()


def _key(node: Node):
    if isinstance(node, Empty):
        return (0,)
    if isinstance(node, Epsilon):
        return (1,)
    if isinstance(node, Letter):
        return (2, node.char)
    if isinstance(node, Star):
        return (3, _key(node.inner))
    if isinstance(node, Concat):
        return (4,) + tuple(_key(p) for p in node.parts)
    if isinstance(node, Union):
        return (5,) + tuple(_key(p) for p in node.parts)
    raise TypeError(f"unnormalized node {node!r}")


def cat(parts) -> Node:
    flat = []
    for p in parts:
        if isinstance(p, Empty):
            return _EMPTY
        if isinstance(p, Epsilon):
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return _EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(parts) -> Node:
    flat = []
    for p in parts:
        if isinstance(p, Empty):
            continue
        if isinstance(p, Union):
            flat.extend(p.parts)
        else:
            flat.append(p)
    uniq = sorted(set(flat), key=_key)
    if not uniq:
        return _EMPTY
    if len(uniq) == 1:
        return uniq[0]
    return Union(tuple(uniq))


def star(node: Node) -> Node:
    if isinstance(node, (Empty, Epsilon)):
        return _EPSILON
    if isinstance(node, Star):
        return node
    return Star(node)


def desugar(node: Node) -> Node:
    """Eliminate + and ? and normalize; result uses Empty/Epsilon/Letter/Concat/Union/Star."""
    if isinstance(node, (Empty, Epsilon, Letter)):
        return node
    if isinstance(node, Concat):
        return cat(desugar(p) for p in node.parts)
    if isinstance(node, Union):
        return alt(desugar(p) for p in node.parts)
    if isinstance(node, Star):
        return star(desugar(node.inner))
    if isinstance(node, Plus):
        inner = desugar(node.inner)
        return cat([inner, star(inner)])
    if isinstance(node, Optional):
        return alt([desugar(node.inner), _EPSILON])
    raise TypeError(f"unknown node {node!r}")


def nullable(node: Node) -> bool:
    if isinstance(node, Epsilon) or isinstance(node, Star):
        return True
    if isinstance(node, (Empty, Letter)):
        return False
    if isinstance(node, Concat):
        return all(nullable(p) for p in node.parts)
    if isinstance(node, Union):
        return any(nullable(p) for p in node.parts)
    raise TypeError(f"unnormalized node {node!r}")


def derivative(node: Node, letter: str) -> Node:
    """Brzozowski derivative: the residual letter^{-1}(language of node)."""
    if isinstance(node, (Empty, Epsilon)):
        return _EMPTY
    if isinstance(node, Letter):
        return _EPSILON if node.char == letter else _EMPTY
    if isinstance(node, Union):
        return alt(derivative(p, letter) for p in node.parts)
    if isinstance(node, Star):
        return cat([derivative(node.inner, letter), node])
    if isinstance(node, Concat):
        head, tail = node.parts[0], cat(node.parts[1:])
        branches = [cat([derivative(head, letter), tail])]
        if nullable(head):
            branches.append(derivative(tail, letter))
        return alt(branches)
    raise TypeError(f"unnormalized node {node!r}")


def derivative_by_word(node: Node, word: str) -> Node:
    for a in word:
        node = derivative(node, a)
    return node


def regex_to_str(node: Node) -> str:
    """Render a normalized node; used for residual state labels."""

    def prec(n):
        if isinstance(n, Union):
            return 0
        if isinstance(n, Concat):
            return 1
        return 2

    def rec(n):
        if isinstance(n, Empty):
            return "∅"
        if isinstance(n, Epsilon):
            return "λ"
        if isinstance(n, Letter):
            return n.char
        if isinstance(n, Star):
            inner = rec(n.inner)
            if prec(n.inner) < 2 or len(inner) > 1:
                inner = f"({inner})"
            return inner + "*"
        if isinstance(n, Concat):
            return "".join(f"({rec(p)})" if prec(p) < 1 else rec(p) for p in n.parts)
        if isinstance(n, Union):
            return "|".join(rec(p) for p in n.parts)
        raise TypeError(f"unnormalized node {n!r}")

    return rec(node)


def compile_canonical_dfa(ast: RegexAst, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Minimal complete DFA whose states are the left quotients of the language.

    The initial state is the language itself; a state is final exactly when
    its residual contains λ.  State labels render the residual regexes.
    """
    root = desugar(ast.root)
    states: dict[Node, int] = {root: 0}
    order = [root]
    delta: list[list[int]] = []
    i = 0
    while i < len(order):
        node = order[i]
        row = []
        for a in ast.alphabet:
            d = derivative(node, a)
            if d not in states:
                if len(states) >= state_budget:
                    raise BudgetError("derivative states", state_budget)
                states[d] = len(order)
                order.append(d)
            row.append(states[d])
        delta.append(row)
        i += 1
    finals = frozenset(states[n] for n in order if nullable(n))
    raw = Dfa(ast.alphabet, tuple(tuple(r) for r in delta), 0, finals)
    small = minimize(raw)
    labels = tuple(regex_to_str(derivative_by_word(root, w)) for w in access_words(small))
    return Dfa(small.alphabet, small.delta, small.initial, small.finals, labels)
