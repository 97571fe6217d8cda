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

from .automata import DEFAULT_STATE_BUDGET, Dfa, close_values, minimize
from .errors import BudgetError, InputError, RegexSyntaxError
from .records import Record, set_field


class Node(Record):
    """A syntax tree node.  Compilation hashes and compares nodes by the
    hundred thousand, so each class has its own __eq__ and __hash__, those a
    frozen dataclass would have; these two serve Empty and Epsilon."""

    __slots__ = ()

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())


class Empty(Node):          # %0, the empty language
    __slots__ = ()


class Epsilon(Node):        # %e, the language {λ}
    __slots__ = ()


class Letter(Node):
    __slots__ = _fields = ("char",)

    def __init__(self, char: str):
        set_field(self, "char", char)

    def __eq__(self, other):
        return self.char == other.char if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.char,))


class _Parts(Node):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Node, ...]):
        set_field(self, "parts", parts)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.parts,))


class Concat(_Parts):
    __slots__ = ()


class Union(_Parts):
    __slots__ = ()


class _Inner(Node):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: Node):
        set_field(self, "inner", inner)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.inner is other.inner or self.inner == other.inner

    def __hash__(self):
        return hash((self.inner,))


class Star(_Inner):
    __slots__ = ()


class Plus(_Inner):         # sugar: x+ == x x*
    __slots__ = ()


class Optional(_Inner):     # sugar: x? == x | %e
    __slots__ = ()


class RegexAst(Record):
    _fields = ("root", "alphabet")

    def __init__(self, root: Node, alphabet: tuple[str, ...]):
        set_field(self, "root", root)
        set_field(self, "alphabet", alphabet)


MAX_NESTING = 100
DERIVATIVE_PARTS_BUDGET = 10_000


def parse_regex(text: str, alphabet) -> RegexAst:
    """Parse a pattern over an explicit alphabet.

    Letters are printable, non-space ASCII characters, so that none reads
    as a symbol of the outputs (λ, ⊤, ⊥, ∧, ∨).  Groups may nest at most
    MAX_NESTING deep, and so may the syntax tree (groups, concatenations,
    unions and postfix operators inside one another); deeper patterns raise
    RegexSyntaxError, since every later stage recurses on the tree.
    """
    alphabet = tuple(alphabet)
    if not alphabet:
        raise InputError("alphabet must be non-empty")
    if len(set(alphabet)) != len(alphabet):
        raise InputError("alphabet letters must be distinct")
    odd = [a for a in alphabet if not (len(a) == 1 and "!" <= a <= "~")]
    if odd:
        raise InputError(f"alphabet letters {odd} are not printable non-space ASCII characters")
    clash = set("|()*+?%") & set(alphabet)
    if clash:
        raise InputError(f"alphabet letters {sorted(clash)} clash with pattern syntax")
    if text == "":
        raise RegexSyntaxError('empty pattern (use "%e" for λ, "%0" for ∅)', 0)

    pos = 0
    groups = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def checked(height):
        if height > MAX_NESTING:
            raise RegexSyntaxError(f"pattern nested more than {MAX_NESTING} deep", pos)
        return height

    def nested(parts, cls):
        """(node, height) of a single part, or of cls over several."""
        if len(parts) == 1:
            return parts[0]
        return cls(tuple(node for node, _ in parts)), checked(1 + max(h for _, h in parts))

    def parse_expr():
        nonlocal pos
        terms = [parse_term()]
        while peek() == "|":
            pos += 1
            terms.append(parse_term())
        return nested(terms, Union)

    def parse_term():
        factors = []
        while True:
            c = peek()
            if c is None or c in "|)":
                break
            factors.append(parse_factor())
        if not factors:
            raise RegexSyntaxError("expected a letter, escape, or group", pos)
        return nested(factors, Concat)

    def parse_factor():
        nonlocal pos
        node, height = parse_base()
        while peek() in ("*", "+", "?"):
            op = text[pos]
            pos += 1
            node = {"*": Star, "+": Plus, "?": Optional}[op](node)
            height = checked(height + 1)
        return node, height

    def parse_base():
        nonlocal pos, groups
        c = peek()
        if c == "(":
            if groups == MAX_NESTING:
                raise RegexSyntaxError(f"groups nested more than {MAX_NESTING} deep", pos)
            open_pos = pos
            pos += 1
            groups += 1
            inner = parse_expr()
            groups -= 1
            if peek() != ")":
                raise RegexSyntaxError("unclosed group", open_pos)
            pos += 1
            return inner
        if c == "%":
            if pos + 1 >= len(text):
                raise RegexSyntaxError("dangling escape", pos)
            esc = text[pos + 1]
            if esc == "e":
                pos += 2
                return Epsilon(), 1
            if esc == "0":
                pos += 2
                return Empty(), 1
            raise RegexSyntaxError(f"unknown escape %{esc}", pos)
        if c in ("*", "+", "?"):
            raise RegexSyntaxError(f"postfix {c!r} with nothing to repeat", pos)
        if c in alphabet:
            pos += 1
            return Letter(c), 1
        raise RegexSyntaxError(f"letter {c!r} is not in the alphabet", pos)

    root, _ = parse_expr()
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
        # d(p1 p2 … pk) = d(p1) p2 … pk ∪ d(p2 … pk) while the head is nullable;
        # looping over the parts keeps long concatenations off the call stack.
        # A run of nullable parts makes the branches quadratic in its length,
        # and the next derivative cubic, so their size is budgeted.
        branches = []
        size = 0
        for k, head in enumerate(node.parts):
            size += len(node.parts) - k
            if size > DERIVATIVE_PARTS_BUDGET:
                raise BudgetError("derivative concatenation parts", DERIVATIVE_PARTS_BUDGET)
            branches.append(cat([derivative(head, letter), *node.parts[k + 1:]]))
            if not nullable(head):
                break
        return alt(branches)
    raise TypeError(f"unnormalized node {node!r}")


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
    its residual contains λ.  State labels render the residual regexes: minimize
    keeps each class's lowest-numbered derivative, the one along its shortlex-least word.
    """
    letter_ops = [lambda node, a=a: derivative(node, a) for a in ast.alphabet]
    order, _, delta = close_values([desugar(ast.root)], letter_ops, (), state_budget, "derivative states")
    finals = frozenset(i for i, n in enumerate(order) if nullable(n))
    labels = tuple(map(regex_to_str, order))
    return minimize(Dfa(ast.alphabet, tuple(delta), 0, finals, labels))
