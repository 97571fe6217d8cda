"""Regex parsing and compilation to the canonical (minimal complete) DFA.

Grammar:  expr := term ('|' term)* ; term := factor+ ;
factor := base ('*'|'+'|'?')* ; base := letter | '%e' | '%0' | '(' expr ')'.
Union binds loosest, then concatenation, then the postfix operators.

The parser builds its tree through the similarity-normalizing constructors
cat, alt and star (union flattened, sorted and deduplicated, unit and
annihilator laws applied), reading x+ as x x* and x? as x|%e, so a parsed
tree is already normalized.  Compilation takes Brzozowski derivatives through
the same constructors and finishes with Hopcroft minimization, so states
correspond one-to-one to the distinct left quotients of the language no
matter what the normalization missed.
"""

from __future__ import annotations

from operator import attrgetter

from .automata import DEFAULT_STATE_BUDGET, Dfa, close_values, minimize_labelled
from .errors import BudgetError, InputError, RegexSyntaxError
from .records import Record, set_field


class Node(Record):
    """A syntax tree node.  Each node works out three fields once, in its own
    __init__, from its children's: key, its class tag followed by its
    children's keys, by which alt sorts a union; _hash, hashed from the tag
    and the children's hashes, so hashing never walks the tree; and nullable,
    whether its language holds λ.  Nodes are equal when their keys are.  A
    class whose nullability is fixed sets it as a class attribute.  The six
    classes below are the whole syntax, tags 0 to 5: + and ? have no node."""

    __slots__ = ("key", "_hash", "nullable")

    def __eq__(self, other):
        if self is other:
            return True
        return self.key == other.key if isinstance(other, Node) else NotImplemented

    def __hash__(self):
        return self._hash


class Empty(Node):          # %0, the empty language
    __slots__ = ()
    key, _hash, nullable = (0,), hash((0,)), False


class Epsilon(Node):        # %e, the language {λ}
    __slots__ = ()
    key, _hash, nullable = (1,), hash((1,)), True


class Letter(Node):
    __slots__ = _fields = ("char",)
    nullable = False

    def __init__(self, char: str):
        set_field(self, "char", char)
        set_field(self, "key", (2, char))
        set_field(self, "_hash", hash((2, char)))


class Star(Node):
    __slots__ = _fields = ("inner",)
    nullable = True

    def __init__(self, inner: Node):
        set_field(self, "inner", inner)
        set_field(self, "key", (3, inner.key))
        set_field(self, "_hash", hash((3, inner._hash)))


class Concat(Node):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Node, ...]):
        set_field(self, "parts", parts)
        set_field(self, "key", (4, *[p.key for p in parts]))
        set_field(self, "_hash", hash((4, *[p._hash for p in parts])))
        set_field(self, "nullable", all([p.nullable for p in parts]))


class Union(Node):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Node, ...]):
        set_field(self, "parts", parts)
        set_field(self, "key", (5, *[p.key for p in parts]))
        set_field(self, "_hash", hash((5, *[p._hash for p in parts])))
        set_field(self, "nullable", any([p.nullable for p in parts]))


class RegexAst(Record):
    _fields = ("root", "alphabet")


MAX_NESTING = 100
DERIVATIVE_PARTS_BUDGET = 10_000
MAX_LABEL_LENGTH = 100_000   # characters in one rendered state label; a+ with 15 + renders 98,301


# --- similarity-normalizing constructors: the parser and derivative build every node through them ---

_EMPTY = Empty()
_EPSILON = Epsilon()


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
    uniq = sorted(set(flat), key=attrgetter("key"))
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


_POSTFIX = {"*": star, "+": lambda x: cat([x, star(x)]), "?": lambda x: alt([x, _EPSILON])}


def parse_regex(text: str, alphabet) -> RegexAst:
    """Parse a pattern over an explicit alphabet.

    Letters are printable, non-space ASCII characters, so that none reads
    as a symbol of the outputs (λ, ⊤, ⊥, ∧, ∨).  Groups may nest at most
    MAX_NESTING deep, and so may the syntax tree (groups, concatenations,
    unions and postfix operators inside one another, as written); deeper
    patterns raise RegexSyntaxError, since every later stage recurses on the
    tree.  The root is normalized as it is built, x+ read as x x* and x? as
    x|%e, and is the tree compile_canonical_dfa closes from.
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

    def nested(parts, build):
        """(node, height) of a single part, or of build over several."""
        if len(parts) == 1:
            return parts[0]
        return build([node for node, _ in parts]), checked(1 + max(h for _, h in parts))

    def parse_expr():
        nonlocal pos
        terms = [parse_term()]
        while peek() == "|":
            pos += 1
            terms.append(parse_term())
        return nested(terms, alt)

    def parse_term():
        factors = []
        while True:
            c = peek()
            if c is None or c in "|)":
                break
            factors.append(parse_factor())
        if not factors:
            raise RegexSyntaxError("expected a letter, escape, or group", pos)
        return nested(factors, cat)

    def parse_factor():
        nonlocal pos
        node, height = parse_base()
        while peek() in _POSTFIX:
            node = _POSTFIX[text[pos]](node)
            pos += 1
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
                return _EPSILON, 1
            if esc == "0":
                pos += 2
                return _EMPTY, 1
            raise RegexSyntaxError(f"unknown escape %{esc}", pos)
        if c in _POSTFIX:
            raise RegexSyntaxError(f"postfix {c!r} with nothing to repeat", pos)
        if c in alphabet:
            pos += 1
            return Letter(c), 1
        raise RegexSyntaxError(f"letter {c!r} is not in the alphabet", pos)

    root, _ = parse_expr()
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return RegexAst(root, alphabet)


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
            if not head.nullable:
                break
        return alt(branches)
    raise TypeError(f"unnormalized node {node!r}")


def regex_to_str(node: Node) -> str:
    """Render a normalized node; used for residual state labels.

    Subtrees are shared, not copied, so a rendering can be exponentially
    longer than its tree: x+ is read as x x*, and each + of a run doubles
    it.  A node whose rendering would be longer than MAX_LABEL_LENGTH raises
    BudgetError, tested once from its pieces' lengths before they are joined.
    """

    def prec(n):
        if isinstance(n, Union):
            return 0
        if isinstance(n, Concat):
            return 1
        return 2

    def joined(pieces, sep=""):
        if sum(map(len, pieces)) + len(sep) * (len(pieces) - 1) > MAX_LABEL_LENGTH:
            raise BudgetError("rendered state label characters", MAX_LABEL_LENGTH)
        return sep.join(pieces)

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
                return joined(("(", inner, ")*"))
            return inner + "*"
        if isinstance(n, Concat):
            return joined([f"({rec(p)})" if prec(p) < 1 else rec(p) for p in n.parts])
        if isinstance(n, Union):
            return joined([rec(p) for p in n.parts], "|")
        raise TypeError(f"unnormalized node {n!r}")

    return rec(node)


def compile_canonical_dfa(ast: RegexAst, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Minimal complete DFA whose states are the left quotients of the language.

    The initial state is the language itself; a state is final exactly when
    its residual contains λ.  State labels render the residual regexes: minimize
    keeps each class's lowest-numbered derivative, the one along its shortlex-least word,
    and renders only those.
    """
    letter_ops = [lambda node, a=a: derivative(node, a) for a in ast.alphabet]
    order, _, delta, _ = close_values([ast.root], letter_ops, (), state_budget, "derivative states")
    finals = frozenset(i for i, n in enumerate(order) if n.nullable)
    return minimize_labelled(Dfa(ast.alphabet, tuple(delta), 0, finals), lambda q: regex_to_str(order[q]))
