"""Free term algebras over an alphabet and their canonical normal forms.

Three nested signatures act on languages: words (letters, λ, ·), meet terms
(adding ∧ and ⊤), and lattice terms (adding ∨ and ⊥).  Their quotients by
equal action on every language are, respectively, the free monoid, the free
idempotent semiring (finite word sets), and the free bounded distributive
lattice over words (antichains of finite word sets).  A meet form is a
shortlex-sorted word tuple, the empty tuple meaning ⊤; a lattice form is a
tuple of pairwise ⊆-incomparable meet forms, empty meaning ⊥ and ((),)
meaning ⊤.

Term syntax: letters, `^` for ∧, `v` for ∨, juxtaposition or `.` for ·,
`T` for ⊤, `_` for ⊥, `%e` for λ, parentheses.  `v` binds loosest, then
`^`, then concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import (
    AtomSet,
    ProfileTable,
    bottom,
    build_profile_table,
    contains_lambda,
    join,
    meet,
    own_bits,
    quotient_bits,
    quotient_letter,
    residual_atoms,
    top,
)
from .automata import dfa_of_finite_language
from .errors import SignatureError, TermSyntaxError

MeetForm = tuple[str, ...]
LatticeForm = tuple[MeetForm, ...]


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Sym(Term):
    char: str


@dataclass(frozen=True, slots=True)
class Lam(Term):
    pass


@dataclass(frozen=True, slots=True)
class TopT(Term):
    pass


@dataclass(frozen=True, slots=True)
class BotT(Term):
    pass


@dataclass(frozen=True, slots=True)
class Cat(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Join(Term):
    left: Term
    right: Term


_RESERVED = set("^v.T_()% ")


def parse_term(text: str, alphabet) -> Term:
    """Parse the ASCII term syntax over the given alphabet."""
    alphabet = tuple(alphabet)
    clash = _RESERVED & set(alphabet)
    if clash:
        raise ValueError(f"alphabet letters {sorted(clash)} clash with term syntax")
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < len(text) else None

    def parse_join():
        nonlocal pos
        node = parse_meet()
        while peek() == "v":
            pos += 1
            node = Join(node, parse_meet())
        return node

    def parse_meet():
        nonlocal pos
        node = parse_cat()
        while peek() == "^":
            pos += 1
            node = Meet(node, parse_cat())
        return node

    def parse_cat():
        nonlocal pos
        node = parse_atom()
        while True:
            c = peek()
            if c == ".":
                pos += 1
                node = Cat(node, parse_atom())
            elif c is not None and (c in alphabet or c in "T_(%"):
                node = Cat(node, parse_atom())
            else:
                return node

    def parse_atom():
        nonlocal pos
        c = peek()
        if c is None:
            raise TermSyntaxError("unexpected end of term", pos)
        if c == "(":
            open_pos = pos
            pos += 1
            node = parse_join()
            if peek() != ")":
                raise TermSyntaxError("unclosed group", open_pos)
            pos += 1
            return node
        if c == "%":
            if pos + 1 < len(text) and text[pos + 1] == "e":
                pos += 2
                return Lam()
            raise TermSyntaxError("unknown escape", pos)
        if c == "T":
            pos += 1
            return TopT()
        if c == "_":
            pos += 1
            return BotT()
        if c in alphabet:
            pos += 1
            return Sym(c)
        raise TermSyntaxError(f"unexpected {c!r}", pos)

    node = parse_join()
    skip_ws()
    if pos != len(text):
        raise TermSyntaxError(f"unexpected {text[pos]!r}", pos)
    return node


# --- canonical form plumbing ---

def word_key(w: str):
    return (len(w), w)


def meet_form(words) -> MeetForm:
    return tuple(sorted(set(words), key=word_key))


def meet_form_key(u: MeetForm):
    return (len(u), tuple(word_key(w) for w in u))


def lattice_form(inners) -> LatticeForm:
    """Antichain normal form: drop every inner set that contains another."""
    sets = [frozenset(i) for i in inners]
    keep = []
    for i, s in enumerate(sets):
        if any(t < s for t in sets):
            continue
        if s in keep:
            continue
        keep.append(s)
    forms = [meet_form(s) for s in keep]
    return tuple(sorted(forms, key=meet_form_key))


def lattice_form_key(f: LatticeForm):
    return (len(f), tuple(meet_form_key(u) for u in f))


TOP_FORM: LatticeForm = ((),)
BOT_FORM: LatticeForm = ()


def word_str(w: str) -> str:
    return w if w else "λ"


def meet_form_str(u: MeetForm) -> str:
    if not u:
        return "⊤"
    return "∧".join(word_str(w) for w in u)


def lattice_form_str(f: LatticeForm) -> str:
    if not f:
        return "⊥"
    if f == TOP_FORM:
        return "⊤"
    parts = []
    for u in f:
        s = meet_form_str(u)
        parts.append(f"({s})" if len(u) > 1 and len(f) > 1 else s)
    return "∨".join(parts)


def mf_meet(u: MeetForm, v: MeetForm) -> MeetForm:
    return meet_form(u + v)


def mf_mul(u: MeetForm, v: MeetForm) -> MeetForm:
    """Products distribute down to all word-by-word concatenations; ⊤ annihilates."""
    return meet_form(x + y for x in u for y in v)


def lf_join(f: LatticeForm, g: LatticeForm) -> LatticeForm:
    return lattice_form(f + g)


def lf_meet(f: LatticeForm, g: LatticeForm) -> LatticeForm:
    return lattice_form(mf_meet(u, v) for u in f for v in g)


def _lf_mul_word(f: LatticeForm, w: str) -> LatticeForm:
    return lattice_form(tuple(x + w for x in u) for u in f)


def multiply_lattice_forms(f: LatticeForm, g: LatticeForm) -> LatticeForm:
    """Product in the free structure.

    The right factor is expanded first: a join over its inner sets of meets
    over their words, each word multiplying the left factor pointwise.  The
    empty inner set (⊤) collapses the product to ⊤ and the empty outer set
    (⊥) to ⊥, making ⊤ and ⊥ right zeros.
    """
    out = BOT_FORM
    for inner in g:
        part = TOP_FORM
        for w in inner:
            part = lf_meet(part, _lf_mul_word(f, w))
        out = lf_join(out, part)
    return out


# --- normalization of terms to the free structures ---

def normalize_monoid(t: Term) -> str:
    if isinstance(t, Sym):
        return t.char
    if isinstance(t, Lam):
        return ""
    if isinstance(t, Cat):
        return normalize_monoid(t.left) + normalize_monoid(t.right)
    raise SignatureError(f"{type(t).__name__} is not a monoid term")


def normalize_semiring(t: Term) -> MeetForm:
    if isinstance(t, Sym):
        return (t.char,)
    if isinstance(t, Lam):
        return ("",)
    if isinstance(t, TopT):
        return ()
    if isinstance(t, Meet):
        return mf_meet(normalize_semiring(t.left), normalize_semiring(t.right))
    if isinstance(t, Cat):
        return mf_mul(normalize_semiring(t.left), normalize_semiring(t.right))
    raise SignatureError(f"{type(t).__name__} is not a semiring term")


def normalize_lattice(t: Term) -> LatticeForm:
    if isinstance(t, Sym):
        return ((t.char,),)
    if isinstance(t, Lam):
        return (("",),)
    if isinstance(t, TopT):
        return TOP_FORM
    if isinstance(t, BotT):
        return BOT_FORM
    if isinstance(t, Meet):
        return lf_meet(normalize_lattice(t.left), normalize_lattice(t.right))
    if isinstance(t, Join):
        return lf_join(normalize_lattice(t.left), normalize_lattice(t.right))
    if isinstance(t, Cat):
        return multiply_lattice_forms(normalize_lattice(t.left), normalize_lattice(t.right))
    raise SignatureError(f"{type(t).__name__} is not a lattice term")


def embed_lattice_form(f: LatticeForm) -> Term:
    """Right-combed term whose lattice normal form is f."""

    def word_term(w: str) -> Term:
        if not w:
            return Lam()
        t: Term = Sym(w[-1])
        for c in reversed(w[:-1]):
            t = Cat(Sym(c), t)
        return t

    def inner_term(u: MeetForm) -> Term:
        if not u:
            return TopT()
        t = word_term(u[-1])
        for w in reversed(u[:-1]):
            t = Meet(word_term(w), t)
        return t

    if not f:
        return BotT()
    t = inner_term(f[-1])
    for u in reversed(f[:-1]):
        t = Join(inner_term(u), t)
    return t


# --- actions on AtomSets ---

def eval_term(pt: ProfileTable, x: AtomSet, t: Term) -> AtomSet:
    """Structural action: λ fixes, letters quotient, · composes, ⊤/∧ and ⊥/∨
    are the full/empty languages with intersection/union."""
    if isinstance(t, Lam):
        return x
    if isinstance(t, Sym):
        return quotient_letter(pt, x, t.char)
    if isinstance(t, Cat):
        return eval_term(pt, eval_term(pt, x, t.left), t.right)
    if isinstance(t, TopT):
        return top(pt)
    if isinstance(t, Meet):
        return meet(eval_term(pt, x, t.left), eval_term(pt, x, t.right))
    if isinstance(t, BotT):
        return bottom(pt)
    if isinstance(t, Join):
        return join(eval_term(pt, x, t.left), eval_term(pt, x, t.right))
    raise TypeError(f"unknown term {t!r}")


def eval_meet_bits(pt: ProfileTable, x: int, u: MeetForm) -> int:
    out = top(pt).bits
    for w in u:
        y = x
        for a in w:
            y = quotient_bits(pt, y, a)
        out &= y
    return out


def eval_lattice_bits(pt: ProfileTable, x: int, f: LatticeForm) -> int:
    out = 0
    for u in f:
        out |= eval_meet_bits(pt, x, u)
    return out


def eval_meet_form(pt: ProfileTable, x: AtomSet, u: MeetForm) -> AtomSet:
    return AtomSet(pt, eval_meet_bits(pt, own_bits(pt, x), u))


def eval_lattice_form(pt: ProfileTable, x: AtomSet, f: LatticeForm) -> AtomSet:
    return AtomSet(pt, eval_lattice_bits(pt, own_bits(pt, x), f))


# --- separation of distinct canonical forms ---

def separating_language(n1: LatticeForm, n2: LatticeForm) -> tuple[str, ...]:
    """A finite language L with λ ∈ L∘n1 xor λ ∈ L∘n2.

    Pick an inner set X of one form that the other lacks; if the other form
    has an inner set below X, that smaller set already separates (it lies
    under X but under no inner set of X's own antichain), otherwise X does.
    """
    if n1 == n2:
        raise ValueError("forms are equal; nothing separates them")
    own, other = n1, n2
    extra = [u for u in own if u not in other]
    if not extra:
        own, other = n2, n1
        extra = [u for u in own if u not in other]
    x = min(extra, key=meet_form_key)
    xs = frozenset(x)
    below = [v for v in other if frozenset(v) <= xs]
    if below:
        return min(below, key=meet_form_key)
    return x


def finite_language_context(words, alphabet):
    """Profile table and AtomSet of a finite language, for direct evaluation."""
    dfa = dfa_of_finite_language(words, alphabet)
    pt = build_profile_table(dfa)
    return pt, residual_atoms(pt, dfa.initial)


def lambda_in_action(words, alphabet, f: LatticeForm) -> bool:
    """Whether λ ∈ L∘f for the finite language L given as a word set."""
    pt, x = finite_language_context(words, alphabet)
    return contains_lambda(pt, eval_lattice_form(pt, x, f))
