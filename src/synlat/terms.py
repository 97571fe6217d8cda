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
    bit_indices,
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
from .errors import InputError, SignatureError, TermSyntaxError
from .regex import MAX_NESTING

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


class _Binary(Term):
    """Cat, Meet and Join: equality, hash and repr walk the tree on an explicit
    stack, since a term as high as MAX_TERM_HEIGHT (a word is a chain of Cats)
    would exhaust the interpreter's stack if they recursed."""

    __slots__ = ()

    def _preorder(self) -> tuple:
        """The classes of the inner nodes and the leaves, in preorder; since
        each class has a fixed arity, this sequence determines the term."""
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, _Binary):
                out.append(t.__class__)
                stack += (t.right, t.left)
            else:
                out.append(t)
        return tuple(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(self._preorder())

    def __repr__(self):
        out = []
        stack = [self]   # terms and literal text, in reverse order of output
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, _Binary):
                stack += (")", t.right, ", right=", t.left, f"{t.__class__.__name__}(left=")
            else:
                out.append(repr(t))
        return "".join(out)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Cat(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Meet(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Join(_Binary):
    left: Term
    right: Term


_RESERVED = set("^v.T_()% ")
MAX_TERM_HEIGHT = 600   # normalization and evaluation recurse once per level; a word is a chain of Cats


def parse_term(text: str, alphabet) -> Term:
    """Parse the ASCII term syntax over the given alphabet.  Groups nested more than
    MAX_NESTING deep or trees higher than MAX_TERM_HEIGHT raise TermSyntaxError."""
    alphabet = tuple(alphabet)
    clash = _RESERVED & set(alphabet)
    if clash:
        raise InputError(f"alphabet letters {sorted(clash)} clash with term syntax")
    pos = 0
    groups = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < len(text) else None

    def binary(cls, left, right):   # parts and result are (node, height) pairs
        height = 1 + max(left[1], right[1])
        if height > MAX_TERM_HEIGHT:
            raise TermSyntaxError(f"term nested more than {MAX_TERM_HEIGHT} deep", pos)
        return cls(left[0], right[0]), height

    def parse_join():
        nonlocal pos
        node = parse_meet()
        while peek() == "v":
            pos += 1
            node = binary(Join, node, parse_meet())
        return node

    def parse_meet():
        nonlocal pos
        node = parse_cat()
        while peek() == "^":
            pos += 1
            node = binary(Meet, node, parse_cat())
        return node

    def parse_cat():
        nonlocal pos
        node = parse_atom()
        while True:
            c = peek()
            if c == ".":
                pos += 1
                node = binary(Cat, node, parse_atom())
            elif c is not None and (c in alphabet or c in "T_(%"):
                node = binary(Cat, node, parse_atom())
            else:
                return node

    def parse_atom():
        nonlocal pos, groups
        c = peek()
        if c is None:
            raise TermSyntaxError("unexpected end of term", pos)
        if c == "(":
            if groups == MAX_NESTING:
                raise TermSyntaxError(f"groups nested more than {MAX_NESTING} deep", pos)
            open_pos = pos
            pos += 1
            groups += 1
            node = parse_join()
            groups -= 1
            if peek() != ")":
                raise TermSyntaxError("unclosed group", open_pos)
            pos += 1
            return node
        if c == "%":
            if pos + 1 < len(text) and text[pos + 1] == "e":
                pos += 2
                return Lam(), 1
            raise TermSyntaxError("unknown escape", pos)
        if c == "T":
            pos += 1
            return TopT(), 1
        if c == "_":
            pos += 1
            return BotT(), 1
        if c in alphabet:
            pos += 1
            return Sym(c), 1
        raise TermSyntaxError(f"unexpected {c!r}", pos)

    node, _ = parse_join()
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


class FormInterner:
    """Words and witness forms on ints for the closures (hash-consing).

    Words get int ids in order of first use, each with its word_key cached.
    A meet form is the bitmask of its word ids (0 is ⊤), not interned: a
    meet is an OR.

    The lattice closures intern meet forms as inner sets, each with its word
    tuple and key computed once and sup[u], the bitmask of the inner ids
    whose word sets strictly contain u's.  A lattice form is the bitmask of
    its inner ids (0 is ⊥), and the antichain of a set s of inner ids is
    s & ~(OR of sup[u] for u in s): a join is an OR and one such reduction,
    and a meet ORs the antichains of {u ∪ v : v ∈ g}, memoized per inner set
    u of f and form g, then reduces; the minimal elements of a union are the
    minimal elements of the union of the parts' minimal elements.

    The witness orders that close takes, meet_less and lattice_less, compare
    member counts (bit_count) first and sorted member keys only on a tie; a
    lattice form's are memoized.

    Each op gives exactly the form of its tuple normalizer above (mf_meet,
    lf_meet, lf_join, multiply_lattice_forms by a letter) and each
    order compares as meet_form_key or lattice_form_key does, so the
    closures keep the same witnesses and tie-breaks; words_of and
    lattice_form give the tuple forms back at the API boundary.
    """

    def __init__(self):
        self.words: list[str] = []                 # word id -> word
        self._word_keys: list[tuple[int, str]] = []   # word id -> word_key
        self._word_ids: dict[str, int] = {}
        self._inner_ids: dict[int, int] = {}      # meet form -> inner id
        self.masks: list[int] = []                 # inner id -> meet form
        self.sup: list[int] = []                   # inner id -> bitmask of its strict supersets' ids
        self.forms: list[MeetForm] = []            # inner id -> shortlex-sorted word tuple
        self.keys: list[tuple] = []                # inner id -> meet_form_key
        self._letters: dict[tuple[int, str], int] = {}
        self._meets: dict[tuple[int, int], int] = {}   # (inner id, form) -> their meet
        self._up: dict[int, int] = {}              # form -> OR of sup over its ids, until the next intern
        self._ties: dict[int, tuple] = {}          # form -> its sorted inner keys

    def word(self, w: str) -> int:
        k = self._word_ids.get(w)
        if k is None:
            k = self._word_ids[w] = len(self.words)
            self.words.append(w)
            self._word_keys.append(word_key(w))
        return k

    # --- meet forms as bitmasks over word ids ---

    def meet_form(self, words) -> int:
        u = 0
        for k in map(self.word, words):
            u |= 1 << k
        return u

    def _word_key_tuple(self, u: int) -> tuple:
        return tuple(sorted(map(self._word_keys.__getitem__, bit_indices(u))))

    def meet_less(self, u: int, v: int) -> bool:
        """meet_form_key(u) < meet_form_key(v) for the meet forms u and v."""
        cu, cv = u.bit_count(), v.bit_count()
        if cu != cv:
            return cu < cv
        return u != v and self._word_key_tuple(u) < self._word_key_tuple(v)

    def mf_meet(self, u: int, v: int) -> int:
        return u | v

    def words_of(self, u: int) -> MeetForm:
        return tuple(map(self.words.__getitem__, sorted(bit_indices(u), key=self._word_keys.__getitem__)))

    # --- lattice forms as bitmasks over interned inner sets ---

    def _intern(self, mask: int) -> int:
        """Inner id of the word set with the given bitmask.

        A new id is entered in sup: one AND with each existing id's bitmask
        tells whether that set lies strictly inside the new one or strictly
        around it.  The memoized sup-ORs are dropped, as they may now miss it.
        """
        u = self._inner_ids.get(mask)
        if u is None:
            u = self._inner_ids[mask] = len(self.masks)
            bit, above, sup = 1 << u, 0, self.sup
            for v, m in enumerate(self.masks):
                common = m & mask
                if common == m:
                    sup[v] |= bit
                elif common == mask:
                    above |= 1 << v
            form = self.words_of(mask)
            self.masks.append(mask)
            sup.append(above)
            self.forms.append(form)
            self.keys.append(meet_form_key(form))
            self._up.clear()
        return u

    def inner(self, words) -> int:
        """Inner id of the meet of the given words."""
        return self._intern(self.meet_form(words))

    def _mul_letter(self, u: int, a: str) -> int:
        w = self._letters.get((u, a))
        if w is None:
            w = self._letters[u, a] = self.inner(x + a for x in self.forms[u])
        return w

    def _above(self, f: int) -> int:
        """OR of sup over the inner ids in f, memoized: f & ~_above(f) is f's antichain."""
        up = self._up.get(f)
        if up is None:
            up, sup, rest = 0, self.sup, f
            while rest:
                low = rest & -rest
                up |= sup[low.bit_length() - 1]
                rest ^= low
            self._up[f] = up
        return up

    def lf_join(self, f: int, g: int) -> int:
        """The antichain of both forms' inner sets."""
        s = f | g
        if s == f or s == g:
            return s
        return s & ~(self._above(f) | self._above(g))

    def _meet_inner(self, u: int, g: int) -> int:
        """The antichain of {u ∪ v : v ∈ g}, memoized per (u, g)."""
        key = (u, g)
        m = self._meets.get(key)
        if m is None:
            mu, masks, intern = self.masks[u], self.masks, self._intern
            m = 0
            while g:
                low = g & -g
                m |= 1 << intern(mu | masks[low.bit_length() - 1])
                g ^= low
            m = self._meets[key] = m & ~self._above(m)
        return m

    def lf_meet(self, f: int, g: int) -> int:
        """The antichain of the pairwise unions; f ∧ f = f, since each u ∪ v contains u."""
        if f == g:
            return f
        if f & (f - 1) == 0:
            return self._meet_inner(f.bit_length() - 1, g) if f else 0
        parts = []
        while f:
            low = f & -f
            parts.append(self._meet_inner(low.bit_length() - 1, g))
            f ^= low
        out = up = 0
        for m in parts:   # after the last intern, so that each sup-OR sees every id in out
            out |= m
            up |= self._above(m)
        return out & ~up

    def lf_mul_letter(self, f: int, a: str) -> int:
        """multiply_lattice_forms(f, ((a,),)).  Appending a letter is injective and
        keeps ⊆ both ways, so the inner sets stay an antichain."""
        out = 0
        while f:
            low = f & -f
            out |= 1 << self._mul_letter(low.bit_length() - 1, a)
            f ^= low
        return out

    def _tie_key(self, f: int) -> tuple:
        """The inner keys of f in order, memoized: lattice_form_key(f) without its count."""
        t = self._ties.get(f)
        if t is None:
            t = self._ties[f] = tuple(sorted(map(self.keys.__getitem__, bit_indices(f))))
        return t

    def lattice_less(self, f: int, g: int) -> bool:
        """lattice_form_key(f) < lattice_form_key(g) for the lattice forms f and g."""
        cf, cg = f.bit_count(), g.bit_count()
        if cf != cg:
            return cf < cg
        return f != g and self._tie_key(f) < self._tie_key(g)

    def lattice(self, inners) -> int:
        """lattice_form(inners) as a form."""
        s = 0
        for u in inners:
            s |= 1 << self.inner(u)
        return s & ~self._above(s)

    def lattice_form(self, f: int) -> LatticeForm:
        return tuple(map(self.forms.__getitem__, sorted(bit_indices(f), key=self.keys.__getitem__)))


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
