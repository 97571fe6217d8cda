"""Syntactic monoid, syntactic semiring, and syntactic lattice algebra.

Elements are identified by their action on a set of column states and carry
a canonical witness form used for printing.  The monoid and the semiring act
on the residuals; there, equal action is a congruence and the products are
witness-free (the action of a meet form on an intersection of residuals is
the intersection of the actions).

The lattice level has two quotients.  syntactic_lattice_algebra identifies
forms that act equally on the residuals.  That relation is not compatible
with multiplication, since the action of a general form on a union of
residuals is not determined by its action on the residuals; its product
goes through the stored witness forms and can break the lattice-algebra
laws.  transition_lattice_algebra identifies forms that act equally on every
state of the canonical lattice automaton, the largest congruence inside the
residual relation; its product is composition and it satisfies the laws.
Each algebra finds its values before it numbers them: the monoid, closed
as coded transformations of the columns, the meet values of its images and
a lattice quotient's joins of those, on packed ints.  The numbering closure
stops once it holds them all.  Letter quotients, witnesses and table rows
are walked along those closures' breadth-first trees, one op or lookup a
cell, so no builder evaluates a form.  Every table of every algebra is an
IntRows: each row is built on its first read, so a format builds only the
rows it prints.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, partial, reduce
from operator import and_, or_

from .atoms import AtomSet, ProfileTable, own_bits, pack_images, residual_atoms, top, unpack_columns
from .automata import Dfa, close_values, least_forms, number, tree_words
from .canonical import HasseDiagram, hasse_from_leq, quotient_moves, state_closures
from .errors import InconsistencyError
from .records import Record, set_field
from . import terms
from .terms import LatticeForm

DEFAULT_ELEMENT_BUDGET = 100_000


DfaTransformation = namedtuple("DfaTransformation", ("mapping", "witness"))
DfaTransformation.__doc__ = """Action of a word on the DFA states, with its shortlex-least witness.

A named tuple of mapping (a tuple of state ids) and witness (a str): a
monoid has thousands, and a tuple is built in half the time of a frozen
dataclass.  It compares equal to the plain tuple (mapping, witness).
"""


class Memo(dict):
    """fn(x) for each key x, computed on its first lookup only."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, x):
        v = self[x] = self.fn(x)
        return v


class IntRows(Sequence):
    """n rows of plain ints, row i the tuple row(i), built on its first access.

    Every table of every algebra is one: the monoid's product, the
    semiring's ∧ and product, the lattice quotients' ∧, ∨ and product.  So a
    format builds only the rows it reads: dot none, the text table one
    product row per column state and a semiring's ∧ rows those read, the
    JSON document every row.  It equals, hashes, prints and pickles as the
    tuple of its rows, so it stands wherever that tuple did, and
    render._json writes it without looking at its cells.  rows holds the
    rows built so far and builds a missing one on lookup (a Memo), so
    iterating runs in C but for the rows it builds; self[i] adds a Python
    call a row, and a walker over every cell reads tuple(self).
    """

    def __init__(self, n: int, row):
        self.n = n
        self.rows = Memo(row)

    def __len__(self):
        return self.n

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self.rows[k] for k in range(self.n)[i]]
        return self.rows[range(self.n)[i]]

    def __iter__(self):
        return map(self.rows.__getitem__, range(self.n))

    def __eq__(self, other):
        return tuple(self) == other   # another IntRows answers tuple's NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):   # row holds a local function, which pickle refuses
        return tuple, (tuple(self),)


def _walk(table, tree, start: int) -> list[int]:
    """The cells along a breadth-first tree from start: cell 0 is start, and
    cell j is table[cell p][a] for (p, a) = tree[j - 1], p < j."""
    cells = [start]
    for p, a in tree:
        cells.append(table[cells[p]][a])
    return cells


def _quotients(tree, steps, op, seed: int) -> list[tuple[int, ...]]:
    """Each packed value's letter quotients along the tree of its closure, one op a cell:
    value j ≥ 1 of a closure of one seed, ⊤ or ⊥, under "op generator k" is
    first reached as op(value p, generator k) for (p, k) = tree[j - 1], and
    steps[k] holds generator k's quotients.  A letter quotient distributes
    over ∩ and ∪, so j·a = op(p·a, k·a); the seed is its own quotient."""
    rows = [(seed,) * len(steps[0])]
    for p, k in tree:
        rows.append(tuple(map(op, rows[p], steps[k])))
    return rows


class SyntacticMonoid(Record):
    """== and hash read neither table, index nor right, and repr shows neither index nor right."""

    # table[i][j] = class of witness_i · witness_j; letter_elements: per alphabet
    # position; index: mapping -> element; right[i][a] = i · letter a
    _fields = ("dfa", "elements", "identity", "table", "letter_elements", "index", "right")
    _compare = ("dfa", "elements", "identity", "letter_elements")
    _hidden = ("index", "right")

    def __len__(self):
        return len(self.elements)

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.word_str(e.witness) for e in self.elements)

    def element_of_word(self, word: str) -> int:
        e = self.identity
        for a in word:
            e = self.right[e][self.dfa.letter_index(a)]
        return e


def _identity_code(delta) -> str:
    """The identity transformation of delta's states, coded as in _state_ops."""
    return "".join(map(chr, range(len(delta))))


def _state_ops(delta, letters):
    """Right multiplication by each letter index in letters, on coded transformations
    of the states of delta, a transition table: delta[q][a] is q·a.

    A transformation m is coded as the str whose q-th character is
    chr(m[q]).  Then m·a is m.translate(column), column[q] = chr(q·a): every
    code is below len(column), so str.translate maps each character, and the
    per-state loop runs in C (on CPython's ASCII fast path up to 128
    states).  Codes cover up to 0x10FFFF states, far past any state budget
    that can be reached.  tuple(map(ord, m)) decodes m.
    """
    columns = ["".join([chr(row[li]) for row in delta]) for li in letters]
    return [lambda m, column=column: m.translate(column) for column in columns]


def syntactic_monoid(dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticMonoid:
    """Transformation monoid of the canonical DFA, closed breadth first over the letters.

    The closure runs on coded transformations (_state_ops) from the
    identity's code; each value is decoded once afterwards, so mappings and
    index hold tuples of states.  Each element's witness is its word along
    the breadth-first spanning tree, which is its shortlex-least word.

    The closure's letter table right, right[i][a] = element i times letter
    a, is the right Cayley graph (Froidure and Pin, "Algorithms for
    computing finite semigroups", 1997).  Every element j ≥ 1 is
    parent(j)·a for (parent(j), a) = tree[j - 1], the closure's tree, with
    parent(j) < j, so row i of the product table is filled left to right:
    i·0 = i and i·j = right[i·parent(j)][a], one list lookup per cell.
    Only the JSON document reads every row, and the identity check the rows
    of the idempotents; the text table reads the elements' mappings.
    """
    letter_ops = _state_ops(dfa.delta, range(len(dfa.alphabet)))
    codes, _, right, tree = close_values([_identity_code(dfa.delta)], letter_ops, (), budget, "monoid elements")
    mappings = [tuple(map(ord, c)) for c in codes]
    index = {m: i for i, m in enumerate(mappings)}
    table = IntRows(len(right), lambda i: tuple(_walk(right, tree, i)))
    elements = tuple(map(DfaTransformation._make, zip(mappings, tree_words(tree, dfa.alphabet))))
    return SyntacticMonoid(dfa, elements, 0, table, right[0], index, tuple(right))


def omega_power(m: SyntacticMonoid, e: int) -> int:
    """The unique idempotent among the powers of e.

    The powers are composed as mappings, so no row of the Cayley table is
    built; a transformation has at most len(m) distinct powers.
    """
    p = m.elements[e].mapping
    cur = p
    for _ in range(len(m.elements)):
        if tuple(cur[x] for x in cur) == cur:
            return m.index[cur]
        cur = tuple(p[x] for x in cur)
    raise InconsistencyError("no idempotent power found; the monoid is not closed")


class _Element(Record):
    """An algebra element: its action, a tuple of AtomSets, and its witness form."""

    _fields = ("mapping", "witness")

    def __init__(self, mapping: tuple[AtomSet, ...], witness):
        set_field(self, "mapping", mapping)
        set_field(self, "witness", witness)


class SemiringElement(_Element):
    """Action on residuals (images are meet-automaton states) plus witness meet form."""


class SyntacticSemiring(Record):
    _fields = ("pt", "dfa", "elements", "one", "top", "letter_elements", "meet_table", "mul_table", "order")

    def __len__(self):
        return len(self.elements)

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.meet_form_str(e.witness) for e in self.elements)


def semiring_action_bits(pt: ProfileTable, mapping: tuple[int, ...], x: int) -> int:
    """Action of a semiring element (residual images as bits) on a meet of residuals.

    (∩ S)∘U = ∩ {q∘U : q ∈ S}; using every residual above x is safe because
    x is their meet.
    """
    out = top(pt).bits
    for q, r in enumerate(pt.residual_bits):
        if x | r == r:
            out &= mapping[q]
    return out


def extend_semiring_action(pt: ProfileTable, mapping, x: AtomSet) -> AtomSet:
    """Action of a semiring element on any meet of residuals."""
    return AtomSet(pt, semiring_action_bits(pt, tuple(m.bits for m in mapping), own_bits(pt, x)))


def _atomset_mappings(pt: ProfileTable, mappings):
    """The bit mappings as AtomSet tuples, one AtomSet per distinct image."""
    atoms = {x: AtomSet(pt, x) for x in {x for m in mappings for x in m}}
    return [tuple(map(atoms.__getitem__, m)) for m in mappings]


def _meet_values(pt: ProfileTable, dfa: Dfa, cols, delta, budget: int, what: str):
    """(monoid_tree, meet_tree, meet values, their index, meet_image, generators,
    steps) of the column bitmasks cols, whose a-quotients are cols[delta[c][a]].

    The monoid is the identity closed under the coded letter ops (_state_ops)
    over the sorted letters, so its elements come in the order of their
    word_key-least words; monoid_tree is its closure's tree, its letters
    alphabet positions, and meet_tree the meet values'.  Image t packs
    (atoms.pack_images) cols[t[c]] as column c: distinct columns give distinct
    images, and the image of t·a is the a-quotient of image t, so the images
    come in the order their closure under letter quotients would find them,
    and steps[t] holds image t's quotients by the letters in alphabet order.
    The meet values are ⊤ closed under ∧ image t, and meet_image[i][t] is
    value i ∧ image t; generators are the values of 1 and of each letter in
    alphabet order, images 1 and steps[0].
    """
    letters = sorted(range(len(dfa.alphabet)), key=dfa.alphabet.__getitem__)
    monoid, _, monoid_right, tree = close_values([_identity_code(delta)], _state_ops(delta, letters), (), budget, what)
    images = pack_images(pt, cols, (map(ord, m) for m in monoid))
    full = pack_images(pt, (top(pt).bits,), [[0] * len(cols)])[0]   # ⊤ in every column
    meet_ops = [lambda v, y=y: v & y for y in images]
    values, index, meet_image, meet_tree = close_values([full], meet_ops, (), budget, what)
    columns = list(map(letters.index, range(len(letters))))   # alphabet position -> column of monoid_right
    steps = [tuple([images[row[c]] for c in columns]) for row in monoid_right]
    generators = list(map(index.__getitem__, (images[0], *steps[0])))
    return [(t, letters[a]) for t, a in tree], meet_tree, values, index, meet_image, generators, steps


def _least_meet_forms(dfa: Dfa, monoid_tree, meet_tree):
    """Each meet value's least meet form, fewest words first, then sorted word
    keys: the monoid elements' words along monoid_tree, ranked as the meet
    values' generators, along meet_tree (automata.least_forms)."""
    return least_forms(meet_tree, tree_words(monoid_tree, dfa.alphabet))


def _meet_product(right, meet, monoid_tree, meet_tree, top_id: int, i: int) -> list[int]:
    """i·k for each meet value k in the order of meet_tree, walked along the trees of the witnesses.

    right[i][a] is element i times letter a and meet[i][j] is i ∧ j, both on
    one numbering of the elements, ⊤ top_id.  Monoid element t ≥ 1 is first
    reached as parent(t)·a (monoid_tree), and meet value k ≥ 1 as k′ ∧
    image t (meet_tree).  Letter quotients distribute over ∩, so i·t =
    right[i·parent(t)][a] with i·1 = i, and i·k = (i·k′) ∧ (i·t) with i·⊤ =
    ⊤: one lookup per cell.
    """
    action = _walk(right, monoid_tree, i)   # i·t for each monoid element t
    row = [top_id]
    for k, t in meet_tree:
        row.append(meet[row[k]][action[t]])
    return row


def syntactic_semiring(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticSemiring:
    """⊤ and the pointwise meets of the monoid's images (Polák, "Syntactic
    semiring of a language", 2001), numbered as the closure of {1, letters, ⊤}
    under meet and product discovers them; the README gives the argument.

    The values are _meet_values' meet values on the residuals, image t
    mapping residual q to the residual of q·t, so their count n is known
    before they are numbered: automata.number replays the discovery order
    from 1, the letters and ⊤ on int rows of the values only until it holds
    n of them.  Value j ≥ 1 is first reached as k ∧ image t with k < j, so a
    row of ∧ walks meet_image along that tree, i∧j = (i∧k)∧image t, a row of
    the product is _meet_product's over the letter rows (_quotients), and
    what lies below j is what lies below both k and image t: the order.  The
    final rows walk meet_image and the letter rows relabelled into final ids,
    each on its first read, so dot builds none.  Each witness is the least
    meet form (_least_meet_forms).  A refusal comes from the monoid's or the
    values' closure, before any row or witness: the monoid's elements have
    distinct images.
    """
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    what = "semiring elements"
    closed = _meet_values(pt, dfa, pt.residual_bits, dfa.delta, budget, what)
    monoid_tree, meet_tree, values, index, meet_image, generators, steps = closed
    forms = _least_meet_forms(dfa, monoid_tree, meet_tree)
    n = len(values)
    by_letter = [tuple(map(index.__getitem__, q)) for q in _quotients(meet_tree, steps, and_, values[0])]
    meet = Memo(partial(_walk, meet_image, meet_tree))   # the replay's rows, on the values' ids
    mul = Memo(partial(_meet_product, by_letter, meet, monoid_tree, meet_tree, 0))
    ops = [lambda i, j: meet[i][j], lambda i, j: mul[i][j], lambda i, j: mul[j][i]]
    order, final, _ = number(range(n), [*generators, 0], (), ops, what)
    image = [tuple(map(final.__getitem__, meet_image[p])) for p in order]   # the walks' inputs in final ids
    right = [tuple(map(final.__getitem__, by_letter[p])) for p in order]
    meet_table = IntRows(n, lambda a: tuple(map(_walk(image, meet_tree, a).__getitem__, order)))
    mul_table = IntRows(n, lambda a: tuple(map(
        _meet_product(right, meet_table.rows, monoid_tree, meet_tree, final[0], a).__getitem__, order)))
    below = [sum(1 << a for a, row in enumerate(image) if row[t] == a) for t in range(len(steps))]
    down = [(1 << n) - 1]   # ⊤'s down-set
    for k, t in meet_tree:
        down.append(down[k] & below[t])
    covers = sorted((j, i) for i, j in hasse_from_leq([down[p] for p in order]).covers)   # the covers of ≥
    elements = tuple(
        SemiringElement(m, forms[p])
        for m, p in zip(_atomset_mappings(pt, [unpack_columns(pt, values[p], dfa.n_states) for p in order]), order)
    )
    return SyntacticSemiring(
        pt, dfa, elements, 0, final[0], tuple(final[g] for g in generators[1:]),
        meet_table, mul_table, HasseDiagram(tuple(covers)),
    )


class LatticeAlgebraElement(_Element):
    """Action on the column states (images are lattice-automaton states) plus witness form."""


class SyntacticLatticeAlgebra(Record):
    # generators, P: letter images, per alphabet position; mul_table: None if
    # built without tables; columns: the states acted on, None: the residuals
    _fields = ("pt", "dfa", "elements", "one", "top", "bottom", "generators",
               "meet_table", "join_table", "mul_table", "order", "columns")
    columns = None

    def __len__(self):
        return len(self.elements)

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.lattice_form_str(e.witness) for e in self.elements)

    @cached_property
    def index(self) -> dict[tuple[AtomSet, ...], int]:   # mapping -> element; only element_of_form reads it
        return {e.mapping: i for i, e in enumerate(self.elements)}

    def mapping_of_form(self, form: LatticeForm) -> tuple[AtomSet, ...]:
        """Action of a lattice form on every column state."""
        cols = self.columns
        if cols is None:
            cols = tuple(residual_atoms(self.pt, q) for q in range(self.dfa.n_states))
        return tuple(terms.eval_lattice_form(self.pt, x, form) for x in cols)

    def element_of_form(self, form: LatticeForm) -> int:
        i = self.index.get(self.mapping_of_form(form))
        if i is None:
            raise InconsistencyError("form evaluates outside the computed algebra")
        return i


def _least_lattice_forms(dfa: Dfa, monoid_tree, meet_tree, join_tree):
    """Each lattice value's least lattice form: fewest inners first, then sorted inner keys.

    Read off the trees of the closures _lattice_algebra finds the values
    with: those of _meet_values, and join_tree, the tree of the closure of ⊥
    under "∨ meet value k", on whose ids the forms come: (parent, k) for
    value j = parent ∨ meet value k.

    A least lattice form has least meet forms of distinct meet values as its
    inners: putting the least meet form of an inner's value in its place
    gives a form no later, and two inners of one value, or one inside
    another, would leave a form with fewer inners.  The meet values come in
    the order of their least meet forms (_least_meet_forms); so a least
    lattice form is a set of meet values, and automata.least_forms reads it
    off the closure of ⊥ under "∨ meet value k".
    """
    return least_forms(join_tree, _least_meet_forms(dfa, monoid_tree, meet_tree))


def _mask_lattice(meet_values, join_tree):
    """(masks, at, meet, join, order) of the lattice values: ⊥ and the joins of
    meet_values, joined along join_tree as in _least_lattice_forms, on the
    elements' ids; at maps each mask to its element, a list indexed by mask
    unless that list would be long next to n.

    The values under & and | form a finite distributive lattice.  Its
    join-irreducibles are the nonzero meet values that are not the | of the
    meet values strictly below them, and each value is the | of the
    join-irreducibles below it (Birkhoff's representation theorem; Davey and
    Priestley, Introduction to Lattices and Order, ch. 5).  So with bit b of
    mask(v) set iff join-irreducible b lies below v, distinct values have
    distinct masks, and ∧ and ∨ are & and | on the masks.  A
    join-irreducible below p ∨ k lies below p or below k, so mask(j) =
    mask(p) | mask(k) along the tree.  Row i of ∧ is at[mask(i) & x] for
    each mask x, and row i of ∨ the same with |, each built on its first
    read by one comprehension, one & or | and one lookup a cell.  j covers i
    exactly when mask(j) is mask(i) plus one join-irreducible whose lower
    join-irreducibles all lie in mask(i): n·|join-irreducibles| steps,
    listed as hasse_from_leq does, on the masks alone, so the order builds
    no table row.
    """
    irreducible = []
    for m in meet_values:
        if m and reduce(or_, [y for y in meet_values if y & m == y != m], 0) != m:
            irreducible.append(m)
    below = [sum(1 << b for b, x in enumerate(irreducible) if x & m == x) for m in meet_values]
    lower = [sum(1 << c for c, y in enumerate(irreducible) if y & x == y != x) for x in irreducible]
    n = len(join_tree) + 1
    masks = [0] * n
    for j, p, k in join_tree:
        masks[j] = masks[p] | below[k]
    at = {m: i for i, m in enumerate(masks)}
    if len(at) != n:
        raise InconsistencyError("two lattice algebra elements have the same join-irreducibles below them")
    if 1 << len(irreducible) <= 64 * n:   # a list indexed by mask: a dict would compare equal ints a cell
        at = [None] * (1 << len(irreducible))
        for i, m in enumerate(masks):
            at[m] = i

    def meet_row(i):
        m = masks[i]
        return tuple([at[m & x] for x in masks])

    def join_row(i):
        m = masks[i]
        return tuple([at[m | x] for x in masks])

    covers = []
    for i, m in enumerate(masks):
        ups = [at[m | 1 << b] for b, low in enumerate(lower) if not m >> b & 1 and low & m == low]
        covers.extend((i, j) for j in sorted(ups))
    return masks, at, IntRows(n, meet_row), IntRows(n, join_row), HasseDiagram(tuple(covers))


def _lattice_products(right, masks, at, top_id: int, trees) -> IntRows:
    """mul[i][j]: element i times element j, each row walked on first read over the
    trees of _least_lattice_forms, on _mask_lattice's masks.

    Monoid element t ≥ 1 is first reached as parent(t)·a, meet value k ≥ 1
    as k′ ∧ image t, and j as the join of its parent j′ and a meet value k.
    Letter quotients distribute over ∩ and ∪, so i·t = right[i·parent(t)][a]
    with i·1 = i, mask(i·k) = mask(i·k′) & mask(i·t) with i·⊤ = ⊤, and
    mask(i·j) = mask(i·j′) | mask(i·k) with i·⊥ = ⊥, mask 0: one lookup a
    cell, and at maps the row's masks to elements once at the end.  So a
    product row reads no ∧ or ∨ row.
    """
    monoid_tree, meet_tree, join_tree = trees

    def row(i):
        action = _walk(right, monoid_tree, i)   # i·t for each monoid element t
        inner = [masks[top_id]]
        for k, t in meet_tree:
            inner.append(inner[k] & masks[action[t]])
        cells = [0] * len(masks)
        for j, p, k in join_tree:
            cells[j] = cells[p] | inner[k]
        return tuple(map(at.__getitem__, cells))

    return IntRows(len(masks), row)


def _lattice_algebra(
    pt: ProfileTable, dfa: Dfa, columns: tuple[AtomSet, ...] | None, delta, budget: int, with_tables: bool = True
) -> SyntacticLatticeAlgebra:
    """The closure of {1, letters, ⊤, ⊥} under right multiplication by
    letters, pointwise ∧ and pointwise ∨, acting on the column states (None:
    the residuals; delta their transitions, as in _meet_values), numbered in
    discovery order; each element's least lattice form as its witness
    (_least_lattice_forms), and the product table.

    Each value is its tuple of column bitmasks packed into one int
    (atoms.pack_images), so ∧ and ∨ are & and |.  Letter quotients distribute
    over ∩ and ∪, so the values are ⊥ and the joins of the meet values: ⊤
    and the meets of the monoid's images, the values 1 reaches by letter
    quotients.  Three closures find them before any is numbered: the monoid
    as coded transformations, ⊤ under "∧ image t" (_meet_values), and ⊥
    under "∨ meet value k".  A refusal comes from one of them, before any
    letter quotient, witness or table.  automata.number then replays the
    closure above from the seeds read off them until it holds their count
    n, and raises InconsistencyError unless it holds exactly those values.
    Its letter ops read the values' quotients off _quotients' walks, which
    run on the values, not their ids, so that a quotient outside them is
    the replay's to find.  The ∧ and ∨ rows and the order are read off
    masks over the join-irreducibles (_mask_lattice).

    The product of i and j maps column c to the action of j's witness on
    mappings[i][c]: X∘(f·g) = (X∘f)∘g, and mappings[i][c] is the action of
    i's witness on column c.  _lattice_products walks it along the trees the
    witnesses are read off, on the letter rows and the masks.  Every table
    row is built on its first read, so dot builds none.
    """
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    what = "lattice algebra elements"
    cols = pt.residual_bits if columns is None else tuple(x.bits for x in columns)
    monoid_tree, meet_tree, meets, _, _, generators, steps = _meet_values(pt, dfa, cols, delta, budget, what)
    joins, join_index, _, join_tree = close_values([0], [lambda v, y=y: v | y for y in meets], (), budget, what)

    seeds = [meets[g] for g in (*generators, 0)] + [0]   # 1, the letters, ⊤ and ⊥
    forms = _least_lattice_forms(dfa, monoid_tree, meet_tree, join_tree)
    meet_quotients = _quotients(meet_tree, steps, and_, meets[0])
    quotients = _quotients(join_tree, meet_quotients, or_, 0)
    letter_ops = [dict(zip(joins, column)).__getitem__ for column in zip(*quotients)]
    try:
        values, index, _ = number(joins, seeds, letter_ops, [and_, or_], what)
        right = [tuple(map(index.__getitem__, quotients[join_index[v]])) for v in values]
        tree = [(index[joins[j]], index[joins[p]], k) for j, (p, k) in enumerate(join_tree, 1)]
        masks, at, meet_table, join_table, order = _mask_lattice(meets, tree)
    except KeyError:
        raise InconsistencyError(f"the {what} are not closed under their operations") from None
    one, *letter_ids, top_id, bottom_id = map(index.__getitem__, seeds)
    mul_table = _lattice_products(right, masks, at, top_id, (monoid_tree, meet_tree, tree)) if with_tables else None
    elements = tuple(
        LatticeAlgebraElement(m, forms[join_index[v]])
        for m, v in zip(_atomset_mappings(pt, [unpack_columns(pt, v, len(cols)) for v in values]), values)
    )
    return SyntacticLatticeAlgebra(
        pt, dfa, elements, one, top_id, bottom_id, tuple(letter_ids),
        meet_table, join_table, mul_table, order, columns,
    )


def syntactic_lattice_algebra(
    pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET, with_tables: bool = True
) -> SyntacticLatticeAlgebra:
    """Quotient by equal action on the residuals, with the witness-based product.

    Equal action on the residuals is not compatible with multiplication, so
    the product table depends on the stored witnesses and the lattice-algebra
    laws can fail (see transition_lattice_algebra for the lawful quotient).
    """
    return _lattice_algebra(pt, dfa, None, dfa.delta, budget, with_tables)


def transition_lattice_algebra(
    pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET
) -> SyntacticLatticeAlgebra:
    """Quotient by equal action on every state of the canonical lattice automaton.

    Since L∘(f·g) = (L∘f)∘g and the languages L∘f are exactly the lattice
    automaton's states, this is the largest congruence contained in equal
    action on the residuals: the transition lattice algebra of the lattice
    automaton.  Elements are maps on its states (the columns, in automaton
    order, residuals first), and the product is composition of those maps,
    independent of the witnesses.  The columns and their transitions come
    from the automaton's state closures alone (canonical.state_closures and
    canonical.quotient_moves): no witness or order of the automaton is built.
    """
    *_, (states, index, _) = state_closures(pt, dfa)
    delta = quotient_moves(pt, dfa, states, index)
    return _lattice_algebra(pt, dfa, tuple(AtomSet(pt, v) for v in states), delta, budget)


def multiply_lattice_elements(alg: SyntacticLatticeAlgebra, e1: int, e2: int) -> int:
    """Product through the canonical stored witnesses.

    The result does not depend on the left witness; it can depend on the
    right witness when the right class contains forms that act differently
    on non-residual lattice states, so the table is canonical relative to
    the stored witnesses (see the product examples in the tests).
    """
    return alg.element_of_form(terms.multiply_lattice_forms(alg.elements[e1].witness, alg.elements[e2].witness))


def hasse_of_elements(alg) -> HasseDiagram:
    """Cover relation of e ≤ f iff e∧f = e, computed once by the builder."""
    return alg.order


class AxiomViolation(Record):
    _fields = ("law", "operands", "lhs", "rhs")

    def describe(self, alg=None) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        base = f"{self.law} at ({ops}): {self.lhs} != {self.rhs}"
        if alg is not None:
            labels = alg.labels()
            name = lambda i: labels[i] if 0 <= i < len(labels) else "?"
            ops = ", ".join(name(o) for o in self.operands)
            base += f"  [{ops} -> {name(self.lhs)} vs {name(self.rhs)}]"
        return base


class AxiomReport(Record):
    _fields = ("violations", "checked", "truncated")
    truncated = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def laws_violated(self) -> tuple[str, ...]:
        seen = []
        for v in self.violations:
            if v.law not in seen:
                seen.append(v.law)
        return tuple(seen)


def check_lattice_algebra_axioms(alg: SyntacticLatticeAlgebra, max_violations: int = 1000) -> AxiomReport:
    """Exhaustive table check of the lattice-algebra laws.

    Covers: bounded distributive lattice laws, monoid laws with ⊥ and ⊤ as
    right zeros, ⊤·p = ⊤ and ⊥·p = ⊥ for generators p, left distributivity
    of · over ∧ and ∨ for all elements, right distributivity over the
    generators, and generation of the lattice by products of generators.
    """
    if alg.mul_table is None:
        raise ValueError("algebra was built without multiplication tables")
    n = len(alg.elements)
    A, O, M = map(tuple, (alg.meet_table, alg.join_table, alg.mul_table))   # every row, once
    one, tp, bt = alg.one, alg.top, alg.bottom
    P = sorted(set(alg.generators))
    violations: list[AxiomViolation] = []
    checked = 0
    truncated = False

    def report(law, operands, lhs, rhs):
        nonlocal checked, truncated
        checked += 1
        if lhs != rhs:
            if len(violations) < max_violations:
                violations.append(AxiomViolation(law, tuple(operands), lhs, rhs))
            else:
                truncated = True

    rng = range(n)
    for i in rng:
        report("meet-idempotent", (i,), A[i][i], i)
        report("join-idempotent", (i,), O[i][i], i)
        report("meet-top-unit", (i,), A[i][tp], i)
        report("join-bottom-unit", (i,), O[i][bt], i)
        report("meet-bottom-zero", (i,), A[i][bt], bt)
        report("join-top-zero", (i,), O[i][tp], tp)
        report("mul-unit-right", (i,), M[i][one], i)
        report("mul-unit-left", (i,), M[one][i], i)
        report("mul-top-right-zero", (i,), M[i][tp], tp)
        report("mul-bottom-right-zero", (i,), M[i][bt], bt)
    for p in P:
        report("top-absorbs-generator", (tp, p), M[tp][p], tp)
        report("bottom-absorbs-generator", (bt, p), M[bt][p], bt)
    for i in rng:
        for j in rng:
            report("meet-commutative", (i, j), A[i][j], A[j][i])
            report("join-commutative", (i, j), O[i][j], O[j][i])
            report("absorption-meet-join", (i, j), A[i][O[i][j]], i)
            report("absorption-join-meet", (i, j), O[i][A[i][j]], i)
    for i in rng:
        for j in rng:
            for k in rng:
                report("meet-associative", (i, j, k), A[A[i][j]][k], A[i][A[j][k]])
                report("join-associative", (i, j, k), O[O[i][j]][k], O[i][O[j][k]])
                report("meet-over-join", (i, j, k), A[i][O[j][k]], O[A[i][j]][A[i][k]])
                report("join-over-meet", (i, j, k), O[i][A[j][k]], A[O[i][j]][O[i][k]])
                report("mul-associative", (i, j, k), M[M[i][j]][k], M[i][M[j][k]])
                report("mul-left-dist-meet", (i, j, k), M[i][A[j][k]], A[M[i][j]][M[i][k]])
                report("mul-left-dist-join", (i, j, k), M[i][O[j][k]], O[M[i][j]][M[i][k]])
    for p in P:
        for i in rng:
            for j in rng:
                report("mul-right-dist-meet", (i, j, p), M[A[i][j]][p], A[M[i][p]][M[j][p]])
                report("mul-right-dist-join", (i, j, p), M[O[i][j]][p], O[M[i][p]][M[j][p]])

    # generation: lattice closure of the submonoid generated by P (with bounds)
    prods, *_ = close_values([one], [lambda e, p=p: M[e][p] for p in P], (), n, "products")
    span, *_ = close_values(prods + [tp, bt], (), [lambda i, j: A[i][j], lambda i, j: O[i][j]], n, "lattice span")
    checked += 1
    for e in sorted(set(rng) - set(span)):
        if len(violations) >= max_violations:
            truncated = True
            break
        violations.append(AxiomViolation("lattice-generated-by-products-of-P", (e,), e, -1))

    return AxiomReport(tuple(violations), checked, truncated)
