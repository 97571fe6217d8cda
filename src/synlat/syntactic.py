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
Each quotient finds its values before it numbers them: the monoid's
images, the meet values and their joins, each closed on packed ints.  The
numbering closure stops once it holds them all; the witnesses are read off
the three values closures' breadth-first trees, ∧, ∨ and the order off
masks over the join-irreducibles, and the product table is walked along the
witnesses' trees, one table lookup per cell, so no builder evaluates a form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, lshift, or_

from .atoms import AtomSet, ProfileTable, own_bits, quotient_bits, residual_atoms, top
from .automata import Dfa, close_values, spanning_tree, tree_paths, tree_words
from .canonical import HasseDiagram, hasse_from_leq, state_closures
from .errors import InconsistencyError
from . import terms
from .terms import LatticeForm, MeetForm

DEFAULT_ELEMENT_BUDGET = 100_000


@dataclass(frozen=True)
class DfaTransformation:
    """Action of a word on the DFA states, with its shortlex-least witness."""

    mapping: tuple[int, ...]
    witness: str


class CayleyTable(Sequence):
    """The monoid's multiplication table, each row built on first access.

    right[i][a] is element i times letter a: the right Cayley graph
    (Froidure and Pin, "Algorithms for computing finite semigroups", 1997).
    The elements are numbered breadth first from the identity 0, so every
    other element j is parent(j)·a for the element and letter that first
    reach it, with parent(j) < j.  Row i is then filled left to right:
    i·0 = i and i·j = right[i·parent(j)][a], one list lookup per cell.
    """

    def __init__(self, right: tuple[tuple[int, ...], ...]):
        self.right = right
        self.tree = spanning_tree(right)   # (parent(j), a) for j = 1, 2, ...
        self._rows: list[tuple[int, ...] | None] = [None] * len(right)

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self._rows))[i]]
        row = self._rows[i]
        if row is None:
            i = range(len(self._rows))[i]
            right = self.right
            cells = [i]
            for p, a in self.tree:
                cells.append(right[cells[p]][a])
            row = self._rows[i] = tuple(cells)
        return row


@dataclass(frozen=True)
class SyntacticMonoid:
    dfa: Dfa
    elements: tuple[DfaTransformation, ...]
    identity: int
    table: CayleyTable = field(compare=False)   # table[i][j] = class of witness_i · witness_j
    letter_elements: tuple[int, ...]            # per alphabet position
    index: dict[tuple[int, ...], int] = field(compare=False, repr=False)   # mapping -> element

    def __len__(self):
        return len(self.elements)

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.word_str(e.witness) for e in self.elements)

    def element_of_word(self, word: str) -> int:
        e = self.identity
        for a in word:
            e = self.table.right[e][self.dfa.letter_index(a)]
        return e


def _state_ops(dfa: Dfa, letters):
    """Right multiplication by each letter index in letters, on tuples of DFA states."""
    return [lambda m, li=li: tuple(dfa.delta[q][li] for q in m) for li in letters]


def syntactic_monoid(dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticMonoid:
    """Transformation monoid of the canonical DFA, closed breadth first over the letters.

    Each element's witness is its word along the breadth-first spanning
    tree, which is its shortlex-least word.
    """
    letter_ops = _state_ops(dfa, range(len(dfa.alphabet)))
    mappings, index, right, _ = close_values([tuple(range(dfa.n_states))], letter_ops, (), budget, "monoid elements")
    table = CayleyTable(tuple(right))
    elements = tuple(DfaTransformation(m, w) for m, w in zip(mappings, tree_words(table.tree, dfa.alphabet)))
    return SyntacticMonoid(dfa, elements, 0, table, right[0], index)


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


@dataclass(frozen=True)
class SemiringElement:
    """Action on residuals (images are meet-automaton states) plus witness meet form."""

    mapping: tuple[AtomSet, ...]
    witness: MeetForm


@dataclass(frozen=True)
class SyntacticSemiring:
    pt: ProfileTable
    dfa: Dfa
    elements: tuple[SemiringElement, ...]
    one: int
    top: int
    letter_elements: tuple[int, ...]
    meet_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    order: HasseDiagram

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


def _meet_order(meet_table) -> HasseDiagram:
    """Cover relation of e ≤ f iff e∧f = e: the pointwise order of the mappings."""
    return hasse_from_leq([sum(1 << j for j, k in enumerate(row) if k == i) for i, row in enumerate(meet_table)])


def _relabel(table, order, rank):
    """t[a][b] = rank[table[order[a]][order[b]]]: an int table renumbered, order[a] the old id of a."""
    return tuple(tuple(map(rank.__getitem__, map(row.__getitem__, order))) for row in map(table.__getitem__, order))


def _atomset_mappings(pt: ProfileTable, mappings):
    """The bit mappings as AtomSet tuples, one AtomSet per distinct image."""
    atoms = {x: AtomSet(pt, x) for x in {x for m in mappings for x in m}}
    return [tuple(map(atoms.__getitem__, m)) for m in mappings]


def _packing(pt: ProfileTable, n_columns: int):
    """(pack, unpack, quotient) for tuples of n_columns atom-set bitmasks packed
    into one int, pt.n_profiles bits a column.

    Pointwise ∧ and ∨ of packed tuples are & and |; quotient(v, a) unpacks,
    takes each column's letter quotient and repacks.
    """
    width = pt.n_profiles
    mask = (1 << width) - 1
    shifts = range(0, width * n_columns, width)

    def pack(cells) -> int:
        return sum(map(lshift, cells, shifts))

    def unpack(v: int) -> tuple[int, ...]:
        return tuple([v >> s & mask for s in shifts])

    def quotient(v: int, a: str) -> int:
        return pack([quotient_bits(pt, x, a) for x in unpack(v)])

    return pack, unpack, quotient


def _meet_values(seed, letter_ops, image, top_map: int, budget: int, what: str):
    """(monoid_right, meet values, their index, meet_image) on packed values.

    The monoid is seed closed under letter_ops, the letters in sorted order,
    so its elements come in the order of their word_key-least words and
    monoid_right is its right table; image(m) packs element m's action on
    the columns.  The meet values are top_map and the images closed under
    ∧ image t, and meet_image[i][t] is value i ∧ image t.
    """
    monoid, _, monoid_right, _ = close_values([seed], letter_ops, (), budget, what)
    images = list(map(image, monoid))
    meet_ops = [lambda v, y=y: v & y for y in images]
    values, index, meet_image, _ = close_values([top_map, *images], meet_ops, (), budget, what)
    return monoid_right, values, index, meet_image


def _meet_products(right, meet, top_id: int, monoid_tree, meet_tree):
    """Row by row, i·k for each meet value k: the product walked along the trees of the witnesses.

    right[i][a] is element i times letter a and meet[i][j] is i ∧ j, both on
    the elements' ids.  Monoid element t ≥ 1 is first reached as parent(t)·a
    (monoid_tree), and meet value k ≥ 1 as k′ ∧ image t (meet_tree).  Letter
    quotients distribute over ∩, so i·t = right[i·parent(t)][a] with i·1 = i,
    and i·k = (i·k′) ∧ (i·t) with i·⊤ = ⊤: one lookup per cell.
    """
    for i in range(len(right)):
        action = [i]   # i·t for each monoid element t
        for p, a in monoid_tree:
            action.append(right[action[p]][a])
        row = [top_id]
        for k, t in meet_tree:
            row.append(meet[row[k]][action[t]])
        yield row


def _semiring_tables(letters, values, index, meet_image, tree, monoid_tree, quotient):
    """The meet and product tables on the values' ids.

    meet_image[i][t] is i ∧ image t, and value j ≥ 1 is first reached as
    k ∧ image t with k < j, so i∧j = (i∧k)∧image t.  The values are the meet
    values, so the product is _meet_products' rows, on |values| letter
    quotients per letter, quotient(v, a) on packed values; tree is
    spanning_tree(meet_image).
    """
    meet = []
    for i in range(len(values)):
        row = [i]
        for k, t in tree:
            row.append(meet_image[row[k]][t])
        meet.append(row)
    by_letter = [tuple(index[quotient(v, a)] for a in letters) for v in values]
    mul = list(_meet_products(by_letter, meet, 0, monoid_tree, tree))
    return meet, mul


def syntactic_semiring(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticSemiring:
    """⊤ and the pointwise meets of the monoid's images (Polák, "Syntactic
    semiring of a language", 2001), numbered as the closure of {1, letters, ⊤}
    under meet and product discovers them; the README gives the argument.

    The monoid is closed over the sorted letters, so its elements come in the
    order of their word_key-least words; image t maps residual q to the
    residual of q·t.  The values are ⊤ and the images closed under ∧ image t
    (_meet_values, shared with the lattice algebras), each packed into one int (_packing), so their count n is known before
    they are numbered: close_values replays the discovery order on int tables
    of the values only until it holds n of them, and the tables are those int
    tables renumbered (_relabel).
    Each witness is the least meet form, fewest words first, then sorted
    word keys: the path to its value along the breadth-first tree of the
    values' closure (automata.tree_paths).  A refusal comes from the monoid's
    or the values' closure, before any table or witness: the monoid's
    elements have distinct images.
    """
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    what = "semiring elements"
    pack, unpack, quotient = _packing(pt, dfa.n_states)
    letters = sorted(dfa.alphabet)
    residual = pt.residual_bits
    full = pack((top(pt).bits,) * dfa.n_states)
    monoid_right, values, index, meet_image = _meet_values(
        tuple(range(dfa.n_states)), _state_ops(dfa, map(dfa.letter_index, letters)),
        lambda m: pack(map(residual.__getitem__, m)), full, budget, what,
    )

    monoid_tree = spanning_tree(monoid_right)
    letter_maps = [pack(residual[row[li]] for row in dfa.delta) for li in range(len(dfa.alphabet))]
    seeds = [index[pack(residual)]] + [index[m] for m in letter_maps] + [0]
    least, tree = tree_paths(meet_image)
    meet, mul = _semiring_tables(letters, values, index, meet_image, tree, monoid_tree, quotient)
    ops = [lambda i, j: meet[i][j], lambda i, j: mul[i][j], lambda i, j: mul[j][i]]
    n = len(values)
    order, final, _, _ = close_values(seeds, (), ops, budget, what, stop=n)
    if len(order) != n:
        raise InconsistencyError(f"the numbering closure does not reach exactly the {what}")
    rank = [final[p] for p in range(n)]
    meet_table = _relabel(meet, order, rank)
    words = tree_words(monoid_tree, letters)
    elements = tuple(
        SemiringElement(m, tuple(map(words.__getitem__, least[p])))
        for m, p in zip(_atomset_mappings(pt, [unpack(values[p]) for p in order]), order)
    )
    return SyntacticSemiring(
        pt, dfa, elements, 0, final[0], tuple(final[index[m]] for m in letter_maps),
        meet_table, _relabel(mul, order, rank), _meet_order(meet_table),
    )


@dataclass(frozen=True)
class LatticeAlgebraElement:
    """Action on the column states (images are lattice-automaton states) plus witness form."""

    mapping: tuple[AtomSet, ...]
    witness: LatticeForm


@dataclass(frozen=True)
class SyntacticLatticeAlgebra:
    pt: ProfileTable
    dfa: Dfa
    elements: tuple[LatticeAlgebraElement, ...]
    one: int
    top: int
    bottom: int
    generators: tuple[int, ...]              # P: letter images, per alphabet position
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...] | None
    order: HasseDiagram
    columns: tuple[AtomSet, ...] | None = None   # states acted on; None: the residuals
    index: dict[tuple[AtomSet, ...], int] = field(init=False, compare=False, repr=False)   # mapping -> element

    def __post_init__(self):
        object.__setattr__(self, "index", {e.mapping: i for i, e in enumerate(self.elements)})

    def __len__(self):
        return len(self.elements)

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.lattice_form_str(e.witness) for e in self.elements)

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


def _least_lattice_forms(dfa: Dfa, monoid_right, meet_image, join_right, ids):
    """Each element's least lattice form: fewest inners first, then sorted inner keys.

    Read off the closures _lattice_algebra finds the values with: monoid_right,
    the letter table of the monoid's images over the sorted letters;
    meet_image, the table of the meet values, ⊤ and the images closed under
    "∧ image t"; and join_right, the table of the closure of ⊥ under "∨ meet
    value k", whose value i is element ids[i].  An image determines its
    word's transformation, since the residuals come first among the columns.

    A least lattice form has least meet forms of distinct meet values as its
    inners: putting the least meet form of an inner's value in its place
    gives a form no later, and two inners of one value, or one inside
    another, would leave a form with fewer inners.  The meet values come in
    the order of their least meet forms, which automata.tree_paths reads off
    their closure; so a least lattice form is a set of meet values, and
    automata.tree_paths reads it off the closure of ⊥ under "∨ meet value k".

    Returns (forms, trees), trees the three trees the forms are read off, for
    _lattice_products: the monoid's, its letters as dfa.alphabet positions;
    the meet values'; and the tree of ⊥ on the elements' ids, (j, parent, k)
    for j = parent ∨ meet value k, parents before their children.
    """
    letters = sorted(dfa.alphabet)
    monoid_tree = spanning_tree(monoid_right)
    words = tree_words(monoid_tree, letters)
    meet_paths, meet_tree = tree_paths(meet_image)
    inners = [tuple(map(words.__getitem__, p)) for p in meet_paths]
    paths, join_tree = tree_paths(join_right)
    forms = [()] * len(ids)
    for i, p in zip(ids, paths):
        forms[i] = tuple(map(inners.__getitem__, p))
    position = list(map(dfa.letter_index, letters))
    trees = (
        [(t, position[a]) for t, a in monoid_tree],
        meet_tree,
        [(ids[j], ids[p], k) for j, (p, k) in enumerate(join_tree, 1)],
    )
    return forms, trees


def _mask_lattice(meet_values, join_tree):
    """(meet, join, order) of the lattice values: ⊥ and the joins of meet_values,
    joined along join_tree as in _least_lattice_forms, on the elements' ids.

    The values under & and | form a finite distributive lattice.  Its
    join-irreducibles are the nonzero meet values that are not the | of the
    meet values strictly below them, and each value is the | of the
    join-irreducibles below it (Birkhoff's representation theorem; Davey and
    Priestley, Introduction to Lattices and Order, ch. 5).  So with bit b of
    mask(v) set iff join-irreducible b lies below v, distinct values have
    distinct masks, and ∧ and ∨ are & and | on the masks.  A
    join-irreducible below p ∨ k lies below p or below k, so mask(j) =
    mask(p) | mask(k) along the tree.  j covers i exactly when mask(j) is
    mask(i) plus one join-irreducible whose lower join-irreducibles all lie
    in mask(i): n·|join-irreducibles| steps, listed as hasse_from_leq does.
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
    meet = tuple(tuple(map(at.__getitem__, map(m.__and__, masks))) for m in masks)
    join = tuple(tuple(map(at.__getitem__, map(m.__or__, masks))) for m in masks)
    covers = []
    for i, m in enumerate(masks):
        ups = [at[m | 1 << b] for b, low in enumerate(lower) if not m >> b & 1 and low & m == low]
        covers.extend((i, j) for j in sorted(ups))
    return meet, join, HasseDiagram(tuple(covers))


def _lattice_products(right, meet, join, top_id: int, bottom_id: int, trees):
    """mul[i][j]: element i times element j, by row walks over the trees of _least_lattice_forms.

    j's witness is the join, along the tree of ⊥, of least meet forms, so
    i·j = (i·j′) ∨ (i·k) with i·⊥ = ⊥, i·k from _meet_products; one lookup
    per cell.
    """
    monoid_tree, meet_tree, join_tree = trees
    table = []
    for inner in _meet_products(right, meet, top_id, monoid_tree, meet_tree):
        row = [bottom_id] * len(right)
        for j, p, k in join_tree:
            row[j] = join[row[p]][inner[k]]
        table.append(tuple(row))
    return tuple(table)


def _lattice_algebra(
    pt: ProfileTable, dfa: Dfa, columns: tuple[AtomSet, ...] | None, budget: int, with_tables: bool = True
) -> SyntacticLatticeAlgebra:
    """The closure of {1, letters, ⊤, ⊥} under right multiplication by
    letters, pointwise ∧ and pointwise ∨, acting on the column states (None:
    the residuals), numbered in discovery order; each element's least lattice
    form as its witness (_least_lattice_forms), and the product table.

    Each value is its tuple of column bitmasks packed into one int
    (_packing), so ∧ and ∨ are & and |.  Letter quotients distribute over ∩
    and ∪, so the values are ⊥ and the joins of the meet values: ⊤ and the
    meets of the monoid's images, the values 1 reaches by letter quotients.
    Three closures find them before any is numbered: the images over the
    sorted letters and the meet values under "∧ image t" (_meet_values), and
    ⊥ under "∨ meet value k".  A refusal comes from one of them, before any witness or
    table.  The numbering closure then runs only until it holds their count
    n, and raises InconsistencyError unless it holds exactly those values.
    The letter rows it did not visit are looked up, and the ∧ and ∨ tables
    and the order are read off masks over the join-irreducibles
    (_mask_lattice).

    The product of i and j maps column c to the action of j's witness on
    mappings[i][c]: X∘(f·g) = (X∘f)∘g, and mappings[i][c] is the action of
    i's witness on column c.  _lattice_products walks it along the trees the
    witnesses are read off, on the letter, ∧ and ∨ tables.
    """
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    what = "lattice algebra elements"
    cols = pt.residual_bits if columns is None else tuple(x.bits for x in columns)
    pack, unpack, quotient = _packing(pt, len(cols))
    one_map = pack(cols)
    top_map = pack((top(pt).bits,) * len(cols))
    letter_ops = [lambda v, a=a: quotient(v, a) for a in dfa.alphabet]
    sorted_ops = [letter_ops[dfa.letter_index(a)] for a in sorted(dfa.alphabet)]
    monoid_right, meets, _, meet_image = _meet_values(one_map, sorted_ops, lambda v: v, top_map, budget, what)
    joins, _, join_right, _ = close_values([0], [lambda v, y=y: v | y for y in meets], (), budget, what)
    n = len(joins)

    letter_maps = [quotient(one_map, a) for a in dfa.alphabet]
    seeds = [one_map, *letter_maps, top_map, 0]
    values, index, right, _ = close_values(seeds, letter_ops, [and_, or_], n, what, stop=n)
    ids = list(map(index.get, joins))
    if len(values) != n or None in ids:
        raise InconsistencyError(f"the numbering closure does not reach exactly the {what}")
    one, top_id, bottom_id = index[one_map], index[top_map], index[0]
    witnesses, trees = _least_lattice_forms(dfa, monoid_right, meet_image, join_right, ids)
    try:
        right += [tuple([index[fn(v)] for fn in letter_ops]) for v in values[len(right):]]
        meet_table, join_table, order = _mask_lattice(meets, trees[2])
    except KeyError:
        raise InconsistencyError(f"the {what} are not closed under their operations") from None
    mul_table = None
    if with_tables:
        mul_table = _lattice_products(right, meet_table, join_table, top_id, bottom_id, trees)
    elements = tuple(
        LatticeAlgebraElement(m, w)
        for m, w in zip(_atomset_mappings(pt, [unpack(v) for v in values]), witnesses)
    )
    return SyntacticLatticeAlgebra(
        pt, dfa, elements, one, top_id, bottom_id, tuple(index[m] for m in letter_maps),
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
    return _lattice_algebra(pt, dfa, None, budget, with_tables)


def transition_lattice_algebra(
    pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET
) -> SyntacticLatticeAlgebra:
    """Quotient by equal action on every state of the canonical lattice automaton.

    Since L∘(f·g) = (L∘f)∘g and the languages L∘f are exactly the lattice
    automaton's states, this is the largest congruence contained in equal
    action on the residuals: the transition lattice algebra of the lattice
    automaton.  Elements are maps on its states (the columns, in automaton
    order, residuals first), and the product is composition of those maps,
    independent of the witnesses.  The columns come from the automaton's
    state closures alone (canonical.state_closures): no witness, transition
    or order of the automaton is built.
    """
    _, (states, _) = state_closures(pt, dfa)
    return _lattice_algebra(pt, dfa, tuple(AtomSet(pt, v) for v in states), budget)


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


@dataclass(frozen=True)
class AxiomViolation:
    law: str
    operands: tuple[int, ...]
    lhs: int
    rhs: int

    def describe(self, alg=None) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        base = f"{self.law} at ({ops}): {self.lhs} != {self.rhs}"
        if alg is not None:
            labels = alg.labels()
            name = lambda i: labels[i] if 0 <= i < len(labels) else "?"
            ops = ", ".join(name(o) for o in self.operands)
            base += f"  [{ops} -> {name(self.lhs)} vs {name(self.rhs)}]"
        return base


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]
    checked: int
    truncated: bool = False

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
    A, O, M = alg.meet_table, alg.join_table, alg.mul_table
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
