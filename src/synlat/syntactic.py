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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import and_, or_

from .atoms import AtomSet, ProfileTable, own_bits, quotient_bits, residual_atoms, top
from .automata import Dfa, close, close_values, spanning_tree, tree_words
from .canonical import HasseDiagram, build_lattice_automaton, hasse_from_leq
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


def syntactic_monoid(dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticMonoid:
    """Transformation monoid of the canonical DFA, closed breadth first over the letters.

    Each element's witness is its word along the breadth-first spanning
    tree, which is its shortlex-least word.
    """
    letter_ops = [lambda m, li=li: tuple(dfa.delta[q][li] for q in m) for li in range(len(dfa.alphabet))]
    mappings, index, right, _ = close_values(
        [tuple(range(dfa.n_states))], letter_ops, (), budget, "monoid elements"
    )
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


def _square(lower, upper):
    """t[i][j] = lower[i][j] for j <= i and upper[j][i] for j > i, from close's triangles."""
    return tuple(tuple(low) + tuple(up[i] for up in upper[i + 1:]) for i, low in enumerate(lower))


def _product_table(mappings, index, act):
    """table[i][j] = the element mapping each column c to act(j, mappings[i][c]).

    act(j, x) is evaluated once per element j and distinct image x.
    """
    images = {x for m in mappings for x in m}
    acts = [{x: act(j, x) for x in images} for j in range(len(mappings))]
    table = []
    for mi in mappings:
        row = []
        for aj in acts:
            k = index.get(tuple(map(aj.__getitem__, mi)))
            if k is None:
                raise InconsistencyError("product form evaluates outside the computed algebra")
            row.append(k)
        table.append(tuple(row))
    return tuple(table)


def _atomset_mappings(pt: ProfileTable, mappings):
    """The bit mappings as AtomSet tuples, one AtomSet per distinct image."""
    atoms = {x: AtomSet(pt, x) for x in {x for m in mappings for x in m}}
    return [tuple(map(atoms.__getitem__, m)) for m in mappings]


class _Action(dict):
    """One semiring element's action, image -> result, each evaluated once on first use."""

    __slots__ = ("pt", "mapping")

    def __init__(self, pt: ProfileTable, mapping: tuple[int, ...]):
        super().__init__()
        self.pt = pt
        self.mapping = mapping

    def __missing__(self, x: int) -> int:
        y = self[x] = semiring_action_bits(self.pt, self.mapping, x)
        return y


def syntactic_semiring(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticSemiring:
    """Fixpoint closure of {1, letters, ⊤} under pointwise meet and extension product."""
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    one_map = pt.residual_bits
    letter_maps = [tuple(one_map[row[li]] for row in dfa.delta) for li in range(len(dfa.alphabet))]
    top_map = (top(pt).bits,) * dfa.n_states
    forms = terms.FormInterner()
    seeds = [(one_map, forms.meet_form([""]))]
    seeds += [(m, forms.meet_form([a])) for m, a in zip(letter_maps, dfa.alphabet)]
    seeds.append((top_map, forms.meet_form([])))
    actions: dict[tuple[int, ...], _Action] = {}

    def product(mi, mj):
        act = actions.get(mj)
        if act is None:
            act = actions[mj] = _Action(pt, mj)
        return tuple(map(act.__getitem__, mi))

    pair_ops = [
        (lambda mi, mj: tuple(map(and_, mi, mj)), forms.mf_meet, forms.mf_meet_may_win),
        (product, forms.mf_mul, forms.mf_mul_may_win),
        (lambda mi, mj: product(mj, mi), lambda wi, wj: forms.mf_mul(wj, wi), forms.mf_mul_may_win),
    ]
    mappings, witnesses, index, _, (meets, muls, swapped) = close(
        seeds, (), pair_ops, forms.meet_less, budget, "semiring elements"
    )
    meet_table = _square(meets, meets)
    mul_table = _square(muls, swapped)
    elements = tuple(
        SemiringElement(m, forms.words_of(w)) for m, w in zip(_atomset_mappings(pt, mappings), witnesses)
    )
    return SyntacticSemiring(
        pt, dfa, elements, index[one_map], index[top_map],
        tuple(index[m] for m in letter_maps), meet_table, mul_table, _meet_order(meet_table),
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
        mapping = self.mapping_of_form(form)
        for i, e in enumerate(self.elements):
            if e.mapping == mapping:
                return i
        raise InconsistencyError("form evaluates outside the computed algebra")


def _lattice_algebra(
    pt: ProfileTable, dfa: Dfa, columns: tuple[AtomSet, ...] | None, budget: int, with_tables: bool = True
) -> SyntacticLatticeAlgebra:
    """Fixpoint closure of {1, letters, ⊤, ⊥} under right multiplication by
    letters, pointwise ∧ and pointwise ∨, acting on the column states (None:
    the residuals), then the witnesses replayed on it; then the tables.

    The product of i and j maps column c to the action of j's witness on
    mappings[i][c]: X∘(f·g) = (X∘f)∘g, and mappings[i][c] is the action of
    i's witness on column c.
    """
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    cols = pt.residual_bits if columns is None else tuple(x.bits for x in columns)
    letter_maps = [tuple(quotient_bits(pt, x, a) for x in cols) for a in dfa.alphabet]
    top_map = (top(pt).bits,) * len(cols)
    bot_map = (0,) * len(cols)
    forms = terms.FormInterner()
    seeds = [(cols, forms.lattice([[""]]))]
    seeds += [(m, forms.lattice([[a]])) for m, a in zip(letter_maps, dfa.alphabet)]
    seeds += [(top_map, forms.lattice(terms.TOP_FORM)), (bot_map, forms.lattice(terms.BOT_FORM))]
    letter_ops = [
        (lambda m, a=a: tuple(quotient_bits(pt, x, a) for x in m), lambda w, a=a: forms.lf_mul_letter(w, a))
        for a in dfa.alphabet
    ]
    pair_ops = [
        (lambda mi, mj: tuple(map(and_, mi, mj)), forms.lf_meet),
        (lambda mi, mj: tuple(map(or_, mi, mj)), forms.lf_join),
    ]
    mappings, form_ids, index, _, (meets, joins) = close(
        seeds, letter_ops, pair_ops, forms.lattice_less, budget, "lattice algebra elements"
    )
    witnesses = [forms.lattice_form(f) for f in form_ids]
    meet_table = _square(meets, meets)
    join_table = _square(joins, joins)
    mul_table = None
    if with_tables:
        mul_table = _product_table(mappings, index, lambda j, x: terms.eval_lattice_bits(pt, x, witnesses[j]))
    elements = tuple(
        LatticeAlgebraElement(m, w) for m, w in zip(_atomset_mappings(pt, mappings), witnesses)
    )
    return SyntacticLatticeAlgebra(
        pt, dfa, elements, index[cols], index[top_map], index[bot_map],
        tuple(index[m] for m in letter_maps), meet_table, join_table, mul_table,
        _meet_order(meet_table), columns,
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
    independent of the witnesses.
    """
    return _lattice_algebra(pt, dfa, build_lattice_automaton(pt, dfa).states, budget)


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
