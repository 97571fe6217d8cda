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

from collections import deque
from dataclasses import dataclass
from operator import and_, or_

from .atoms import AtomSet, ProfileTable, own_bits, quotient_bits, residual_atoms, top
from .automata import Dfa
from .canonical import HasseDiagram, build_lattice_automaton, close, hasse_from_leq
from .errors import BudgetError, InconsistencyError
from . import terms
from .terms import LatticeForm, MeetForm

DEFAULT_ELEMENT_BUDGET = 100_000


@dataclass(frozen=True)
class DfaTransformation:
    """Action of a word on the DFA states, with its shortlex-least witness."""

    mapping: tuple[int, ...]
    witness: str


@dataclass(frozen=True)
class SyntacticMonoid:
    dfa: Dfa
    elements: tuple[DfaTransformation, ...]
    identity: int
    table: tuple[tuple[int, ...], ...]       # table[i][j] = class of witness_i · witness_j
    letter_elements: tuple[int, ...]         # per alphabet position

    def __len__(self):
        return len(self.elements)

    def element_of_word(self, word: str) -> int:
        e = self.identity
        for a in word:
            e = self.table[e][self.letter_elements[self.dfa.letter_index(a)]]
        return e


def syntactic_monoid(dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticMonoid:
    """Transformation monoid of the canonical DFA, BFS over words in shortlex order."""
    n = dfa.n_states
    ident = tuple(range(n))
    elements = [DfaTransformation(ident, "")]
    index = {ident: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        t = elements[i]
        for li, a in enumerate(dfa.alphabet):
            m = tuple(dfa.delta[q][li] for q in t.mapping)
            if m not in index:
                if len(elements) >= budget:
                    raise BudgetError("monoid elements", budget)
                index[m] = len(elements)
                elements.append(DfaTransformation(m, t.witness + a))
                queue.append(index[m])
    table = []
    for e in elements:
        row = []
        for f in elements:
            m = tuple(f.mapping[q] for q in e.mapping)
            row.append(index[m])
        table.append(tuple(row))
    letters = tuple(index[tuple(dfa.delta[q][li] for q in range(n))] for li in range(len(dfa.alphabet)))
    return SyntacticMonoid(dfa, tuple(elements), 0, tuple(table), letters)


def omega_power(m: SyntacticMonoid, e: int) -> int:
    """The unique idempotent among the powers of e."""
    cur = e
    for _ in range(2 * len(m.elements) + 2):
        if m.table[cur][cur] == cur:
            return cur
        cur = m.table[cur][e]
    raise InconsistencyError("no idempotent power found; Cayley table is corrupt")


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
    return hasse_from_leq(len(meet_table), lambda i, j: meet_table[i][j] == i)


def _pointwise_table(mappings, index, op):
    return tuple(tuple(index[tuple(map(op, mi, mj))] for mj in mappings) for mi in mappings)


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


def syntactic_semiring(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_ELEMENT_BUDGET) -> SyntacticSemiring:
    """Fixpoint closure of {1, letters, ⊤} under pointwise meet and extension product."""
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    one_map = pt.residual_bits
    letter_maps = [tuple(one_map[row[li]] for row in dfa.delta) for li in range(len(dfa.alphabet))]
    top_map = (top(pt).bits,) * dfa.n_states
    seeds = [(one_map, terms.meet_form([""]))]
    seeds += [(m, terms.meet_form([a])) for m, a in zip(letter_maps, dfa.alphabet)]
    seeds.append((top_map, terms.meet_form([])))

    def product(mi, mj):
        return tuple(semiring_action_bits(pt, mj, x) for x in mi)

    pair_ops = [
        (lambda mi, mj: tuple(map(and_, mi, mj)), terms.mf_meet),
        (product, terms.mf_mul),
        (lambda mi, mj: product(mj, mi), lambda wi, wj: terms.mf_mul(wj, wi)),
    ]
    mappings, witnesses, index = close(seeds, (), pair_ops, terms.meet_form_key, budget, "semiring elements")
    meet_table = _pointwise_table(mappings, index, and_)
    mul_table = _product_table(mappings, index, lambda j, x: semiring_action_bits(pt, mappings[j], x))
    elements = tuple(SemiringElement(m, w) for m, w in zip(_atomset_mappings(pt, mappings), witnesses))
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
    the residuals), with witnesses maintained throughout; then the tables.

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
    seeds = [(cols, terms.lattice_form([[""]]))]
    seeds += [(m, terms.lattice_form([[a]])) for m, a in zip(letter_maps, dfa.alphabet)]
    seeds += [(top_map, terms.TOP_FORM), (bot_map, terms.BOT_FORM)]
    letter_ops = [
        (lambda m, a=a: tuple(quotient_bits(pt, x, a) for x in m),
         lambda w, a=a: terms.multiply_lattice_forms(w, ((a,),)))
        for a in dfa.alphabet
    ]
    pair_ops = [
        (lambda mi, mj: tuple(map(and_, mi, mj)), terms.lf_meet),
        (lambda mi, mj: tuple(map(or_, mi, mj)), terms.lf_join),
    ]
    mappings, witnesses, index = close(
        seeds, letter_ops, pair_ops, terms.lattice_form_key, budget, "lattice algebra elements"
    )
    meet_table = _pointwise_table(mappings, index, and_)
    join_table = _pointwise_table(mappings, index, or_)
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
    """Cover relation of e ≤ f iff e∧f = e, from the meet table."""
    return _meet_order(alg.meet_table)


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
    prods = {one}
    frontier = [one]
    while frontier:
        e = frontier.pop()
        for p in P:
            f = M[e][p]
            if f not in prods:
                prods.add(f)
                frontier.append(f)
    span = set(prods) | {tp, bt}
    grew = True
    while grew:
        grew = False
        for i in list(span):
            for j in list(span):
                for v in (A[i][j], O[i][j]):
                    if v not in span:
                        span.add(v)
                        grew = True
    checked += 1
    for e in sorted(set(rng) - span):
        if len(violations) >= max_violations:
            truncated = True
            break
        violations.append(AxiomViolation("lattice-generated-by-products-of-P", (e,), e, -1))

    return AxiomReport(tuple(violations), checked, truncated)
