"""Canonical meet and lattice automata: residual sets closed under ∩ (and ∪).

States are AtomSets.  The meet automaton closes the residuals under pairwise
intersection and contains the empty intersection (the full language); the
lattice automaton additionally closes under union and contains the empty
union.  Transitions are letter quotients, finals are the states containing λ,
and the inclusion order is carried as a Hasse diagram (the dashed edges in
the usual drawing convention).  Both closures run on the states' bitmasks
through automata.close_values, the closure engine the syntactic algebras
share.  Each state's witness is its least form over the closure's
generators, read off a breadth-first tree (automata.least_paths): a meet
form over the access words, or a lattice form over the meet witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_

from .atoms import AtomSet, ProfileTable, bit_indices, bottom, quotient_bits, top
from .automata import DEFAULT_STATE_BUDGET, Dfa, access_words, close_values, least_paths
from . import terms
from .terms import meet_form_key, word_key


@dataclass(frozen=True)
class HasseDiagram:
    """Cover pairs (lower, upper) of a partial order on an indexed node set."""

    covers: tuple[tuple[int, int], ...]


def hasse_from_leq(up) -> HasseDiagram:
    """Transitive reduction of a partial order given by up-sets: bit j of up[i] is set iff i ≤ j.

    j covers i when it is above i but above no k strictly above i.  Covers
    are listed by i, then j, ascending.
    """
    strict = [u & ~(1 << i) for i, u in enumerate(up)]
    covers = []
    for i, s in enumerate(strict):
        covered = s
        for k in bit_indices(s):
            covered &= ~strict[k]
        covers.extend((i, j) for j in bit_indices(covered))
    return HasseDiagram(tuple(covers))


def hasse(states) -> HasseDiagram:
    """Cover relation of ⊆ on a deduplicated list of AtomSets."""
    states = list(states)
    if len({(id(s.table), s.bits) for s in states}) != len(states):
        raise ValueError("states must be deduplicated")
    if len({id(s.table) for s in states}) > 1:
        raise ValueError("AtomSets belong to different profile tables")
    return _inclusion_order([s.bits for s in states])


def _inclusion_order(bits) -> HasseDiagram:
    """Cover relation of ⊆ on distinct bitmasks."""
    return hasse_from_leq([sum(1 << j for j, y in enumerate(bits) if x | y == y) for x in bits])


@dataclass(frozen=True)
class MeetAutomaton:
    table: ProfileTable
    states: tuple[AtomSet, ...]
    witnesses: tuple[tuple[str, ...], ...]   # meet form over access words, per state
    delta: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    order: HasseDiagram

    @property
    def alphabet(self):
        return self.table.dfa.alphabet

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.meet_form_str(w) for w in self.witnesses)


@dataclass(frozen=True)
class LatticeAutomaton:
    table: ProfileTable
    states: tuple[AtomSet, ...]
    witnesses: tuple[tuple[tuple[str, ...], ...], ...]  # lattice form per state
    delta: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    order: HasseDiagram

    @property
    def alphabet(self):
        return self.table.dfa.alphabet

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.lattice_form_str(w) for w in self.witnesses)


WHAT = "canonical automaton states"


def _automaton(cls, pt: ProfileTable, dfa: Dfa, closed, unit: int, op, generators):
    """Assemble the automaton on closed = (values, index) of close_values.  generators are
    (form, bits) pairs in the order of their forms' key; each state's witness
    is its least form over them, the tuple of the forms that op combines with
    unit along the breadth-first tree (automata.least_paths)."""
    values, index = closed
    forms = [f for f, _ in generators]
    ops = [lambda v, g=g: op(v, g) for _, g in generators]
    paths, _ = least_paths(values, unit, ops, WHAT)
    witnesses = tuple(tuple(map(forms.__getitem__, p)) for p in paths)
    delta = tuple(tuple(index[quotient_bits(pt, v, a)] for a in dfa.alphabet) for v in values)
    finals = frozenset(i for i, v in enumerate(values) if v >> pt.lambda_profile & 1)
    states = tuple(AtomSet(pt, v) for v in values)
    initial = index[pt.residual_bits[dfa.initial]]
    return cls(pt, states, witnesses, delta, initial, finals, _inclusion_order(values))


def _meet_states(pt: ProfileTable, dfa: Dfa, budget: int):
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    return close_values([*pt.residual_bits, top(pt).bits], (), [and_], budget, WHAT)[:2]


def _meet_automaton(pt: ProfileTable, dfa: Dfa, closed) -> MeetAutomaton:
    """The residuals, ranked by their access words' word_key, generate every state from ⊤."""
    generators = sorted(zip(access_words(dfa), pt.residual_bits), key=lambda g: word_key(g[0]))
    return _automaton(MeetAutomaton, pt, dfa, closed, top(pt).bits, and_, generators)


def build_meet_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> MeetAutomaton:
    """Residual states in DFA order, then ⊤, then new meets in discovery order."""
    return _meet_automaton(pt, dfa, _meet_states(pt, dfa, budget))


def state_closures(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET):
    """(meets, joins): the (values, index) of the meet automaton's state closure
    and of its join closure with ⊥, meet states first: the lattice automaton's
    states in its order, residuals first."""
    meets = _meet_states(pt, dfa, budget)
    return meets, close_values([*meets[0], bottom(pt).bits], (), [or_], budget, WHAT)[:2]


def build_lattice_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> LatticeAutomaton:
    """Join closure of the meet automaton's states, with ⊥; meet states first.

    Both closures run before any witness, so a refusal comes first.  The meet
    states, ranked by their witnesses' meet_form_key, generate every state
    from ⊥.
    """
    meets, joins = state_closures(pt, dfa, budget)
    ma = _meet_automaton(pt, dfa, meets)
    generators = sorted(zip(ma.witnesses, meets[0]), key=lambda g: meet_form_key(g[0]))
    return _automaton(LatticeAutomaton, pt, dfa, joins, bottom(pt).bits, or_, generators)
