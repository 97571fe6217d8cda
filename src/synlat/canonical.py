"""Canonical meet and lattice automata: residual sets closed under ∩ (and ∪).

States are AtomSets.  The meet automaton closes the residuals under pairwise
intersection and contains the empty intersection (the full language); the
lattice automaton additionally closes under union and contains the empty
union.  Transitions are letter quotients, finals are the states containing λ,
and the inclusion order is carried as a Hasse diagram (the dashed edges in
the usual drawing convention).  Both closures run on the states' bitmasks
through automata.close, the closure engine the syntactic algebras share.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_

from .atoms import AtomSet, ProfileTable, bit_indices, bottom, quotient_bits, top
from .automata import DEFAULT_STATE_BUDGET, Dfa, access_words, close
from . import terms


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


def _automaton(cls, pt: ProfileTable, dfa: Dfa, seeds, budget: int, op, wop, less, form):
    """Close the seed states (bits, witness) under op and assemble the automaton;
    form turns an interned witness (terms.FormInterner) into the tuple form stored."""
    values, witnesses, index, _, _ = close(seeds, (), [(op, wop)], less, budget, "canonical automaton states")
    delta = tuple(tuple(index[quotient_bits(pt, v, a)] for a in dfa.alphabet) for v in values)
    finals = frozenset(i for i, v in enumerate(values) if v >> pt.lambda_profile & 1)
    states = tuple(AtomSet(pt, v) for v in values)
    initial = index[pt.residual_bits[dfa.initial]]
    return cls(pt, states, tuple(map(form, witnesses)), delta, initial, finals, _inclusion_order(values))


def build_meet_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> MeetAutomaton:
    """Residual states in DFA order, then ⊤, then new meets in discovery order."""
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    forms = terms.FormInterner()
    seeds = [(bits, forms.meet_form([w])) for bits, w in zip(pt.residual_bits, access_words(dfa))]
    seeds.append((top(pt).bits, forms.meet_form([])))
    return _automaton(MeetAutomaton, pt, dfa, seeds, budget, and_, forms.mf_meet, forms.meet_less, forms.words_of)


def build_lattice_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> LatticeAutomaton:
    """Join closure of the meet automaton's states, with ⊥; meet states first."""
    ma = build_meet_automaton(pt, dfa, budget)
    forms = terms.FormInterner()
    seeds = [(v.bits, forms.lattice((w,))) for v, w in zip(ma.states, ma.witnesses)]
    seeds.append((bottom(pt).bits, forms.lattice([])))
    return _automaton(
        LatticeAutomaton, pt, dfa, seeds, budget, or_, forms.lf_join, forms.lattice_less, forms.lattice_form
    )
