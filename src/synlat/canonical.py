"""Canonical meet and lattice automata: residual sets closed under ∩ (and ∪).

States are AtomSets.  The meet automaton closes the residuals under pairwise
intersection and contains the empty intersection (the full language); the
lattice automaton additionally closes under union and contains the empty
union.  Transitions are letter quotients, finals are the states containing λ,
and the inclusion order is carried as a Hasse diagram (the dashed edges in
the usual drawing convention).  Each automaton closes its states first,
on bitmasks through automata.close_values: ⊤ under "∧ residual", the
residuals ranked by their access words, then ⊥ under "∨ meet state".  Each
witness is its state's least form over those generators, read off that
closure's breadth-first tree (automata.tree_paths); automata.number then
numbers the states as the pairwise closure under ∩ (∪) discovers them.
"""

from __future__ import annotations

from operator import and_, or_

from .atoms import AtomSet, ProfileTable, bit_indices, bottom, quotient_bits, top
from .automata import DEFAULT_STATE_BUDGET, Dfa, access_words, close_values, number, tree_paths
from .records import Record
from . import terms
from .terms import word_key


class HasseDiagram(Record):
    """Cover pairs (lower, upper) of a partial order on an indexed node set."""

    _fields = ("covers",)


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


class _Automaton(Record):
    """A meet or lattice automaton: its states, each with its witness, and their order."""

    _fields = ("table", "states", "witnesses", "delta", "initial", "finals", "order")

    @property
    def alphabet(self):
        return self.table.dfa.alphabet


class MeetAutomaton(_Automaton):
    """Witnesses are meet forms over access words (tuple[str, ...]), one per state."""

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.meet_form_str(w) for w in self.witnesses)


class LatticeAutomaton(_Automaton):
    """Witnesses are lattice forms (tuple[tuple[str, ...], ...]), one per state."""

    def labels(self) -> tuple[str, ...]:
        return tuple(terms.lattice_form_str(w) for w in self.witnesses)


WHAT = "canonical automaton states"


def _least_forms(closed, generators) -> list:
    """Each value's least form over generators, in the order of closed = close_values of one
    seed under "op generator k": the generators along its breadth-first tree (tree_paths)."""
    paths, _ = tree_paths(closed[2])
    return [tuple(map(generators.__getitem__, p)) for p in paths]


def quotient_moves(pt: ProfileTable, dfa: Dfa, values, index):
    """delta[i][a]: index of the letter quotient of state values[i] by the letter at alphabet position a."""
    return tuple(tuple(index[quotient_bits(pt, v, a)] for a in dfa.alphabet) for v in values)


def _automaton(cls, pt: ProfileTable, dfa: Dfa, closed, numbered, generators):
    """Assemble the automaton on numbered = (values, index, _) of automata.number; each
    witness is its state's least form over generators, read off closed (_least_forms)."""
    forms = _least_forms(closed, generators)
    values, index, _ = numbered
    witnesses = tuple(forms[closed[1][v]] for v in values)
    delta = quotient_moves(pt, dfa, values, index)
    finals = frozenset(i for i, v in enumerate(values) if v >> pt.lambda_profile & 1)
    states = tuple(AtomSet(pt, v) for v in values)
    initial = index[pt.residual_bits[dfa.initial]]
    return cls(pt, states, witnesses, delta, initial, finals, _inclusion_order(values))


def _meet_states(pt: ProfileTable, dfa: Dfa, budget: int):
    """(words, meets, numbered): meets closes ⊤ under "∧ residual", the residuals ranked
    by their access words' word_key, words the access words in that rank; numbered
    numbers its values as the residuals and ⊤ closed under pairwise ∧ discover them."""
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    words, residuals = zip(*sorted(zip(access_words(dfa), pt.residual_bits), key=lambda g: word_key(g[0])))
    meets = close_values([top(pt).bits], [lambda v, r=r: v & r for r in residuals], (), budget, WHAT)
    return words, meets, number(meets[0], [*pt.residual_bits, top(pt).bits], (), [and_], WHAT)


def build_meet_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> MeetAutomaton:
    """Residual states in DFA order, then ⊤, then new meets in discovery order."""
    words, meets, numbered = _meet_states(pt, dfa, budget)
    return _automaton(MeetAutomaton, pt, dfa, meets, numbered, words)


def state_closures(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET):
    """(words, meets, joins, numbered): _meet_states' words and meets; joins closes ⊥
    under "∨ meet state k", k in the order of meets; numbered numbers its values as
    the meet automaton's states and ⊥ closed under pairwise ∨ discover them, so
    numbered[0] lists the lattice automaton's states in its order, residuals first."""
    words, meets, meet_states = _meet_states(pt, dfa, budget)
    joins = close_values([bottom(pt).bits], [lambda v, m=m: v | m for m in meets[0]], (), budget, WHAT)
    return words, meets, joins, number(joins[0], [*meet_states[0], bottom(pt).bits], (), [or_], WHAT)


def build_lattice_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> LatticeAutomaton:
    """Join closure of the meet automaton's states, with ⊥; meet states first.

    Every closure runs before any witness, so a refusal comes first.  The
    meets closure lists the meet states in the order of their least meet
    forms (tree_paths), so it ranks them for the closure of ⊥ with no sort.
    """
    words, meets, joins, numbered = state_closures(pt, dfa, budget)
    return _automaton(LatticeAutomaton, pt, dfa, joins, numbered, _least_forms(meets, words))
