"""Canonical meet and lattice automata: residual sets closed under ∩ (and ∪).

States are AtomSets.  The meet automaton closes the residuals under pairwise
intersection and contains the empty intersection (the full language); the
lattice automaton additionally closes under union and contains the empty
union.  Transitions are letter quotients, finals are the states containing λ,
and the inclusion order is carried as a Hasse diagram (the dashed edges in
the usual drawing convention).  Both closures run on the states' bitmasks
through close, the closure engine the syntactic algebras share.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_

from .atoms import AtomSet, ProfileTable, bottom, quotient_bits, top
from .automata import DEFAULT_STATE_BUDGET, Dfa, access_words
from .errors import BudgetError
from . import terms


@dataclass(frozen=True)
class HasseDiagram:
    """Cover pairs (lower, upper) of a partial order on an indexed node set."""

    covers: tuple[tuple[int, int], ...]


def hasse_from_leq(n: int, le) -> HasseDiagram:
    """Transitive reduction of the order given by the predicate le(i, j)."""
    strict = [[le(i, j) and not le(j, i) for j in range(n)] for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(n):
            if not strict[i][j]:
                continue
            if any(strict[i][k] and strict[k][j] for k in range(n)):
                continue
            covers.append((i, j))
    return HasseDiagram(tuple(covers))


def hasse(states) -> HasseDiagram:
    """Cover relation of ⊆ on a deduplicated list of AtomSets."""
    states = list(states)
    if len({(id(s.table), s.bits) for s in states}) != len(states):
        raise ValueError("states must be deduplicated")
    if len({id(s.table) for s in states}) > 1:
        raise ValueError("AtomSets belong to different profile tables")
    bits = [s.bits for s in states]
    return hasse_from_leq(len(bits), lambda i, j: bits[i] | bits[j] == bits[j])


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


def close(seeds, letter_ops, pair_ops, key, budget: int, what: str):
    """Fixpoint closure in discovery order; returns (values, witnesses, index, right, pairs).

    seeds: (value, witness) pairs.  Each value i in turn gets every letter op
    (fn(value), wfn(witness)), then every pair op (fn(vi, vj), wfn(wi, wj))
    with each j <= i; right[i][k] and pairs[p][i][j] record the index each
    op k or p gave.  A value met again keeps the witness whose key (computed
    once per stored witness) is strictly smaller.  Witnesses are read afresh
    for each letter op and each j, since a duplicate hit can replace
    witnesses[i] partway through a row.  Without pair ops the closure is
    breadth first over the letter ops.
    """
    values = []
    witnesses = []
    keys = []
    index = {}

    def add(v, w):
        i = index.get(v)
        if i is not None:
            k = key(w)
            if k < keys[i]:
                witnesses[i] = w
                keys[i] = k
            return i
        if len(values) >= budget:
            raise BudgetError(what, budget)
        i = index[v] = len(values)
        values.append(v)
        witnesses.append(w)
        keys.append(key(w))
        return i

    for v, w in seeds:
        add(v, w)
    right = []
    pairs = [[] for _ in pair_ops]
    i = 0
    while i < len(values):
        vi = values[i]
        right.append(tuple(add(fn(vi), wfn(witnesses[i])) for fn, wfn in letter_ops))
        if pair_ops:
            for table in pairs:
                table.append([])
            for j in range(i + 1):
                vj, wi, wj = values[j], witnesses[i], witnesses[j]
                for table, (fn, wfn) in zip(pairs, pair_ops):
                    table[i].append(add(fn(vi, vj), wfn(wi, wj)))
        i += 1
    return values, witnesses, index, right, pairs


def _automaton(cls, pt: ProfileTable, dfa: Dfa, seeds, budget: int, op, wop, key, form):
    """Close the seed states (bits, witness) under op and assemble the automaton;
    form turns an interned witness (terms.FormInterner) into the tuple form stored."""
    values, witnesses, index, _, _ = close(seeds, (), [(op, wop)], key, budget, "canonical automaton states")
    delta = tuple(tuple(index[quotient_bits(pt, v, a)] for a in dfa.alphabet) for v in values)
    finals = frozenset(i for i, v in enumerate(values) if v >> pt.lambda_profile & 1)
    states = tuple(AtomSet(pt, v) for v in values)
    initial = index[pt.residual_bits[dfa.initial]]
    return cls(pt, states, tuple(map(form, witnesses)), delta, initial, finals, hasse(states))


def build_meet_automaton(pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> MeetAutomaton:
    """Residual states in DFA order, then ⊤, then new meets in discovery order."""
    if pt.dfa is not dfa:
        raise ValueError("profile table was built from a different DFA")
    forms = terms.FormInterner()
    seeds = [(bits, forms.meet_form([w])) for bits, w in zip(pt.residual_bits, access_words(dfa))]
    seeds.append((top(pt).bits, forms.meet_form([])))
    return _automaton(MeetAutomaton, pt, dfa, seeds, budget, and_, forms.mf_meet, forms.meet_key, forms.words_of)


def build_lattice_automaton(
    pt: ProfileTable, dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET, meet_automaton: MeetAutomaton | None = None
) -> LatticeAutomaton:
    """Join closure of the meet automaton's states, with ⊥; meet states first."""
    ma = meet_automaton if meet_automaton is not None else build_meet_automaton(pt, dfa, budget)
    forms = terms.FormInterner()
    seeds = [(v.bits, forms.lattice((w,))) for v, w in zip(ma.states, ma.witnesses)]
    seeds.append((bottom(pt).bits, forms.lattice([])))
    return _automaton(
        LatticeAutomaton, pt, dfa, seeds, budget, or_, forms.lf_join, forms.lattice_key, forms.lattice_form
    )
