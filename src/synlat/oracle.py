"""Brute-force test oracles for the syntactic congruences and element sets.

These recompute word actions from raw DFA runs (never through the quotient
chains or the closure logic of the engines) so that closure bugs cannot
validate themselves.  Element enumeration works bottom-up from normal forms
under explicit word-length / combination-size bounds; saturation means two
consecutive bound increments produce the same map set, a documented test
heuristic rather than a theorem.
"""

from __future__ import annotations

from itertools import combinations

from .atoms import AtomSet, ProfileTable, join, meet, residual_atoms, top, bottom
from .automata import Dfa, run
from .errors import BudgetError
from .records import Record, set_field
from .reversible import IdentityCounterexample
from .syntactic import SyntacticMonoid
from .terms import multiply_lattice_forms

DEFAULT_SUBSET_BUDGET = 200_000


class OracleConfig(Record):
    _fields = ("max_word_len", "max_term_nodes")
    max_word_len = 3
    max_term_nodes = 3

    def __init__(self, max_word_len: int = max_word_len, max_term_nodes: int = max_term_nodes):
        if max_word_len < 1 or max_term_nodes < 1:
            raise ValueError("oracle bounds must be positive")
        set_field(self, "max_word_len", max_word_len)
        set_field(self, "max_term_nodes", max_term_nodes)


def words_upto(alphabet, n):
    """All words of length <= n in shortlex order."""
    out = [""]
    frontier = [""]
    for _ in range(n):
        frontier = [w + a for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def oracle_monoid_congruent(pt: ProfileTable, dfa: Dfa, u: str, v: str) -> bool:
    return all(run(dfa, q, u) == run(dfa, q, v) for q in range(dfa.n_states))


def _meet_action(pt, dfa, q, words):
    out = top(pt)
    for w in words:
        out = meet(out, residual_atoms(pt, run(dfa, q, w)))
    return out


def _form_action(pt, dfa, q, form):
    out = bottom(pt)
    for inner in form:
        out = join(out, _meet_action(pt, dfa, q, inner))
    return out


def oracle_semiring_congruent(pt: ProfileTable, dfa: Dfa, u, v) -> bool:
    return all(
        _meet_action(pt, dfa, q, u) == _meet_action(pt, dfa, q, v) for q in range(dfa.n_states)
    )


def oracle_lattice_congruent(pt: ProfileTable, dfa: Dfa, f1, f2) -> bool:
    return all(
        _form_action(pt, dfa, q, f1) == _form_action(pt, dfa, q, f2) for q in range(dfa.n_states)
    )


def oracle_transition_action(pt: ProfileTable, dfa: Dfa, la, f) -> tuple:
    """Action of the lattice form f on every state of the lattice automaton la.

    The state X with witness form x is L∘x for the language L, so
    X∘f = L∘(x·f): the product form is run on the DFA from the initial state.
    """
    return tuple(_form_action(pt, dfa, dfa.initial, multiply_lattice_forms(x, f)) for x in la.witnesses)


def _word_maps(pt, dfa, max_len):
    """Distinct run-maps of words up to max_len (equal run-maps act equally everywhere)."""
    seen = {}
    for w in words_upto(dfa.alphabet, max_len):
        m = tuple(run(dfa, q, w) for q in range(dfa.n_states))
        if m not in seen:
            seen[m] = w
    return list(seen)


def _subset_count(n, k):
    total = 0
    c = 1
    for i in range(min(n, k) + 1):
        total += c
        c = c * (n - i) // (i + 1)
    return total


def oracle_enumerate_elements(
    pt: ProfileTable, dfa: Dfa, level: str, cfg: OracleConfig, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> frozenset:
    """Distinct element maps realized by normal forms within the bounds.

    monoid: run-maps of words.  semiring: meets of at most max_term_nodes
    word actions (the empty meet giving ⊤).  lattice: joins of at most
    max_term_nodes such meets (the empty join giving ⊥).
    """
    states = range(dfa.n_states)
    word_maps = _word_maps(pt, dfa, cfg.max_word_len)
    if level == "monoid":
        return frozenset(word_maps)

    k = cfg.max_term_nodes
    if _subset_count(len(word_maps), k) > subset_budget:
        raise BudgetError("oracle meet combinations", subset_budget)
    meets = {tuple(top(pt) for _ in states)}
    base = [tuple(residual_atoms(pt, m[q]) for q in states) for m in word_maps]
    for size in range(1, k + 1):
        for combo in combinations(base, size):
            acc = combo[0]
            for m in combo[1:]:
                acc = tuple(meet(x, y) for x, y in zip(acc, m))
            meets.add(acc)
    if level == "semiring":
        return frozenset(meets)
    if level != "lattice":
        raise ValueError(f"unknown level {level!r}")

    meet_list = sorted(meets, key=lambda m: tuple(x.bits for x in m))
    if _subset_count(len(meet_list), k) > subset_budget:
        raise BudgetError("oracle join combinations", subset_budget)
    joins = {tuple(bottom(pt) for _ in states)}
    for size in range(1, k + 1):
        for combo in combinations(meet_list, size):
            acc = combo[0]
            for m in combo[1:]:
                acc = tuple(join(x, y) for x, y in zip(acc, m))
            joins.add(acc)
    return frozenset(joins)


def oracle_enumerate_saturated(
    pt: ProfileTable,
    dfa: Dfa,
    level: str,
    start: OracleConfig = OracleConfig(1, 1),
    max_word_len: int = 8,
    max_term_nodes: int = 8,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
):
    """Increase bounds until two consecutive rounds agree; returns (maps, cfg)."""
    length, nodes = start.max_word_len, start.max_term_nodes
    prev = oracle_enumerate_elements(pt, dfa, level, OracleConfig(length, nodes), subset_budget)
    while length < max_word_len and nodes < max_term_nodes:
        length += 1
        nodes += 1
        cur = oracle_enumerate_elements(pt, dfa, level, OracleConfig(length, nodes), subset_budget)
        if cur == prev:
            return cur, OracleConfig(length, nodes)
        prev = cur
    raise BudgetError("oracle saturation bounds", max_word_len)


def oracle_identity_counterexample(m: SyntacticMonoid, pt: ProfileTable, dfa: Dfa) -> IdentityCounterexample | None:
    """First failing substitution of the reversibility identity, by brute force.

    Every (p, u, v, w) with v ≠ w and every state is tried in index order,
    n⁴·Q checks.  Products and ω-powers come from a table composed from the
    element mappings, not from the monoid's Cayley table.
    """
    maps = [e.mapping for e in m.elements]
    index = {mp: i for i, mp in enumerate(maps)}
    mul = [[index[tuple(mj[x] for x in mi)] for mj in maps] for mi in maps]
    sb = [residual_atoms(pt, q).bits for q in range(dfa.n_states)]

    def omega(i):
        cur = i
        while mul[cur][cur] != cur:
            cur = mul[cur][i]
        return cur

    n = len(maps)
    for pi in range(n):
        srow = mul[omega(pi)]
        for ui in range(n):
            msu = maps[srow[ui]]
            for vi in range(n):
                msv, mv = maps[srow[vi]], maps[vi]
                for wi in range(n):
                    if vi == wi:
                        continue
                    msw, mw = maps[srow[wi]], maps[wi]
                    for q in range(dfa.n_states):
                        lhs = sb[msu[q]] | (sb[msv[q]] & sb[mw[q]])
                        rhs = sb[msu[q]] | (sb[msw[q]] & sb[mv[q]])
                        if lhs != rhs:
                            e = m.elements
                            return IdentityCounterexample(
                                e[pi].witness, e[ui].witness, e[vi].witness, e[wi].witness,
                                q, AtomSet(pt, lhs), AtomSet(pt, rhs),
                            )
    return None
