"""Reversibility of a regular language, decided two independent ways.

Method one searches the canonical DFA for the forbidden configuration
(states f ≠ g ≠ h with f —x→ g, an x-loop on g, and g —y→ h), with x
ranging over transformation-monoid elements so the search is finite and
complete.  Method two checks the lattice-algebra identity
x^ω y ∨ (x^ω z ∧ t) = x^ω y ∨ (x^ω t ∧ z) under all substitutions of
monoid elements for x, y, z, t, comparing both sides on every residual.
The two verdicts must agree; disagreement is an implementation bug, not a
property of the language.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .atoms import AtomSet, ProfileTable, join, meet, residual_atoms
from .automata import Dfa, run
from .errors import BudgetError, InconsistencyError
from .syntactic import SyntacticMonoid, omega_power, syntactic_monoid

DEFAULT_QUADRUPLE_BUDGET = 1_000_000


@dataclass(frozen=True)
class ForbiddenWitness:
    f: int
    g: int
    h: int
    x: str
    y: str


@dataclass(frozen=True)
class IdentityCounterexample:
    p: str
    u: str
    v: str
    w: str
    state: int
    lhs: AtomSet
    rhs: AtomSet


@dataclass(frozen=True)
class ReversibilityReport:
    reversible: bool
    forbidden: ForbiddenWitness | None
    identity_counterexample: IdentityCounterexample | None


def _escape_step(dfa: Dfa, g: int) -> tuple[int, str] | None:
    """First state h != g reachable from g, with its word.

    If every letter loops g to itself nothing else is ever reachable, so a
    single-step scan in alphabet order is complete.
    """
    for li, a in enumerate(dfa.alphabet):
        t = dfa.delta[g][li]
        if t != g:
            return t, a
    return None


def find_forbidden_configuration(dfa: Dfa, monoid: SyntacticMonoid | None = None) -> ForbiddenWitness | None:
    """First forbidden configuration in (element index, source state) order."""
    m = monoid if monoid is not None else syntactic_monoid(dfa)
    for e in m.elements:
        for f in range(dfa.n_states):
            g = e.mapping[f]
            if g == f or e.mapping[g] != g:
                continue
            hit = _escape_step(dfa, g)
            if hit is not None:
                h, y = hit
                return ForbiddenWitness(f, g, h, e.witness, y)
    return None


def evaluate_identity_sides(
    pt: ProfileTable, dfa: Dfa, m: SyntacticMonoid, p: str, u: str, v: str, w: str, q: int
) -> tuple[AtomSet, AtomSet]:
    """Both sides of the identity at residual q, words substituted for x,y,z,t."""
    s = omega_power(m, m.element_of_word(p))
    eu, ev, ew = (m.element_of_word(x) for x in (u, v, w))
    su, sv, sw = m.table[s][eu], m.table[s][ev], m.table[s][ew]

    def at(e):
        return residual_atoms(pt, m.elements[e].mapping[q])

    lhs = join(at(su), meet(at(sv), at(ew)))
    rhs = join(at(su), meet(at(sw), at(ev)))
    return lhs, rhs


def check_reversibility_identity(
    m: SyntacticMonoid, pt: ProfileTable, dfa: Dfa, quadruple_budget: int | None = None
) -> IdentityCounterexample | None:
    """First failing substitution in (p, u, v, w, state) index order, or None."""
    n = len(m.elements)
    if quadruple_budget is not None and n**4 > quadruple_budget:
        raise BudgetError("identity-check quadruples", quadruple_budget)
    sb = [residual_atoms(pt, q).bits for q in range(dfa.n_states)]
    maps = [e.mapping for e in m.elements]
    mul = m.table
    omegas = [omega_power(m, e) for e in range(n)]
    states = range(dfa.n_states)
    for pi in range(n):
        s = omegas[pi]
        srow = mul[s]
        for ui in range(n):
            msu = maps[srow[ui]]
            for vi in range(n):
                msv = maps[srow[vi]]
                mv = maps[vi]
                for wi in range(n):
                    if vi == wi:
                        continue  # sides coincide syntactically
                    msw = maps[srow[wi]]
                    mw = maps[wi]
                    for q in states:
                        base = sb[msu[q]]
                        lhs = base | (sb[msv[q]] & sb[mw[q]])
                        rhs = base | (sb[msw[q]] & sb[mv[q]])
                        if lhs != rhs:
                            e = m.elements
                            return IdentityCounterexample(
                                e[pi].witness, e[ui].witness, e[vi].witness, e[wi].witness,
                                q, AtomSet(pt, lhs), AtomSet(pt, rhs),
                            )
    return None


def identity_counterexample_from_configuration(
    pt: ProfileTable, dfa: Dfa, m: SyntacticMonoid, fw: ForbiddenWitness
) -> IdentityCounterexample:
    """Concrete failing substitution built from a forbidden configuration.

    Separator words s (for f vs g) and r (for g vs h) select one of four
    cases fixing u, v, w; p is the configuration's x.  The sides then differ
    at state f.
    """
    p, y = fw.x, fw.y
    s = _separator(dfa, fw.f, fw.g)
    r = _separator(dfa, fw.g, fw.h)
    s_in_f = run(dfa, fw.f, s) in dfa.finals
    r_in_g = run(dfa, fw.g, r) in dfa.finals
    if s_in_f and r_in_g:
        u, v, w = s, r, s
    elif s_in_f:
        u, v, w = s, y + r, s
    elif r_in_g:
        u, v, w = y + r, s, p + r
    else:
        u, v, w = r, s, p + s
    lhs, rhs = evaluate_identity_sides(pt, dfa, m, p, u, v, w, fw.f)
    if lhs == rhs:
        raise InconsistencyError("case construction produced equal sides")
    return IdentityCounterexample(p, u, v, w, fw.f, lhs, rhs)


def _separator(dfa: Dfa, q1: int, q2: int) -> str:
    """Shortest word accepted from exactly one of two distinct states."""
    seen = {(q1, q2)}
    queue = deque([(q1, q2, "")])
    while queue:
        a, b, word = queue.popleft()
        if (a in dfa.finals) != (b in dfa.finals):
            return word
        for li, c in enumerate(dfa.alphabet):
            ta, tb = dfa.delta[a][li], dfa.delta[b][li]
            if (ta, tb) not in seen:
                seen.add((ta, tb))
                queue.append((ta, tb, word + c))
    raise ValueError("states are equivalent; the DFA is not minimal")


def is_reversible(
    dfa: Dfa,
    pt: ProfileTable | None = None,
    monoid: SyntacticMonoid | None = None,
    quadruple_budget: int | None = None,
) -> ReversibilityReport:
    """Condition-(6) verdict, cross-checked against the identity verdict."""
    from .atoms import build_profile_table

    m = monoid if monoid is not None else syntactic_monoid(dfa)
    table = pt if pt is not None else build_profile_table(dfa)
    fw = find_forbidden_configuration(dfa, m)
    ic = check_reversibility_identity(m, table, dfa, quadruple_budget)
    if (fw is None) != (ic is None):
        raise InconsistencyError(
            f"forbidden-configuration and identity verdicts disagree: {fw!r} vs {ic!r}"
        )
    return ReversibilityReport(fw is None, fw, ic)
