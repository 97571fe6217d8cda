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

from .atoms import AtomSet, ProfileTable, build_profile_table, join, meet, pack_images, residual_atoms, unpack_columns
from .automata import Dfa, run
from .errors import BudgetError, InconsistencyError
from .records import Record
from .syntactic import SyntacticMonoid, omega_power, syntactic_monoid

DEFAULT_QUADRUPLE_BUDGET = 1_000_000


class ForbiddenWitness(Record):
    _fields = ("f", "g", "h", "x", "y")


class IdentityCounterexample(Record):
    _fields = ("p", "u", "v", "w", "state", "lhs", "rhs")


class ReversibilityReport(Record):
    _fields = ("reversible", "forbidden", "identity_counterexample")


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


def _omega_powers(m: SyntacticMonoid, idempotent: list[bool]) -> list[int]:
    """The ω-power of every element, from the idempotent flags.

    Every power p^k of p has the ω-power of p, so the walk p, p², … stops at
    the first element whose ω-power is known (an idempotent is its own) and
    hands it to every element it passed.  Each element is passed once, so
    the walks compose at most n mappings in all and build no Cayley row.
    """
    omega = [e if flag else -1 for e, flag in enumerate(idempotent)]
    for p, e in enumerate(m.elements):
        f = cur = e.mapping
        x, walk = p, []
        while omega[x] < 0:
            walk.append(x)
            cur = tuple(f[q] for q in cur)
            x = m.index[cur]
        for y in walk:
            omega[y] = omega[x]
    return omega


def check_reversibility_identity(
    m: SyntacticMonoid, pt: ProfileTable, dfa: Dfa, quadruple_budget: int = DEFAULT_QUADRUPLE_BUDGET
) -> IdentityCounterexample | None:
    """First failing substitution in (p, u, v, w, state) index order, or None.

    The result is the first counterexample of the full n⁴ search, found in
    n(n−1)/2 pair steps per idempotent.  Elements p with the same ω-power s
    pose the same checks, so only the first p of each s is checked, and the
    distinct ω-powers are exactly the idempotents.  Swapping v and w swaps
    the two sides, so only v < w is checked.  Each element's residual
    bitmasks are packed into one int, one column per state
    (atoms.pack_images), so one substitution is checked on all states at
    once and the first differing column is the first failing state.

    With x^ω = s, the sides differ exactly in the bits of
    diff(v, w) = (s·v ∧ w) ⊕ (s·w ∧ v) outside s·u.  So D_s, the OR of diff
    over all pairs, decides every u at once: u fails exactly when
    D_s & ~(s·u) != 0.  Only for the first failing u are the pairs scanned
    again, in order, for the first failing (v, w) and state.

    The budget counts these pair steps, (idempotents + 1)·n(n−1)/2: one pass
    per idempotent and the witness scan.  It is checked once the idempotents
    are flagged from their mappings, before any row of the Cayley table is
    built.
    """
    n = len(m.elements)
    idempotent = [all(f[x] == x for x in f) for f, _ in m.elements]
    needed = (sum(idempotent) + 1) * (n * (n - 1) // 2)
    if needed > quadruple_budget:
        raise BudgetError("identity-check quadruples", quadruple_budget, needed)
    first = {}  # ω-power -> the first p that has it, in p order
    for p, s in enumerate(_omega_powers(m, idempotent)):
        first.setdefault(s, p)
    packed = pack_images(pt, pt.residual_bits, [e.mapping for e in m.elements])
    for s, pi in first.items():
        spacked = [packed[x] for x in m.table[s]]   # s·x, packed
        d = 0
        for vi in range(n - 1):
            sv, rv = spacked[vi], packed[vi]
            for sw, rw in zip(spacked[vi + 1:], packed[vi + 1:]):
                d |= (sv & rw) ^ (sw & rv)
        ui = next((ui for ui in range(n) if d & ~spacked[ui]), None) if d else None
        if ui is not None:
            return _first_failing_pair(m, pt, spacked, packed, pi, ui)
    return None


def _first_failing_pair(m, pt, spacked, packed, pi, ui) -> IdentityCounterexample:
    """The first pair v < w, and its first state, at which substitution (p, u) fails."""
    base = spacked[ui]
    for vi in range(len(packed) - 1):
        sv, rv = spacked[vi], packed[vi]
        for wi in range(vi + 1, len(packed)):
            lhs = base | (sv & packed[wi])
            rhs = base | (spacked[wi] & rv)
            if lhs != rhs:
                lhs, rhs = unpack_columns(pt, lhs, pt.dfa.n_states), unpack_columns(pt, rhs, pt.dfa.n_states)
                q = next(q for q, x in enumerate(lhs) if x != rhs[q])
                e = m.elements
                return IdentityCounterexample(
                    e[pi].witness, e[ui].witness, e[vi].witness, e[wi].witness, q,
                    AtomSet(pt, lhs[q]), AtomSet(pt, rhs[q]),
                )
    raise InconsistencyError("identity check: the OR of the pair differences fails a u that no pair fails")


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
    quadruple_budget: int = DEFAULT_QUADRUPLE_BUDGET,
) -> ReversibilityReport:
    """Condition-(6) verdict, cross-checked against the identity verdict."""
    m = monoid if monoid is not None else syntactic_monoid(dfa)
    table = pt if pt is not None else build_profile_table(dfa)
    fw = find_forbidden_configuration(dfa, m)
    ic = check_reversibility_identity(m, table, dfa, quadruple_budget)
    if (fw is None) != (ic is None):
        raise InconsistencyError(
            f"forbidden-configuration and identity verdicts disagree: {fw!r} vs {ic!r}"
        )
    return ReversibilityReport(fw is None, fw, ic)
