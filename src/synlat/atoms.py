"""Word profiles and atom sets.

profile(w) is the set of DFA states from which w is accepted.  The realized
profiles are exactly the backward closure of the final-state set under the
letter preimage maps, so they can be enumerated without touching words.  Any
union-of-intersections of residuals is then uniquely the set of realized
profiles whose words it contains: an AtomSet.  Equality of AtomSets is
equality of the represented languages, which makes every language identity
in this package decidable by integer comparison.

AtomSets are bitmasks over profile indices; profiles are bitmasks over
states.  Complements are deliberately not representable.
"""

from __future__ import annotations

from .automata import Dfa, close_values
from .records import Record, set_field

DEFAULT_PROFILE_BUDGET = 1 << 16


class AtomSet(Record):
    """A set of realized profiles, i.e. a positive Boolean combination of residuals."""

    _fields = ("table", "bits")

    def __init__(self, table: ProfileTable, bits: int):
        set_field(self, "table", table)
        set_field(self, "bits", bits)

    def __eq__(self, other):
        if not isinstance(other, AtomSet):
            return NotImplemented
        return self.table is other.table and self.bits == other.bits

    def __hash__(self):
        return hash((id(self.table), self.bits))

    def __and__(self, other):
        return meet(self, other)

    def __or__(self, other):
        return join(self, other)

    def __le__(self, other):
        return leq(self, other)

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.bits))


class ProfileTable:
    """Realized profiles of a minimal complete DFA, with letter preimage maps."""

    def __init__(self, dfa: Dfa, profiles, pre, lambda_profile: int):
        self.dfa = dfa
        self.profiles = tuple(profiles)          # state-set bitmask per profile
        self.pre = tuple(tuple(p) for p in pre)  # pre[letter][profile] -> profile
        self.lambda_profile = lambda_profile
        self.n_profiles = len(self.profiles)
        self._quotients: dict[tuple[int, str], int] = {}   # (bits, letter) -> quotient bits
        self._top = AtomSet(self, (1 << self.n_profiles) - 1)
        self._bottom = AtomSet(self, 0)
        self.residual_bits = tuple(self._bits_for_state(q) for q in range(dfa.n_states))
        self._state_atoms = tuple(AtomSet(self, bits) for bits in self.residual_bits)

    def _bits_for_state(self, q: int) -> int:
        bits = 0
        for i, p in enumerate(self.profiles):
            if p >> q & 1:
                bits |= 1 << i
        return bits

    def word_profile(self, word: str) -> int:
        """Index of profile(word)."""
        idx = self.lambda_profile
        for a in reversed(word):
            idx = self.pre[self.dfa.letter_index(a)][idx]
        return idx


def bit_indices(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def build_profile_table(dfa: Dfa, budget: int = DEFAULT_PROFILE_BUDGET) -> ProfileTable:
    """Fixpoint closure of {finals} under letter preimages, BFS numbering."""
    finals_mask = sum(1 << q for q in dfa.finals)
    columns = [tuple(row[li] for row in dfa.delta) for li in range(len(dfa.alphabet))]
    letter_ops = [lambda p, col=col: sum(1 << q for q, t in enumerate(col) if p >> t & 1) for col in columns]
    profiles, _, pre, _ = close_values([finals_mask], letter_ops, (), budget, "realized profiles")
    return ProfileTable(dfa, profiles, zip(*pre), 0)


def _same_table(x: AtomSet, y: AtomSet):
    if x.table is not y.table:
        raise ValueError("AtomSets belong to different profile tables")


def residual_atoms(pt: ProfileTable, q: int) -> AtomSet:
    """AtomSet of the language accepted from state q."""
    return pt._state_atoms[q]


def top(pt: ProfileTable) -> AtomSet:
    return pt._top


def bottom(pt: ProfileTable) -> AtomSet:
    return pt._bottom


def meet(x: AtomSet, y: AtomSet) -> AtomSet:
    _same_table(x, y)
    return AtomSet(x.table, x.bits & y.bits)


def join(x: AtomSet, y: AtomSet) -> AtomSet:
    _same_table(x, y)
    return AtomSet(x.table, x.bits | y.bits)


def leq(x: AtomSet, y: AtomSet) -> bool:
    """Language inclusion."""
    _same_table(x, y)
    return x.bits | y.bits == y.bits


def contains_lambda(pt: ProfileTable, x: AtomSet) -> bool:
    """λ is in the represented language iff the profile of λ is in the set."""
    return bool(x.bits >> pt.lambda_profile & 1)


def quotient_bits(pt: ProfileTable, x: int, letter: str) -> int:
    """a^{-1}X on bitmasks: profiles whose letter preimage lies in x, memoized per table."""
    key = (x, letter)
    y = pt._quotients.get(key)
    if y is None:
        y = 0
        for i, p in enumerate(pt.pre[pt.dfa.letter_index(letter)]):
            if x >> p & 1:
                y |= 1 << i
        pt._quotients[key] = y
    return y


def pack_images(pt: ProfileTable, cols, maps) -> list[int]:
    """The image of each map t in maps on the atom-set bitmasks cols, packed
    into one int: column c holds cols[t[c]], pt.n_profiles bits a column,
    column 0 lowest.  The semiring and the lattice algebras (syntactic) and
    the identity check (reversible) pack their values so: pointwise ∧ and ∨
    of packed columns are & and |."""
    width = pt.n_profiles
    return [sum(cols[x] << q * width for q, x in enumerate(t)) for t in maps]


def unpack_columns(pt: ProfileTable, v: int, n_columns: int) -> tuple[int, ...]:
    """The n_columns atom-set bitmasks packed into v (pack_images)."""
    width = pt.n_profiles
    mask = (1 << width) - 1
    return tuple([v >> s & mask for s in range(0, width * n_columns, width)])


def own_bits(pt: ProfileTable, x: AtomSet) -> int:
    """The bits of x, which must belong to pt."""
    if x.table is not pt:
        raise ValueError("AtomSet belongs to a different profile table")
    return x.bits


def quotient_letter(pt: ProfileTable, x: AtomSet, letter: str) -> AtomSet:
    """a^{-1}X: profiles whose letter preimage lies in x."""
    return AtomSet(pt, quotient_bits(pt, own_bits(pt, x), letter))


def quotient_word(pt: ProfileTable, x: AtomSet, word: str) -> AtomSet:
    for a in word:
        x = quotient_letter(pt, x, a)
    return x


def word_in(pt: ProfileTable, x: AtomSet, word: str) -> bool:
    """Membership of a word in the language represented by x."""
    return bool(x.bits >> pt.word_profile(word) & 1)
