"""Total deterministic finite automata: the carrier structure for everything else.

States are integers 0..n-1 with a total transition table.  All construction
paths renumber states canonically (breadth-first from the initial state,
letters in alphabet order) so downstream tables and renderings are
byte-reproducible.
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetError, InconsistencyError
from .records import Record, set_field

DEFAULT_STATE_BUDGET = 4096   # states of any automaton built by the package


class Dfa(Record):
    """Complete DFA.  delta[state][letter_index] is the successor state."""

    _fields = ("alphabet", "delta", "initial", "finals", "state_labels")
    state_labels = None

    def __init__(
        self,
        alphabet: tuple[str, ...],
        delta: tuple[tuple[int, ...], ...],
        initial: int,
        finals: frozenset[int],
        state_labels: tuple[str, ...] | None = None,
    ):
        n = len(delta)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        if not 0 <= initial < n:
            raise ValueError("initial state out of range")
        for row in delta:
            if len(row) != len(alphabet):
                raise ValueError("delta row width does not match alphabet")
            for q in row:
                if not 0 <= q < n:
                    raise ValueError("transition target out of range")
        if not all(0 <= q < n for q in finals):
            raise ValueError("final state out of range")
        if state_labels is not None and len(state_labels) != n:
            raise ValueError("state_labels length does not match state count")
        set_field(self, "alphabet", alphabet)
        set_field(self, "delta", delta)
        set_field(self, "initial", initial)
        set_field(self, "finals", finals)
        set_field(self, "state_labels", state_labels)
        set_field(self, "_letter_index", {a: i for i, a in enumerate(alphabet)})

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def letter_index(self, letter: str) -> int:
        try:
            return self._letter_index[letter]
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None

    def step(self, state: int, letter: str) -> int:
        return self.delta[state][self.letter_index(letter)]


def run(dfa: Dfa, state: int, word: str) -> int:
    """State reached from `state` by `word`; run(d, q, "") == q."""
    if not 0 <= state < dfa.n_states:
        raise ValueError("state out of range")
    for a in word:
        state = dfa.delta[state][dfa.letter_index(a)]
    return state


def accepts(dfa: Dfa, word: str, state: int | None = None) -> bool:
    start = dfa.initial if state is None else state
    return run(dfa, start, word) in dfa.finals


class _Stop(Exception):
    """close_values holds its stop count of values."""


def close_values(seeds, letter_ops, pair_ops, budget: int, what: str, stop: int | None = None):
    """Fixpoint closure in discovery order, on values only; returns (values, index, right, tree).

    Seeds are deduplicated in order.  Each value i in turn gets every letter
    op fn(vi), then, for each j <= i, every pair op fn(vi, vj) in op order;
    right[i][k] records the index letter op k gave, and tree lists (i, k)
    for each value a letter op found, in order.  Every op's value is looked
    up first and added only if it is new, so the common hit costs one dict
    lookup.  A value beyond the first budget raises BudgetError(what,
    budget).  Without pair ops the closure is breadth first over the letter
    ops; from one seed, value j is then first reached as right[i][k] for
    (i, k) = tree[j - 1], with i < j: the breadth-first spanning tree
    (Froidure and Pin keep it as each element's prefix and last letter).
    With a stop count it returns as soon as it holds that many values, so no
    op runs after the last value is found: right then holds the complete
    rows only.
    """
    values = []
    index = {}
    get = index.get

    def add(v):
        """v's index; v must be new."""
        if len(values) >= budget:
            raise BudgetError(what, budget)
        i = index[v] = len(values)
        values.append(v)
        if i + 1 == stop:
            raise _Stop
        return i

    right = []
    tree = []
    try:
        for v in seeds:
            if v not in index:
                add(v)
        for i, vi in enumerate(values):   # values grows as it is visited
            row = []
            for fn in letter_ops:
                v = fn(vi)
                j = get(v)
                if j is None:
                    tree.append((i, len(row)))
                    j = add(v)
                row.append(j)
            right.append(tuple(row))
            if pair_ops:
                for vj in values[:i + 1]:
                    for fn in pair_ops:
                        v = fn(vi, vj)
                        if v not in index:
                            add(v)
    except _Stop:
        pass
    return values, index, right, tree


def number(values, seeds, letter_ops, pair_ops, what: str):
    """(order, index, right): close_values of seeds, stopped once it holds len(values) values.

    The replay numbers values found by another closure in this closure's
    discovery order, and runs no op after the last of them is found.  Raises
    InconsistencyError unless it holds exactly the given values.
    """
    n = len(values)
    order, index, right, _ = close_values(seeds, letter_ops, pair_ops, n, what, stop=n)
    if len(order) != n or not all(map(index.__contains__, values)):
        raise InconsistencyError(f"the numbering closure does not reach exactly the {what}")
    return order, index, right


def tree_words(tree, alphabet) -> list[str]:
    """The word along the spanning tree to each value; value 0's is λ."""
    words = [""]
    for i, a in tree:
        words.append(words[i] + alphabet[a])
    return words


def least_forms(tree, generators) -> list[tuple]:
    """Each value's least form over generators: the generators along tree, the
    spanning tree of close_values from one seed; value 0's is ().

    Let the closure run under ops "∧ g_k" (or all "∨ g_k") for generators
    g_k ranked by a key.  Then the ops along the tree to each value give its
    least form over the generators: fewest generators, then the least tuple
    of ranks; it is increasing, so it is also the sorted form.  By induction
    on the breadth-first layers, whose values are visited in the order of
    their least forms: let F be the least form of value j, F' its prefix and
    k its last rank.  F' is the least form of its value, so that value
    reaches j by op k; and a parent visited earlier, or the same parent by
    an op before k, would give a form before F by inserting its op into its
    own least form.  So j is first reached from F' by op k.
    """
    forms = [()]
    for i, k in tree:
        forms.append(forms[i] + (generators[k],))
    return forms


def access_words(dfa: Dfa) -> tuple[str, ...]:
    """Shortlex-least word reaching each state (all states must be reachable)."""
    letter_ops = [lambda q, a=a: dfa.delta[q][a] for a in range(len(dfa.alphabet))]
    states, index, _, tree = close_values([dfa.initial], letter_ops, (), dfa.n_states, "states")
    if len(states) != dfa.n_states:
        raise ValueError("automaton has unreachable states")
    words = tree_words(tree, dfa.alphabet)
    return tuple(words[index[q]] for q in range(dfa.n_states))


def _reachable(dfa: Dfa) -> list[int]:
    seen = {dfa.initial}
    order = [dfa.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for t in dfa.delta[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def minimize(dfa: Dfa) -> Dfa:
    """Hopcroft partition refinement, then canonical numbering of the blocks.

    The result has no unreachable states and no pair of equivalent states.
    Blocks are numbered breadth first from the initial state, letters in
    alphabet order, and each takes the label of its lowest-numbered state.
    """
    reach = _reachable(dfa)
    reach_set = set(reach)
    finals = frozenset(q for q in dfa.finals if q in reach_set)
    non_finals = frozenset(q for q in reach_set if q not in finals)

    partition: list[frozenset[int]] = [b for b in (finals, non_finals) if b]
    block_of = {}
    for b, block in enumerate(partition):
        for q in block:
            block_of[q] = b
    # preimage lists per letter
    pre: list[dict[int, list[int]]] = [{} for _ in dfa.alphabet]
    for q in reach:
        for i, t in enumerate(dfa.delta[q]):
            pre[i].setdefault(t, []).append(q)

    work = [0] if len(partition) == 1 else [0 if len(partition[0]) <= len(partition[1]) else 1]
    work_set = set(work)
    while work:
        b = work.pop()
        work_set.discard(b)
        splitter = partition[b]
        for i in range(len(dfa.alphabet)):
            x = set()
            for t in splitter:
                x.update(pre[i].get(t, ()))
            affected: dict[int, set[int]] = {}
            for q in x:
                affected.setdefault(block_of[q], set()).add(q)
            for y, overlap in affected.items():
                block = partition[y]
                if len(overlap) == len(block):
                    continue
                part1 = frozenset(overlap)
                part2 = block - part1
                partition[y] = part1
                partition.append(part2)
                new_b = len(partition) - 1
                for q in part2:
                    block_of[q] = new_b
                if y in work_set:
                    work.append(new_b)
                    work_set.add(new_b)
                else:
                    smaller = y if len(part1) <= len(part2) else new_b
                    work.append(smaller)
                    work_set.add(smaller)

    # reach is breadth first, so the blocks in order of first appearance are too
    order = list(dict.fromkeys(block_of[q] for q in reach))
    number = {b: i for i, b in enumerate(order)}
    delta = tuple(tuple(number[block_of[t]] for t in dfa.delta[next(iter(partition[b]))]) for b in order)
    new_finals = frozenset(i for i, b in enumerate(order) if partition[b] <= finals)
    labels = None
    if dfa.state_labels is not None:
        labels = tuple(dfa.state_labels[min(partition[b])] for b in order)
    return Dfa(dfa.alphabet, delta, 0, new_finals, labels)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Hopcroft–Karp union-find language-equivalence check."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    n1 = d1.n_states
    parent = list(range(n1 + d2.n_states))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
        return True

    def is_final(x):
        return x in d1.finals if x < n1 else (x - n1) in d2.finals

    queue = deque()
    if union(d1.initial, n1 + d2.initial):
        queue.append((d1.initial, n1 + d2.initial))
    while queue:
        p, q = queue.popleft()
        if is_final(p) != is_final(q):
            return False
        for i in range(len(d1.alphabet)):
            tp = d1.delta[p][i] if p < n1 else n1 + d2.delta[p - n1][i]
            tq = d1.delta[q][i] if q < n1 else n1 + d2.delta[q - n1][i]
            if union(tp, tq):
                queue.append((tp, tq))
    return True


def dfa_of_finite_language(words, alphabet, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Minimal complete DFA of a finite word set (trie plus sink, minimized)."""
    alphabet = tuple(alphabet)
    words = sorted(set(words))   # sorted, so the letter check names the same letter under every hash seed
    for w in words:
        for a in w:
            if a not in alphabet:
                raise ValueError(f"word letter {a!r} outside alphabet")
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)}
    # the trie closes λ under the letters: a takes p to p + a if that is a prefix, else to the sink None
    letter_ops = [lambda p, a=a: p + a if p is not None and p + a in prefixes else None for a in alphabet]
    _, index, right, _ = close_values([""], letter_ops, (), state_budget, "finite-language states")
    finals = frozenset(index[w] for w in words)
    return minimize(Dfa(alphabet, tuple(right), 0, finals))
