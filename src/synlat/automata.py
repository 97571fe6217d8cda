"""Total deterministic finite automata: the carrier structure for everything else.

States are integers 0..n-1 with a total transition table.  All construction
paths renumber states canonically (breadth-first from the initial state,
letters in alphabet order) so downstream tables and renderings are
byte-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BudgetError, InconsistencyError

DEFAULT_STATE_BUDGET = 4096   # states of any automaton built by the package


@dataclass(frozen=True)
class Dfa:
    """Complete DFA.  delta[state][letter_index] is the successor state."""

    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]
    state_labels: tuple[str, ...] | None = None
    _letter_index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        n = len(self.delta)
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        for row in self.delta:
            if len(row) != len(self.alphabet):
                raise ValueError("delta row width does not match alphabet")
            for q in row:
                if not 0 <= q < n:
                    raise ValueError("transition target out of range")
        if not all(0 <= q < n for q in self.finals):
            raise ValueError("final state out of range")
        if self.state_labels is not None and len(self.state_labels) != n:
            raise ValueError("state_labels length does not match state count")
        object.__setattr__(self, "_letter_index", {a: i for i, a in enumerate(self.alphabet)})

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
    """Fixpoint closure in discovery order, on values only; returns (values, index, right, pairs).

    Seeds are deduplicated in order.  Each value i in turn gets every letter
    op fn(vi), then, for each j <= i, every pair op fn(vi, vj) in op order;
    right[i][k] and pairs[p][i][j] record the index each op k or p gave.
    A value beyond the first budget raises BudgetError(what, budget).
    Without pair ops the closure is breadth first over the letter ops.
    With a stop count it returns as soon as it holds that many values, so no
    op runs after the last value is found: right then holds the complete
    rows only, and the last row of each pair table may be partial.
    """
    values = []
    index = {}
    get = index.get

    def add(v):
        i = get(v)
        if i is None:
            if len(values) >= budget:
                raise BudgetError(what, budget)
            i = index[v] = len(values)
            values.append(v)
            if i + 1 == stop:
                raise _Stop
        return i

    right = []
    pairs = [[] for _ in pair_ops]
    try:
        for v in seeds:
            add(v)
        for i, vi in enumerate(values):   # values grows as it is visited
            right.append(tuple([add(fn(vi)) for fn in letter_ops]))
            if pair_ops:
                rows = [[] for _ in pair_ops]
                for table, row in zip(pairs, rows):
                    table.append(row)
                ops = list(zip([row.append for row in rows], pair_ops))
                for vj in values[:i + 1]:
                    for append, fn in ops:
                        v = fn(vi, vj)
                        k = get(v)   # most pairs give a known value: no call to add
                        append(add(v) if k is None else k)
    except _Stop:
        pass
    return values, index, right, pairs


def spanning_tree(right) -> list[tuple[int, int]]:
    """(parent, letter) of values 1, 2, ... in a breadth-first closure from value 0.

    right is close_values' letter table.  Value j is first reached as
    right[i][a] for (i, a) = tree[j - 1], and i < j.
    """
    tree: list[tuple[int, int] | None] = [None] * len(right)
    for i, row in enumerate(right):
        for a, j in enumerate(row):
            if tree[j] is None:
                tree[j] = (i, a)
    return tree[1:]


def tree_words(tree, alphabet) -> list[str]:
    """The word along the spanning tree to each value; value 0's is λ."""
    words = [""]
    for i, a in tree:
        words.append(words[i] + alphabet[a])
    return words


def tree_paths(right):
    """(paths, tree): tree = spanning_tree(right), and the ops along it to each value,
    as a tuple of op indices; value 0's is ().

    Let right be the table of a closure from one seed under ops "∧ g_k" (or
    all "∨ g_k") for generators g_k ranked by a key.  Then each path is its
    value's least form over the generators: fewest generators, then the
    least tuple of ranks; it is increasing, so it is also the sorted form.
    By induction on the breadth-first layers, whose values are visited in
    the order of their least forms: let F be the least form of value j, F'
    its prefix and k its last rank.  F' is the least form of its value, so
    that value reaches j by op k; and a parent visited earlier, or the same
    parent by an op before k, would give a form before F by inserting its
    op into its own least form.  So j is first reached from F' by op k.
    """
    tree = spanning_tree(right)
    paths = [()]
    for i, k in tree:
        paths.append(paths[i] + (k,))
    return paths, tree


def least_paths(values, seed, ops, what: str):
    """tree_paths of the closure of seed under ops, for each of values in turn, and its tree.

    Returns (paths, tree): tree lists (j, parent, k) for each value j but
    the seed's, numbered as in values, where j is first reached as op k of
    parent; parents come before their children.  The search is budgeted at
    len(values), so it does no more work than the closure that found them.
    Raises InconsistencyError unless it reaches exactly the given values.
    """
    try:
        _, index, right, _ = close_values([seed], ops, (), len(values), what)
        found = [index[v] for v in values]
    except (BudgetError, KeyError):
        raise InconsistencyError(f"the least-form search does not reach exactly the {what}") from None
    paths, tree = tree_paths(right)
    ids = [0] * len(found)   # the closure's numbering to the values'
    for j, i in enumerate(found):
        ids[i] = j
    return [paths[i] for i in found], [(ids[i], ids[p], k) for i, (p, k) in enumerate(tree, 1)]


def access_words(dfa: Dfa) -> tuple[str, ...]:
    """Shortlex-least word reaching each state (all states must be reachable)."""
    letter_ops = [lambda q, a=a: dfa.delta[q][a] for a in range(len(dfa.alphabet))]
    states, index, right, _ = close_values([dfa.initial], letter_ops, (), dfa.n_states, "states")
    if len(states) != dfa.n_states:
        raise ValueError("automaton has unreachable states")
    words = tree_words(spanning_tree(right), dfa.alphabet)
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
    words = sorted(set(words))
    for w in words:
        for a in w:
            if a not in alphabet:
                raise ValueError(f"word letter {a!r} outside alphabet")
    nodes: dict[str, int] = {"": 0}
    prefixes = [""]
    for w in words:
        for i in range(1, len(w) + 1):
            p = w[:i]
            if p not in nodes:
                nodes[p] = len(prefixes)
                prefixes.append(p)
    sink = len(prefixes)
    if sink + 1 > state_budget:
        raise BudgetError("finite-language states", state_budget)
    delta = []
    for p in prefixes:
        delta.append(tuple(nodes.get(p + a, sink) for a in alphabet))
    delta.append(tuple(sink for _ in alphabet))
    finals = frozenset(nodes[w] for w in words)
    return minimize(Dfa(alphabet, tuple(delta), 0, finals))
