import os
import random
import subprocess
import sys

import pytest

import synlat
from synlat.automata import Dfa, access_words, dfa_of_finite_language
from synlat.errors import BudgetError

from conftest import build, words_upto


def states_by_name(dfa):
    """a+b+ reference states located structurally, not by label."""
    L = dfa.initial
    K = synlat.run(dfa, L, "a")
    empty = synlat.run(dfa, L, "b")
    bstar = synlat.run(dfa, L, "ab")
    return L, K, empty, bstar


def test_run_reference_edges():
    _, dfa, _ = build("a+b+", "ab")
    L, K, empty, bstar = states_by_name(dfa)
    assert len({L, K, empty, bstar}) == 4
    assert synlat.run(dfa, L, "a") == K
    assert synlat.run(dfa, L, "b") == empty
    assert synlat.run(dfa, K, "a") == K
    assert synlat.run(dfa, K, "b") == bstar
    assert synlat.run(dfa, bstar, "b") == bstar
    assert synlat.run(dfa, bstar, "a") == empty
    assert synlat.run(dfa, empty, "a") == empty
    assert synlat.run(dfa, empty, "b") == empty
    assert dfa.finals == frozenset({bstar})


def test_run_empty_word_and_bad_letter():
    _, dfa, _ = build("a+b+", "ab")
    assert synlat.run(dfa, dfa.initial, "") == dfa.initial
    with pytest.raises(ValueError):
        synlat.run(dfa, dfa.initial, "c")


def test_run_refuses_a_state_out_of_range():
    _, dfa, _ = build("a+b+", "ab")
    with pytest.raises(ValueError, match="^state out of range$"):
        synlat.run(dfa, 99, "a")


def test_run_action_associativity():
    _, dfa, _ = build("(a|bb)*", "ab")
    for q in range(dfa.n_states):
        for u in words_upto("ab", 3):
            for v in words_upto("ab", 3):
                assert synlat.run(dfa, q, u + v) == synlat.run(dfa, synlat.run(dfa, q, u), v)


def test_minimize_already_minimal():
    _, dfa, _ = build("a+b+", "ab")
    again = synlat.minimize(dfa)
    assert again.n_states == 4
    assert synlat.equivalent(dfa, again)


def test_minimize_merges_duplicate_sinks():
    # two copies of a final sink collapse to one
    delta = (
        (1, 2),
        (1, 1),
        (2, 2),
    )
    dfa = Dfa(("a", "b"), delta, 0, frozenset({1, 2}))
    small = synlat.minimize(dfa)
    assert small.n_states == 2
    assert synlat.equivalent(dfa, small)


def test_minimize_diagonal_product():
    # product of D_{a+b+} with itself accepts the same language; minimizes back to 4
    _, dfa, _ = build("a+b+", "ab")
    n = dfa.n_states
    delta = tuple(
        tuple(dfa.delta[p][li] * n + dfa.delta[q][li] for li in range(2))
        for p in range(n)
        for q in range(n)
    )
    finals = frozenset(p * n + q for p in dfa.finals for q in dfa.finals)
    product = Dfa(("a", "b"), delta, dfa.initial * n + dfa.initial, finals)
    small = synlat.minimize(product)
    assert small.n_states == 4
    assert synlat.equivalent(small, dfa)


def test_minimize_idempotent_up_to_isomorphism():
    rng = random.Random(7)
    for _ in range(20):
        dfa = random_dfa(rng)
        once = synlat.minimize(dfa)
        twice = synlat.minimize(once)
        # canonical numbering makes isomorphic minimal automata identical
        assert once.delta == twice.delta and once.finals == twice.finals


def random_dfa(rng, max_states=6):
    n = rng.randint(1, max_states)
    delta = tuple(tuple(rng.randrange(n) for _ in range(2)) for _ in range(n))
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(("a", "b"), delta, 0, finals)


def reference_minimize(dfa):
    """Minimal DFA by brute force, numbered breadth first from the initial state.

    Reachable states are classed by the words of length < n they accept; each
    class is labelled by its lowest-numbered member.
    """
    reach = [dfa.initial]
    for q in reach:
        reach += [t for t in set(dfa.delta[q]) if t not in reach]
    words = words_upto(dfa.alphabet, dfa.n_states)
    cls = {q: tuple(synlat.accepts(dfa, w, q) for w in words) for q in reach}
    order = [cls[dfa.initial]]
    delta = []
    for c in order:
        rep = next(q for q in reach if cls[q] == c)
        for t in dfa.delta[rep]:
            if cls[t] not in order:
                order.append(cls[t])
        delta.append(tuple(order.index(cls[t]) for t in dfa.delta[rep]))
    finals = frozenset(i for i, c in enumerate(order) if c[0])
    labels = tuple(dfa.state_labels[min(q for q in reach if cls[q] == c)] for c in order)
    return Dfa(dfa.alphabet, tuple(delta), 0, finals, labels)


def test_minimize_numbers_blocks_breadth_first_and_keeps_lowest_labels():
    rng = random.Random(3)
    for _ in range(200):
        base = random_dfa(rng, max_states=7)
        n, extra = base.n_states, rng.randint(0, 3)
        # unreachable states may point anywhere; then the numbers are shuffled
        rows = list(base.delta) + [tuple(rng.randrange(n + extra) for _ in range(2)) for _ in range(extra)]
        finals = set(base.finals) | {q for q in range(n, n + extra) if rng.random() < 0.5}
        perm = list(range(n + extra))
        rng.shuffle(perm)
        delta = [None] * len(perm)
        for q, row in enumerate(rows):
            delta[perm[q]] = tuple(perm[t] for t in row)
        labels = tuple(f"s{q}" for q in range(len(perm)))
        dfa = Dfa(("a", "b"), tuple(delta), perm[0], frozenset(perm[q] for q in finals), labels)
        assert synlat.minimize(dfa) == reference_minimize(dfa)


def test_equivalent_examples():
    _, dab, _ = build("a+b+", "ab")
    _, dstar, _ = build("a*b+", "ab")
    assert synlat.equivalent(dab, synlat.minimize(dab))
    assert not synlat.equivalent(dab, dstar)
    # shortest separating word is b: in a*b+ but not a+b+
    assert synlat.accepts(dstar, "b") and not synlat.accepts(dab, "b")
    _, dempty, _ = build("%0", "a")
    assert synlat.equivalent(dempty, dempty)


def test_equivalent_alphabet_mismatch():
    _, d1, _ = build("%0", "a")
    _, d2, _ = build("%0", "ab")
    with pytest.raises(ValueError):
        synlat.equivalent(d1, d2)


def test_equivalent_is_equivalence_relation():
    rng = random.Random(11)
    corpus = [random_dfa(rng) for _ in range(12)]
    corpus += [synlat.minimize(d) for d in corpus[:6]]
    for d in corpus:
        assert synlat.equivalent(d, d)
    for d1 in corpus:
        for d2 in corpus:
            assert synlat.equivalent(d1, d2) == synlat.equivalent(d2, d1)
    for d1 in corpus[:8]:
        for d2 in corpus[:8]:
            for d3 in corpus[:8]:
                if synlat.equivalent(d1, d2) and synlat.equivalent(d2, d3):
                    assert synlat.equivalent(d1, d3)


@pytest.mark.parametrize("args,message", [
    (((), (), 0, frozenset()), "alphabet must be non-empty"),
    ((("a", "a"), ((0, 0),), 0, frozenset()), "alphabet letters must be distinct"),
    ((("a",), ((0,),), -1, frozenset()), "initial state out of range"),
    ((("a", "b"), ((0, 0), (1,)), 0, frozenset()), "delta row width does not match alphabet"),
    ((("a",), ((0,), (2,)), 0, frozenset()), "transition target out of range"),
    ((("a",), ((0,),), 0, frozenset({1})), "final state out of range"),
    ((("a",), ((0,), (1,)), 0, frozenset(), ("q0",)), "state_labels length does not match state count"),
], ids=["empty-alphabet", "repeated-letter", "initial", "row-width", "target", "final", "labels"])
def test_dfa_refuses_each_malformed_field(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dfa(*args)


def test_access_words_shortlex():
    _, dfa, _ = build("a+b+", "ab")
    assert access_words(dfa) == ("", "a", "b", "ab")


def test_access_words_refuses_unreachable_states():
    with pytest.raises(ValueError, match="^automaton has unreachable states$"):
        access_words(Dfa(("a",), ((0,), (1,)), 0, frozenset({0})))


def test_dfa_of_finite_language():
    dfa = dfa_of_finite_language(["aa", "bb"], "ab")
    for w in words_upto("ab", 4):
        assert synlat.accepts(dfa, w) == (w in ("aa", "bb"))
    ast, canonical, _ = build("aa|bb", "ab")
    assert synlat.equivalent(dfa, canonical)
    assert dfa.n_states == canonical.n_states


def test_dfa_of_empty_and_lambda_language():
    dempty = dfa_of_finite_language([], "a")
    assert dempty.n_states == 1 and not dempty.finals
    dlam = dfa_of_finite_language([""], "a")
    assert dlam.n_states == 2 and synlat.accepts(dlam, "") and not synlat.accepts(dlam, "a")


def test_dfa_of_finite_language_refuses_a_letter_outside_the_alphabet():
    with pytest.raises(ValueError, match="^word letter 'c' outside alphabet$"):
        dfa_of_finite_language(["ac"], "ab")


def test_dfa_of_finite_language_budget():
    # abab: five prefixes and the sink
    with pytest.raises(BudgetError, match="^finite-language states exceeded budget of 3$"):
        dfa_of_finite_language(["abab"], "ab", 3)
    assert dfa_of_finite_language(["abab"], "ab", 6).n_states == 6


def reference_dfa_of_finite_language(words, alphabet, state_budget):
    """The trie of the words' prefixes in a hand-written loop, plus a sink, minimized."""
    alphabet = tuple(alphabet)
    words = sorted(set(words))
    nodes = {"": 0}
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
    delta = [tuple(nodes.get(p + a, sink) for a in alphabet) for p in prefixes]
    delta.append(tuple(sink for _ in alphabet))
    finals = frozenset(nodes[w] for w in words)
    return synlat.minimize(Dfa(alphabet, tuple(delta), 0, finals))


def test_dfa_of_finite_language_matches_the_trie_loop():
    # 0-6 words of length 0-5 over 1-3 letters, so the empty set and {λ} occur
    rng = random.Random(5)
    seen = set()
    for _ in range(3000):
        alphabet = "abc"[:rng.randint(1, 3)]
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5))) for _ in range(rng.randint(0, 6))]
        seen.add(frozenset(words))
        for budget in range(1, 9):
            try:
                expected = reference_dfa_of_finite_language(words, alphabet, budget)
            except BudgetError as exc:
                with pytest.raises(BudgetError) as got:
                    dfa_of_finite_language(words, alphabet, budget)
                assert str(got.value) == str(exc), (words, alphabet, budget)
                continue
            got = dfa_of_finite_language(words, alphabet, budget)
            assert got == expected, (words, alphabet, budget)
    assert frozenset() in seen and frozenset({""}) in seen


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_dfa_of_finite_language_names_the_same_letter_under_every_hash_seed(seed):
    # CPython 3.10-3.13 iterate the set {"ac", "ad"} from "ad" under seed 2, so a check
    # over the unsorted words would name 'd' there
    src = os.path.dirname(os.path.dirname(synlat.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    code = (
        "from synlat.automata import dfa_of_finite_language\n"
        "try:\n"
        "    dfa_of_finite_language({'ac', 'ad'}, 'ab')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "word letter 'c' outside alphabet\n"
