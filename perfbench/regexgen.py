"""Seeded random regular expressions in synlat's surface syntax.

The benchmark passes only the generated strings to the program.  A regex of
size s has s surface nodes: letters, %e, %0, binary | and concatenation, and
postfix * + ?.  Sizes run over 1..max_nodes and alphabets over 1..3
letters, so a corpus covers trivial languages as well as ones whose meet and
lattice automata have dozens of states.
"""

from __future__ import annotations

import random

ALPHABETS = ("a", "ab", "abc")

_UNION, _CONCAT, _POSTFIX = 0, 1, 2


def _node(rng: random.Random, letters: str, size: int):
    """(text, precedence) of a random regex with exactly `size` nodes."""
    if size == 1:
        r = rng.random()
        if r < 0.04:
            return "%e", _POSTFIX
        if r < 0.05:
            return "%0", _POSTFIX
        return rng.choice(letters), _POSTFIX
    if size == 2 or rng.random() < 0.25:
        inner, prec = _node(rng, letters, size - 1)
        if prec < _POSTFIX or inner[-1] in "*+?":
            inner = f"({inner})"
        return inner + rng.choice("**+?"), _POSTFIX
    left_size = rng.randint(1, size - 2)
    left, lp = _node(rng, letters, left_size)
    right, rp = _node(rng, letters, size - 1 - left_size)
    if rng.random() < 0.4:
        return f"{left}|{right}", _UNION
    if lp < _CONCAT:
        left = f"({left})"
    if rp < _CONCAT:
        right = f"({right})"
    return left + right, _CONCAT


def corpus(seed: int, count: int, max_nodes: int) -> list[tuple[str, str]]:
    """`count` (regex, alphabet) pairs drawn from `seed`.

    The i-th pair has alphabet ALPHABETS[i % 3] and size 1 + (i // 3) % max_nodes,
    so every seed draws the same mix of alphabets and sizes and only the
    shapes, operators and letters vary with the seed.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        alphabet = ALPHABETS[i % len(ALPHABETS)]
        size = 1 + (i // len(ALPHABETS)) % max_nodes
        out.append((_node(rng, alphabet, size)[0], alphabet))
    return out
