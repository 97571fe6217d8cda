"""Output checks.  Each returns None for a correct output, or the reason it is wrong.

Three kinds of check, none of which asks synlat for the answer:
- hand-known facts: element counts and reversibility verdicts of the fixed inputs;
- byte identity: the SHA-256 of each output against reference.json, recorded
  from synlat 0.1.0 (commit 548a86e) with record.py;
- for batch outputs, well-formedness in the requested format, the language of
  every JSON automaton against the regex on all short words, matched by this
  module's own parser and position-set matcher, and
  identity, idempotence and associativity laws of the JSON tables.
"""

from __future__ import annotations

import hashlib
import json

# Words checked per automaton: all words up to this many, shortest first.
_MAX_WORDS = 130
_MAX_WORD_LEN = 12
# Largest algebra whose tables are checked for associativity (n³ lookups).
_MAX_ASSOC = 40


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def element_count(text: str, fmt: str) -> int:
    """Elements in an algebra rendered as json, table or dot."""
    if fmt == "json":
        return len(json.loads(text)["elements"])
    if fmt == "table":
        return len(text.splitlines()) - 2
    return sum(1 for line in text.splitlines() if line.startswith("  e") and "[shape=box" in line)


def facts(req, text: str) -> str | None:
    if req.elements is not None:
        n = element_count(text, req.fmt)
        if n != req.elements:
            return f"{n} elements, expected {req.elements}"
    if req.reversible is not None:
        got = json.loads(text)["reversible"]
        if got is not req.reversible:
            return f"reversible is {got}, expected {req.reversible}"
    return None


def parse(regex: str):
    """AST of synlat's surface syntax as nested tuples, by recursive descent."""
    pos = 0

    def expr():
        nonlocal pos
        parts = [term()]
        while pos < len(regex) and regex[pos] == "|":
            pos += 1
            parts.append(term())
        return ("alt", parts)

    def term():
        parts = []
        while pos < len(regex) and regex[pos] not in "|)":
            parts.append(factor())
        return ("cat", parts)

    def factor():
        nonlocal pos
        node = base()
        while pos < len(regex) and regex[pos] in "*+?":
            node = (regex[pos], node)
            pos += 1
        return node

    def base():
        nonlocal pos
        c = regex[pos]
        if c == "(":
            pos += 1
            node = expr()
            pos += 1
            return node
        if c == "%":
            pos += 2
            return ("cat", []) if regex[pos - 1] == "e" else ("alt", [])
        pos += 1
        return ("letter", c)

    return expr()


def _ends(node, word: str, starts: frozenset) -> frozenset:
    """Positions where a match of node can end, from any of the start positions."""
    kind = node[0]
    if kind == "letter":
        return frozenset(i + 1 for i in starts if i < len(word) and word[i] == node[1])
    if kind == "cat":
        for part in node[1]:
            starts = _ends(part, word, starts)
        return starts
    if kind == "alt":
        return frozenset().union(*(_ends(part, word, starts) for part in node[1]))
    if kind == "?":
        return starts | _ends(node[1], word, starts)
    reached = starts if kind == "*" else frozenset()
    frontier = starts
    while frontier:
        step = _ends(node[1], word, frontier)
        frontier = step - reached
        reached |= step
    return reached


def matches(ast, word: str) -> bool:
    return len(word) in _ends(ast, word, frozenset({0}))


def short_words(alphabet: str) -> list[str]:
    words, frontier = [""], [""]
    for _ in range(_MAX_WORD_LEN):
        frontier = [w + a for w in frontier for a in alphabet]
        if len(words) + len(frontier) > _MAX_WORDS:
            break
        words += frontier
    return words


def _automaton_language(doc: dict, regex: str, alphabet: str) -> str | None:
    n = len(doc["states"])
    delta = {}
    for src, letter, dst in doc["transitions"]:
        if not (0 <= src < n and 0 <= dst < n) or letter not in alphabet:
            return "transition out of range"
        delta[src, letter] = dst
    if len(delta) != n * len(alphabet):
        return "transitions are not total"
    finals = {s["id"] for s in doc["states"] if s["final"]}
    ast = parse(regex)
    for word in short_words(alphabet):
        q = doc["initial"]
        for a in word:
            q = delta[q, a]
        if (q in finals) != matches(ast, word):
            return f"automaton and regex disagree on {word!r}"
    return None


def _table_laws(table: list[list[int]], name: str, idempotent: bool, unit: int | None) -> str | None:
    n = len(table)
    if any(len(row) != n or not all(0 <= x < n for x in row) for row in table):
        return f"{name} table is not {n}x{n} over the elements"
    if idempotent and any(table[i][i] != i for i in range(n)):
        return f"{name} table is not idempotent"
    if unit is not None and any(table[unit][i] != i or table[i][unit] != i for i in range(n)):
        return f"element {unit} is not a unit of the {name} table"
    if n <= _MAX_ASSOC:
        for i in range(n):
            row = table[i]
            for j in range(n):
                ij = row[j]
                for k in range(n):
                    if table[ij][k] != row[table[j][k]]:
                        return f"{name} table is not associative at {(i, j, k)}"
    return None


def well_formed(argv: tuple[str, ...], text: str) -> str | None:
    """Format and semantic checks for one batch output."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    fmt = opts.get("--format", "json")
    if fmt == "dot":
        if not (text.startswith("digraph {\n") and text.endswith("}\n")):
            return "not a DOT digraph"
        return None
    if fmt == "table":
        lines = text.splitlines()
        if len(lines) < 3 or set(lines[1]) - {"-", " "}:
            return "not a table with a header rule and rows"
        return None
    doc = json.loads(text)
    if command == "reversible":
        verdict = doc["reversible"]
        if not isinstance(verdict, bool):
            return "verdict is not a boolean"
        if (doc["witness"] is None) != verdict or (doc["identity_counterexample"] is None) != verdict:
            return "witness and counterexample do not match the verdict"
        return None
    if command == "automaton":
        return _automaton_language(doc, opts["--regex"], opts["--alphabet"])
    tables = doc["tables"]
    if opts["--level"] == "monoid":
        if doc["elements"][0]["witness"] != "":
            return "element 0 is not the empty word"
        return _table_laws(tables["mul"], "mul", False, 0)
    return _table_laws(tables["meet"], "meet", True, None) or _table_laws(tables["mul"], "mul", False, 0)
