import gc
import json
import os
import subprocess
import sys

import pytest

import synlat
from synlat import render
from synlat.cli import main
from synlat.errors import EXIT_BUDGET, EXIT_INCONSISTENT, EXIT_OK, EXIT_OUTPUT, EXIT_PARSE, InconsistencyError

from conftest import build
from test_reversible import _no_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dfa_dot_output(capsys):
    code, out, _ = run_cli(
        capsys, "automaton", "--regex", "a+b+", "--alphabet", "ab", "--level", "dfa", "--format", "dot"
    )
    assert code == EXIT_OK
    nodes = [line for line in out.splitlines() if line.strip().startswith("q") and "shape=" in line]
    edges = [line for line in out.splitlines() if "->" in line and "label=" in line]
    assert len(nodes) == 4
    assert len(edges) == 8
    assert sum("doublecircle" in line for line in nodes) == 1
    assert 'label="b*"' in out


def test_meet_dot_has_dashed_covers(capsys):
    code, out, _ = run_cli(
        capsys, "automaton", "--regex", "a+b+", "--alphabet", "ab", "--level", "meet", "--format", "dot"
    )
    assert code == EXIT_OK
    assert sum("style=dashed" in line for line in out.splitlines()) == 7


def test_lattice_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "automaton", "--regex", "a+b+", "--alphabet", "ab", "--level", "lattice", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["states"]) == 7
    assert sum(s["final"] for s in doc["states"]) == 3
    assert len(doc["hasse"]) == 8
    assert doc["level"] == "lattice"


def test_meet_table_for_empty_language(capsys):
    code, out, _ = run_cli(
        capsys, "automaton", "--regex", "%0", "--alphabet", "a", "--level", "meet", "--format", "table"
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4  # header, rule, two states


def test_semiring_table_has_11_rows(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "semiring", "--format", "table"
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 + 11
    assert any("λ∧ab" in l for l in lines)


def test_lattice_table_suppressed_columns(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "lattice",
        "--format", "table", "--suppress-derivable-columns",
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 + 22
    header = lines[0].split()
    assert header == ["element", "aa*bb*", "a*bb*", "b*"]


def test_monoid_table_rows(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "monoid", "--format", "table"
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 + 5
    assert lines[2].split()[0] == "λ"


def test_algebra_dot_is_order_diagram(capsys):
    code, out, _ = run_cli(
        capsys, "algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "semiring", "--format", "dot"
    )
    assert code == EXIT_OK
    assert sum("style=dashed" in line for line in out.splitlines()) == 17


def test_reversible_json(capsys):
    code, out, _ = run_cli(capsys, "reversible", "--regex", "a+b+", "--alphabet", "ab")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["reversible"] is False
    assert doc["witness"] == {"f": 0, "g": 1, "h": 3, "x": "a", "y": "b"}
    assert doc["identity_counterexample"]["p"] == "a"
    code, out, _ = run_cli(capsys, "reversible", "--regex", "a*", "--alphabet", "ab")
    doc = json.loads(out)
    assert doc == {"reversible": True, "witness": None, "identity_counterexample": None}


def test_reversible_budget_counts_reduced_substitutions(capsys):
    # (aab|bba)*: 35 elements and 7 idempotents, 4,760 pair steps
    code, out, _ = run_cli(capsys, "reversible", "--regex", "(aab|bba)*", "--alphabet", "ab")
    assert code == EXIT_OK
    assert json.loads(out)["reversible"] is True
    # 63 elements and 33 idempotents, 66,402 pair steps
    code, out, _ = run_cli(capsys, "reversible", "--regex", "(a|b)*a(a|b)(a|b)(a|b)(a|b)", "--alphabet", "ab")
    assert code == EXIT_OK
    assert json.loads(out)["reversible"] is False
    # 255 elements and 129 idempotents, 4,210,050 pair steps
    code, out, err = run_cli(capsys, "reversible", "--regex", "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "--alphabet", "ab")
    assert code == EXIT_BUDGET
    assert out == "" and "identity-check quadruples exceeded budget of 1000000 (needs 4210050)" in err


def test_monoid_dot_rejected_before_the_monoid_is_built(capsys):
    code, out, err = run_cli(
        capsys, "algebra", "--regex", "(a|b)*a(a|b)(a|b)(a|b)(a|b)", "--alphabet", "ab",
        "--level", "monoid", "--format", "dot", "--budget-elements", "1",
    )
    assert code == EXIT_PARSE
    assert out == "" and "no order diagram" in err



@pytest.mark.parametrize(
    "argv",
    [
        ["automaton", "--level", "nfa"],
        ["algebra", "--level", "group"],
        ["automaton", "--level", "dfa", "--format", "xml"],
        ["algebra", "--level", "monoid", "--format", "svg"],
        ["reversible", "--format", "json"],
    ],
    ids=["unknown automaton level", "unknown algebra level", "unknown automaton format",
         "unknown algebra format", "format on reversible"],
)
def test_argparse_rejects_unknown_levels_and_formats(capsys, argv):
    # argparse's choices are the only check of level and format
    with pytest.raises(SystemExit) as exc:
        main([*argv[:1], "--regex", "a+b+", "--alphabet", "ab", *argv[1:]])
    out = capsys.readouterr()
    assert exc.value.code == EXIT_PARSE
    assert out.out == "" and out.err.startswith("usage: synlat")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("name", ["profiles", "states", "elements", "quadruples"])
@pytest.mark.parametrize(
    "command",
    [
        ["automaton", "--level", "dfa"],
        ["algebra", "--level", "monoid"],
        ["algebra", "--level", "monoid", "--format", "dot"],   # reported before the monoid dot refusal
        ["reversible"],
    ],
    ids=["automaton", "algebra", "monoid dot", "reversible"],
)
def test_non_positive_budget_exits_2(capsys, command, name, value):
    code, out, err = run_cli(
        capsys, *command, "--regex", "a+b+", "--alphabet", "ab", f"--budget-{name}={value}"
    )
    assert (code, out, err) == (EXIT_PARSE, "", f"error: budget {name} must be positive\n")


def test_letter_starting_with_a_dash_is_given_after_an_equals_sign(capsys):
    code, out, _ = run_cli(capsys, "reversible", "--regex=-a", "--alphabet=-a")
    assert code == EXIT_OK and json.loads(out)["reversible"] is True
    with pytest.raises(SystemExit) as exc:
        main(["reversible", "--regex", "-a", "--alphabet", "-a"])
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""

@pytest.mark.parametrize(
    "pattern,code,message",
    [
        ("(" * 1200 + "a" + ")" * 1200, EXIT_PARSE, "groups nested more than 100 deep"),
        ("a" + "*" * 2000, EXIT_PARSE, "pattern nested more than 100 deep"),
        ("a*" * 2000, EXIT_BUDGET, "derivative concatenation parts"),
    ],
    ids=["1200 nested groups", "2000 stars on a letter", "a* 2000 times"],
)
def test_deep_or_long_patterns_end_in_an_exit_code(capsys, pattern, code, message):
    # each of these ended in a RecursionError traceback
    rc, out, err = run_cli(capsys, "reversible", "--regex", pattern, "--alphabet", "ab")
    assert (rc, out) == (code, "")
    assert message in err


def test_reversible_lambda_language(capsys):
    code, out, _ = run_cli(capsys, "reversible", "--regex", "%e", "--alphabet", "a")
    assert code == EXIT_OK
    assert json.loads(out)["reversible"] is True


def child_env():
    """The environment of a child process that imports the synlat under test, installed or not."""
    src = os.path.dirname(os.path.dirname(synlat.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_outputs_stable_across_processes():
    argv = [
        sys.executable, "-m", "synlat.cli", "algebra", "--regex", "a+b+",
        "--alphabet", "ab", "--level", "semiring", "--format", "json",
    ]
    env = child_env()
    first = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    second = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    assert first == second and first


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "automaton", "--regex", "a|", "--alphabet", "ab", "--level", "dfa", "--format", "table"
    )
    assert code == EXIT_PARSE
    assert "error" in err


def test_letter_outside_alphabet_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "automaton", "--regex", "abc", "--alphabet", "ab", "--level", "dfa", "--format", "table"
    )
    assert code == EXIT_PARSE


@pytest.mark.parametrize("alphabet", ["a|b", "a("])
def test_alphabet_letter_of_pattern_syntax_exits_2(capsys, alphabet):
    code, out, err = run_cli(capsys, "automaton", "--regex", "a", "--alphabet", alphabet, "--level", "dfa")
    assert (code, out) == (EXIT_PARSE, "")
    assert "clash with pattern syntax" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["algebra", "--level", "monoid", "--regex", "λa", "--alphabet", "aλ", "--format", "table"],
        ["automaton", "--level", "meet", "--regex", "a⊤", "--alphabet", "a⊤"],
    ],
)
def test_alphabet_letter_read_as_an_output_symbol_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert "not printable non-space ASCII" in err


def test_repeated_alphabet_letter_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "automaton", "--regex", "a", "--alphabet", "aa", "--level", "dfa")
    assert (code, out) == (EXIT_PARSE, "")
    assert "alphabet letters must be distinct" in err


def test_internal_value_error_exits_4_without_traceback(capsys, monkeypatch):
    def not_an_order(up):
        raise ValueError("up-sets are not a partial order")

    monkeypatch.setattr(synlat.canonical, "hasse_from_leq", not_an_order)
    code, out, err = run_cli(capsys, "automaton", "--regex", "a+b+", "--alphabet", "ab", "--level", "meet")
    assert (code, out) == (EXIT_INCONSISTENT, "")
    assert err == "internal inconsistency: up-sets are not a partial order\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that is always full")
@pytest.mark.parametrize("argv", [
    ["algebra", "--level", "lattice", "--regex", "(a|b)*abb", "--alphabet", "ab", "--format", "json"],
    ["reversible", "--regex", "a*", "--alphabet", "ab"],   # short enough to fail only at the flush
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_write_error_exits_5_without_traceback(argv, unbuffered):
    # buffered, a short document fails at the flush and its bytes stay pending for the exit flush
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "synlat", *argv], stdout=full, stderr=subprocess.PIPE, env=env, text=True
        )
    assert done.returncode == EXIT_OUTPUT
    assert done.stderr.startswith("error: cannot write output: [Errno 28] ")
    assert done.stderr.count("\n") == 1   # one line, no traceback


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "automaton", "--regex", "(a|b)(a|b)(a|b)", "--alphabet", "ab",
        "--level", "dfa", "--format", "table", "--budget-states", "2",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


@pytest.mark.parametrize("budget", [5, 43])
def test_semiring_refusal_names_the_semiring(capsys, budget):
    # the 44-element semiring's 15-element monoid is closed first: 5 stops the monoid, 43 the values
    code, out, err = run_cli(
        capsys, "algebra", "--level", "semiring", "--regex", "(a|b)*a(a|b)(a|b)", "--alphabet", "ab",
        "--budget-elements", str(budget),
    )
    assert (code, out, err) == (EXIT_BUDGET, "", f"error: semiring elements exceeded budget of {budget}\n")


def test_outputs_byte_deterministic(capsys):
    args = ["algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "lattice", "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["automaton", "--regex", "a+b+", "--alphabet", "ab", "--level", "meet", "--format", "json"],
        ["automaton", "--regex", "a*", "--alphabet", "ab", "--level", "dfa", "--format", "json"],
        ["algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "semiring", "--format", "json"],
        ["algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "lattice", "--format", "json"],
        ["algebra", "--regex", "a*", "--alphabet", "ab", "--level", "monoid", "--format", "json"],
    ],
)
def test_json_round_trip(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    from synlat.render import render_json

    assert render_json(doc) == out


def test_algebra_table_rejects_automaton_of_another_table():
    # images computed in one profile table are not states of a meet
    # automaton built on another: an internal fault, not a user error
    _, dfa, pt = build("a+b+", "ab")
    other = synlat.build_profile_table(dfa)
    semiring = synlat.syntactic_semiring(pt, dfa)
    meet_aut = synlat.build_meet_automaton(other, dfa)
    lattice_aut = synlat.build_lattice_automaton(other, dfa)
    with pytest.raises(InconsistencyError, match="^image is not a state of the canonical automaton$"):
        render.algebra_text("semiring", dfa, pt, semiring, meet_aut, lattice_aut, True)
    with pytest.raises(InconsistencyError, match="^column is not an image of the initial column$"):
        render.algebra_text("semiring", dfa, pt, semiring, meet_aut, lattice_aut, False)


def test_algebra_payload_needs_the_product_table():
    _, dfa, pt = build("a+b+", "ab")
    alg = synlat.syntactic_lattice_algebra(pt, dfa, with_tables=False)
    with pytest.raises(ValueError, match="^algebra was built without multiplication tables$"):
        render.algebra_payload("a+b+", "ab", "lattice", dfa, pt, alg)


def test_algebra_text_needs_the_product_table():
    _, dfa, pt = build("a+b+", "ab")
    alg = synlat.syntactic_lattice_algebra(pt, dfa, with_tables=False)
    lattice_aut = synlat.build_lattice_automaton(pt, dfa)
    with pytest.raises(ValueError, match="^algebra was built without multiplication tables$"):
        render.algebra_text("lattice", dfa, pt, alg, None, lattice_aut, False)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_with_the_collector_off_and_restores_its_state(capsys, monkeypatch, enabled):
    seen = []
    real = synlat.cli.build_profile_table

    def build_profile_table(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(synlat.cli, "build_profile_table", build_profile_table)
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run_cli(capsys, "automaton", "--regex", "a+b+", "--alphabet", "ab", "--level", "meet")
        after_run = gc.isenabled()
        with pytest.raises(SystemExit):   # argparse rejects the level
            main(["automaton", "--regex", "a", "--alphabet", "a", "--level", "nope"])
        after_exit = gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, seen, after_run, after_exit) == (EXIT_OK, [False], enabled, enabled)


def test_parser_reuse_carries_no_state(capsys):
    # the parser is built once per process; a flag given to one call must
    # not leak into the next
    from synlat import cli

    args = ["algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", "semiring", "--format", "table"]
    assert cli._build_parser() is cli._build_parser()
    _, suppressed, _ = run_cli(capsys, *args, "--suppress-derivable-columns")
    _, second, _ = run_cli(capsys, *args)
    cli._build_parser.cache_clear()
    _, fresh, _ = run_cli(capsys, *args)
    assert second == fresh
    assert suppressed != fresh


@pytest.mark.parametrize(
    "level,fmt,code",
    [("monoid", "json", EXIT_OK), ("semiring", "table", EXIT_OK), ("lattice", "table", EXIT_BUDGET)],
)
def test_state_budget_bounds_only_the_printed_automaton(capsys, level, fmt, code):
    # (a|b)*abb has a 5-state meet automaton and a 10-state lattice automaton
    rc, _, _ = run_cli(
        capsys, "algebra", "--regex", "(a|b)*abb", "--alphabet", "ab",
        "--level", level, "--format", fmt, "--budget-states", "9",
    )
    assert rc == code


@pytest.mark.parametrize(
    "pattern,alphabet", [("a+b+", "ab"), ("(a|bb)*", "ab"), ("ab*a|b", "ab"), ("(a|bc)*(c|%e)", "abc")]
)
def test_table_images_match_direct_action(pattern, alphabet):
    # the product-table cells equal the action computed on each column state
    _, dfa, pt = build(pattern, alphabet)
    monoid = synlat.syntactic_monoid(dfa)
    states = list(range(dfa.n_states))
    for e, row in zip(monoid.elements, render.table_images("monoid", dfa, monoid, states)):
        assert row == [synlat.run(dfa, q, e.witness) for q in states]

    semiring = synlat.syntactic_semiring(pt, dfa)
    states = synlat.build_meet_automaton(pt, dfa).states
    for e, row in zip(semiring.elements, render.table_images("semiring", dfa, semiring, states)):
        assert row == [synlat.extend_semiring_action(pt, e.mapping, x) for x in states]

    lattice = synlat.syntactic_lattice_algebra(pt, dfa)
    states = synlat.build_lattice_automaton(pt, dfa).states
    for e, row in zip(lattice.elements, render.table_images("lattice", dfa, lattice, states)):
        assert row == [synlat.eval_lattice_form(pt, x, e.witness) for x in states]

    # no columns: one empty row per element
    for level, algebra in (("monoid", monoid), ("semiring", semiring), ("lattice", lattice)):
        assert render.table_images(level, dfa, algebra, []) == [[] for _ in algebra.elements]


@pytest.mark.parametrize("pattern", ["a+b+", "(a|b)*a(a|b)(a|b)"])
def test_monoid_table_builds_no_cayley_row(monkeypatch, capsys, pattern):
    # the table's cells are the elements' mappings; only the json document reads the rows
    argv = ["algebra", "--level", "monoid", "--regex", pattern, "--alphabet", "ab"]
    flags = [("--format", "table"), ("--suppress-derivable-columns",)]
    expected = [run_cli(capsys, *argv, *flag) for flag in flags]
    assert {(code, err) for code, _, err in expected} == {(EXIT_OK, "")}
    _no_rows(monkeypatch)
    assert [run_cli(capsys, *argv, *flag) for flag in flags] == expected
    with pytest.raises(AssertionError, match="^a Cayley table row was built$"):
        main(argv + ["--format", "json"])


@pytest.mark.parametrize(
    "level,pattern,alphabet",
    [("semiring", "a+b+", "ab"), ("semiring", "(a|b)*a(a|b)(a|b)", "ab"),
     ("lattice", "a+b+", "ab"), ("lattice", "(a|bc)*(c|%e)", "abc"), ("lattice", "(a|b)*abb", "ab")],
)
def test_each_format_builds_only_the_table_rows_it_reads(monkeypatch, capsys, level, pattern, alphabet):
    # dot reads the order alone, the text table one product row per column state, json every row;
    # a semiring's product rows are walked over its final ∧ rows, so the text table builds those
    # its product rows read: ([∧ rows], product rows) for the table, then with suppressed columns
    semiring_rows = {"a+b+": [([7], 6), ([6], 3)], "(a|b)*a(a|b)(a|b)": [([15], 9), ([15], 8)]}
    from synlat import cli

    name = "syntactic_semiring" if level == "semiring" else "syntactic_lattice_algebra"
    builder, built = getattr(cli, name), []

    def keep(*args, **kwargs):
        built.append(builder(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, name, keep)
    _, dfa, pt = build(pattern, alphabet)
    automaton = synlat.build_meet_automaton if level == "semiring" else synlat.build_lattice_automaton
    columns = len(automaton(pt, dfa).states)

    def rows_built(*flags):
        """Rows built of the ∧ (and ∨) tables, then of the product table, and the element count."""
        argv = ["algebra", "--level", level, "--regex", pattern, "--alphabet", alphabet, *flags]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        alg = built.pop()
        lattice_tables = [alg.meet_table] + ([alg.join_table] if level == "lattice" else [])
        return [len(t.rows) for t in lattice_tables], len(alg.mul_table.rows), len(alg)

    lattice_rows, mul_rows, _ = rows_built("--format", "dot")
    assert (set(lattice_rows), mul_rows) == ({0}, 0)
    for i, flags in enumerate((["--format", "table"], ["--suppress-derivable-columns"])):
        lattice_rows, mul_rows, _ = rows_built(*flags)
        assert 1 <= mul_rows <= columns
        if level == "semiring":
            assert (lattice_rows, mul_rows) == semiring_rows[pattern][i]
        else:
            assert set(lattice_rows) == {0}
    lattice_rows, mul_rows, n = rows_built("--format", "json")
    assert set(lattice_rows) == {n} and mul_rows == n


@pytest.mark.parametrize("level,fmt", [("monoid", "json"), ("semiring", "json"), ("semiring", "dot"),
                                       ("lattice", "json"), ("lattice", "dot")])
def test_suppress_derivable_columns_leaves_json_and_dot_alone(capsys, level, fmt):
    args = ["algebra", "--regex", "a+b+", "--alphabet", "ab", "--level", level, "--format", fmt]
    plain = run_cli(capsys, *args)
    assert plain[0] == EXIT_OK
    assert run_cli(capsys, *args, "--suppress-derivable-columns") == plain


def test_suppress_derivable_columns_help_names_the_table_format(capsys):
    with pytest.raises(SystemExit):
        main(["algebra", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert ("--suppress-derivable-columns keep only the informative residual columns; "
            "applies to --format table only") in usage
