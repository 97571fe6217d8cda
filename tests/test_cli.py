import json

import pytest

import synlat
from synlat import render
from synlat.cli import main
from synlat.errors import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, InconsistencyError

from conftest import build


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


def test_reversible_lambda_language(capsys):
    code, out, _ = run_cli(capsys, "reversible", "--regex", "%e", "--alphabet", "a")
    assert code == EXIT_OK
    assert json.loads(out)["reversible"] is True


def test_outputs_stable_across_processes():
    import os
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "synlat.cli", "algebra", "--regex", "a+b+",
        "--alphabet", "ab", "--level", "semiring", "--format", "json",
    ]
    # the child imports the synlat under test, installed or not
    src = os.path.dirname(os.path.dirname(synlat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
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


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "automaton", "--regex", "(a|b)(a|b)(a|b)", "--alphabet", "ab",
        "--level", "dfa", "--format", "table", "--budget-states", "2",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


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
    lattice_aut = synlat.build_lattice_automaton(other, dfa, meet_automaton=meet_aut)
    with pytest.raises(InconsistencyError):
        render.algebra_text("semiring", dfa, pt, semiring, meet_aut, lattice_aut, True)
