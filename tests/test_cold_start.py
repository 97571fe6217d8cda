"""A fresh process importing synlat loads neither dataclasses, inspect, typing, argparse nor the oracle module.

Each check runs in a new interpreter with PYTHONPATH=src and looks only at
the modules the import itself adds, so what the interpreter's site setup
loads does not count; the typing check runs without site (-S), since site
loads typing on many installs.  Nothing a session loads outside synlat may
come from outside Python's standard library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ["dataclasses", "inspect", "synlat.oracle", "argparse", "gettext"]
ORACLE_NAMES = [
    "OracleConfig",
    "oracle_enumerate_elements",
    "oracle_enumerate_saturated",
    "oracle_lattice_congruent",
    "oracle_monoid_congruent",
    "oracle_semiring_congruent",
    "oracle_transition_action",
]


def _fresh(code: str, *flags: str):
    """The JSON value code prints, run in a fresh interpreter with the given flags."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["synlat.cli", "synlat"])
def test_import_leaves_out_dataclasses_inspect_and_the_oracle(module):
    added = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert module in added
    assert [name for name in UNWANTED if name in added] == []


def test_a_cli_import_without_site_leaves_out_typing():
    loaded = _fresh("import json, sys\nimport synlat.cli\nprint(json.dumps('typing' in sys.modules))", "-S")
    assert loaded is False


def test_a_session_loads_only_the_standard_library():
    # synlat has no runtime dependency: whatever its import, its CLI's commands and its
    # oracle load outside the package is a module of Python's standard library
    codes, added, stdlib = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "import synlat, synlat.cli, synlat.oracle\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [synlat.cli.main(argv.split()) for argv in (\n"
        "        'automaton --regex a+b+ --alphabet ab --level lattice --format json',\n"
        "        'algebra --regex a+b+ --alphabet ab --level lattice --format json',\n"
        "        'reversible --regex a+b+ --alphabet ab',\n"
        "    )]\n"
        "added = sorted(set(sys.modules) - before)\n"
        "print(json.dumps([codes, added, sorted(sys.stdlib_module_names)]))\n"
    )
    assert codes == [0, 0, 0]
    assert "synlat.oracle" in added
    assert [name for name in added if name.split(".")[0] not in {"synlat", *stdlib}] == []


def test_oracle_names_resolve_on_first_use():
    got = _fresh(
        "import json, sys\n"
        "import synlat\n"
        "listed = [n for n in dir(synlat) if n.startswith(('oracle_', 'Oracle'))]\n"
        "loaded = 'synlat.oracle' in sys.modules\n"
        "from synlat import oracle_monoid_congruent\n"
        "config = synlat.OracleConfig()\n"
        "import synlat.oracle as oracle\n"
        "print(json.dumps([listed, loaded, oracle_monoid_congruent is oracle.oracle_monoid_congruent,\n"
        "                  type(config) is oracle.OracleConfig]))\n"
    )
    assert got == [ORACLE_NAMES, False, True, True]


def test_oracle_names_resolve_in_this_interpreter():
    # the same loader in-process, where other tests may have loaded the oracle already
    import synlat
    import synlat.oracle as oracle

    assert [n for n in dir(synlat) if n.startswith(("oracle_", "Oracle"))] == ORACLE_NAMES
    assert [getattr(synlat, n) for n in ORACLE_NAMES] == [getattr(oracle, n) for n in ORACLE_NAMES]


def test_an_unknown_name_is_still_an_attribute_error():
    import synlat

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        synlat.no_such_name
