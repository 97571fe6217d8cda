"""The README's examples run as written.

The Library block is executed as it stands, and the output the CLI example
shows is compared with what cli.main prints for the same command.
"""

import re
import shlex
from pathlib import Path

from synlat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_block_runs():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_cli_example_prints_what_the_readme_shows(capsys):
    command = "$ synlat reversible --regex 'a*' --alphabet ab\n"
    start = README.index(command) + len(command)
    shown = README[start:README.index("```", start)]
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == shown
