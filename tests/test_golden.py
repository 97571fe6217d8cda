"""Golden CLI output: SHA-256 of stdout for a fixed set of requests.

The digests pin the exact bytes of the rendered algebras and automata, so a
refactor of the closures or product tables that changes any element order,
witness, table cell or cover shows up here.  "suppress" stands for the
table format with --suppress-derivable-columns.
"""

import hashlib

import pytest

from synlat.cli import main
from synlat.errors import EXIT_OK

GOLDEN = [
    ("algebra", "a+b+", "ab", "lattice", "table", "b65353aaefb1caac2fcf490ded8bdf3ab021cc19c17d9bdc5fe658f07ee0f2b1"),
    ("algebra", "a+b+", "ab", "lattice", "json", "9961d47753f4f52f49c87f2efc364a9c91c4503757602c4f50b92f64f32b2d3b"),
    ("algebra", "a+b+", "ab", "lattice", "dot", "070f0413a12820c6acca5920e8c7a1a8d1ba13e450d5c30aed2a68731b1a8fe7"),
    ("algebra", "a+b+", "ab", "lattice", "suppress", "8b8b22db77fec738512ad1f0750503c1e2439c79cae260e1c30ce10e0e39812f"),
    ("algebra", "(a|bb)*", "ab", "lattice", "dot", "f4b87d8a16e6ad2260ebadfacef9a2ce3b3087ab7a9fd288d0375f40a1e39b48"),
    ("algebra", "ab*a|b", "ab", "lattice", "json", "a287142a42ffab2d43f891791ec1081dd30965d53b8c343488efd5034e05bede"),
    ("algebra", "(a|b)*a(a|b)(a|b)", "ab", "semiring", "json",
     "c4798cfba018c403acd73deb258bd14fbd27f1c0cd9dd3b0694ce3e7ab918e5f"),
    ("automaton", "(a|bc)*(c|%e)", "abc", "meet", "json", "a9e80bb8ffac45a67c30f92b4cec24c7424f2ef9506cd099b4774e6f4f244480"),
    ("automaton", "(a|bc)*(c|%e)", "abc", "lattice", "json",
     "946e7b25dbd809939b9e84f360ea289d9a6edfb02aff66b85d223c61d0823ec0"),
]


@pytest.mark.parametrize("command,pattern,alphabet,level,fmt,digest", GOLDEN)
def test_cli_output_matches_golden_digest(capsys, command, pattern, alphabet, level, fmt, digest):
    argv = [command, "--regex", pattern, "--alphabet", alphabet, "--level", level]
    argv += ["--suppress-derivable-columns"] if fmt == "suppress" else ["--format", fmt]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
