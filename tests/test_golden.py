"""Golden CLI output: SHA-256 of stdout for a fixed set of requests.

The digests pin the exact bytes of the rendered algebras and automata, so a
refactor of the closures or product tables that changes any element order,
witness, table cell or cover shows up here.  "suppress" stands for the
table format with --suppress-derivable-columns; reversible takes no level
or format.
"""

import hashlib

import pytest

import synlat
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
    ("algebra", "a+b+", "ab", "semiring", "table", "8cf257a4110152afb81875f9e4ab756570b8ecd5d7cb1e9093b86733bb4a1b3d"),
    ("algebra", "a+b+", "ab", "semiring", "suppress", "8289099a286d4865a9818ebbf7049c5c416252e53fcaa8618d4ed05c3cc0f049"),
    ("algebra", "a+b+", "ab", "semiring", "dot", "35db81d8557871e061ecc7d5631210221d6724752c2640ae06261ff0ff431cd5"),
    ("algebra", "(a|b)*a(a|b)(a|b)", "ab", "semiring", "table",
     "f94a82e7c9ce6172977cfcf72ee93e846d08452538c6752f9419b03e166849d6"),
    ("algebra", "(a|b)*a(a|b)(a|b)", "ab", "semiring", "suppress",
     "863ca650da95dbc6aa9900259c17a5a8dd86fedaab12c555e734b9905a67def0"),
    ("algebra", "(a|b)*a(a|b)(a|b)", "ab", "semiring", "dot",
     "09a0ad6dfe194a8150ea99a3ea0f3944cdcf06bb598830396853985c586a4adc"),
    ("algebra", "(a|bb)*", "ab", "monoid", "table", "99838da8f6917255dbd2769589f370970fb0d6adc982ff8791a2f4f288959b06"),
    ("algebra", "(a|bb)*", "ab", "monoid", "json", "464972a36bf4942a573dd950afa0c53192ab752476cfe37c19a586953d7f019e"),
    ("algebra", "(a|bc)*(c|%e)", "abc", "lattice", "table",
     "cac2b6447c3eed3fb4b861e11c88f74d856bf9638d21c19540da92ebc240b71a"),
    ("reversible", "a+b+", "ab", None, None, "c57f9f756bd42aa0ab452db2cbe388a331c0d3b2145d1b11fbf46c8b844e5bd9"),
    ("algebra", "(a|b)*a(a|b)(a|b)(a|b)(a|b)", "ab", "monoid", "json",
     "3e4b55302ceab441c694dd423e04676f56938ee17e3f7519a86e04337d599ca4"),
    ("algebra", "(a|b)*a(a|b)(a|b)(a|b)(a|b)", "ab", "monoid", "table",
     "c9a8ae0022414b0af4460ebb5ceec97e38dc4ebf30b07d04fdd163747305f4ed"),
    ("reversible", "(a|b)*a(a|b)(a|b)(a|b)", "ab", None, None,
     "29354fad692f6357c9cc120e3c41a661342f6bf0fcb5d1117e32300a2ed6f4db"),
    ("algebra", "(a|b)*abb", "ab", "lattice", "json", "1ea5f88a31d2f3927849470021742b845b024e80db03e8de50c6d9c8ba727ecd"),
    ("algebra", "(a|b)*a(a|b)(a|b)(a|b)", "ab", "semiring", "json",
     "e5d7227aaf45c3c9c74eb262d9fe1c645811d004ead8b47dfef174d9580f399f"),
    ("algebra", "(a|b)*a(a|b)(a|b)(a|b)(a|b)", "ab", "semiring", "json",
     "fb60b384e014770e67ca2bd52620cf5c9d89ae65ccaf41bb910f3c1e574c4df0"),
    # tables without columns: every state is the top or bottom atom set, so each row is a label alone
    ("algebra", "%0", "ab", "monoid", "suppress", "99b3cc08427bec9fe76a938ed0892f5a88d61e18ac1341ea4cca70891a0bc49f"),
    ("algebra", "%0", "ab", "semiring", "suppress", "23cf9d04bd289af86448c3ebeaed595998db1e924b2cbf3101a4b5cd6815ce58"),
    ("algebra", "%0", "ab", "lattice", "suppress", "e108fa975e6fe066bf9b6cfbf89df0a796d66b65536b29c60ba98b82662de0e5"),
    ("algebra", "(a|b)*", "ab", "monoid", "suppress", "99b3cc08427bec9fe76a938ed0892f5a88d61e18ac1341ea4cca70891a0bc49f"),
    ("algebra", "(a|b)*", "ab", "semiring", "suppress", "617256db50b8e5e2c0de406fb2414b30f89d2d5872eef37b08bec9bee10cc4b7"),
    ("algebra", "(a|b)*", "ab", "lattice", "suppress", "48b5f9006424a3780e545fa36ba574001756bb30b18cc8c5371b2497bfaeea9e"),
    # monoid tables that keep columns: a+b+ drops the sink and keeps three states; the other keeps all 32
    ("algebra", "a+b+", "ab", "monoid", "suppress", "99f9394c0db54d91feb98e8d8b201148f7c4cba517e9ff8482905deedbfeeeb8"),
    ("algebra", "(a|b)*a(a|b)(a|b)(a|b)(a|b)", "ab", "monoid", "suppress",
     "c9a8ae0022414b0af4460ebb5ceec97e38dc4ebf30b07d04fdd163747305f4ed"),
    # a 100-element monoid on 10 states
    ("algebra", "(aa|ab|bab)*(a|b)b(a|b)", "ab", "monoid", "json",
     "9367f36b92e5c797e55ea98349b9a9c0f598608d8c18e1d35337317a6002158d"),
    # alphabets out of sorted order: witness words compare by (length, string), not by alphabet position
    ("algebra", "(a|b)*a(a|b)(a|b)", "ba", "semiring", "json",
     "c674fac2f1484a7023e9407c673f97f23769eca8e50b90e00a2a792681830be9"),
    ("algebra", "abcab", "cba", "semiring", "json", "8e998ba7c904a914e0f1520ecc7624ccdcfa1d470ceb52a6d469c504b6b43c21"),
    ("algebra", "(ab|ba)*", "ba", "semiring", "json", "c57cfbe5bf429bb2cea837e8e947ca54ac9c12a807b9301b421bd80c43178b8e"),
    ("algebra", "b(a|c)*a", "cab", "semiring", "json", "159efa02fd103d3051745e6d8fffe7302cbeff3f05d911fa1d931f82bb5cf1a7"),
    # a 71-element lattice algebra as JSON, and a DFA document, whose states carry bools
    ("algebra", "(a|bc)*(c|%e)", "abc", "lattice", "json",
     "5c3db9368811727999d4757c1208ed60054112ec6dbacffa432d3a92e8129934"),
    ("automaton", "a+b+", "ab", "dfa", "json", "39d9c1a0404d7d39bb9e927b5f9e7c6c870954dbf1bde10c117e65584e9ca5cc"),
    # DFA documents of patterns thick with + and ?: each state's label renders its residual regex
    ("automaton", "a+++", "ab", "dfa", "json", "4587a3787a139523b303932cc3f0c32f5c03cd92885a6a129e590b0673041880"),
    ("automaton", "(a?b+)*c?", "abc", "dfa", "json", "c24602bf501bac19ae04e9ead49722dc8182f4b51d6166a268fde7e2a3a07981"),
    ("automaton", "((ab)+|%e)?b", "ba", "dfa", "json", "7639cec91cab19b85974e9073b6fa86619d5fd5af14010570382e63f8afea6e9"),
    ("automaton", "(%0|a)+%e", "a", "dfa", "json", "0ccb4dd6157cd588abacc61767bf817964a79bfce3602d6e675e0d1719387f68"),
    ("automaton", "(b|a)?(a|b)+", "ab", "dfa", "json", "99787e6976c70ec4bcb37e3bc3baec4eb0a7bf554a84c1957da3a947baf7a499"),
    # automaton tables: a column per letter, each cell a state label; the regex labels span several characters
    ("automaton", "a+b+", "ab", "dfa", "table", "9ffafe42bd384a74193a419397bd9ea632bc5bc379ef6be5fc2ac5cebf3e0cf9"),
    ("automaton", "a+b+", "ab", "meet", "table", "e74fdcb1e1556ebc8d09efce35b7e6f931e8b4115dcb200dccacefba253c3f66"),
    ("automaton", "a+b+", "ab", "lattice", "table", "c81739cacbf17b1d5f03a8a2803fb013f679bb7e5510a9a8812e2ce75f6d4cbe"),
    ("automaton", "(a|bc)*(c|%e)", "abc", "dfa", "table",
     "a0c4ff9f0a92bab912001a8cdf03e35e765f49d926002aa0c19fcdcc8b2f1118"),
    ("automaton", "(a|bc)*(c|%e)", "abc", "meet", "table",
     "023aec2ee97aee6fa7de9f05598109dc0e19145587a302075807d6c094876cc8"),
    ("automaton", "(a|bc)*(c|%e)", "abc", "lattice", "table",
     "9df7cc7a610759b10f6bc8aa3359aa6a5602bbb5b51250ea1e4abbd94b6411b8"),
    ("automaton", "(a|b)*abb", "ab", "lattice", "table", "94d312723bd506458fe0bd82865f54b460583c9e1f26b00e3005be19ce6ade84"),
    ("automaton", "a+++", "ab", "dfa", "table", "a394172eb568a956d2467760bbb8fcd2af7f31cd0f382bf23a20ac3658e02212"),
]


@pytest.mark.parametrize("command,pattern,alphabet,level,fmt,digest", GOLDEN)
def test_cli_output_matches_golden_digest(capsys, command, pattern, alphabet, level, fmt, digest):
    argv = [command, "--regex", pattern, "--alphabet", alphabet]
    if level is not None:
        argv += ["--level", level]
        argv += ["--suppress-derivable-columns"] if fmt == "suppress" else ["--format", fmt]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


def test_513_element_lattice_algebra_matches_golden_digest():
    """The largest pinned lattice algebra: witnesses and meet and join tables of (ab|ba)* over ab."""
    dfa = synlat.compile_canonical_dfa(synlat.parse_regex("(ab|ba)*", "ab"))
    alg = synlat.syntactic_lattice_algebra(synlat.build_profile_table(dfa), dfa, with_tables=False)
    assert len(alg) == 513
    blob = repr(([e.witness for e in alg.elements], alg.meet_table, alg.join_table)).encode()
    assert hashlib.sha256(blob).hexdigest() == "b119e1e872b22d45e743a2717f1fa15256d65da9d923e00ba4f405cc8dd3dedf"


@pytest.mark.parametrize(
    "pattern,alphabet,size,digest",
    [("(a|b)*abb", "ab", 362, "d4899ab6ddc35c57f5be263047808e2a417b0abdc572ef27bde35a57b8ac5811"),
     ("(a|bc)*(c|%e)", "abc", 283, "c08bc3a24551b1592e4a651fcebe67177cfc5d0e567a6886b65699096fde5f8a")],
)
def test_transition_lattice_algebra_matches_golden_digest(pattern, alphabet, size, digest):
    """Transition algebras above test_forms' element cap: witnesses and all three tables."""
    dfa = synlat.compile_canonical_dfa(synlat.parse_regex(pattern, alphabet))
    alg = synlat.transition_lattice_algebra(synlat.build_profile_table(dfa), dfa)
    assert len(alg) == size
    blob = repr(([e.witness for e in alg.elements], alg.meet_table, alg.join_table, alg.mul_table)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt,digest",
    [("dot", "0d6adcd5a1400f83de37d09710748adbaa1f80c4d3526c2530297741e76a43cb"),
     ("table", "d4916711d68dc470c9bf069578b099913a9e31636bc31a6d82e89f6476cc019a")],
)
def test_1665_element_lattice_algebra_matches_golden_digest(capsys, fmt, digest):
    """The largest pinned lattice algebra, a|abb(abb)* over abc, in the formats that read few of its
    table rows: dot none, the text table one product row per column state."""
    argv = ["algebra", "--level", "lattice", "--regex", "a|abb(abb)*", "--alphabet", "abc",
            "--format", fmt, "--budget-elements", "2000"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt,digest",
    [("dot", "ebd3c102290b6f26d01814d816058d26d1e2510d359a3ac748db4243cb43e950"),
     ("table", "86af7c78d289d2267be734ec31f386b8bc00082e8642895606a981ae5a5e2d6d")],
)
def test_2732_element_semiring_matches_golden_digest(capsys, fmt, digest):
    """The largest pinned semiring, (a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b) over ab, whose rows are walked in
    final ids: dot reads its order alone, the text table the product rows of its columns."""
    argv = ["algebra", "--level", "semiring", "--regex", "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)", "--alphabet", "ab",
            "--format", fmt, "--budget-elements", "5000"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
