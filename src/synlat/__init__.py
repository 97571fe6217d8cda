"""Canonical automata and syntactic algebras of regular languages.

Given a regular expression over an explicit alphabet, this package builds
the canonical automaton (minimal complete DFA of left quotients), the
canonical meet and lattice automata, the syntactic monoid, syntactic
semiring, and syntactic lattice algebra, and decides reversibility both by
the forbidden-configuration condition and by the lattice-algebra identity.
"""

from .atoms import (
    AtomSet,
    ProfileTable,
    bottom,
    build_profile_table,
    contains_lambda,
    join,
    leq,
    meet,
    quotient_letter,
    quotient_word,
    residual_atoms,
    top,
    word_in,
)
from .automata import Dfa, accepts, dfa_of_finite_language, equivalent, minimize, run
from .canonical import (
    HasseDiagram,
    LatticeAutomaton,
    MeetAutomaton,
    build_lattice_automaton,
    build_meet_automaton,
    hasse,
)
from .errors import (
    BudgetError,
    InconsistencyError,
    InputError,
    RegexSyntaxError,
    SignatureError,
    SynlatError,
    TermSyntaxError,
)
from .regex import RegexAst, compile_canonical_dfa, parse_regex
from .reversible import (
    ForbiddenWitness,
    IdentityCounterexample,
    ReversibilityReport,
    check_reversibility_identity,
    evaluate_identity_sides,
    find_forbidden_configuration,
    identity_counterexample_from_configuration,
    is_reversible,
)
from .syntactic import (
    AxiomReport,
    AxiomViolation,
    DfaTransformation,
    LatticeAlgebraElement,
    SemiringElement,
    SyntacticLatticeAlgebra,
    SyntacticMonoid,
    SyntacticSemiring,
    check_lattice_algebra_axioms,
    extend_semiring_action,
    hasse_of_elements,
    multiply_lattice_elements,
    omega_power,
    syntactic_lattice_algebra,
    syntactic_monoid,
    syntactic_semiring,
    transition_lattice_algebra,
)
from .terms import (
    embed_lattice_form,
    eval_lattice_form,
    eval_meet_form,
    eval_term,
    finite_language_context,
    lambda_in_action,
    lattice_form,
    meet_form,
    multiply_lattice_forms,
    normalize_lattice,
    normalize_monoid,
    normalize_semiring,
    parse_term,
    separating_language,
)

__version__ = "0.1.0"

# The test oracles, imported on first use (PEP 562): no command reads them.
_ORACLE_NAMES = (
    "OracleConfig",
    "oracle_enumerate_elements",
    "oracle_enumerate_saturated",
    "oracle_lattice_congruent",
    "oracle_monoid_congruent",
    "oracle_semiring_congruent",
    "oracle_transition_action",
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_ORACLE_NAMES])
