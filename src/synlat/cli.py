"""Command-line entry point.

    synlat automaton  --regex PAT --alphabet LETTERS --level dfa|meet|lattice  --format dot|json|table
    synlat algebra    --regex PAT --alphabet LETTERS --level monoid|semiring|lattice --format dot|json|table
    synlat reversible --regex PAT --alphabet LETTERS

Exit codes: 0 ok, 2 invalid input (pattern, alphabet, budget, level or format), 3 budget
exceeded, 4 internal inconsistency (including any ValueError past input validation), 5 the
output cannot be written (a full disk, say; the reason goes to stderr).  argparse
alone checks levels and formats: an unknown one exits 2 with a usage line on stderr.  It reads
a value starting with '-' as an option, so write such a letter as --alphabet=-a, --regex=-a.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from . import render
from .atoms import DEFAULT_PROFILE_BUDGET, build_profile_table
from .automata import DEFAULT_STATE_BUDGET
from .canonical import build_lattice_automaton, build_meet_automaton
from .errors import (
    EXIT_BUDGET,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_PARSE,
    BudgetError,
    InconsistencyError,
    InputError,
    RegexSyntaxError,
    TermSyntaxError,
)
from .records import Record
from .regex import compile_canonical_dfa, parse_regex
from .reversible import DEFAULT_QUADRUPLE_BUDGET, is_reversible
from .syntactic import DEFAULT_ELEMENT_BUDGET, syntactic_lattice_algebra, syntactic_monoid, syntactic_semiring


class Budgets(Record):
    """Every stage's budget.  Unlike the other records it can be assigned to, so it has no hash."""

    _fields = ("profiles", "states", "elements", "quadruples")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    profiles = DEFAULT_PROFILE_BUDGET       # the defaults, which the parser reads
    states = DEFAULT_STATE_BUDGET
    elements = DEFAULT_ELEMENT_BUDGET
    quadruples = DEFAULT_QUADRUPLE_BUDGET

    def __init__(self, profiles: int = profiles, states: int = states, elements: int = elements,
                 quadruples: int = quadruples):
        self.profiles = profiles
        self.states = states
        self.elements = elements
        self.quadruples = quadruples
        for name in self._fields:
            if getattr(self, name) <= 0:
                raise InputError(f"budget {name} must be positive")


def _context(args: argparse.Namespace, budgets: Budgets):
    ast = parse_regex(args.regex, args.alphabet)
    dfa = compile_canonical_dfa(ast, state_budget=budgets.states)
    pt = build_profile_table(dfa, budget=budgets.profiles)
    return dfa, pt


def cmd_automaton(args: argparse.Namespace, budgets: Budgets) -> str:
    dfa, pt = _context(args, budgets)
    automaton = None
    if args.level == "meet":
        automaton = build_meet_automaton(pt, dfa, budget=budgets.states)
    elif args.level == "lattice":
        automaton = build_lattice_automaton(pt, dfa, budget=budgets.states)
    if args.format == "json":
        return render.render_json(render.automaton_payload(args.regex, args.alphabet, args.level, dfa, pt, automaton))
    if args.format == "dot":
        return render.automaton_dot(args.level, dfa, pt, automaton)
    return render.automaton_text(args.level, dfa, pt, automaton)


def cmd_algebra(args: argparse.Namespace, budgets: Budgets) -> str:
    if args.level == "monoid" and args.format == "dot":
        raise InputError("the monoid carries no order diagram; use json or table")
    dfa, pt = _context(args, budgets)
    if args.level == "monoid":
        algebra = syntactic_monoid(dfa, budget=budgets.elements)
    elif args.level == "semiring":
        algebra = syntactic_semiring(pt, dfa, budget=budgets.elements)
    else:
        algebra = syntactic_lattice_algebra(pt, dfa, budget=budgets.elements)
    if args.format == "json":
        return render.render_json(render.algebra_payload(args.regex, args.alphabet, args.level, dfa, pt, algebra))
    if args.format == "dot":
        return render.algebra_dot(algebra)
    # a table labels its cells by the automaton of its level, and needs no other
    meet_aut = lattice_aut = None
    if args.level == "semiring":
        meet_aut = build_meet_automaton(pt, dfa, budget=budgets.states)
    elif args.level == "lattice":
        lattice_aut = build_lattice_automaton(pt, dfa, budget=budgets.states)
    return render.algebra_text(args.level, dfa, pt, algebra, meet_aut, lattice_aut, args.suppress_derivable_columns)


def cmd_reversible(args: argparse.Namespace, budgets: Budgets) -> str:
    dfa, pt = _context(args, budgets)
    monoid = syntactic_monoid(dfa, budget=budgets.elements)
    report = is_reversible(dfa, pt, monoid, quadruple_budget=budgets.quadruples)
    return render.render_json(render.reversible_payload(report))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(prog="synlat")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levels=None, fmt=True):
        p.add_argument("--regex", required=True)
        p.add_argument("--alphabet", required=True, help="alphabet letters, e.g. 'ab'")
        if levels:
            p.add_argument("--level", required=True, choices=levels)
        if fmt:
            p.add_argument("--format", default="table", choices=["dot", "json", "table"])
        p.add_argument("--budget-profiles", type=int, default=Budgets.profiles)
        p.add_argument("--budget-states", type=int, default=Budgets.states)
        p.add_argument("--budget-elements", type=int, default=Budgets.elements)
        p.add_argument("--budget-quadruples", type=int, default=Budgets.quadruples)

    p_auto = sub.add_parser("automaton", help="canonical, meet, or lattice automaton")
    common(p_auto, levels=["dfa", "meet", "lattice"])
    p_alg = sub.add_parser("algebra", help="syntactic monoid, semiring, or lattice algebra")
    common(p_alg, levels=["monoid", "semiring", "lattice"])
    p_alg.add_argument(
        "--suppress-derivable-columns", action="store_true",
        help="keep only the informative residual columns; applies to --format table only",
    )
    p_rev = sub.add_parser("reversible", help="reversibility verdict (JSON)")
    common(p_rev, fmt=False)
    return parser


def main(argv=None) -> int:
    """Run one command line with the cyclic collector off, then restore its state: a command
    leaves few objects in cycles, so its collections can wait until it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        try:
            budgets = Budgets(args.budget_profiles, args.budget_states, args.budget_elements, args.budget_quadruples)
            command = {"automaton": cmd_automaton, "algebra": cmd_algebra, "reversible": cmd_reversible}[args.command]
            out = command(args, budgets)
        except (RegexSyntaxError, TermSyntaxError, InputError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except BudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except (InconsistencyError, ValueError) as exc:   # a ValueError past input validation is a bug
            print(f"internal inconsistency: {exc}", file=sys.stderr)
            return EXIT_INCONSISTENT
        try:
            sys.stdout.write(out)
            sys.stdout.flush()   # a short document would otherwise fail only at the exit flush
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            # The buffer keeps the bytes that failed, and the flush at interpreter exit would retry
            # them, print a second error and exit 120.  Point stdout at the null device instead.
            try:
                fd = sys.stdout.fileno()
            except (OSError, ValueError):   # not backed by a file: nothing is flushed at exit
                return EXIT_OUTPUT
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
            return EXIT_OUTPUT
        return EXIT_OK
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
