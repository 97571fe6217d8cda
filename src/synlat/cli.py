"""Command-line entry point.

    synlat automaton  --regex PAT --alphabet LETTERS --level dfa|meet|lattice  --format dot|json|table
    synlat algebra    --regex PAT --alphabet LETTERS --level monoid|semiring|lattice --format dot|json|table
    synlat reversible --regex PAT --alphabet LETTERS

Exit codes: 0 ok, 2 parse error, 3 budget exceeded, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import render
from .atoms import DEFAULT_PROFILE_BUDGET, build_profile_table
from .automata import DEFAULT_STATE_BUDGET
from .canonical import build_lattice_automaton, build_meet_automaton
from .errors import (
    EXIT_BUDGET,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_PARSE,
    BudgetError,
    InconsistencyError,
    RegexSyntaxError,
    TermSyntaxError,
)
from .regex import compile_canonical_dfa, parse_regex
from .reversible import DEFAULT_QUADRUPLE_BUDGET, is_reversible
from .syntactic import DEFAULT_ELEMENT_BUDGET, syntactic_lattice_algebra, syntactic_monoid, syntactic_semiring


@dataclass
class Budgets:
    profiles: int = DEFAULT_PROFILE_BUDGET
    states: int = DEFAULT_STATE_BUDGET
    elements: int = DEFAULT_ELEMENT_BUDGET
    quadruples: int = DEFAULT_QUADRUPLE_BUDGET

    def __post_init__(self):
        for name in ("profiles", "states", "elements", "quadruples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"budget {name} must be positive")


@dataclass
class RunConfig:
    regex: str
    alphabet: tuple[str, ...]
    level: str = "dfa"
    format: str = "table"
    budgets: Budgets = field(default_factory=Budgets)
    suppress_derivable_columns: bool = False

    def __post_init__(self):
        if self.format not in ("dot", "json", "table"):
            raise ValueError(f"unknown format {self.format!r}")


def _context(cfg: RunConfig):
    ast = parse_regex(cfg.regex, cfg.alphabet)
    dfa = compile_canonical_dfa(ast, state_budget=cfg.budgets.states)
    pt = build_profile_table(dfa, budget=cfg.budgets.profiles)
    return dfa, pt


def cmd_automaton(cfg: RunConfig) -> str:
    dfa, pt = _context(cfg)
    automaton = None
    if cfg.level == "meet":
        automaton = build_meet_automaton(pt, dfa, budget=cfg.budgets.states)
    elif cfg.level == "lattice":
        automaton = build_lattice_automaton(pt, dfa, budget=cfg.budgets.states)
    elif cfg.level != "dfa":
        raise ValueError(f"unknown automaton level {cfg.level!r}")
    if cfg.format == "json":
        return render.render_json(render.automaton_payload(cfg.regex, cfg.alphabet, cfg.level, dfa, pt, automaton))
    if cfg.format == "dot":
        return render.automaton_dot(cfg.level, dfa, pt, automaton)
    return render.automaton_text(cfg.level, dfa, pt, automaton)


def cmd_algebra(cfg: RunConfig) -> str:
    dfa, pt = _context(cfg)
    meet_aut = build_meet_automaton(pt, dfa, budget=cfg.budgets.states)
    lattice_aut = build_lattice_automaton(pt, dfa, budget=cfg.budgets.states, meet_automaton=meet_aut)
    if cfg.level == "monoid":
        algebra = syntactic_monoid(dfa, budget=cfg.budgets.elements)
    elif cfg.level == "semiring":
        algebra = syntactic_semiring(pt, dfa, budget=cfg.budgets.elements)
    elif cfg.level == "lattice":
        algebra = syntactic_lattice_algebra(pt, dfa, budget=cfg.budgets.elements)
    else:
        raise ValueError(f"unknown algebra level {cfg.level!r}")
    if cfg.format == "json":
        return render.render_json(render.algebra_payload(cfg.regex, cfg.alphabet, cfg.level, dfa, pt, algebra))
    if cfg.format == "dot":
        return render.algebra_dot(cfg.level, algebra)
    return render.algebra_text(
        cfg.level, dfa, pt, algebra, meet_aut, lattice_aut, cfg.suppress_derivable_columns
    )


def cmd_reversible(cfg: RunConfig) -> str:
    dfa, pt = _context(cfg)
    monoid = syntactic_monoid(dfa, budget=cfg.budgets.elements)
    report = is_reversible(dfa, pt, monoid, quadruple_budget=cfg.budgets.quadruples)
    return render.render_json(render.reversible_payload(report))


def _build_parser() -> argparse.ArgumentParser:
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
    p_alg.add_argument("--suppress-derivable-columns", action="store_true")
    p_rev = sub.add_parser("reversible", help="reversibility verdict (JSON)")
    common(p_rev, fmt=False)
    return parser


def _config_from_args(args) -> RunConfig:
    budgets = Budgets(
        profiles=args.budget_profiles,
        states=args.budget_states,
        elements=args.budget_elements,
        quadruples=args.budget_quadruples,
    )
    return RunConfig(
        regex=args.regex,
        alphabet=tuple(args.alphabet),
        level=getattr(args, "level", "dfa"),
        format=getattr(args, "format", "json"),
        budgets=budgets,
        suppress_derivable_columns=getattr(args, "suppress_derivable_columns", False),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "automaton":
            out = cmd_automaton(cfg)
        elif args.command == "algebra":
            out = cmd_algebra(cfg)
        else:
            out = cmd_reversible(cfg)
    except (RegexSyntaxError, TermSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    sys.stdout.write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
