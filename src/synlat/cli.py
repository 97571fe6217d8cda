"""Command-line entry point.

    synlat automaton  --regex PAT --alphabet LETTERS --level dfa|meet|lattice  --format dot|json|table
    synlat algebra    --regex PAT --alphabet LETTERS --level monoid|semiring|lattice --format dot|json|table
    synlat reversible --regex PAT --alphabet LETTERS

Exit codes: 0 ok, 2 invalid input (pattern, alphabet, budget, level or format), 3 budget
exceeded, 4 internal inconsistency (including any ValueError past input validation), 5 the
output cannot be written (a full disk, say; the reason goes to stderr).  COMMANDS declares each
command's options; parse_args reads a command line against it as argparse would, and the same
table writes the usage line and the help.  A command line it refuses exits 2 with a usage line on
stderr.  A value starting with '-' reads as an option, so write such a letter as --alphabet=-a,
--regex=-a.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

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


def _context(args: SimpleNamespace, budgets: Budgets):
    ast = parse_regex(args.regex, args.alphabet)
    dfa = compile_canonical_dfa(ast, state_budget=budgets.states)
    pt = build_profile_table(dfa, budget=budgets.profiles)
    return dfa, pt


def cmd_automaton(args: SimpleNamespace, budgets: Budgets) -> str:
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


def cmd_algebra(args: SimpleNamespace, budgets: Budgets) -> str:
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


def cmd_reversible(args: SimpleNamespace, budgets: Budgets) -> str:
    dfa, pt = _context(args, budgets)
    monoid = syntactic_monoid(dfa, budget=budgets.elements)
    report = is_reversible(dfa, pt, monoid, quadruple_budget=budgets.quadruples)
    return render.render_json(render.reversible_payload(report))


# command -> (what it prints, its options).  An option is (name, kind, default, help): the kind is
# str or int for an option that takes a value, the tuple of values it may take, or bool for a flag,
# which takes none.  An option whose default is None must be given.  Every command also takes -h and
# --help, which print its help.
_PATTERN = (("--regex", str, None, "the pattern"), ("--alphabet", str, None, "alphabet letters, e.g. 'ab'"))
_FORMAT = ("--format", ("dot", "json", "table"), "table", "output format")
_BUDGETS = (
    ("--budget-profiles", int, Budgets.profiles, "most profiles in the profile table"),
    ("--budget-states", int, Budgets.states, "most states of the DFA and of a printed automaton"),
    ("--budget-elements", int, Budgets.elements, "most elements of an algebra"),
    ("--budget-quadruples", int, Budgets.quadruples, "most identity-check quadruples"),
)
COMMANDS = {
    "automaton": ("canonical, meet, or lattice automaton",
                  (*_PATTERN, ("--level", ("dfa", "meet", "lattice"), None, "the automaton"), _FORMAT, *_BUDGETS)),
    "algebra": ("syntactic monoid, semiring, or lattice algebra",
                (*_PATTERN, ("--level", ("monoid", "semiring", "lattice"), None, "the algebra"), _FORMAT, *_BUDGETS,
                 ("--suppress-derivable-columns", bool, False,
                  "keep only the informative residual columns; applies to --format table only"))),
    "reversible": ("reversibility verdict (JSON)", (*_PATTERN, *_BUDGETS)),
}
_WIDTH = 78
_HELP = {"-h": None, "--help": None}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")   # argparse's: such a token is a value


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


# command -> {option: (attribute, kind), or None for -h and --help}; the values it starts from; the
# options it needs, with their attributes
_OPTIONS = {command: {**_HELP, **{name: (_dest(name), kind) for name, kind, _, _ in options}}
            for command, (_, options) in COMMANDS.items()}
_DEFAULTS = {command: {"command": command, **{_dest(name): default for name, _, default, _ in options}}
             for command, (_, options) in COMMANDS.items()}
_REQUIRED = {command: [(name, _dest(name)) for name, _, default, _ in options if default is None]
             for command, (_, options) in COMMANDS.items()}


def _fill(lead: str, words: list[str]) -> str:
    """lead followed by words, wrapped at _WIDTH under the column where the first word starts."""
    lines, line, n = [], lead, 0
    for word in words:
        if n and len(line) + 1 + len(word) > _WIDTH:
            lines.append(line)
            line, n = " " * len(lead), 0
        line += " " + word if n else word
        n += 1
    lines.append(line)
    return "\n".join(lines)


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: synlat [-h] {{{','.join(COMMANDS)}}} ..."
    words = ["[-h]"]
    for name, kind, default, _ in COMMANDS[command][1]:
        words.append(_invocation(name, kind) if default is None else f"[{_invocation(name, kind)}]")
    return _fill(f"usage: synlat {command} ", words)


def _invocation(name: str, kind) -> str:
    if kind is bool:
        return name
    return f"{name} {{{','.join(kind)}}}" if type(kind) is tuple else f"{name} {_dest(name).upper()}"


def _help_text(command: str | None) -> str:
    rows = ["options:", _row("-h, --help", "show this help message and exit")]
    if command is None:
        rows = ["commands:", *(_row(name, text) for name, (text, _) in COMMANDS.items()), "", *rows]
    else:
        for name, kind, default, text in COMMANDS[command][1]:
            if kind is not bool and default is not None:
                text += f" (default: {default})"
            rows.append(_row(_invocation(name, kind), text))
    return f"{_usage(command)}\n\n" + "\n".join(rows) + "\n"


def _row(invocation: str, text: str) -> str:
    """One row of a help list: the invocation, then its text from column 24, on a line of its own
    when the invocation reaches past column 22."""
    lead = f"  {invocation}"
    if len(lead) > 22:
        return f"{lead}\n{_fill(' ' * 24, text.split())}"
    return _fill(lead.ljust(24), text.split())


def _fail(command: str | None, message: str):
    """Refuse the command line: its usage and the message on stderr, exit 2."""
    prog = f"synlat {command}" if command else "synlat"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _print_help(command: str | None, name: str, value: str | None):
    """-h or --help: print the help and exit 0.  argparse reads the letters after -h as more short
    options, and only -h is one, so -hh is help and -hx is refused; --help takes no value."""
    if value is not None and (name == "--help" or not value or value.strip("h")):
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help_text(command))
    raise SystemExit(0)


def _read(token: str, options: dict, command: str | None):
    """How argparse reads a token against options: None for a value; otherwise the option and the
    value given with it after '=' (None without one), where the option is None if unknown."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        if token != "--":   # a long option may be shortened to a prefix of no other option
            found = [option for option in options if option.startswith(name)]
            if len(found) > 1:
                _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
            if found:
                return found[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its options' values (defaults where not given) as attributes; exits on -h.

    It reads a command line as argparse did: --opt value or --opt=value; a long option shortened to
    a prefix of no other; the last of a repeated option wins.  A token starting with '-' is an
    option, and so no value, unless it is '-', reads as a negative number or contains a space.
    Tokens are read before any option acts, so an ambiguous prefix anywhere is refused first; help,
    a missing value, a bad int or choice act in order; a missing option and unknown tokens are
    refused at the end.  '--', which argparse reads differently from one Python version to the
    next, is an unknown option here.
    """
    unknown = []
    i = 0
    while True:   # before the command only -h and --help are options
        if i == len(argv):
            _fail(None, "the following arguments are required: command")
        read = _read(argv[i], _HELP, None)
        if read is None:
            break
        if read[0] is None:
            unknown.append(argv[i])
        else:
            _print_help(None, *read)
        i += 1
    command = argv[i]
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {', '.join(COMMANDS)})")
    options = _OPTIONS[command]
    tokens = argv[i + 1:]
    reads = [_read(token, options, command) for token in tokens]
    values = dict(_DEFAULTS[command])
    i = 0
    while i < len(tokens):
        read = reads[i]
        i += 1
        if read is None or read[0] is None:
            unknown.append(tokens[i - 1])
            continue
        name, value = read
        spec = options[name]
        if spec is None:
            _print_help(command, name, value)
        dest, kind = spec
        if kind is bool:
            if value is not None:
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if value is None:
            if i == len(tokens) or reads[i] is not None:
                _fail(command, f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {name}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        values[dest] = value
    missing = [name for name, dest in _REQUIRED[command] if values[dest] is None]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command line with the cyclic collector off, then restore its state: a command
    leaves few objects in cycles, so its collections can wait until it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
