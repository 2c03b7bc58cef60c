"""Command line front end: build | analyze | verify | oracle | export.

Exit codes: 0 success, 1 invariant violation (with witness), 2 usage or
spec error, 3 resource limit (named).

One table, `COMMANDS`, gives each command its handler, help line,
positional argument and options.  `parse_args` reads argv against it in
argparse's language: `--opt value` and `--opt=value`, a unique prefix of
a long option, `-o value` and `-ovalue`, negative numbers as values,
`--params` taking the values up to the next option, options before or
after the positional, and `--` ending the options.  `-h` or `--help`, for
the program or a command, prints help made from the same table, and a
refused argv its usage line; `_helptext` makes both and is imported only
then.  The CLI does not use argparse itself because importing it,
building a first parser (which loads `gettext` and `locale`) and the
commands' parsers cost about 5 ms of each process's start-up;
`tests/oracles.py` keeps the argparse parser as the reference that
`parse_args` must agree with.

Each command imports its layers inside its `_cmd_*` function, because a
CLI process runs one command and most of its start-up is compiling the
modules it imports.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import __version__
from .errors import (
    DEFAULT_MAX_GRADE,
    DEFAULT_MAX_MEMBERS,
    DEFAULT_ORACLE_BOUND,
    InvariantViolation,
    ResourceLimitError,
    ValidationError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# `("all",) + verify.SUITES`, written out so that the parser loads no `verify`
SUITE_CHOICES = ("all", "gates", "orth", "closure")


def _cmd_build(args) -> int:
    from .generators import KINDS, generate, parse_spec
    from .io import save_complex

    if args.kind not in KINDS:  # before it is spliced into a spec the user did not type
        raise ValueError(f"unknown generator kind {args.kind!r}")
    text = f"{args.kind}({','.join(p.strip() for p in args.params)}"
    if args.seed is not None:
        text += f"{',' if args.params else ''}seed={args.seed}"
    text += ")"
    cx = generate(parse_spec(text))
    save_complex(cx, args.output)
    print(f"wrote {args.output}: {cx.vertex_count} vertices, "
          f"{len(cx.edges)} edges ({cx.generator})")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .analysis import analyze, report_to_json
    from .io import load_complex

    cx = load_complex(args.file, run_validate=not args.no_validate)
    report = analyze(cx, max_members=args.max_members, max_grade=args.max_grade,
                     with_oracle=args.with_oracle, oracle_bound=args.oracle_bound,
                     source=args.file)
    text = report_to_json(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .io import load_complex
    from .verify import verify_complex

    cx = load_complex(args.file, run_validate=not args.no_validate)
    violations = verify_complex(cx, suite=args.suite, cases=args.cases, seed=args.seed)
    if violations:
        for v in violations:
            print(f"violation: {v.suite}/{v.invariant}")
            print(f"  complex: {args.file}")
            print(f"  reproduce: --suite {args.suite} --cases {args.cases} --seed {args.seed}")
            print(f"  inputs: {v.inputs}")
        print(f"{len(violations)} violation(s)")
        return EXIT_VIOLATION
    print(f"verify ok: suite={args.suite} cases={args.cases} seed={args.seed}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .hyperclosure import hyperclosure
    from .io import load_complex
    from .orthocomplement import oracle_hyperclosure

    cx = load_complex(args.file, run_validate=not args.no_validate)
    closure = hyperclosure(cx, max_members=args.max_members, max_grade=args.max_grade)
    oracle = oracle_hyperclosure(cx, max_vertices=args.oracle_bound)
    only_closure = sorted(m.vertices for m in closure.member_set - oracle)
    only_oracle = sorted(m.vertices for m in oracle - closure.member_set)
    if not only_closure and not only_oracle:
        print(f"oracle agreement: {len(closure)} members")
        return EXIT_OK
    for verts in only_closure:
        print(f"only in hyperclosure: {list(verts)}")
    for verts in only_oracle:
        print(f"only in oracle: {list(verts)}")
    return EXIT_VIOLATION


def _cmd_export(args) -> int:
    from .io import load_complex, to_dot

    cx = load_complex(args.file, run_validate=not args.no_validate)
    text = to_dot(cx)
    with open(args.dot, "w") as fh:
        fh.write(text)
    print(f"wrote {args.dot}")
    return EXIT_OK


# An option is (flags, kind, default, help).  Its kind is int, str, a tuple
# of choices, FLAG (no value) or LIST (the values up to the next option);
# its dest is its last flag without the leading dashes, "-" read as "_".
# A REQUIRED default, a value no argv gives, makes it required, as it does
# a command's positional.
FLAG, LIST, REQUIRED = "flag", "list", object()
HELP = (("-h", "--help"), FLAG, False, "show this help and exit")
VERSION = (("--version",), FLAG, False, "show the version and exit")
NO_VALIDATE = (("--no-validate",), FLAG, False, "load the complex without validating it")
MAX_MEMBERS = (("--max-members",), int, DEFAULT_MAX_MEMBERS,
               "refuse a hyperclosure with more members")
MAX_GRADE = (("--max-grade",), int, DEFAULT_MAX_GRADE, "refuse a hyperclosure of higher grade")
ORACLE_BOUND = (("--oracle-bound",), int, DEFAULT_ORACLE_BOUND,
                "refuse the oracle on more vertices")

# command: (handler, help line, positional or None, options)
COMMANDS = {
    "build": (_cmd_build, "generate a complex and write it to a file", None, (
        (("--kind",), str, REQUIRED,
         "generator kind (grid, box, tree, product, staircase, wedge, glued_staircase_ray, "
         "random_median)"),
        (("--params",), LIST, [], "kind parameters: integers, or nested specs like 'grid(1,1)'"),
        (("--seed",), int, None, "seed of a random kind"),
        (("-o", "--output"), str, REQUIRED, "complex file to write"),
    )),
    "analyze": (_cmd_analyze, "run the hyperclosure pipeline on a complex file", "file", (
        MAX_MEMBERS, MAX_GRADE,
        (("--with-oracle",), FLAG, False, "diff the members against the brute-force oracle"),
        ORACLE_BOUND, NO_VALIDATE,
        (("-o", "--output"), str, None, "report file (default: stdout)"),
    )),
    "verify": (_cmd_verify, "run randomized invariant suites", "file", (
        (("--suite",), SUITE_CHOICES, "all", "the suite to run"),
        (("--cases",), int, 1000, "draws per suite"),
        (("--seed",), int, 0, "seed of the draws"),
        NO_VALIDATE,
    )),
    "oracle": (_cmd_oracle, "diff the hyperclosure against the brute-force oracle", "file", (
        MAX_MEMBERS, MAX_GRADE, ORACLE_BOUND, NO_VALIDATE,
    )),
    "export": (_cmd_export, "write a DOT file with class-colored edges", "file", (
        (("--dot",), str, REQUIRED, "DOT file to write"),
        NO_VALIDATE,
    )),
}


# the program itself, as an entry of COMMANDS: its positional is the command
PROGRAM = (None, "Analyze finite CAT(0) cube complexes given as median graphs.", "command",
           (VERSION,))


class UsageError(Exception):
    """A refused argv; `usage` is the usage line of the command it names."""

    usage = ""


def _dest(option) -> str:
    return option[0][-1].lstrip("-").replace("-", "_")


def _read_option(arg: str, flags: dict):
    """How argparse reads arg against flags (each flag to its option): None
    for a positional, else (option, flag, the value written in arg or None),
    with option None for an unknown one.  Raises UsageError for an
    ambiguous prefix."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in flags:
        return flags[arg], arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return flags[name], name, value
    if arg.startswith("--"):
        hits = [(flag, value if eq else None) for flag in flags if flag.startswith(name)]
    else:  # the short flags are one letter: "-ovalue"
        hits = [(flag, arg[2:]) for flag in flags if flag == arg[:2]]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {arg} could match "
                         f"{', '.join(flag for flag, _ in hits)}")
    if hits:
        (flag, value), = hits
        return flags[flag], flag, value
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:  # a negative number or a phrase
        return None
    return None, arg, None


def _unchain(option, flag: str, value, flags: dict):
    """argparse reads "-hX..." as -h followed by -X...: the last option of
    such a chain, its value, and whether help came before it or is it.
    Raises UsageError where a flag is given a value any other way."""
    asks_help = False
    while option[1] is FLAG and value is not None:
        if flag[1] == "-" or not value or "-" + value[0] not in flags:
            raise UsageError(f"argument {'/'.join(option[0])}: "
                             f"ignored explicit argument {value!r}")
        asks_help |= option is HELP
        flag, value = "-" + value[0], value[1:] or None
        option = flags[flag]
    return option, value, asks_help or option is HELP


def parse_args(argv: list[str]):
    """(command, args) for argv, args holding every option of the command
    by dest; or (None, text) when argv asks for help or the version.
    Raises UsageError for an argv argparse refused."""
    return _parse(None, argv, [])


def _parse(name, argv: list[str], extras: list[str]):
    """parse_args for the command name, or for the program if name is None;
    extras holds the unknown options read before the command."""
    _, _, positional, options = COMMANDS[name] if name else PROGRAM
    try:
        flags = {flag: option for option in (HELP, *options) for flag in option[0]}
        end = argv.index("--") if "--" in argv else len(argv)
        # argparse reads every argument before `--` against the options, and
        # refuses an ambiguous one, before it acts on any
        hits = [_read_option(arg, flags) for arg in argv[:end]]
        values = {_dest(option): list(option[2]) if option[1] is LIST else option[2]
                  for option in options}
        if positional:
            values[positional] = REQUIRED
        i = 0
        while i < len(argv):
            arg, hit = argv[i], hits[i] if i < end else None
            i += 1
            if hit is None and name is None:  # the command, which reads the rest
                if arg not in COMMANDS:
                    raise UsageError(f"argument command: invalid choice: {arg!r} "
                                     f"(choose from {', '.join(map(repr, COMMANDS))})")
                return _parse(arg, argv[i:], extras)
            if hit is None:
                if values.get(positional) is not REQUIRED:
                    extras.append(arg)
                elif i - 1 < end:  # the positional, and a `--` right after it
                    values[positional] = arg
                    if i == end:
                        i += 1
                elif i < len(argv):  # `--`, then the positional
                    values[positional] = argv[i]
                    i += 1
                else:
                    extras.append(arg)
                continue
            if hit[0] is None:
                extras.append(arg)
                continue
            option, value, asks_help = _unchain(*hit, flags)
            kind, dest = option[1], _dest(option)
            if kind is FLAG:
                values[dest] = True
            elif kind is LIST:
                j = i
                while value is None and i < end and hits[i] is None:
                    i += 1
                values[dest] = [value] if value is not None else argv[j:i]
            else:
                if value is None:
                    if not (i < end and hits[i] is None):
                        raise UsageError(f"argument {'/'.join(option[0])}: "
                                         "expected one argument")
                    value, i = argv[i], i + 1
                if kind is int:
                    try:
                        value = int(value)
                    except ValueError:
                        raise UsageError(f"argument {'/'.join(option[0])}: "
                                         f"invalid int value: {value!r}") from None
                elif kind is not str and value not in kind:
                    raise UsageError(f"argument {'/'.join(option[0])}: invalid choice: "
                                     f"{value!r} (choose from {', '.join(map(repr, kind))})")
                values[dest] = value
            if asks_help:
                from ._helptext import _help

                return None, _help(sys.modules[__name__], name)
            if option is VERSION:
                return None, __version__ + "\n"
        missing = [positional] if values.get(positional) is REQUIRED else []
        missing += ["/".join(o[0]) for o in options if values[_dest(o)] is REQUIRED]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return name, SimpleNamespace(**values)
    except UsageError as exc:
        if not exc.usage:
            from ._helptext import _usage

            exc.usage = _usage(sys.modules[__name__], name)
        raise


def run(argv: list[str]) -> int:
    try:
        command, args = parse_args(argv)
    except UsageError as exc:
        message = str(exc).replace("\n", "\\n")  # one line, whatever argv holds
        sys.stderr.write(f"{exc.usage}\ncubemedian: error: {message}\n")
        return EXIT_USAGE
    if command is None:  # help or the version
        sys.stdout.write(args)
        return EXIT_OK
    try:
        return COMMANDS[command][0](args)
    except ResourceLimitError as exc:
        print(f"error: resource limit '{exc.limit}': {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: resource limit 'memory': out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"error: {exc.report.summary()}", file=sys.stderr)
        return EXIT_VIOLATION
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, OSError) as exc:  # StructuralError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
