"""Command line front end: build | analyze | verify | oracle | export.

Exit codes: 0 success, 1 invariant violation (with witness), 2 usage or
spec error, 3 resource limit (named).

Each command imports its layers inside its `_cmd_*` function, because a
CLI process runs one command and most of its start-up is compiling the
modules it imports.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .errors import (
    DEFAULT_MAX_GRADE,
    DEFAULT_MAX_MEMBERS,
    DEFAULT_ORACLE_BOUND,
    InvariantViolation,
    ResourceLimitError,
    StructuralError,
    ValidationError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# `("all",) + verify.SUITES`, written out so that the parser loads no `verify`
SUITE_CHOICES = ("all", "gates", "orth", "closure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubemedian",
        description="Analyze finite CAT(0) cube complexes given as median graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a complex and write it to a file")
    p.add_argument("--kind", required=True,
                   help="generator kind (grid, box, tree, product, staircase, "
                        "wedge, glued_staircase_ray, random_median)")
    p.add_argument("--params", nargs="*", default=[],
                   help="kind parameters: integers, or nested specs like 'grid(1,1)'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="run the hyperclosure pipeline on a complex file")
    p.add_argument("file")
    p.add_argument("--max-members", type=int, default=DEFAULT_MAX_MEMBERS)
    p.add_argument("--max-grade", type=int, default=DEFAULT_MAX_GRADE)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("-o", "--output", default=None, help="report file (default: stdout)")

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument("file")
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-validate", action="store_true")

    p = sub.add_parser("oracle", help="diff the hyperclosure against the brute-force oracle")
    p.add_argument("file")
    p.add_argument("--max-members", type=int, default=DEFAULT_MAX_MEMBERS)
    p.add_argument("--max-grade", type=int, default=DEFAULT_MAX_GRADE)
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    p.add_argument("--no-validate", action="store_true")

    p = sub.add_parser("export", help="write a DOT file with class-colored edges")
    p.add_argument("file")
    p.add_argument("--dot", required=True)
    p.add_argument("--no-validate", action="store_true")
    return parser


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
    from .hyperclosure import hyperclosure, oracle_hyperclosure
    from .io import load_complex

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
    with open(args.dot, "w") as fh:
        fh.write(to_dot(cx))
    print(f"wrote {args.dot}")
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "export": _cmd_export,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: resource limit '{exc.limit}': {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print(f"error: {exc.report.summary()}", file=sys.stderr)
        return EXIT_VIOLATION
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (StructuralError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
