"""The package surface: lazily run submodules, public names, the layers each
CLI command runs, and first reads from several threads."""

import contextlib
import io
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubemedian
from cubemedian import hull, save_complex, staircase
from cubemedian.cli import (COMMANDS, FLAG, HELP, LIST, REQUIRED, SUITE_CHOICES, VERSION,
                            UsageError, parse_args)
from cubemedian.errors import DEFAULT_MAX_GRADE, DEFAULT_MAX_MEMBERS, DEFAULT_ORACLE_BOUND
from cubemedian.generators import KINDS
from cubemedian.verify import SUITES

from oracles import argparse_parser

SRC = str(Path(cubemedian.__file__).parents[1])

# the layers bench/spans.py reads from sys.modules after `import cubemedian.cli`
BENCH_LAYERS = ("io", "generators", "core", "gates", "orthocomplement", "hyperclosure",
                "verify", "analysis", "cli")


def fresh(code, *args, stdin=None):
    """Run code in a new interpreter that imports the package from SRC; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          input=stdin, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


# prints the registered submodules whose code has run
RAN = ("import cubemedian; "
       "print(sorted(set(cubemedian._EXPORTS) - {n.rpartition('.')[2] for n in cubemedian._pending}))")


class TestNames:
    def test_all_in_dir_and_star_import(self):
        assert set(cubemedian.__all__) <= set(dir(cubemedian))
        assert {"core", "gates", "verify"} <= set(dir(cubemedian))
        namespace = {}
        exec("from cubemedian import *", namespace)
        assert set(cubemedian.__all__) <= namespace.keys()
        assert len(cubemedian.__all__) == len(set(cubemedian.__all__))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            cubemedian.nope

    def test_version_is_the_project_version(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(SRC).parent / "pyproject.toml").read_text()
        assert re.search(r'(?m)^version = "([^"]+)"$', text)[1] == cubemedian.__version__

    def test_hyperclosure_stays_the_function(self):
        out = fresh("""
            import cubemedian.analysis
            import cubemedian.hyperclosure
            import cubemedian
            from cubemedian import hyperclosure
            assert cubemedian.hyperclosure is hyperclosure
            print(hyperclosure.__module__, hyperclosure.__name__, type(hyperclosure).__name__)
        """)
        assert out == "cubemedian.hyperclosure hyperclosure function\n"

    def test_assignment_before_load_is_kept(self):
        out = fresh("""
            import sys
            import cubemedian
            gates = sys.modules["cubemedian.gates"]
            marker = object()
            gates.project = marker
            assert gates.project is marker and cubemedian.project is marker
            from cubemedian.gates import project
            assert project is marker
            print(gates.gate.__module__)
        """)
        assert out == "cubemedian.gates\n"

    def test_pickles_round_trip_in_a_fresh_interpreter(self):
        cx = staircase(3)
        key = hull(cx, [0, cx.vertex_count - 1])
        out = fresh("""
            import pickle, sys
            cx, key = pickle.loads(sys.stdin.buffer.read())
            assert key.parent is cx
            print(cx.vertex_count, cx.edges, cx.generator, key.crossing_mask, key.base,
                  key.vertices)
        """, stdin=pickle.dumps((cx, key)))
        assert out == (f"{cx.vertex_count} {cx.edges} {cx.generator} {key.crossing_mask} "
                       f"{key.base} {key.vertices}\n")


class TestLayersRun:
    def test_import_registers_every_layer_and_runs_none(self):
        out = fresh(f"""
            import sys
            import cubemedian.cli
            print(all(f"cubemedian.{{name}}" in sys.modules for name in {BENCH_LAYERS!r}))
            {RAN}
        """)
        assert out == "True\n['errors']\n"

    @pytest.mark.parametrize("argv,ran", [
        (["build", "--kind", "grid", "--params", "2", "2", "-o", "{tmp}/b.json"],
         ["core", "errors", "generators", "io", "rng"]),
        (["analyze", "{tmp}/st.json"],
         ["analysis", "core", "errors", "hyperclosure", "io"]),
        (["analyze", "{tmp}/st.json", "--max-members", "1"],  # refused: exit 3
         ["analysis", "core", "errors", "hyperclosure", "io"]),
        (["export", "{tmp}/st.json", "--dot", "{tmp}/st.dot"],
         ["core", "errors", "io"]),
        (["verify", "{tmp}/st.json", "--cases", "5"],
         ["core", "errors", "gates", "hyperclosure", "io", "orthocomplement", "rng",
          "verify"]),
        (["oracle", "{tmp}/st.json"],
         ["core", "errors", "hyperclosure", "io", "orthocomplement"]),
        (["analyze", "{tmp}/st.json", "--with-oracle"],
         ["analysis", "core", "errors", "hyperclosure", "io", "orthocomplement"]),
    ])
    def test_each_command_runs_only_its_layers(self, argv, ran, tmp_path):
        save_complex(staircase(2), tmp_path / "st.json")
        out = fresh(f"""
            import contextlib, io, sys
            import cubemedian.cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cubemedian.cli.run(sys.argv[1:])
            print(code)
            {RAN}
        """, *(a.format(tmp=tmp_path) for a in argv))
        code = 3 if "--max-members" in argv else 0
        assert out == f"{code}\n{ran}\n"

    @pytest.mark.parametrize("argv,code,loaded", [
        (["analyze", "{tmp}/st.json"], 0, []),
        (["analyze", "{tmp}/c6.json"], 1, ["_nonmedian"]),  # a missing median
        (["analyze", "{tmp}/k3.json"], 1, ["_nonmedian"]),  # an odd cycle
        (["--help"], 0, ["_helptext"]),
        (["frobnicate"], 2, ["_helptext"]),
    ])
    def test_private_modules_load_only_off_the_median_path(self, argv, code, loaded, tmp_path,
                                                            c6, k3):
        for name, cx in (("st", staircase(2)), ("c6", c6), ("k3", k3)):
            save_complex(cx, tmp_path / f"{name}.json")
        out = fresh("""
            import contextlib, io, sys
            import cubemedian.cli
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = cubemedian.cli.run(sys.argv[1:])
            print(code)
            print(sorted(name for name in ("_helptext", "_nonmedian")
                         if f"cubemedian.{name}" in sys.modules))
        """, *(a.format(tmp=tmp_path) for a in argv))
        assert out == f"{code}\n{loaded}\n"


# Words that argv draws for the parser comparison.  argparse versions
# disagree on two forms, which are left out: a value joined to -h (up to
# 3.12 `-hx` is -h then -x, as the table's parser reads it; 3.13 prints
# help) and "--" joined as a value (up to 3.12 `--kind=--` gives [];
# 3.13 and the table's parser give "--").
INTS = st.sampled_from(["0", "7", "-1", "-12", "+3", "1_0", "2000"])
WORDS = st.sampled_from(["abc", "1.5", "-2.5", "-1x", "", "-", "nope", "f.json", "out.dot",
                         "grid(1,1)", *SUITE_CHOICES])
VALUES = INTS | WORDS


def prefixes(flag):
    """flag, or for a long one any prefix of it of three or more characters."""
    return st.integers(3, len(flag)).map(lambda k: flag[:k]) if flag[1] == "-" else st.just(flag)


def given_value(option):
    """The words giving option a value of its kind: as `flag value`, `flag=value`
    or `-ovalue`, with any flag prefix; a list option takes up to three values."""
    flags, kind, _, _ = option
    flag = st.sampled_from(flags).flatmap(prefixes)
    if kind is FLAG:
        return flag.map(lambda f: [f])
    value = INTS if kind is int else st.sampled_from(kind) if type(kind) is tuple else WORDS
    if kind is LIST:
        return st.tuples(flag, st.lists(value, max_size=3)).map(lambda t: [t[0], *t[1]])
    return st.one_of(st.tuples(flag, value).map(list), st.tuples(flag, value).map(
        lambda t: ["=".join(t)] if t[0][1] == "-" else ["".join(t)]))


@st.composite
def argvs(draw):
    """A command or none, often with its positional and required options,
    and up to five more words, most often put last: options of the command
    with values of their kinds, and any words of the vocabulary, namely
    flags of the command or the program, unknown ones, prefixes of long
    flags, `=` forms, `-ovalue`, values, command names and `--`."""
    name = draw(st.sampled_from([None, *COMMANDS]))
    argv = [] if name is None else [name]
    options = (HELP, VERSION, *COMMANDS[name][3]) if name else (HELP, VERSION)
    flags = st.sampled_from([f for option in options for f in option[0]] + ["--bogus", "-x"])
    word = st.one_of(st.sampled_from([*COMMANDS, "frobnicate", "--"]), flags.flatmap(prefixes),
                     st.tuples(flags.filter(lambda f: f != "-h").flatmap(prefixes),
                               VALUES).map("=".join),
                     VALUES.map("-o".__add__), VALUES)
    words = word.map(lambda w: [w]) | st.tuples(flags.flatmap(prefixes), VALUES).map(list)
    if name is not None:
        _, _, positional, own = COMMANDS[name]
        words = st.one_of(words, *map(given_value, own))
        if draw(st.booleans()):
            argv += [positional] * bool(positional)
            argv += [w for o in own if o[2] is REQUIRED for w in (o[0][0], "x")]
    for more in draw(st.lists(words, max_size=5)):
        i = draw(st.integers(0, len(argv)) | st.just(len(argv)))
        argv[i:i] = more
    return argv


ARGPARSE = argparse_parser()


def argparse_outcome(parser, argv):
    """The namespace argparse reads, or its exit code with the first words of
    its stdout: help's usage line or the version."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue().split()[:3]


def table_outcome(argv):
    try:
        command, args = parse_args(argv)
    except UsageError:
        return 2, []
    if command is None:
        return 0, args.split()[:3]
    return dict(vars(args), command=command)


class TestParser:
    def test_suite_choices_are_verify_suites(self):
        assert SUITE_CHOICES == ("all",) + SUITES

    def test_kind_help_names_the_generator_kinds(self):
        # written out in cli.py so that the parser loads no `generators`
        kind = next(option for option in COMMANDS["build"][3] if option[0] == ("--kind",))
        assert kind[3] == f"generator kind ({', '.join(KINDS)})"

    def test_defaults_are_the_library_constants(self):
        for command in ("analyze", "oracle"):
            _, args = parse_args([command, "f.json"])
            assert (args.max_members, args.max_grade, args.oracle_bound) == (
                DEFAULT_MAX_MEMBERS, DEFAULT_MAX_GRADE, DEFAULT_ORACLE_BOUND)

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs())
    @example(argv=["analyze", "f.json", "--max-grade=-1", "--with", "-o", "r.json"])
    @example(argv=["build", "--kind", "grid", "--params", "1", "-2", "--seed", "-1", "-ob.json"])
    @example(argv=["verify", "--su=orth", "--", "f.json"])
    @example(argv=["verify", "f.json", "--s", "1"])
    @example(argv=["export", "f.json", "--no-validate", "--", "--dot", "g.dot"])
    @example(argv=["oracle", "-", "--max-members", "-0"])
    def test_agrees_with_argparse(self, argv):
        assert table_outcome(argv) == argparse_outcome(ARGPARSE, argv)


# Eight threads start together right after `import cubemedian`.  "names"
# reads one package name from a different module in each thread; "imports"
# imports a different submodule in each and reads a name from it.  Prints
# the errors seen, one a line.  Runs on its own: python -c PROBE names|imports
THREAD_PROBE = """
import importlib, sys, threading
sys.setswitchinterval(1e-6)
import cubemedian
READS = [("analysis", "analyze"), ("core", "hull"), ("gates", "gate"),
         ("generators", "generate"), ("hyperclosure", "hyperclosure"), ("io", "to_dot"),
         ("orthocomplement", "orth"), ("verify", "verify_complex")]
mode = sys.argv[1]
barrier = threading.Barrier(len(READS))
errors = []

def read(module, name):
    barrier.wait()
    try:
        if mode == "names":
            value = getattr(cubemedian, name)
        else:
            value = getattr(importlib.import_module("cubemedian." + module), name)
        assert value.__module__ == "cubemedian." + module, value
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=read, args=pair) for pair in READS]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert callable(cubemedian.hyperclosure)
print("\\n".join(errors), end="")
"""


@pytest.mark.parametrize("mode", ["names", "imports"])
def test_first_reads_from_threads(mode):
    for _ in range(4):
        assert fresh(THREAD_PROBE, mode) == ""
