"""The package surface: lazily run submodules, public names, the layers each
CLI command runs, and first reads from several threads."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cubemedian
from cubemedian import hull, save_complex, staircase
from cubemedian.cli import SUITE_CHOICES, build_parser
from cubemedian.errors import DEFAULT_MAX_GRADE, DEFAULT_MAX_MEMBERS, DEFAULT_ORACLE_BOUND
from cubemedian.generators import KINDS
from cubemedian.verify import SUITES

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
         ["analysis", "core", "errors", "hyperclosure", "io", "orthocomplement"]),
        (["analyze", "{tmp}/st.json", "--max-members", "1"],  # refused: exit 3
         ["analysis", "core", "errors", "hyperclosure", "io", "orthocomplement"]),
        (["export", "{tmp}/st.json", "--dot", "{tmp}/st.dot"],
         ["core", "errors", "io"]),
        (["verify", "{tmp}/st.json", "--cases", "5"],
         ["core", "errors", "gates", "hyperclosure", "io", "orthocomplement", "rng",
          "verify"]),
        (["oracle", "{tmp}/st.json"],
         ["core", "errors", "hyperclosure", "io", "orthocomplement"]),
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


class TestParser:
    def test_suite_choices_are_verify_suites(self):
        assert SUITE_CHOICES == ("all",) + SUITES

    def test_kind_help_names_the_generator_kinds(self):
        # written out in cli.py so that the parser loads no `generators`
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        kind = next(a for a in sub.choices["build"]._actions if a.dest == "kind")
        assert kind.help == f"generator kind ({', '.join(KINDS)})"

    def test_defaults_are_the_library_constants(self):
        parser = build_parser()
        for command in ("analyze", "oracle"):
            args = parser.parse_args([command, "f.json"])
            assert (args.max_members, args.max_grade, args.oracle_bound) == (
                DEFAULT_MAX_MEMBERS, DEFAULT_MAX_GRADE, DEFAULT_ORACLE_BOUND)


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
