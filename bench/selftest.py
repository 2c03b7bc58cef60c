"""Self-tests of the benchmark itself (not of the library).

    python3 bench/selftest.py [-v]

They check that a wrong pinned output shows up as a failure, that the
pinned fixture facts match the program and their closed forms, that
seeded relabelling changes numbering but no numbering-independent result,
that tracing changes no output byte, that traced counts repeat exactly,
that BENCHMARK.json names the metrics run.py reports, and that the
benchmark refuses to run without the program's sources.  About two
minutes on one core.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from run import (BENCH, END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, WORK, check,
                 child_env, layer_metrics, run_pass, same_bytes)
from workloads import (CLOSURE_SPECS, FIXTURES, WORKLOADS, build_workload,
                       invariant_fields)

from cubemedian import cli
from cubemedian.generators import generate, parse_spec
from cubemedian.hyperclosure import hyperclosure
from cubemedian.io import load_complex

# counts that must repeat exactly between two traced runs of one seed
EXACT = sorted(name for name in PER_LAYER_UNITS
               if name.endswith("_calls")
               or name in ("hyperclosure.members", "core.convex_sets"))


class Scratch(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        self.addCleanup(shutil.rmtree, self.scratch, True)
        self.rel = self.scratch.relative_to(ROOT)
        self.env = child_env()


class PinnedOutputs(Scratch):
    def test_wrong_expectation_is_a_failure(self):
        """Every command kind passes its pinned check and fails a wrong one."""
        cmds = build_workload("verify", 1, self.rel)
        cmds += build_workload("closure", 1, self.rel)[-1:]   # box(3,3,3)
        ingest = build_workload("ingest", 1, self.rel)
        cmds += [ingest[1], ingest[4]]                       # export, refused
        cmds.append(ingest[2])                               # build tree
        wrong = {
            "analyze": lambda e: {"analysis": {**e["analysis"], "hyperclosure_size":
                                               e["analysis"]["hyperclosure_size"] + 1}},
            "verify": lambda e: {"stdout": e["stdout"].replace("seed=1", "seed=2")},
            "oracle": lambda e: {"stdout": e["stdout"].replace(" members", "0 members")},
            "build": lambda e: {**e, "vertices": e["vertices"] + 1},
            "export": lambda e: {**e, "edges": e["edges"] - 1},
            "refused": lambda e: {"limit": "max_grade"},
        }
        passed = run_pass(cmds, self.scratch, self.env)
        self.assertEqual(passed.errors, [None] * len(cmds))
        for cmd, outcome in zip(cmds, passed.outcomes):
            bad = dataclasses.replace(cmd, expect=wrong[cmd.kind](cmd.expect))
            with self.subTest(kind=cmd.kind, argv=cmd.argv):
                self.assertIsNotNone(check(bad, outcome))
        self.assertEqual({c.kind for c in cmds}, set(wrong))


class FixtureFacts(unittest.TestCase):
    def test_closed_forms(self):
        """grid and box: n = prod(l+1), |F| = prod(l+2); tree(n): |F| = n+1."""
        for spec, f in FIXTURES.items():
            kind, params = spec.split("(", 1)
            ints = [int(p) for p in params.rstrip(")").split(",") if "=" not in p]
            if kind in ("grid", "box"):
                self.assertEqual(f.n, math.prod(l + 1 for l in ints), spec)
                self.assertEqual(f.members, math.prod(l + 2 for l in ints), spec)
            if kind == "tree":
                self.assertEqual((f.n, f.edges, f.members), (ints[0], ints[0] - 1, ints[0] + 1))
            if f.analysis is not None:
                self.assertEqual(f.analysis["hyperclosure_size"], f.members, spec)
        self.assertEqual(FIXTURES["box(3,3,3)"].members, 125)
        self.assertEqual(FIXTURES["grid(16,16)"].members, 324)

    def test_facts_match_program(self):
        """n, |E|, k and dimension of every fixture; |F| where it is cheap."""
        from cubemedian.core import dimension

        for spec, f in FIXTURES.items():
            cx = generate(parse_spec(spec))
            got = (cx.vertex_count, len(cx.edges), len(cx.classes), dimension(cx))
            self.assertEqual(got, (f.n, f.edges, f.k, f.dimension), spec)
            if cx.vertex_count <= 80:
                self.assertEqual(len(hyperclosure(cx)), f.members, spec)


class Relabelling(Scratch):
    def setUp(self):
        super().setUp()
        for sub in ("s1", "s2"):
            (self.scratch / sub).mkdir()

    def analyze_fields(self, path: str) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(cli.run(["analyze", path]), 0)
        return invariant_fields(json.loads(out.getvalue()))

    def test_seeds_agree_on_numbering_independent_fields(self):
        one = build_workload("closure", 1, self.rel / "s1")
        two = build_workload("closure", 2, self.rel / "s2")
        self.assertEqual(len(one), len(CLOSURE_SPECS))
        for a, b, spec in zip(one, two, CLOSURE_SPECS):
            with self.subTest(spec=spec):
                self.assertNotEqual(Path(a.argv[1]).read_text(), Path(b.argv[1]).read_text())
                fa, fb = self.analyze_fields(a.argv[1]), self.analyze_fields(b.argv[1])
                self.assertEqual(fa, fb)
                self.assertEqual(fa, FIXTURES[spec].analysis)

    def test_every_relabelled_file_loads_and_validates(self):
        for workload in WORKLOADS:
            cmds = build_workload(workload, 7, self.rel / "s1")
            inputs = {c.argv[1] for c in cmds if c.argv[0] != "build"}
            for path in sorted(inputs):
                with self.subTest(path=path):
                    cx = load_complex(path)
                    self.assertTrue(cx.validated)
                    spec = json.loads(Path(path).read_text())["labels"]["generator"]
                    self.assertEqual(cx.vertex_count, FIXTURES[spec].n)
                    self.assertNotEqual(cx.edges, generate(parse_spec(spec)).edges)


class Tracing(Scratch):
    def setUp(self):
        super().setUp()
        for workload in WORKLOADS:
            (self.scratch / workload).mkdir()

    def test_traced_output_identical_and_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                cmds = build_workload(workload, 3, self.rel / workload)
                plain = run_pass(cmds, self.scratch, self.env)
                first = run_pass(cmds, self.scratch, self.env, traced=True)
                second = run_pass(cmds, self.scratch, self.env, traced=True)
                for p in (plain, first, second):
                    self.assertEqual(p.errors, [None] * len(cmds))
                for traced in (first, second):
                    for cmd, a, b in zip(cmds, plain.outcomes, traced.outcomes):
                        self.assertIsNone(same_bytes(a, b), cmd.argv)
                m1 = layer_metrics(cmds, first, plain.wall_s)
                m2 = layer_metrics(cmds, second, plain.wall_s)
                self.assertEqual(set(m1), set(PER_LAYER_UNITS))
                self.assertEqual({k: m1[k] for k in EXACT}, {k: m2[k] for k in EXACT})
                self.assertGreater(m1["cli.run_s"], 0)
                self.assertGreater(m1["core.validate_calls"], 0)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS)
        self.assertEqual(spec["command"][1:], ["bench/run.py"])

    def test_refuses_without_sources(self):
        WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
