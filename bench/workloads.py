"""Benchmark workloads: seeded input files, command lists and pinned outputs.

A workload is a fixed list of `cubemedian` CLI commands.  The workload seed
permutes the vertex ids of every input file written here (labels travel
with their vertices), and is passed on as `verify --seed` and as the seed of
`build --kind tree`.  Structure is fixed, so the cost of a workload stays
comparable across seeds while its inputs stop arriving in generator order.

Every command carries the output it must produce.  For `analyze` only the
report fields that do not depend on vertex numbering are pinned.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

@dataclass(frozen=True)
class Fixture:
    """A generated complex and the facts about it the benchmark relies on.

    `analysis` holds the pinned numbering-independent `analyze` fields, or
    None where the workload never analyzes the fixture to completion.
    """

    spec: str
    n: int
    edges: int
    k: int
    dimension: int
    members: int
    analysis: Optional[dict] = None


def _fixture(spec, n, edges, k, dimension, members, grades=None, mult_max=None,
             mult_hist=None, chain=None):
    analysis = None
    if grades is not None:
        analysis = {
            "complex_stats": {"vertices": n, "edges": edges, "classes": k,
                              "dimension": dimension},
            "hyperclosure_size": members,
            "grade_histogram": {str(g): c for g, c in grades.items()},
            "multiplicity": {"max": mult_max,
                             "histogram": {str(m): c for m, c in mult_hist.items()}},
            "longest_chain.length": chain,
        }
    return Fixture(spec, n, edges, k, dimension, members, analysis)


FIXTURES = {f.spec: f for f in (
    # closure
    _fixture("random_median(6,10,seed=3)", 48, 128, 6, 5, 324,
             {0: 1, 1: 11, 2: 48, 3: 104, 4: 112, 5: 48}, 32, {32: 48}, 6),
    _fixture("random_median(7,9,seed=4)", 40, 92, 7, 4, 177,
             {0: 1, 1: 13, 2: 52, 3: 77, 4: 34}, 20, {8: 4, 16: 12, 20: 24}, 6),
    _fixture("staircase(10)", 76, 130, 20, 2, 207,
             {0: 1, 1: 40, 2: 166}, 22,
             {4: 12, 6: 11, 8: 10, 10: 9, 12: 8, 14: 7, 16: 6, 18: 5, 20: 4, 22: 4},
             12),
    _fixture("glued_staircase_ray(5)", 71, 105, 35, 2, 172,
             {0: 1, 1: 66, 2: 105}, 12,
             {2: 1, 4: 26, 6: 19, 8: 13, 10: 8, 12: 4}, 7),
    _fixture("box(3,3,3)", 64, 144, 9, 3, 125,
             {0: 1, 1: 12, 2: 48, 3: 64}, 8, {8: 64}, 4),
    # ingest
    _fixture("grid(16,16)", 289, 544, 32, 2, 324),
    _fixture("tree(300,seed=1)", 300, 299, 299, 1, 301),
    # verify
    _fixture("staircase(6)", 34, 54, 12, 2, 89),
    _fixture("random_median(5,7,seed=3)", 12, 20, 4, 3, 36),
    _fixture("tree(16,seed=1)", 16, 15, 15, 1, 17),
    _fixture("staircase(5)", 26, 40, 10, 2, 67),
)}

CLOSURE_SPECS = ("random_median(6,10,seed=3)", "random_median(7,9,seed=4)",
                 "staircase(10)", "glued_staircase_ray(5)", "box(3,3,3)")
VERIFY_CASES = 1000
ORACLE_BOUND = 30
REFUSED_MAX_MEMBERS = 64


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the output it must produce.

    `kind` selects the check: analyze, refused, verify, oracle, build or
    export.  `outputs` are the files the command writes; their bytes are
    part of its result.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()

    def check(self, rc: int, stdout: str, stderr: str,
              files: dict[str, bytes]) -> Optional[str]:
        """None if the result is the pinned one, else what differs."""
        e = self.expect
        if self.kind == "refused":
            if rc != 3:
                return f"exit {rc}, expected 3"
            if e["limit"] not in stderr:
                return f"stderr does not name {e['limit']}: {stderr.strip()!r}"
            return None
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-300:]!r}"
        if self.kind == "analyze":
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return f"report is not JSON: {exc}"
            got = invariant_fields(report)
            if got != e["analysis"]:
                return f"report fields {got} != {e['analysis']}"
            return None
        if self.kind in ("verify", "oracle"):
            if stdout != e["stdout"]:
                return f"stdout {stdout!r} != {e['stdout']!r}"
            return None
        n, m = e["vertices"], e["edges"]
        data = files.get(self.outputs[0])
        if data is None:
            return f"{self.outputs[0]} was not written"
        if self.kind == "build":
            line = re.match(r"wrote \S+: (\d+) vertices, (\d+) edges", stdout)
            if not line or (int(line[1]), int(line[2])) != (n, m):
                return f"stdout {stdout!r} does not report {n} vertices, {m} edges"
            obj = json.loads(data)
            got = (obj["vertices"], len(obj["edges"]))
        else:
            if stdout != f"wrote {self.outputs[0]}\n":
                return f"stdout {stdout!r}"
            lines = data.decode().splitlines()
            got = (sum(" [label=" in ln for ln in lines),
                   sum(" -- " in ln for ln in lines))
        if got != (n, m):
            return f"{self.outputs[0]} holds {got[0]} vertices, {got[1]} edges; expected {n}, {m}"
        return None


def invariant_fields(report: dict) -> dict:
    """The fields of an analysis report that survive any relabelling of the
    vertices."""
    out = {key: report[key] for key in ("complex_stats", "hyperclosure_size",
                                        "grade_histogram", "multiplicity")}
    out["longest_chain.length"] = report["longest_chain"]["length"]
    return out


def relabelled_json(cx, seed: int) -> str:
    """The complex file of `cx` with its vertex ids permuted by `seed`."""
    perm = list(range(cx.vertex_count))
    random.Random(seed).shuffle(perm)
    edges = sorted(sorted((perm[u], perm[v])) for u, v in cx.edges)
    labels = {}
    if cx.labels:
        for v in sorted(cx.labels, key=perm.__getitem__):
            lab = cx.labels[v]
            labels[str(perm[v])] = list(lab) if isinstance(lab, tuple) else lab
    if cx.generator is not None:
        labels["generator"] = cx.generator
    obj = {"vertices": cx.vertex_count, "edges": edges}
    if labels:
        obj["labels"] = labels
    return json.dumps(obj, indent=2) + "\n"


def _slug(spec: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", spec).strip("_")


class _Inputs:
    """Writes each fixture's relabelled file once per workload build."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.written: dict[str, str] = {}

    def path(self, spec: str) -> str:
        if spec not in self.written:
            from cubemedian.generators import generate, parse_spec

            path = self.workdir / f"{_slug(spec)}.json"
            path.write_text(relabelled_json(generate(parse_spec(spec)), self.seed))
            self.written[spec] = str(path)
        return self.written[spec]


def _analyze(inputs: _Inputs, spec: str) -> Command:
    return Command("analyze", ("analyze", inputs.path(spec)),
                   {"analysis": FIXTURES[spec].analysis})


def _verify(inputs: _Inputs, spec: str, suite: str) -> Command:
    seed = inputs.seed
    return Command("verify", ("verify", inputs.path(spec), "--suite", suite,
                              "--cases", str(VERIFY_CASES), "--seed", str(seed)),
                   {"stdout": f"verify ok: suite={suite} cases={VERIFY_CASES} seed={seed}\n"})


def _oracle(inputs: _Inputs, spec: str) -> Command:
    return Command("oracle", ("oracle", inputs.path(spec),
                              "--oracle-bound", str(ORACLE_BOUND)),
                   {"stdout": f"oracle agreement: {FIXTURES[spec].members} members\n"})


def _build(workdir: Path, kind: str, params: tuple[int, ...], spec: str,
           seed: Optional[int] = None) -> Command:
    out = str(workdir / f"built_{kind}.json")
    argv = ("build", "--kind", kind, "--params", *map(str, params))
    if seed is not None:
        argv += ("--seed", str(seed))
    f = FIXTURES[spec]
    return Command("build", argv + ("-o", out),
                   {"vertices": f.n, "edges": f.edges}, (out,))


def _export(inputs: _Inputs, spec: str) -> Command:
    out = str(inputs.workdir / f"{_slug(spec)}.dot")
    f = FIXTURES[spec]
    return Command("export", ("export", inputs.path(spec), "--dot", out),
                   {"vertices": f.n, "edges": f.edges}, (out,))


def build_workload(name: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's input files under `workdir`; return its commands."""
    inputs = _Inputs(workdir, seed)
    if name == "closure":
        return [_analyze(inputs, spec) for spec in CLOSURE_SPECS]
    if name == "ingest":
        return [
            _build(workdir, "grid", (16, 16), "grid(16,16)"),
            _export(inputs, "grid(16,16)"),
            # the tree's structure follows the seed; n and |E| do not
            _build(workdir, "tree", (300,), "tree(300,seed=1)", seed=seed),
            _export(inputs, "tree(300,seed=1)"),
            Command("refused", ("analyze", inputs.path("grid(16,16)"),
                                "--max-members", str(REFUSED_MAX_MEMBERS)),
                    {"limit": "max_members"}),
        ]
    if name == "verify":
        return [
            *(_verify(inputs, "staircase(6)", suite) for suite in ("gates", "orth", "closure")),
            _verify(inputs, "random_median(5,7,seed=3)", "all"),
            _oracle(inputs, "tree(16,seed=1)"),
            _oracle(inputs, "staircase(5)"),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("closure", "ingest", "verify")
