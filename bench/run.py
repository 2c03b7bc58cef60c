"""Benchmark of the cubemedian CLI: one client, closed loop, fresh processes.

    python3 bench/run.py --workload closure --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each command of the workload (see
workloads.py) runs as a fresh `python -m cubemedian.cli ...` process with
`src` on the path, one after another, and its output is checked against
the pinned result.  Passes over the command list repeat until --seconds
have been measured.

--trace 0 reports the end-to-end metrics, each a median over passes:
  wall_s       wall seconds of one pass
  cpu_s        child user+sys CPU seconds of one pass (os.wait4)
  setup_s      wall seconds for a fresh interpreter to import
               cubemedian.cli, the start-up every command pays
  peak_rss_mb  the highest child ru_maxrss of a pass

The three times are scaled to a reference speed.  On a shared machine the
speed of a core drifts, CPU time as much as wall time: on a 2-vCPU VM a
fixed loop ran anywhere from 0.21 s to 0.40 s within one minute.  So the
benchmark also times REFERENCE, a fixed pure-Python job in a fresh
interpreter that owes nothing to the program, before each command and
after the last.  Each command's time is multiplied by REFERENCE_S / (mean
of the reference times just before and after it).  A start-up sample is
taken after each of those references and scaled by it.  The raw medians
are printed in the summary lines.

Commands whose output fails its check are counted in `failed` (and as
fail_ratio in the summary lines); any failure makes `correct` false.

--trace 1 alternates untraced passes with traced ones, in which every
command runs through spans.py (cli.run in-process, layer functions
wrapped), checks that each traced command's stdout, stderr, exit code and
files are byte-identical to the untraced run's, and reports the per-layer
metrics of the traced passes (medians; counts repeat exactly).  The spans
of the last traced pass are written to bench/.work/trace-<workload>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(SRC))
from workloads import WORKLOADS, Command, build_workload  # noqa: E402

# A command slower than this is killed and counted as failed, so that a run
# ends within its time limit even if the program hangs.
COMMAND_TIMEOUT_S = 60.0
# The speed reference: interpreter start-up plus dict, big-int and set work,
# like the program's own mix.  REFERENCE_S is its time at the reference speed.
REFERENCE = ("d = {}\n"
             "for i in range(100000):\n"
             "    k = (i % 251, i % 17)\n"
             "    d[k] = d.get(k, 0) + 1\n"
             "m = 0\n"
             "for i in range(20000):\n"
             "    m = (m << 3 | i) & ((1 << 300) - 1)\n"
             "s = sorted(set(range(50000)) - {3, 5})\n")
REFERENCE_S = 0.15


@dataclass
class Outcome:
    """What one child process did."""

    rc: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]
    wall_s: float
    cpu_s: float
    maxrss_mb: float


@dataclass
class Pass:
    """One pass over a workload's command list."""

    outcomes: list[Outcome] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    references: list[Outcome] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.maxrss_mb for o in self.outcomes)

    def scaled(self, what: str) -> float:
        """The pass's "wall_s" or "cpu_s", each command scaled to the reference
        speed by the references timed just before and after it."""
        refs = [getattr(r, what) for r in self.references]
        return sum(getattr(o, what) * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
                   for i, o in enumerate(self.outcomes))

    def scaled_setups(self) -> list[float]:
        """Start-up samples, each scaled by the reference timed just before it."""
        return [s * REFERENCE_S / r.wall_s for s, r in zip(self.setups, self.references)]


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str], scratch: Path, env: dict[str, str],
              outputs: tuple[str, ...] = ()) -> Outcome:
    """Run one process to completion; time it and take its rusage."""
    for out in outputs:
        (ROOT / out).unlink(missing_ok=True)
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    files = {o: (ROOT / o).read_bytes() for o in outputs if (ROOT / o).is_file()}
    return Outcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), files,
                   wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def check(cmd: Command, o: Outcome) -> str | None:
    return cmd.check(o.rc, o.stdout.decode(errors="replace"),
                     o.stderr.decode(errors="replace"), o.files)


def run_pass(commands: list[Command], scratch: Path, env: dict[str, str],
             traced: bool = False, reference: bool = False) -> Pass:
    p = Pass()
    for i, cmd in enumerate(commands):
        if reference:
            p.references.append(reference_sample(scratch, env))
            p.setups.append(setup_sample(scratch, env))
        if traced:
            trace_path = scratch / f"trace-{i}.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "spans.py"), str(trace_path), str(i),
                    "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "cubemedian.cli", *cmd.argv]
        o = run_child(argv, scratch, env, cmd.outputs)
        p.outcomes.append(o)
        err = check(cmd, o)
        if traced:
            try:
                p.traces.append(json.loads(trace_path.read_text()))
            except (OSError, json.JSONDecodeError) as exc:
                p.traces.append({"functions": {}, "spans": []})
                err = err or f"no trace: {exc}"
        p.errors.append(err)
    if reference:
        p.references.append(reference_sample(scratch, env))
    return p


def reference_sample(scratch: Path, env: dict[str, str]) -> Outcome:
    return run_child([sys.executable, "-c", REFERENCE], scratch, env)


def setup_sample(scratch: Path, env: dict[str, str]) -> float:
    o = run_child([sys.executable, "-c", "import cubemedian.cli"], scratch, env)
    if o.rc != 0:
        raise RuntimeError(f"cannot import cubemedian.cli: {o.stderr.decode()[-500:]}")
    return o.wall_s


def same_bytes(a: Outcome, b: Outcome) -> str | None:
    if (a.rc, a.stdout, a.stderr, a.files) == (b.rc, b.stdout, b.stderr, b.files):
        return None
    return "traced output differs from untraced output"


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# -- per-layer metrics --------------------------------------------------------

PER_LAYER_UNITS = {
    "hyperclosure.closure_s": "s",
    "hyperclosure.closure_self_s": "s",
    "hyperclosure.members": "count",
    "hyperclosure.projections_per_member": "calls/member",
    "hyperclosure.multiplicity_s": "s",
    "hyperclosure.chain_s": "s",
    "hyperclosure.oracle_self_s": "s",
    "gates.project_s": "s",
    "gates.project_calls": "count",
    "gates.gate_calls": "count",
    "gates.parallel_copies_s": "s",
    "gates.parallel_copies_calls": "count",
    "gates.crossing_signature_calls": "count",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "core.hull_s": "s",
    "core.hull_calls": "count",
    "core.is_convex_s": "s",
    "core.is_convex_calls": "count",
    "core.all_convex_s": "s",
    "core.convex_sets": "count",
    "core.dimension_s": "s",
    "orthocomplement.orth_s": "s",
    "orthocomplement.orth_calls": "count",
    "verify.gates_suite_s": "s",
    "verify.orth_suite_s": "s",
    "verify.closure_suite_s": "s",
    "generators.generate_self_s": "s",
    "io.load_self_s": "s",
    "io.save_s": "s",
    "io.to_dot_s": "s",
    "analysis.analyze_self_s": "s",
    "analysis.report_json_s": "s",
    "cli.run_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

# metric -> (function, field of its aggregate)
_FROM_FUNCTION = {
    "hyperclosure.closure_s": ("hyperclosure.hyperclosure", "total_s"),
    "hyperclosure.closure_self_s": ("hyperclosure.hyperclosure", "self_s"),
    "hyperclosure.multiplicity_s": ("hyperclosure.multiplicity", "total_s"),
    "hyperclosure.chain_s": ("hyperclosure.longest_chain", "total_s"),
    "hyperclosure.oracle_self_s": ("hyperclosure.oracle_hyperclosure", "self_s"),
    "gates.project_s": ("gates.project", "total_s"),
    "gates.project_calls": ("gates.project", "calls"),
    "gates.gate_calls": ("gates.gate", "calls"),
    "gates.parallel_copies_s": ("gates.parallel_copies", "total_s"),
    "gates.parallel_copies_calls": ("gates.parallel_copies", "calls"),
    "gates.crossing_signature_calls": ("gates.crossing_signature", "calls"),
    "core.validate_s": ("core.validate", "total_s"),
    "core.validate_calls": ("core.validate", "calls"),
    "core.hull_s": ("core.hull", "total_s"),
    "core.hull_calls": ("core.hull", "calls"),
    "core.is_convex_s": ("core.is_convex", "total_s"),
    "core.is_convex_calls": ("core.is_convex", "calls"),
    "core.all_convex_s": ("core.all_convex_subcomplexes", "total_s"),
    "core.dimension_s": ("core.dimension", "total_s"),
    "orthocomplement.orth_s": ("orthocomplement.orth", "total_s"),
    "orthocomplement.orth_calls": ("orthocomplement.orth", "calls"),
    "generators.generate_self_s": ("generators.generate", "self_s"),
    "io.load_self_s": ("io.load_complex", "self_s"),
    "io.save_s": ("io.save_complex", "total_s"),
    "io.to_dot_s": ("io.to_dot", "total_s"),
    "analysis.analyze_self_s": ("analysis.analyze", "self_s"),
    "analysis.report_json_s": ("analysis.report_to_json", "total_s"),
    "cli.run_s": ("cli.run", "total_s"),
}


def layer_metrics(commands: list[Command], traced: Pass, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (sums over its commands)."""
    agg: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for trace in traced.traces:
        for name, stats in trace["functions"].items():
            for key, value in stats.items():
                agg[name][key] += value
    m = {metric: agg[fn][key] for metric, (fn, key) in _FROM_FUNCTION.items()}

    spans = [s for t in traced.traces for s in t["spans"]]
    closures = [s for s in spans if s["name"] == "hyperclosure.hyperclosure"]
    members = sum(s["size"] for s in closures if s["error"] is None)
    projections = sum(s["calls"].get("gates.project", 0) for s in closures)
    m["hyperclosure.members"] = members
    m["hyperclosure.projections_per_member"] = projections / members if members else 0.0
    m["core.convex_sets"] = sum(s["size"] or 0 for s in spans
                                if s["name"] == "core.all_convex_subcomplexes")

    for suite in ("gates", "orth", "closure"):
        m[f"verify.{suite}_suite_s"] = sum(
            t["functions"].get("verify.verify_complex", {}).get("self_s", 0.0)
            for cmd, t in zip(commands, traced.traces)
            if cmd.kind == "verify" and cmd.argv[cmd.argv.index("--suite") + 1] == suite)

    run_s = agg["cli.run"]["total_s"]
    m["trace.unattributed_share"] = agg["cli.run"]["self_s"] / run_s if run_s else 0.0
    m["trace.overhead_ratio"] = traced.wall_s / untraced_wall_s
    return {name: m[name] for name in PER_LAYER_UNITS}


# -- runs ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, human-readable lines)."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    env = child_env()
    try:
        commands = build_workload(workload, seed, scratch.relative_to(ROOT))
        setup_sample(scratch, env)  # fills the bytecode cache; not measured
        untraced: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            if trace:
                untraced.append(run_pass(commands, scratch, env))
                traced.append(run_pass(commands, scratch, env, traced=True))
                for i, (a, b) in enumerate(zip(untraced[-1].outcomes, traced[-1].outcomes)):
                    traced[-1].errors[i] = traced[-1].errors[i] or same_bytes(a, b)
            else:
                untraced.append(run_pass(commands, scratch, env, reference=True))
            now = time.perf_counter()
            if now - start + (now - lap) > seconds:
                break
        if trace:
            (WORK / f"trace-{workload}.json").write_text(json.dumps({
                "workload": workload, "seed": seed,
                "commands": [list(c.argv) for c in commands],
                "traces": traced[-1].traces}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = untraced + traced
    errors = [(c.argv, e) for p in passes for c, e in zip(commands, p.errors) if e]
    attempted = sum(len(p.outcomes) for p in passes)
    walls = [p.wall_s for p in untraced]
    lines = [f"workload={workload} seed={seed} passes={len(untraced)} "
             f"traced_passes={len(traced)} commands={attempted} failed={len(errors)} "
             f"fail_ratio={len(errors) / attempted:.4f}"]
    lines += [f"FAIL {' '.join(argv)}: {err}" for argv, err in errors[:10]]
    if trace:
        per_pass = [layer_metrics(commands, t, statistics.median(walls)) for t in traced]
        metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(p.scaled("wall_s") for p in untraced),
            "cpu_s": statistics.median(p.scaled("cpu_s") for p in untraced),
            "setup_s": statistics.median(s for p in untraced for s in p.scaled_setups()),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        raw_setup = statistics.median(s for p in untraced for s in p.setups)
        raw_ref = statistics.median(r.wall_s for p in untraced for r in p.references)
        lines.append(f"raw medians: wall_s={statistics.median(walls):.4f} "
                     f"cpu_s={statistics.median(p.cpu_s for p in untraced):.4f} "
                     f"setup_s={raw_setup:.4f} reference_s={raw_ref:.4f}")
        lines.append("pass walls: " + " ".join(f"{w:.3f}" for w in walls))
        for i, cmd in enumerate(commands):
            median = statistics.median(p.outcomes[i].wall_s for p in untraced)
            lines.append(f"  {median:7.3f} s  {' '.join(cmd.argv)}")
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    if not (SRC / "cubemedian" / "cli.py").is_file():
        print(f"error: {SRC / 'cubemedian'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
