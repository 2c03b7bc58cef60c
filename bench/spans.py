"""Per-layer tracing of one CLI command, from outside the program.

Run as a script, this imports `cubemedian.cli`, wraps the public functions
of each layer module in every `cubemedian.*` namespace that holds them, and
calls `cli.run(argv)` in-process.  The command's stdout, stderr, exit code
and files are left exactly as the untraced CLI produces them; the trace is
kept in memory and written to a JSON file when the command ends:

    python bench/spans.py TRACE_JSON COMMAND_ID -- CLI_ARGS...

Three wrapper kinds keep the overhead proportionate to call volume:

* count: only a call counter, for leaf functions called up to ~10^6 times
  per command (gate, crossing_signature, ...).
* timed: a counter plus inclusive and self seconds, aggregated per function.
* span: timed, and each call is also kept as a span record with its name,
  start, end, parent span, command id, result size and the calls made
  inside it.

Self time is a call's duration minus the time spent in wrapped functions of
other layers, so it is the time the layer itself spent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("io", "generators", "core", "gates", "orthocomplement", "hyperclosure",
          "verify", "analysis", "cli")

COUNTED = frozenset({
    "core.subcomplex", "core.whole_complex", "gates.gate",
    "gates.crossing_signature", "gates.is_parallel", "gates.parallel_into",
})

SPANNED = frozenset({
    "cli.run",
    "io.load_complex", "io.complex_from_json", "io.save_complex", "io.to_dot",
    "core.validate", "core.dimension", "core.all_convex_subcomplexes",
    "generators.parse_spec", "generators.generate",
    "analysis.analyze", "analysis.report_to_json",
    "hyperclosure.hyperclosure", "hyperclosure.multiplicity",
    "hyperclosure.longest_chain", "hyperclosure.grades_report",
    "hyperclosure.oracle_hyperclosure",
    "verify.verify_complex",
})


class Tracer:
    """Counters, per-function times and spans for one command."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.t0 = time.perf_counter()
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    def wrap(self, name: str, fn):
        if name in COUNTED:
            return self._counted(name, fn)
        return self._timed(name, fn, name in SPANNED)

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name, fn, keep):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.calls[name] += 1
            self._depth[name] += 1
            span = self._open_span(name) if keep else None
            # frame: layer, seconds in other layers' wrapped calls
            frame = [layer, 0.0]
            self._stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                dur = clock() - start
                self._stack.pop()
                if self._stack:
                    parent = self._stack[-1]
                    parent[1] += frame[1] if parent[0] == layer else dur
                self.self_s[name] += dur - frame[1]
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.total[name] += dur
                if span is not None:
                    self._close_span(span, start, dur, result, error)

        return timed

    def _open_span(self, name):
        parent = next((s["id"] for s in reversed(self.spans) if s["end"] is None), None)
        span = {"id": len(self.spans), "name": name, "start": None, "end": None,
                "parent": parent, "command": self.command_id,
                "calls_before": dict(self.calls)}
        self.spans.append(span)
        return span

    def _close_span(self, span, start, dur, result, error):
        before = span.pop("calls_before")
        span["start"] = start - self.t0
        span["end"] = span["start"] + dur
        span["size"] = len(result) if error is None and hasattr(result, "__len__") else None
        span["error"] = error
        span["calls"] = {k: v - before.get(k, 0) for k, v in self.calls.items()
                         if v != before.get(k, 0)}

    def to_json(self) -> dict:
        return {
            "command": self.command_id,
            "functions": {name: {"calls": self.calls[name],
                                 "total_s": self.total.get(name, 0.0),
                                 "self_s": self.self_s.get(name, 0.0)}
                          for name in sorted(self.calls)},
            "spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions wherever a cubemedian module holds
    them.  Modules are found through sys.modules, because on the package
    some names (`cubemedian.hyperclosure`) are functions, not modules."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"cubemedian.{layer}"]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    for modname, module in list(sys.modules.items()):
        if modname != "cubemedian" and not modname.startswith("cubemedian."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    trace_path, command_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: spans.py TRACE_JSON COMMAND_ID -- CLI_ARGS...")
    import cubemedian.cli as cli

    tracer = Tracer(int(command_id))
    install(tracer)
    rc = cli.run(cli_argv)
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
