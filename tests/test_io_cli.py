"""Complex files, DOT export, report schema, CLI subcommands and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cubemedian
from cubemedian import (
    MedianComplex,
    StructuralError,
    ValidationError,
    analyze,
    complex_from_json,
    complex_to_json,
    hyperclosure,
    load_complex,
    parse_spec,
    report_from_json,
    report_to_json,
    save_complex,
    staircase,
    theta_classes,
    to_dot,
    tree,
)
from cubemedian.cli import run


class TestComplexFiles:
    def test_round_trip(self, tmp_path, st2):
        path = tmp_path / "st2.json"
        save_complex(st2, path)
        loaded = load_complex(path)
        assert loaded.vertex_count == st2.vertex_count
        assert loaded.edges == st2.edges
        assert loaded.labels == st2.labels
        assert loaded.generator == st2.generator
        assert loaded.validated

    def test_loader_validates(self):
        text = json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
        with pytest.raises(ValidationError):
            complex_from_json(text)
        cx = complex_from_json(text, run_validate=False)
        assert not cx.validated

    def test_malformed_rejected(self):
        with pytest.raises(StructuralError):
            complex_from_json("not json")
        with pytest.raises(StructuralError):
            complex_from_json('{"edges": []}')
        with pytest.raises(StructuralError):
            complex_from_json('{"vertices": 2, "edges": [[0,1]], "labels": {"x": 1}}')

    def test_generator_in_label_block(self, st2):
        obj = json.loads(complex_to_json(st2))
        assert obj["labels"]["generator"] == "staircase(2)"
        assert obj["labels"]["0"] == [0, 0]


class TestDot:
    def test_classes_colored(self, q2):
        dot = to_dot(q2)
        assert dot.startswith("graph")
        assert dot.count(" -- ") == len(q2.edges)
        colors = {line.split('color="')[1].split('"')[0]
                  for line in dot.splitlines() if "color=" in line}
        assert len(colors) == len(theta_classes(q2))

    def test_labels_used(self, st2):
        assert 'label="(2, 2)"' in to_dot(st2)


class TestReports:
    def test_round_trip(self, st2):
        report = analyze(st2, with_oracle=True, source="st2.json")
        text = report_to_json(report)
        assert report_to_json(report_from_json(text)) == text

    def test_oracle_agrees_only_when_checked(self, st2):
        plain = json.loads(report_to_json(analyze(st2)))
        assert plain["oracle_checked"] is False
        assert "oracle_agrees" not in plain
        checked = json.loads(report_to_json(analyze(st2, with_oracle=True)))
        assert checked["oracle_agrees"] is True

    def test_counts(self, st2):
        obj = json.loads(report_to_json(analyze(st2)))
        assert obj["complex_stats"] == {"vertices": 8, "edges": 10,
                                        "classes": 4, "dimension": 2}
        assert obj["hyperclosure_size"] == 19
        assert obj["multiplicity"]["max"] == 6


@pytest.fixture
def st4_file(tmp_path):
    path = tmp_path / "st4.json"
    save_complex(staircase(4), path)
    return str(path)


class TestCli:
    def test_build_analyze_pipeline(self, tmp_path, capsys):
        out = str(tmp_path / "st4.json")
        rpt = str(tmp_path / "report.json")
        assert run(["build", "--kind", "staircase", "--params", "4", "-o", out]) == 0
        assert run(["analyze", out, "-o", rpt]) == 0
        report = report_from_json(Path(rpt).read_text())
        assert report.multiplicity["max"] >= 4
        assert report.spec_echo["generator"] == "staircase(4)"

    def test_analyze_with_oracle_grid(self, tmp_path):
        out = str(tmp_path / "g.json")
        rpt = str(tmp_path / "r.json")
        assert run(["build", "--kind", "grid", "--params", "3", "3", "-o", out]) == 0
        assert run(["analyze", out, "--with-oracle", "--oracle-bound", "16",
                    "-o", rpt]) == 0
        report = report_from_json(Path(rpt).read_text())
        assert report.oracle_agrees is True
        assert report.multiplicity["max"] == 4

    def test_analyze_deterministic(self, st4_file, tmp_path):
        r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert run(["analyze", st4_file, "-o", r1]) == 0
        assert run(["analyze", st4_file, "-o", r2]) == 0
        assert Path(r1).read_bytes() == Path(r2).read_bytes()

    def test_analyze_deterministic_across_processes(self, st4_file, tmp_path):
        # hash randomization must not leak into reports
        import os
        import subprocess
        import sys
        outs = []
        for hashseed in ("1", "2"):
            rpt = str(tmp_path / f"r{hashseed}.json")
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "cubemedian.cli", "analyze", st4_file,
                 "-o", rpt], env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(Path(rpt).read_bytes())
        assert outs[0] == outs[1]

    def test_verify_ok(self, tmp_path, capsys):
        out = str(tmp_path / "q2.json")
        assert run(["build", "--kind", "grid", "--params", "1", "1", "-o", out]) == 0
        assert run(["verify", out, "--suite", "all", "--cases", "40"]) == 0
        assert "verify ok" in capsys.readouterr().out

    def test_oracle_agreement(self, st4_file, capsys):
        assert run(["oracle", st4_file, "--oracle-bound", "19"]) == 0
        assert "oracle agreement" in capsys.readouterr().out

    def test_export_dot(self, st4_file, tmp_path):
        dot = str(tmp_path / "out.dot")
        assert run(["export", st4_file, "--dot", dot]) == 0
        assert Path(dot).read_text().startswith("graph")

    def test_usage_error_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run(["build", "--kind", "staircase", "--params", "0",
                    "-o", "/tmp/x.json"]) == 2

    def test_resource_limit_exit_3(self, st4_file, capsys):
        assert run(["analyze", st4_file, "--max-members", "5"]) == 3
        assert "max_members" in capsys.readouterr().err

    def test_resource_limit_boundaries(self, st4_file, capsys):
        h = hyperclosure(staircase(4))
        size, top = len(h), max(h.grade.values())
        for flag, ok, refused in (("--max-members", size, size - 1),
                                  ("--max-grade", top, top - 1)):
            assert run(["analyze", st4_file, flag, str(ok)]) == 0
            capsys.readouterr()
            assert run(["analyze", st4_file, flag, str(refused)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: resource limit '{flag[2:].replace('-', '_')}'")
            assert err.count("\n") == 1

    def test_invalid_complex_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        assert run(["analyze", str(bad)]) == 1
        assert "odd cycle" in capsys.readouterr().err

    def test_build_composite_kinds(self, tmp_path):
        out = str(tmp_path / "w.json")
        assert run(["build", "--kind", "wedge", "--params", "grid(1,1)", "0",
                    "staircase(2)", "0", "-o", out]) == 0
        assert load_complex(out).generator == "wedge(grid(1,1),0,staircase(2),0)"

    def test_build_seeded(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert run(["build", "--kind", "tree", "--params", "7", "--seed", "3",
                    "-o", out]) == 0
        assert load_complex(out).edges == tree(7, seed=3).edges

    def test_no_validate_marks_report(self, st4_file, tmp_path):
        rpt = str(tmp_path / "r.json")
        assert run(["analyze", st4_file, "--no-validate", "-o", rpt]) == 0
        assert report_from_json(Path(rpt).read_text()).spec_echo["validated"] is False

    def test_verify_violation_prints_reproduction(self, st4_file, capsys, monkeypatch):
        from cubemedian import Violation
        import cubemedian.cli as cli

        def fake_verify(cx, suite="all", cases=1000, seed=0):
            return [Violation("gates", "gate-crossing-law", {"Y": (0, 1)}, "boom")]

        monkeypatch.setattr(cli, "verify_complex", fake_verify)
        assert run(["verify", st4_file, "--cases", "5", "--seed", "9"]) == 1
        out = capsys.readouterr().out
        assert st4_file in out and "gate-crossing-law" in out
        assert "--seed 9" in out and "(0, 1)" in out

    @pytest.mark.parametrize("flag,value,message", [
        ("--cases", "-5", "cases must be nonnegative, not -5"),
        ("--seed", "-1", "seed must be in 0..2^64-1, not -1"),
        ("--seed", str(1 << 64), f"seed must be in 0..2^64-1, not {1 << 64}"),
    ])
    def test_verify_rejects_bad_cases_and_seed(self, st4_file, capsys, flag, value, message):
        assert run(["verify", st4_file, flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_verify_accepts_extreme_cases_and_seed(self, st4_file, capsys):
        assert run(["verify", st4_file, "--cases", "0", "--seed", str((1 << 64) - 1)]) == 0
        assert capsys.readouterr().out.startswith("verify ok: suite=all cases=0")


def test_runs_without_site_packages(tmp_path):
    # the library promises the standard library only: `python -S` leaves
    # site-packages, where hypothesis and networkx live, off sys.path; and
    # start-up stays lean: no dataclasses, whose import pulls in inspect
    path = tmp_path / "st2.json"
    save_complex(staircase(2), path)
    src = str(Path(cubemedian.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cubemedian.cli; "
            f"rc = cubemedian.cli.run(['analyze', {str(path)!r}]); "
            "heavy = sorted({'dataclasses', 'inspect'} & sys.modules.keys()); "
            "assert not heavy, f'imported {heavy}'; sys.exit(rc)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["hyperclosure_size"] == len(hyperclosure(staircase(2)))


NON_MEDIAN = {
    "c6": {"vertices": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]},
    "k23": {"vertices": 5, "edges": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]},
    "k3": {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
    "disconnected": {"vertices": 4, "edges": [[0, 1], [2, 3]]},
}


@pytest.mark.parametrize("command", ["analyze", "verify", "oracle", "export"])
@pytest.mark.parametrize("name", sorted(NON_MEDIAN))
def test_no_validate_non_median_exits_cleanly(name, command, tmp_path, capsys):
    # without validation a non-median input may run to the end (exit 0) or
    # stop at an invariant violation (exit 1), never with another error
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(NON_MEDIAN[name]))
    extra = {"verify": ["--cases", "20"], "export": ["--dot", str(tmp_path / "out.dot")]}
    assert run([command, str(path), "--no-validate", *extra.get(command, [])]) in (0, 1)
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") <= 1


NON_MEDIAN_ERRORS = {
    "c6": "no vertex has the required signs (the graph is not median)",
    "k23": "wall relation is not transitive: witness edges (0,3), (1,4)",
    "k3": ("wall classes undefined: edge (1,2) joins two vertices of one colour "
           "(graph is not bipartite)"),
    "disconnected": "wall classes undefined: graph is disconnected",
}


@pytest.mark.parametrize("command", ["analyze", "verify", "oracle", "export"])
@pytest.mark.parametrize("name", sorted(NON_MEDIAN))
def test_no_validate_non_median_outcome(name, command, tmp_path, capsys):
    # C6 has sign vectors, so it exports, but its closure meets an empty
    # projection; the others have no wall classes at all
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(NON_MEDIAN[name]))
    extra = {"verify": ["--cases", "20"], "export": ["--dot", str(tmp_path / "out.dot")]}
    code = run([command, str(path), "--no-validate", *extra.get(command, [])])
    err = capsys.readouterr().err
    if (name, command) == ("c6", "export"):
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (1, f"error: invariant violation: {NON_MEDIAN_ERRORS[name]}\n")


@pytest.mark.parametrize("text,field", [
    ('{"vertices": "3", "edges": []}', '"vertices"'),
    ('{"vertices": 2.5, "edges": []}', '"vertices"'),
    ('{"vertices": true, "edges": []}', '"vertices"'),
    ('{"vertices": 2, "edges": [["0", 1]]}', '"edges"[0]'),
    ('{"vertices": 2, "edges": 5}', '"edges"'),
    ('{"vertices": 2, "edges": [[0, 1, 1]]}', '"edges"[0]'),
])
def test_malformed_complex_file_exit_2(text, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1
    with pytest.raises(StructuralError):
        complex_from_json(text)


@pytest.mark.parametrize("labels,field", [
    ({"99": [1], "-1": {"a": 1}}, '"labels" key "99"'),
    ({"-1": [1]}, '"labels" key "-1"'),
    ({"2": [1]}, '"labels" key "2"'),
    ({"01": [1]}, '"labels" key "01"'),
    ({"0": {"a": 1}}, '"labels"["0"]'),
    ({"0": 1}, '"labels"["0"]'),
    ({"0": [True]}, '"labels"["0"]'),
    ({"0": [1.5]}, '"labels"["0"]'),
    ({"generator": {"x": [1]}}, '"labels"["generator"]'),
])
def test_label_schema_exit_2(labels, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "labels": labels}))
    assert run(["export", str(path), "--dot", str(tmp_path / "out.dot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1


@pytest.mark.parametrize("build_args", [
    ["staircase", "--params", "3"],
    ["product", "--params", "grid(1,1)", "box(2)"],
    ["random_median", "--params", "4", "6", "--seed", "2"],
])
def test_labelled_files_round_trip(build_args, tmp_path):
    path = str(tmp_path / "cx.json")
    assert run(["build", "--kind", *build_args, "-o", path]) == 0
    text = Path(path).read_text()
    cx = complex_from_json(text)
    assert cx.labels and all(type(lab) is tuple for lab in cx.labels.values())
    assert complex_to_json(cx) == text


@pytest.mark.parametrize("labels,generator,field", [
    ({0: "a", 1: "b"}, None, '"labels"["0"]'),
    ({0: [0], 1: [1]}, None, '"labels"["0"]'),
    ({0: (0,), 1: (True,)}, None, '"labels"["1"]'),
    ({0: (0,), 2: (1,)}, None, '"labels" key "2"'),
    ({0: (0,), 1: (1,)}, {"x": [1]}, '"labels"["generator"]'),
])
def test_unloadable_labels_refused_at_save(labels, generator, field, tmp_path):
    cx = MedianComplex(2, [(0, 1)], labels=labels, generator=generator)
    path = tmp_path / "cx.json"
    with pytest.raises(StructuralError, match=re.escape(field)):
        save_complex(cx, path)
    assert not path.exists()


def test_deep_spec_nesting_exit_2(tmp_path, capsys):
    from cubemedian.generators import MAX_SPEC_DEPTH
    deep = "product(" * 2000 + "grid(1,1),grid(1,1)" + ")" * 1999
    assert run(["build", "--kind", "product", "--params", deep,
                "-o", str(tmp_path / "deep.json")]) == 2
    assert f"deeper than {MAX_SPEC_DEPTH}" in capsys.readouterr().err
    with pytest.raises(ValueError):
        parse_spec("product(" * MAX_SPEC_DEPTH + "grid(1,1),grid(1,1)" + ")" * MAX_SPEC_DEPTH)
    nested = "product(" * (MAX_SPEC_DEPTH - 2) + "grid(0,0),grid(0,0)" + ")" * (MAX_SPEC_DEPTH - 2)
    assert parse_spec(nested).kind == "product"


# SHA-256 of `cubemedian analyze <file>` stdout for files written by
# `cubemedian build ... -o <file>`, run from the directory holding them.
# Any change to member sets, grades, chains or report layout moves these.
PINNED_REPORTS = {
    "staircase4.json": (["staircase", "--params", "4"],
                        "3ee69c94aa797109f778e8063d7ec9c9b1d3c61f322eb673c73e1ae39473fc3a"),
    "box222.json": (["box", "--params", "2", "2", "2"],
                    "1df786e630253112d823fe1a6c0b56af7d5f87a4b2f37c90a39232a4c6ae01b4"),
    "rm573.json": (["random_median", "--params", "5", "7", "--seed", "3"],
                   "89db03b5671dad91a7b0748791d1e30bc05eee0aa60fdad4fda192cb8b454988"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_analyze_report_bytes_pinned(name, tmp_path, monkeypatch, capsys):
    build_args, digest = PINNED_REPORTS[name]
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--kind", *build_args, "-o", name]) == 0
    capsys.readouterr()
    assert run(["analyze", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
