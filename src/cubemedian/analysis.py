"""Analysis reports: one stable, diffable JSON schema.

Reports are deterministic (no timestamps, fixed field order) so identical
inputs produce byte-identical files; `oracle_agrees` is present exactly
when the oracle ran.  `analyze` imports the oracle only when it runs it.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from . import __version__
from .core import MedianComplex, dimension, theta_classes
from .errors import DEFAULT_MAX_GRADE, DEFAULT_MAX_MEMBERS, DEFAULT_ORACLE_BOUND
from .hyperclosure import grades_report, hyperclosure, longest_chain, multiplicity


class AnalysisReport(NamedTuple):
    complex_stats: dict
    hyperclosure_size: int
    grade_histogram: dict[int, int]
    multiplicity: dict
    longest_chain: dict
    oracle_checked: bool
    oracle_agrees: Optional[bool]
    tool_version: str
    spec_echo: dict


def analyze(cx: MedianComplex, *, max_members: int = DEFAULT_MAX_MEMBERS,
            max_grade: int = DEFAULT_MAX_GRADE, with_oracle: bool = False,
            oracle_bound: int = DEFAULT_ORACLE_BOUND,
            source: Optional[str] = None) -> AnalysisReport:
    """Run the full hyperclosure pipeline and summarize it.  With the oracle,
    its vertex bound is checked before the closure (see
    `orthocomplement._refuse_before_closure`)."""
    if with_oracle:
        from .orthocomplement import _refuse_before_closure, oracle_hyperclosure

        _refuse_before_closure(cx, oracle_bound)
    closure = hyperclosure(cx, max_members=max_members, max_grade=max_grade)
    profile = multiplicity(closure)
    chain_len, chain = longest_chain(closure)
    oracle_agrees = None
    if with_oracle:
        oracle_agrees = oracle_hyperclosure(cx, max_vertices=oracle_bound) == closure.member_set
    return AnalysisReport(
        complex_stats={
            "vertices": cx.vertex_count,
            "edges": len(cx.edges),
            "classes": len(theta_classes(cx)),
            "dimension": dimension(cx),
        },
        hyperclosure_size=len(closure),
        grade_histogram=grades_report(closure),
        multiplicity={
            "max": profile.max_multiplicity,
            "histogram": profile.histogram,
        },
        longest_chain={
            "length": chain_len,
            "witness": [list(m.vertices) for m in chain],
        },
        oracle_checked=with_oracle,
        oracle_agrees=oracle_agrees,
        tool_version=__version__,
        spec_echo={
            "input": source,
            "generator": cx.generator,
            "validated": cx.validated,
            "max_members": max_members,
            "max_grade": max_grade,
            "with_oracle": with_oracle,
        },
    )


def report_to_json(report: AnalysisReport) -> str:
    """The report's fields in order, the histograms sorted and string-keyed,
    and `oracle_agrees` only when the oracle ran."""
    obj = report._asdict()
    obj["grade_histogram"] = {str(k): v for k, v in sorted(report.grade_histogram.items())}
    obj["multiplicity"] = {
        "max": report.multiplicity["max"],
        "histogram": {str(k): v for k, v in sorted(report.multiplicity["histogram"].items())},
    }
    if not report.oracle_checked:
        del obj["oracle_agrees"]
    return json.dumps(obj, indent=2) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    obj = json.loads(text)
    return AnalysisReport(
        complex_stats=obj["complex_stats"],
        hyperclosure_size=obj["hyperclosure_size"],
        grade_histogram={int(k): v for k, v in obj["grade_histogram"].items()},
        multiplicity={
            "max": obj["multiplicity"]["max"],
            "histogram": {int(k): v for k, v in obj["multiplicity"]["histogram"].items()},
        },
        longest_chain=obj["longest_chain"],
        oracle_checked=obj["oracle_checked"],
        oracle_agrees=obj.get("oracle_agrees"),
        tool_version=obj["tool_version"],
        spec_echo=obj["spec_echo"],
    )
