"""Analysis reports: one stable, diffable JSON schema.

Reports are deterministic (no timestamps, fixed field order) so identical
inputs produce byte-identical files; `oracle_agrees` is present exactly
when the oracle ran.  `analyze` imports the oracle only when it runs it.
"""

from __future__ import annotations

import json
from typing import Optional

from ._version import __version__
from .core import MedianComplex, dimension, theta_classes
from .errors import DEFAULT_MAX_GRADE, DEFAULT_MAX_MEMBERS, DEFAULT_ORACLE_BOUND
from .hyperclosure import grades_report, hyperclosure, longest_chain, multiplicity


class AnalysisReport:
    def __init__(self, complex_stats: dict, hyperclosure_size: int,
                 grade_histogram: dict[int, int], multiplicity: dict, longest_chain: dict,
                 oracle_checked: bool, oracle_agrees: Optional[bool], tool_version: str,
                 spec_echo: dict):
        self.complex_stats = complex_stats
        self.hyperclosure_size = hyperclosure_size
        self.grade_histogram = grade_histogram
        self.multiplicity = multiplicity
        self.longest_chain = longest_chain
        self.oracle_checked = oracle_checked
        self.oracle_agrees = oracle_agrees
        self.tool_version = tool_version
        self.spec_echo = spec_echo


def analyze(cx: MedianComplex, *, max_members: int = DEFAULT_MAX_MEMBERS,
            max_grade: int = DEFAULT_MAX_GRADE, with_oracle: bool = False,
            oracle_bound: int = DEFAULT_ORACLE_BOUND,
            source: Optional[str] = None) -> AnalysisReport:
    """Run the full hyperclosure pipeline and summarize it."""
    closure = hyperclosure(cx, max_members=max_members, max_grade=max_grade)
    profile = multiplicity(closure)
    chain_len, chain = longest_chain(closure)
    oracle_agrees = None
    if with_oracle:
        from .orthocomplement import oracle_hyperclosure

        oracle = oracle_hyperclosure(cx, max_vertices=oracle_bound)
        oracle_agrees = oracle == closure.member_set
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
    obj = {
        "complex_stats": report.complex_stats,
        "hyperclosure_size": report.hyperclosure_size,
        "grade_histogram": {str(k): v for k, v in sorted(report.grade_histogram.items())},
        "multiplicity": {
            "max": report.multiplicity["max"],
            "histogram": {str(k): v
                          for k, v in sorted(report.multiplicity["histogram"].items())},
        },
        "longest_chain": report.longest_chain,
    }
    obj["oracle_checked"] = report.oracle_checked
    if report.oracle_checked:
        obj["oracle_agrees"] = report.oracle_agrees
    obj["tool_version"] = report.tool_version
    obj["spec_echo"] = report.spec_echo
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
