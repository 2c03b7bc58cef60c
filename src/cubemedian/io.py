"""Complex files (JSON) and DOT export.

File format: {"vertices": n, "edges": [[u,v],...], "labels": {...}}.
Label keys are vertex indices 0..n-1 and label values arrays of integers
(coordinates); the reserved "generator" key inside the label block records
the spec string of a generated complex.  A loaded complex passes the gate
`core._validated` unless the caller asks for no validation.
"""

from __future__ import annotations

import json
import os
from typing import Union

from .core import MedianComplex, _validated
from .errors import StructuralError

# qualitative palette, cycled over wall classes
PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2df8a", "#fb9a99", "#cab2d6",
)


def complex_to_json(cx: MedianComplex) -> str:
    """The file text of cx.  Raises StructuralError for labels the loader
    would refuse, so that every saved file loads back."""
    obj = {"vertices": cx.vertex_count, "edges": [list(e) for e in cx.edges]}
    labels = {}
    for key, label in (cx.labels or {}).items():
        labels[_label_vertex(str(key), label, cx.vertex_count, tuple)] = list(label)
    block = {str(v): labels[v] for v in sorted(labels)}
    if cx.generator is not None:
        block["generator"] = _checked_generator(cx.generator)
    if block:
        obj["labels"] = block
    return json.dumps(obj, indent=2) + "\n"


def _check_types(vertices, edges) -> None:
    """Reject JSON values of the wrong type before they reach the constructor."""
    if type(vertices) is not int:
        raise StructuralError(f'"vertices" must be an integer, not {type(vertices).__name__}')
    if type(edges) is not list:
        raise StructuralError(f'"edges" must be a list of vertex pairs, not {type(edges).__name__}')
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2 or any(type(x) is not int for x in e):
            raise StructuralError(f'"edges"[{i}] must be a pair of integers')


def _label_vertex(key: str, value, n: int, seq: type) -> int:
    """The vertex a label-block entry names.  The key must be a vertex index
    0..n-1 in decimal and the value a seq (list in a file, tuple in a
    complex) of integers; loading and saving share this rule."""
    v = int(key) if key.isascii() and key.isdigit() else -1
    if not 0 <= v < n or str(v) != key:
        raise StructuralError(f'"labels" key {json.dumps(key)} is not a vertex index '
                              f'in 0..{n - 1}')
    if type(value) is not seq or any(type(x) is not int for x in value):
        raise StructuralError(f'"labels"[{json.dumps(key)}] must be an array of integers')
    return v


def _checked_generator(value):
    if value is not None and type(value) is not str:
        raise StructuralError('"labels"["generator"] must be a string')
    return value


def complex_from_json(text: str, *, run_validate: bool = True) -> MedianComplex:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nested array or object
        raise StructuralError("not valid JSON: nested too deeply") from exc
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise StructuralError('complex file needs "vertices" and "edges"')
    raw_labels = {} if obj.get("labels") is None else obj["labels"]
    if not isinstance(raw_labels, dict):
        raise StructuralError('"labels" must be a map')
    _check_types(obj["vertices"], obj["edges"])
    labels = {_label_vertex(key, value, obj["vertices"], list): tuple(value)
              for key, value in raw_labels.items() if key != "generator"}
    cx = MedianComplex(obj["vertices"], [tuple(e) for e in obj["edges"]], labels=labels or None,
                       generator=_checked_generator(raw_labels.get("generator")))
    return _validated(cx) if run_validate else cx


def save_complex(cx: MedianComplex, path: Union[str, os.PathLike]) -> None:
    text = complex_to_json(cx)
    with open(os.fspath(path), "w") as fh:  # fspath: an int is no file descriptor here
        fh.write(text)


def load_complex(path: Union[str, os.PathLike], *, run_validate: bool = True) -> MedianComplex:
    with open(os.fspath(path)) as fh:
        text = fh.read()
    return complex_from_json(text, run_validate=run_validate)


def to_dot(cx: MedianComplex, name: str = "mediancomplex") -> str:
    """DOT export: vertices labeled by coordinates (or index), edges colored
    by wall class."""
    edge_class = {}
    for h in cx.classes:
        for e in h.dual_edges:
            edge_class[e] = h.class_id
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(cx.vertex_count):
        label = str(cx.labels[v]) if cx.labels and v in cx.labels else str(v)
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in cx.edges:
        color = PALETTE[edge_class[(u, v)] % len(PALETTE)]
        lines.append(f'  v{u} -- v{v} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
