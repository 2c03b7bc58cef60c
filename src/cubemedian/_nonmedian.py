"""The paths of `core` that only non-median input takes.

`MedianComplex.classes` falls back to the class-by-class wall rule when
the one-BFS labelling does not certify itself, and `validate` builds an
odd-cycle or gap witness when a check fails.  Neither happens on a median
graph, so `core` imports this module only at those points, and a CLI
process given a median complex never compiles it.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    HyperplaneClass,
    InvariantFailure,
    MedianComplex,
    _two_colour,
    _walls_from_labels,
)
from .errors import InvariantViolation


def _classes_by_split(cx: MedianComplex) -> tuple[tuple["HyperplaneClass", ...], tuple[int, ...]]:
    """The class-by-class rule of `MedianComplex.classes`, through
    `_walls_from_labels`: one two-source BFS and one edge scan per class.
    An edge cut by two splits raises, so each edge is cut by its own class's
    split alone: the signs the tail sets along the BFS tree are the sides
    of the splits, and its check on every edge passes."""
    depth = cx._colouring[0]
    label: dict[tuple[int, int], tuple[int, int]] = {}  # (nearer, farther end) -> first edge
    for u, v in cx.edges:
        if ((u, v) if depth[u] < depth[v] else (v, u)) in label:
            continue
        near: list[Optional[bool]] = [None] * cx.vertex_count
        near[u], near[v] = True, False
        queue = [u, v]
        for x in queue:
            for y in cx.neighbors[x]:
                if near[y] is None:
                    near[y] = near[x]
                    queue.append(y)
        for a, b in cx.edges:
            if near[a] != near[b]:
                if label.setdefault((a, b) if depth[a] < depth[b] else (b, a), (u, v)) != (u, v):
                    raise InvariantViolation(
                        f"wall relation is not transitive: witness edges ({u},{v}), ({a},{b})")
    return _walls_from_labels(cx, depth, label)


def _odd_cycle_witness(cx: MedianComplex, color: list[int], parent: list[int],
                       u: int, v: int) -> list[int]:
    path_u, path_v = [u], [v]
    while parent[path_u[-1]] >= 0:
        path_u.append(parent[path_u[-1]])
    while parent[path_v[-1]] >= 0:
        path_v.append(parent[path_v[-1]])
    while len(path_u) > 1 and len(path_v) > 1 and path_u[-2] == path_v[-2]:
        path_u.pop()
        path_v.pop()
    return path_u + path_v[::-1][1:]


def _gap_failure(cx: MedianComplex, triple: tuple[int, int, int]) -> InvariantFailure:
    """The gap triple with no median, or, on classes not checked for
    transitivity, a pair whose BFS distance is not its wall count: a triple
    with a median (three distances summing to half the perimeter) has one,
    or that median would carry the missing majority signs."""
    rows = [_two_colour(cx, u)[0] for u in triple]
    perimeter = sum(rows[i][triple[i - 1]] for i in range(3))
    if any(2 * sum(dists) == perimeter for dists in zip(*rows)):
        for u, row in zip(triple, rows):
            for w, d in enumerate(row):
                walls = (cx.signs[u] ^ cx.signs[w]).bit_count()
                if d != walls:
                    return InvariantFailure("partial-cube", f"vertices {min(u, w)} and {max(u, w)} "
                                            f"are {d} edges but {walls} walls apart")
    return InvariantFailure("unique-median", "triple ({},{},{}) has medians []".format(*triple))
