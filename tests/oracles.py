"""Brute-force oracles, independent of the library's algorithms.

Everything here works by exhaustive enumeration (2^n subset scans, 4-cycle
scans, networkx BFS) and is only meant for fixtures of at most ~14
vertices.  These implementations deliberately avoid the library's interval
tables, gate maps and fixpoints wherever the corresponding operation is
under test.  The exception is `fixpoint_hyperclosure`, the pairwise
worklist fixpoint the library used before its graded search; it is slow but
obviously closed under projection and parallelism, and is kept as the
reference the graded search must reproduce.
"""

import heapq

import networkx as nx

from cubemedian import is_convex, orth, subcomplex
from cubemedian.core import whole_complex
from cubemedian.errors import InvariantViolation, ResourceLimitError
from cubemedian.gates import crossing_signature, parallel_copies, project
from cubemedian.hyperclosure import (
    DEFAULT_MAX_GRADE,
    DEFAULT_MAX_MEMBERS,
    Derivation,
    Hyperclosure,
    _hyperplane_sides,
)


def nx_graph(cx):
    g = nx.Graph()
    g.add_nodes_from(range(cx.vertex_count))
    g.add_edges_from(cx.edges)
    return g


def nx_distances(cx):
    return dict(nx.all_pairs_shortest_path_length(nx_graph(cx)))


def exhaustive_convex_subsets(cx):
    """All nonempty convex vertex sets, by scanning all 2^n subsets."""
    n = cx.vertex_count
    assert n <= 14, "subset scan limited to 14 vertices"
    out = []
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if (mask >> v) & 1]
        if is_convex(cx, verts):
            out.append(tuple(verts))
    return out


def brute_hull(cx, vertices):
    """Intersection of all convex supersets."""
    want = set(vertices)
    best = None
    for verts in exhaustive_convex_subsets(cx):
        if want <= set(verts):
            best = set(verts) if best is None else best & set(verts)
    assert best is not None
    return tuple(sorted(best))


def theta_by_squares(cx):
    """Edge partition from the opposite-edges-in-4-cycles transitive closure."""
    edges = list(cx.edges)
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    nbr = {v: set(cx.neighbors[v]) for v in range(cx.vertex_count)}
    for (a, b) in edges:
        for c in nbr[a]:
            if c == b:
                continue
            for d in nbr[b] & nbr[c]:
                if d == a:
                    continue
                # 4-cycle a-b-d-c: (a,b) opposite (c,d)
                e2 = (c, d) if c < d else (d, c)
                union(index[(a, b)], index[e2])
    groups = {}
    for e, i in index.items():
        groups.setdefault(find(i), set()).add(e)
    return sorted(frozenset(g) for g in groups.values())


def crossing_pairs_by_squares(cx):
    """Pairs of wall classes realized by adjacent edges of some 4-cycle."""
    edge_class = {}
    for h in cx.classes:
        for e in h.dual_edges:
            edge_class[e] = h.class_id
    nbr = {v: set(cx.neighbors[v]) for v in range(cx.vertex_count)}
    pairs = set()
    for (a, b) in cx.edges:
        for c in nbr[a]:
            if c == b:
                continue
            for d in nbr[b] & nbr[c]:
                if d == a:
                    continue
                e1 = edge_class[(a, b)]
                e2 = edge_class[(a, c) if a < c else (c, a)]
                pairs.add((min(e1, e2), max(e1, e2)))
    return pairs


def separating_classes(cx, a, b):
    """Wall classes with a and b in opposite halfspaces."""
    out = set()
    for h in cx.classes:
        sa = (h.side_minus_mask >> a) & 1
        sb = (h.side_minus_mask >> b) & 1
        if sa != sb:
            out.add(h.class_id)
    return out


def orth_by_definition(a_sub, basepoint):
    """Vertex-level complement oracle: b belongs iff every class separating
    it from the basepoint crosses every class crossing A (a class never
    crosses itself, so classes crossing A are excluded automatically)."""
    cx = a_sub.parent
    sig = {h.class_id for h in cx.classes
           if any(u in a_sub and v in a_sub for u, v in h.dual_edges)}
    perp = {h.class_id for h in cx.classes
            if h.class_id not in sig and sig <= cx.crossing[h.class_id]}
    verts = [b for b in range(cx.vertex_count)
             if separating_classes(cx, basepoint, b) <= perp]
    return subcomplex(cx, verts)


def copies_by_scan(a_sub):
    """All convex sets with the same crossing signature as A."""
    cx = a_sub.parent

    def sig_of(verts):
        vs = set(verts)
        return frozenset(h.class_id for h in cx.classes
                         if any(u in vs and v in vs for u, v in h.dual_edges))

    want = sig_of(a_sub.vertices)
    return sorted(verts for verts in exhaustive_convex_subsets(cx)
                  if sig_of(verts) == want)


def witnesses_by_search(f):
    """All (C, x) with orth(C, x) == F, over every convex C and basepoint."""
    cx = f.parent
    out = []
    for verts in exhaustive_convex_subsets(cx):
        c = subcomplex(cx, verts)
        for x in verts:
            if orth(c, x) == f:
                out.append((c, x))
    return out


def medians_by_paths(cx, x, y, z):
    """Median oracle: vertices on geodesics between all three pairs, via networkx."""
    g = nx_graph(cx)
    d = nx_distances(cx)

    def between(u, v):
        return {w for w in range(cx.vertex_count) if d[u][w] + d[w][v] == d[u][v]}

    return between(x, y) & between(y, z) & between(x, z)


def fixpoint_hyperclosure(cx, *, max_members=DEFAULT_MAX_MEMBERS,
                          max_grade=DEFAULT_MAX_GRADE):
    """Compute the hyperclosure as a worklist fixpoint, then grade it.

    Every popped member is projected against every member in both
    directions and all its parallel copies are added, until nothing new
    appears; a grading pass then rebuilds the family breadth-first from the
    hyperplane sides and raises if it leaves the fixpoint or stalls short
    of it.  About |F|^2 projections: for fixtures of a few hundred members.
    """
    whole = whole_complex(cx)
    members = set()
    member_list = []
    queue = []

    def add(s):
        if s not in members:
            if len(members) >= max_members:
                raise ResourceLimitError(
                    "max_members", f"hyperclosure exceeds max_members={max_members}")
            members.add(s)
            member_list.append(s)
            heapq.heappush(queue, (s.vertices, s))

    add(whole)
    sides = _hyperplane_sides(cx)
    for _, _, side in sides:
        add(side)

    # pending members in canonical vertex-list order; the result is a set
    # fixpoint, so scheduling cannot change it
    while queue:
        _, f = heapq.heappop(queue)
        for f2 in list(member_list):
            add(project(f, f2))
            add(project(f2, f))
        for copy in parallel_copies(f):
            add(copy)

    grade = {whole: 0}
    derivation = {whole: Derivation("whole")}
    frontier = [whole]
    level = 0
    while len(grade) < len(members):
        level += 1
        if level > max_grade:
            raise ResourceLimitError(
                "max_grade", f"hyperclosure grading exceeds max_grade={max_grade}")
        new = []
        for cid, sign, side in sides:
            for f in frontier:
                p = project(side, f)
                if p not in grade:
                    if p not in members:
                        raise InvariantViolation(
                            "grading produced a subcomplex outside the fixpoint")
                    grade[p] = level
                    if level == 1:
                        derivation[p] = Derivation("side", class_id=cid, sign=sign)
                    else:
                        derivation[p] = Derivation(
                            "projection", class_id=cid, sign=sign, source=f)
                    new.append(p)
        if not new:
            raise InvariantViolation("grading stalled before exhausting the members")
        frontier = new

    ordered = sorted(members, key=lambda s: (len(s.vertices), s.vertices))
    by_sig = {}
    for m in ordered:
        by_sig.setdefault(crossing_signature(m), []).append(m)
    classes = tuple(tuple(group) for group in
                    sorted(by_sig.values(), key=lambda g: (len(g[0].vertices), g[0].vertices)))
    return Hyperclosure(complex=cx, members=tuple(ordered), grade=grade,
                        derivation=derivation, parallel_classes=classes,
                        max_members=max_members, max_grade=max_grade)
