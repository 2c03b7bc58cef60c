"""`analyze` held to closed forms for the generator families, at sizes the
brute-force oracle cannot reach.

Each proof reads the members off `tests/oracles.lattice_members`: the masks
L are the AND-closure of {all classes} and the classes' crossing masks, and
the members of mask M are the fibres {v : s_v & ~M == b} over which every
class of M takes both signs.  Fibres of one mask partition the vertices,
so a vertex lies in exactly one fibre per mask.  A member strictly inside
another has a strictly smaller mask (two fibres of one mask are equal or
disjoint), so a chain of members is at most as long as a chain in L.
Grades come from the gate map in `hyperclosure`'s docstring: project(S, f)
= g_S(f) keeps f's signs on the classes crossing the side S and takes S's
constant signs on the rest.  Grade 1 is exactly the sides, since
project(S, X) = S.

box(a_1..a_d), every a_i >= 1.  Axis i has a_i classes, and two classes
cross iff their axes differ, so L is the unions A_J of the classes of the
axes in J, one mask per J ⊆ [d].  The members of A_J are the sub-boxes
that span the axes of J and fix a coordinate on each other axis:
∏_{i∉J} (a_i + 1) of them, and ∏ (a_i + 2) members in all.  A side of a
class of axis i fixes coordinate i, so a projection onto it fixes at most
one axis more, and each value 0..a_i of coordinate i is a side.  A member
that fixes k axes therefore has grade k, and the grades are the
convolution of the axes' {0: 1, 1: a_i + 1}.  Every vertex lies in one
member per mask, 2^d.  A chain in L adds one axis at a time: d + 1.

tree(n), n >= 2.  No two classes cross, so L = {all, none}.  The members
are the whole tree and the n vertices, n + 1 in all.  Every vertex is a
side of each of its edges, so it has grade 1.  Each vertex lies in 2
members, and the longest chain is a vertex in the whole: 2.

staircase(n).  Its vertices are (x, y) with 0 <= x <= n and
0 <= y <= min(x + 1, n): (n+2)(n+3)/2 - 2 of them.  The classes are the
vertical cuts V_c (x <= c against x > c) and the horizontal cuts H_c
(y <= c against y > c) for c < n, 2n in all, and V_c crosses H_d iff the
square (c, d) is there, iff d <= c.  So L is {all, none}, the masks
H_{<=c} and the masks V_{>=d}, 2n + 2 of them.
- Mask H_{<=c}: a fibre fixes x and either fixes y > c + 1 (no class of
  the mask varies) or is the column segment {x} × [0, c + 1], which spans
  the mask iff x >= c.  So n - c + 1 members.
- Mask V_{>=d}: likewise the row segments [d, n] × {y} for y <= d + 1.
  So d + 2 members.
- Mask none: the vertices.
Adding up, with the whole, gives 3n(n+1)/2 + 4n + 2 members.  The 4n
sides are the segments {c} × [0, c+1] and {c+1} × [0, c+1] of V_c and
[d, n] × {d} and [d, n] × {d+1} of H_d, all distinct.  Every other member
has grade 2:
- the column {x} × [0, c + 1], x >= c + 2, is the side {c} × [0, c+1]
  projected onto the side {x} × [0, x];
- the row [d, n] × {y}, y < d, is the side [d, n] × {d} projected onto
  the side [y, n] × {y};
- a vertex is a column side through it projected onto a row side through
  it, and every vertex lies on both.
So the grades are {0: 1, 1: 4n, 2: 3n(n+1)/2 + 1}.  The vertex (x, y)
lies in the whole, in itself, and in the columns and rows of
max(y - 1, 0) <= c <= min(x, n - 1): 2 + 2(min(x, n-1) - max(y-1, 0) + 1)
members, at most 2n + 2, at (n, 0).  No H mask holds a V mask, so the
longest chain in L is all, V_{>=0}, ..., V_{>=n-1}, none, and the row
segments [d, n] × {0} nested down to the vertex (n, 0) attain it: n + 2.

glued_staircase_ray(n).  The path 0..n with staircase(k) wedged at path
vertex k.  No square spans two blocks, so the classes of different blocks
do not cross: n + Σ 2k = n(n + 2) classes, and L is {all, none} and the
masks of the staircases' L.  A fibre of a mask of staircase(k) lies in its
block or off it, since a geodesic leaving the block crosses a class
outside the block; off the block, the mask's classes are constant.  So a
mask has the members it has in staircase(k), with the grades it has
there, since the block is gated and the projections stay in it.  The
sides are staircase(k)'s 4k and the n + 1 path vertices, (n+1)(2n+1) in
all.  Grade 2 holds the rest: for each k, staircase(k)'s 3k(k+1)/2 + 1
members of grade 2 less its corner, which is a path vertex, and
Σ 3k(k+1)/2 = 3·C(n+2, 3).  A vertex of staircase(k) lies in the members
it lies in there, at most 2k + 2, the corner in 4, and path vertex 0 in
2, so the maximum is 2n + 2.  A chain in L stays in one block: n + 2.
"""

from collections import Counter
from math import comb, prod

import pytest

from cubemedian import analyze, box, glued_staircase_ray, staircase, tree


def profile(report):
    return (report.hyperclosure_size, report.grade_histogram, report.multiplicity["max"],
            report.longest_chain["length"])


def convolution(factors):
    """The product of the polynomials, each a dict from degree to count."""
    out = {0: 1}
    for factor in factors:
        nxt = Counter()
        for i, a in out.items():
            for j, b in factor.items():
                nxt[i + j] += a * b
        out = dict(nxt)
    return out


@pytest.mark.parametrize("sides", [(2, 3, 4), (1,) * 8])
def test_box(sides):
    d, cx = len(sides), box(*sides)
    report = analyze(cx)
    assert profile(report) == (prod(a + 2 for a in sides),
                               convolution({0: 1, 1: a + 1} for a in sides), 2 ** d, d + 1)
    assert report.multiplicity["histogram"] == {2 ** d: cx.vertex_count}


def test_tree():
    cx = tree(4000, seed=1)
    report = analyze(cx)
    assert profile(report) == (4001, {0: 1, 1: 4000}, 2, 2)
    assert report.multiplicity["histogram"] == {2: 4000}


@pytest.mark.parametrize("n", [*range(1, 16), 60])
def test_staircase(n):
    cx = staircase(n)
    report = analyze(cx)
    assert cx.vertex_count == (n + 2) * (n + 3) // 2 - 2
    assert report.complex_stats["classes"] == 2 * n
    assert profile(report) == (3 * n * (n + 1) // 2 + 4 * n + 2,
                               {0: 1, 1: 4 * n, 2: 3 * n * (n + 1) // 2 + 1}, 2 * n + 2, n + 2)
    counts = Counter(2 + 2 * (min(x, n - 1) - max(y - 1, 0) + 1)
                     for x, y in cx.labels.values())
    assert report.multiplicity["histogram"] == dict(counts)


@pytest.mark.parametrize("n", [*range(1, 10), 20])
def test_glued_staircase_ray(n):
    cx = glued_staircase_ray(n)
    report = analyze(cx)
    assert report.complex_stats["classes"] == n * (n + 2)
    grades = {0: 1, 1: (n + 1) * (2 * n + 1), 2: 3 * comb(n + 2, 3)}
    assert profile(report) == (sum(grades.values()), grades, 2 * n + 2, n + 2)
