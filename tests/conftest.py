import pytest
from hypothesis import strategies as st

from cubemedian import MedianComplex, box, grid, product, random_median, staircase, tree, wedge
from cubemedian.generators import generate, parse_spec

MEDIAN_FIXTURES = ("q2", "p3", "g33", "box222", "st2", "st3", "tree8", "rm451",
                   "single_vertex")

# the closure workload's complexes, and two with many members and classes
BENCH_SPECS = ("random_median(6,10,seed=3)", "random_median(7,9,seed=4)",
               "staircase(10)", "glued_staircase_ray(5)", "box(3,3,3)",
               "tree(300,seed=1)", "staircase(12)")

# Operands for drawn products and wedges: small enough that the pairwise
# fixpoint oracle stays fast on their products.
SMALL_SPECS = ("box(1)", "box(2)", "box(3)", "grid(1,1)", "staircase(2)",
               "tree(5,seed={})", "random_median(3,3,seed={})")


def draw_product_or_wedge(data):
    """A product or a wedge of two complexes drawn from SMALL_SPECS."""
    def small():
        text = data.draw(st.sampled_from(SMALL_SPECS))
        return generate(parse_spec(text.format(data.draw(st.integers(0, 99)))))

    x1, x2 = small(), small()
    if data.draw(st.booleans()):
        return product(x1, x2)
    v1 = data.draw(st.integers(0, x1.vertex_count - 1))
    v2 = data.draw(st.integers(0, x2.vertex_count - 1))
    return wedge(x1, v1, x2, v2)


@pytest.fixture(scope="session")
def q2():
    return grid(1, 1)


@pytest.fixture(scope="session")
def p3():
    return box(2)


@pytest.fixture(scope="session")
def g33():
    return grid(2, 2)


@pytest.fixture(scope="session")
def box222():
    return box(2, 2, 2)


@pytest.fixture(scope="session")
def st2():
    return staircase(2)


@pytest.fixture(scope="session")
def st3():
    return staircase(3)


@pytest.fixture(scope="session")
def tree8():
    return tree(8, seed=1)


@pytest.fixture(scope="session")
def rm451():
    return random_median(4, 5, seed=1)


@pytest.fixture(scope="session")
def single_vertex():
    cx = MedianComplex(1, [])
    from cubemedian import validate
    assert validate(cx).passed
    return cx


@pytest.fixture
def k3():
    return MedianComplex(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def c6():
    return MedianComplex(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def by_label(cx):
    """Map coordinate label -> vertex index."""
    return {lab: v for v, lab in cx.labels.items()}
