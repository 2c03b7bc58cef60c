"""Fixture generators: shapes, determinism, spec strings, composition."""

import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import by_label
from oracles import (
    PoolSplitMix64,
    char_parse_spec,
    coordinate_box,
    majority_random_median,
    nodewise_generate,
    square_staircase,
    tuple_random_median,
    wedged_glued_ray,
)
from cubemedian import (
    GeneratorSpec,
    MedianComplex,
    ValidationError,
    box,
    generate,
    glued_staircase_ray,
    grid,
    load_complex,
    parse_spec,
    product,
    random_median,
    save_complex,
    spec_to_string,
    staircase,
    theta_classes,
    tree,
    validate,
    wedge,
)
from cubemedian import core
from cubemedian.generators import (KINDS, MAX_SPEC_DEPTH, _build_box, _build_random_median,
                                   _build_staircase)
from cubemedian import rng as rng_module
from cubemedian.rng import SplitMix64


# spec trees of every kind, with integer, nested and seed arguments that the
# grammar reads, whether or not `generate` would build them
SPEC_TREES = st.recursive(
    st.builds(GeneratorSpec, st.sampled_from(KINDS),
              st.lists(st.integers(0, 10**6), max_size=3).map(tuple),
              st.none() | st.integers(0, 2**64 - 1)),
    lambda inner: st.builds(GeneratorSpec, st.sampled_from(KINDS),
                            st.lists(st.integers(0, 99) | inner, max_size=4).map(tuple),
                            st.none() | st.integers(0, 99)),
    max_leaves=5)

# "٣" is a Unicode decimal digit that both parsers read as 3
SPEC_TOKENS = KINDS + ("seed",) + tuple("0123456789") + (
    "٣", "(", ")", ",", "=", " ", "\t", "x", "_")
SPEC_SOUP = st.lists(st.sampled_from(SPEC_TOKENS), max_size=16).map("".join)


@st.composite
def near_specs(draw):
    """A printed spec tree with a few tokens spliced in, sometimes cut short."""
    text = spec_to_string(draw(SPEC_TREES))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPEC_TOKENS)) + text[at:]
    return text[:draw(st.none() | st.integers(0, len(text)))]


NEAR_SPECS = near_specs()

Q2_SPEC = GeneratorSpec("grid", (1, 1))


def count_squares(cx):
    squares = set()
    nbr = {v: set(cx.neighbors[v]) for v in range(cx.vertex_count)}
    for a, b in cx.edges:
        for c in nbr[a] - {b}:
            for d in nbr[b] & nbr[c]:
                if d != a:
                    squares.add(frozenset((a, b, c, d)))
    return len(squares)


class TestStaircase:
    def test_st2_shape(self, st2):
        assert st2.vertex_count == 8
        assert count_squares(st2) == 3
        assert len(theta_classes(st2)) == 4

    def test_nested_family(self):
        prev = staircase(2)
        for n in (3, 4):
            cur = staircase(n)
            prev_labels = set(prev.labels.values())
            cur_idx = by_label(cur)
            assert prev_labels <= set(cur.labels.values())
            for u, v in prev.edges:
                a = cur_idx[prev.labels[u]]
                b = cur_idx[prev.labels[v]]
                assert (min(a, b), max(a, b)) in cur.edges
            prev = cur

    def test_vertices_below_diagonal(self, st3):
        for (x, y) in st3.labels.values():
            assert y <= x + 1


class TestGridAndBox:
    def test_grid_1_1_is_q2(self):
        g = grid(1, 1)
        assert g.vertex_count == 4
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert len(theta_classes(g)) == 2

    def test_box_is_cube(self, box222):
        assert box222.vertex_count == 27
        assert len(theta_classes(box222)) == 6

    def test_degenerate_box_is_path(self):
        p = box(3)
        assert p.vertex_count == 4 and len(p.edges) == 3


class TestProduct:
    def test_p3_times_p3_is_grid(self, p3, g33):
        prod = product(p3, p3)
        assert prod.vertex_count == g33.vertex_count
        assert prod.edges == g33.edges
        assert prod.labels == g33.labels

    def test_class_count_adds(self, p3, st2):
        prod = product(p3, st2)
        assert prod.vertex_count == p3.vertex_count * st2.vertex_count
        assert len(theta_classes(prod)) == \
            len(theta_classes(p3)) + len(theta_classes(st2))

    def test_validates(self, st2, tree8):
        assert product(st2, tree8).validated


class TestWedge:
    def test_vertex_count(self, q2, st2):
        w = wedge(q2, 0, st2, 0)
        assert w.vertex_count == q2.vertex_count + st2.vertex_count - 1
        assert w.validated

    def test_median_at_every_joint(self, p3, q2):
        for v1 in range(p3.vertex_count):
            for v2 in range(q2.vertex_count):
                assert validate(wedge(p3, v1, q2, v2)).passed

    def test_out_of_range(self, q2, p3):
        with pytest.raises(ValueError):
            wedge(q2, 9, p3, 0)


class TestTree:
    def test_uniform_trees_validate(self):
        for seed in range(1, 8):
            t = tree(9, seed=seed)
            assert t.validated
            assert len(t.edges) == 8

    def test_small_sizes(self):
        assert tree(1).vertex_count == 1
        assert tree(2).edges == ((0, 1),)

    def test_deterministic(self):
        assert tree(12, seed=5).edges == tree(12, seed=5).edges


class TestRandomMedian:
    def test_validates_over_seeds(self):
        for seed in range(1, 6):
            rm = random_median(4, 5, seed=seed)
            assert rm.validated

    def test_deterministic(self):
        a = random_median(4, 5, seed=1)
        b = random_median(4, 5, seed=1)
        assert a.edges == b.edges and a.labels == b.labels

    def test_bit_labels(self, rm451):
        for lab in rm451.labels.values():
            assert len(lab) == 4 and set(lab) <= {0, 1}

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            random_median(3, 9)


def edges_sorted(triple):
    """An (n, edges, labels) triple with its edges in the order `MedianComplex`
    gives them, the order that the builders leave to it."""
    n, edges, labels = triple
    return n, sorted(edges), labels


class TestRandomMedianMajorityOracle:
    """The builder from the points' pair projections against the majority
    fixpoint on sign words it replaced: the same vertices in the same order,
    edges and labels for every dimension the cap allows."""

    @settings(max_examples=25, deadline=None)
    @given(args=st.integers(1, 8).flatmap(lambda dim: st.tuples(
        st.just(dim), st.integers(1, 1 << dim), st.integers(0, 2**64 - 1))))
    @example(args=(1, 1, 0))  # one point 1: the diagonal pair test keeps coordinate 0 constant
    @example(args=(1, 1, 2))  # one point 0
    @example(args=(8, 256, 1))
    @example(args=(8, 10, 1))
    def test_same_vertices_edges_and_labels(self, args):
        assert edges_sorted(_build_random_median(*args)) == edges_sorted(
            majority_random_median(*args))


class TestRandomMedianOracle:
    """The builder from pair projections against the tuple builder with its
    triple scans, two replacements back."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_vertices_edges_and_labels(self, data):
        dim = data.draw(st.integers(1, 6))
        count = data.draw(st.integers(1, 1 << dim))
        seed = data.draw(st.integers(0, 2**64 - 1))
        assert edges_sorted(_build_random_median(dim, count, seed)) == edges_sorted(
            tuple_random_median(dim, count, seed))


class TestGluedRay:
    def test_small(self):
        g = glued_staircase_ray(2)
        # path 0-1-2 plus staircase(1) (4 verts, one shared) plus staircase(2)
        assert g.vertex_count == 3 + 3 + 7
        assert g.validated

    @pytest.mark.parametrize("n", range(1, 13))
    def test_same_as_wedges(self, n):
        # one edge list gives what n wedges of validated staircases gave
        g, wedged = glued_staircase_ray(n), wedged_glued_ray(n)
        assert (g.vertex_count, g.edges, g.labels) == (
            wedged.vertex_count, wedged.edges, wedged.labels)
        assert g.generator == spec_to_string(GeneratorSpec("glued_staircase_ray", (n,)))


class TestValidationGate:
    """Every complex built or loaded passes `core._validated`, which looks
    `validate` up in `core`."""

    @pytest.mark.parametrize("build, calls", [
        (lambda path: glued_staircase_ray(6), 1),
        # a nested spec is validated once, as a whole
        (lambda path: generate(parse_spec("product(grid(1,1),box(2))")), 1),
        (lambda path: generate(parse_spec("wedge(box(2),0,tree(3,seed=1),0)")), 1),
        (lambda path: generate(parse_spec("product(wedge(box(1),0,box(1),0),grid(1,1))")), 1),
        (load_complex, 1),
        (lambda path: load_complex(path, run_validate=False), 0),
    ], ids=["glued_ray", "product_spec", "wedge_spec", "five_node_spec", "load",
            "load_unvalidated"])
    def test_validated_once(self, build, calls, tmp_path):
        path = tmp_path / "grid.json"
        save_complex(grid(1, 1), path)
        with mock.patch.object(core, "validate", wraps=core.validate) as spy:
            assert build(path).validated == (calls > 0)
        assert spy.call_count == calls

    @pytest.mark.parametrize("glue, summary", [
        (lambda c6: product(c6, box(1)), "triple (2,6,10) has medians []"),
        (lambda c6: wedge(c6, 0, box(1), 0), "triple (1,3,5) has medians []"),
    ], ids=["product", "wedge"])
    def test_glued_non_median_is_refused(self, glue, summary, c6):
        with pytest.raises(ValidationError) as raised:
            glue(c6)
        assert raised.value.report.summary() == f"invalid median complex: unique-median: {summary}"


SEEDS = st.none() | st.integers(0, 2**64 - 1)
# every leaf kind, at sizes whose products of four stay a few hundred vertices
LEAF_SPECS = st.one_of(
    st.tuples(st.integers(0, 2), st.integers(0, 1)).map(lambda wh: GeneratorSpec("grid", wh)),
    st.lists(st.integers(0, 2), min_size=1, max_size=2).map(
        lambda sides: GeneratorSpec("box", tuple(sides))),
    st.builds(lambda n, seed: GeneratorSpec("tree", (n,), seed), st.integers(1, 5), SEEDS),
    st.integers(1, 2).map(lambda n: GeneratorSpec("staircase", (n,))),
    st.integers(1, 2).map(lambda n: GeneratorSpec("glued_staircase_ray", (n,))),
    st.integers(1, 3).flatmap(lambda dim: st.builds(
        lambda count, seed: GeneratorSpec("random_median", (dim, count), seed),
        st.integers(1, 1 << dim), SEEDS)),
)


@st.composite
def glued_specs(draw, depth=3):
    """A spec nested up to `depth` levels: leaves, products and wedges whose
    vertices are mostly in range and sometimes one to three past it."""
    if depth == 1 or draw(st.integers(0, 2)) == 0:
        return draw(LEAF_SPECS)
    a, b = draw(glued_specs(depth - 1)), draw(glued_specs(depth - 1))
    if draw(st.booleans()):
        return GeneratorSpec("product", (a, b))

    def vertex(part):
        try:
            n = nodewise_generate(part).vertex_count
        except ValueError:
            n = 1
        if draw(st.integers(0, 15)):
            return draw(st.integers(0, n - 1))
        return n + draw(st.integers(0, 2))

    return GeneratorSpec("wedge", (a, vertex(a), b, vertex(b)))


def outcome(build, spec):
    """What the build gives: the complex's fields in order, or the refusal."""
    try:
        cx = build(spec)
    except (ValueError, ValidationError) as exc:
        return type(exc), str(exc)
    labels = cx.labels and list(cx.labels.items())
    return cx.vertex_count, cx.edges, labels, cx.generator


class TestNodewiseOracle:
    """One glued triple validated once against the complexes built and
    validated node by node: the same complex, or the same refusal."""

    @settings(max_examples=150, deadline=None)
    @given(spec=glued_specs())
    @example(spec=parse_spec("product(wedge(box(1),0,box(1),0),grid(1,1))"))
    @example(spec=parse_spec("wedge(glued_staircase_ray(2),12,staircase(2),7)"))
    @example(spec=parse_spec("wedge(box(1),2,box(1),0)"))
    @example(spec=parse_spec("wedge(box(1),0,staircase(0),9)"))
    @example(spec=parse_spec("glued_staircase_ray(20)"))
    def test_same_complex_or_refusal(self, spec):
        assert outcome(generate, spec) == outcome(nodewise_generate, spec)



class TestBoxOracle:
    """The box as the product of its paths against the box from its
    coordinate tuples: the same vertices, edges and labels, in order."""

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(0, 4), min_size=1, max_size=5))
    @example(lengths=[0])
    @example(lengths=[0, 3])
    @example(lengths=[3, 0, 2])
    @example(lengths=[1] * 10)
    @example(lengths=[40, 60])
    @example(lengths=[4000])
    def test_same_complex(self, lengths):
        folded, coordinates = (MedianComplex(*build(tuple(lengths)))
                               for build in (_build_box, coordinate_box))
        assert folded.vertex_count == coordinates.vertex_count
        assert folded.edges == coordinates.edges
        assert list(folded.labels.items()) == list(coordinates.labels.items())


class TestStaircaseOracle:
    """The staircase as the grid restricted to y <= min(x+1, n) against the
    union of its squares' corners and sides: the same vertices, edges and
    labels."""

    @pytest.mark.parametrize("n", [*range(1, 41), 60, 100])
    def test_same_complex(self, n):
        (count, edges, labels), (sq_count, sq_edges, sq_labels) = (
            _build_staircase(n), square_staircase(n))
        assert count == sq_count
        assert sorted(edges) == sq_edges
        assert list(labels.items()) == list(sq_labels.items())


class TestSpecStrings:
    def test_round_trip(self):
        cases = [
            "grid(2,3)",
            "staircase(4)",
            "tree(6,seed=3)",
            "random_median(4,5,seed=9)",
            "product(grid(1,1),tree(5,seed=2))",
            "wedge(grid(1,1),0,staircase(2),0)",
        ]
        for text in cases:
            assert spec_to_string(parse_spec(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_spec(" product( grid(1, 1), box(2) ) ") == \
            parse_spec("product(grid(1,1),box(2))")
        assert parse_spec("tree( 5 ,seed\t= 2 )") == parse_spec("tree(5,seed=2)")

    def test_bad_specs_rejected(self):
        for text in ("frobnicate(2)", "grid(2", "grid 2", "grid(2,,3)",
                     "tree(5,seed=1,seed=2)", "grid(1,1)x",
                     "grid(1,", " tree(23,", "product(grid(1,1),"):
            with pytest.raises(ValueError):
                parse_spec(text)

    def test_generate_records_spec(self):
        cx = generate(parse_spec("product(box(2),box(2))"))
        assert cx.generator == "product(box(2),box(2))"

    @pytest.mark.parametrize("build", [
        lambda: generate(GeneratorSpec("grid", (True, 1))),
        lambda: tree(5, seed=True),
        lambda: generate(GeneratorSpec("wedge", (Q2_SPEC, False, Q2_SPEC, 0))),
    ], ids=["grid-parameter", "tree-seed", "wedge-vertex"])
    def test_bool_parameters_refused(self, build):
        # a bool is an int to isinstance, and would be recorded as True or
        # False, a spec that parse_spec refuses
        with pytest.raises(ValueError):
            build()

    @settings(max_examples=200, deadline=None)
    @given(spec=SPEC_TREES)
    def test_printed_spec_parses_back(self, spec):
        assert parse_spec(spec_to_string(spec)) == spec

    def test_seed_only_for_random_kinds(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("grid", (2, 2), seed=1))

    def test_parameter_bounds(self):
        for text in ("staircase(0)", "tree(0)", "random_median(0,1)",
                     "random_median(9,1)", "random_median(2,5)"):
            with pytest.raises(ValueError):
                generate(parse_spec(text))

    def test_identical_spec_identical_complex(self):
        from cubemedian import complex_to_json
        for text in ("wedge(staircase(2),0,tree(6,seed=4),0)",
                     "random_median(5,6,seed=8)", "glued_staircase_ray(2)"):
            a = generate(parse_spec(text))
            b = generate(parse_spec(text))
            assert complex_to_json(a) == complex_to_json(b)


class TestParseSpecOracle:
    """The parser on compiled token patterns against the one that walked the
    text one character at a time: the same spec, or the same message."""

    @staticmethod
    def check(text):
        try:
            expected = char_parse_spec(text)
        except IndexError:  # cut short after a comma
            message = f"bad generator spec {text!r}: expected a generator kind at position {len(text)}"
        except ValueError as exc:
            message = str(exc)
        else:
            assert parse_spec(text) == expected
            return
        with pytest.raises(ValueError) as exc:
            parse_spec(text)
        assert str(exc.value) == message

    @settings(max_examples=2000, deadline=None)
    @given(text=SPEC_SOUP)
    @example(text="grid(1,")
    @example(text=" tree(23,")
    @example(text="product(grid(1,1),")
    @example(text="grid(" * MAX_SPEC_DEPTH + "(")
    @example(text="grid(" * MAX_SPEC_DEPTH + "x")
    def test_same_spec_or_message(self, text):
        self.check(text)

    @settings(max_examples=300, deadline=None)
    @given(text=NEAR_SPECS)
    def test_same_spec_or_message_near_the_grammar(self, text):
        self.check(text)

    @settings(max_examples=200, deadline=None)
    @given(text=SPEC_SOUP, data=st.data())
    def test_digits_int_refuses(self, text, data):
        # str.isdigit accepts these and int refuses them: the old parser read
        # them as an integer and the new one as a word, and both refuse
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from("²³¹①⁹")) + text[at:]
        for parse in (char_parse_spec, parse_spec):
            with pytest.raises(ValueError):
                parse(text)


class TestSplitMix64:
    def test_draws_are_pinned(self):
        rng = SplitMix64(1)
        assert [rng.randrange(n) for n in (1, 7, 1000, 2**63 + 1, 2**64, 3)] == [
            0, 0, 590, 8196980753821780235, 8195237237126968761, 2]

    def test_full_range_is_one_raw_draw(self):
        assert SplitMix64(5).randrange(2**64) == SplitMix64(5).next64()

    @pytest.mark.parametrize("n", [2**64 + 1, 2**65])
    def test_bound_above_2_64_rejected(self, n):
        # rejection sampling would accept no draw, and never return
        with pytest.raises(ValueError, match=rf"at most 2\^64, not {n}$"):
            SplitMix64(1).randrange(n)


class TestSplitMix64AgainstPool:
    """The inlined step, one rejection bound per n and the sparse sample
    against the generator they replaced: the same outputs, and the same
    state after every call, so every later draw matches too."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_draws_and_state(self, data):
        seed = data.draw(st.integers(0, 2**64 - 1))
        new, old = SplitMix64(seed), PoolSplitMix64(seed)
        size = data.draw(st.integers(1, 200))
        start = data.draw(st.integers(-5, 5))
        make = data.draw(st.sampled_from((lambda r: r, tuple, list)))  # range, tuple or list
        population = make(range(start, start + size))
        before = list(population)
        # bounds near 2^64 reject up to half the raw draws, so a wrong bound shows
        bounds = data.draw(st.lists(st.one_of(st.integers(1, 300),
                                              st.integers(2**63 - 3, 2**64)), min_size=1))
        for k in range(size + 1):
            assert new.sample(population, k) == old.sample(population, k)
            assert new._state == old._state
            n = bounds[k % len(bounds)]
            assert new.randrange(n) == old.randrange(n)
            assert new._state == old._state
        assert list(population) == before
        assert new.next64() == old.next64() and new._state == old._state

    @pytest.mark.parametrize("call,message,error", [
        (lambda r: r.randrange(0), "randrange() bound must be positive", ValueError),
        (lambda r: r.randrange(-3), "randrange() bound must be positive", ValueError),
        (lambda r: r.randrange(2**64 + 1),
         f"randrange() bound must be at most 2^64, not {2**64 + 1}", ValueError),
        (lambda r: r.sample((4, 5, 6), 4), "sample() larger than population", ValueError),
        (lambda r: r.sample(range(0), 1), "sample() larger than population", ValueError),
        (lambda r: r.choice([]), "choice() on empty sequence", ValueError),
        (lambda r: r.sample([1, 2, 3, 4], -1), "sample() size must be nonnegative, not -1",
         ValueError),
        (lambda r: r.randrange(2.5), "randrange() bound must be an int, not float", TypeError),
        # 2.0 hashes as 2, whose rejection bound the first call stored
        (lambda r: (r.randrange(2), r.randrange(2.0)),
         "randrange() bound must be an int, not float", TypeError),
    ])
    def test_refusals_unchanged(self, call, message, error):
        new, old = SplitMix64(9), PoolSplitMix64(9)
        new.randrange(5), old.randrange(5)
        for rng in (new, old):
            with pytest.raises(error) as exc:
                call(rng)
            assert type(exc.value) is error and str(exc.value) == message
        assert new._state == old._state
        assert new.randrange(2**63 + 1) == old.randrange(2**63 + 1)


# 0 and 2^64 - 1 are the ends of the seed range; with -γ mod 2^64 the first
# lane's add carries out of bit 63 exactly, to the state 0
KERNEL_SEEDS = [0, 1, 2**64 - 1, -rng_module._GAMMA % 2**64]


def outputs_read(rng, seed):
    """How many outputs rng has read: its state's distance from the seed in steps of γ."""
    return (rng._state - seed) * pow(rng_module._GAMMA, -1, 2**64) % 2**64


class TestSplitMix64Kernel:
    """The block kernel against the one-output-per-call generator: the raw
    buffer, then every method and the state across buffer ends."""

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_raw_buffers_are_the_stream(self, seed):
        rng, pool = SplitMix64(seed), PoolSplitMix64(seed)
        raw = []
        for _ in range(3):
            raw += [rng._fill(), *reversed(rng._buf)]
        assert len(raw) == 3 * rng_module._LANES == 768
        assert raw == [pool.next64() for _ in raw]

    @pytest.mark.parametrize("order,code", [("little", "<"), ("big", ">")])
    def test_low_words_in_either_byte_order(self, order, code):
        # a host of this byte order casts the bytes to the words struct reads with `code`
        mask = 2**64 - 1
        lanes = [j * rng_module._GAMMA & mask for j in range(rng_module._LANES)]
        # each high word the complement of its low word, so a slice off by one word shows
        x = sum((v | (v ^ mask) << 64) << 128 * j for j, v in enumerate(lanes))
        words = struct.unpack(f"{code}{2 * rng_module._LANES}Q",
                              x.to_bytes(16 * rng_module._LANES, order))
        assert list(words[rng_module._LOW_WORDS[order]]) == lanes[::-1]

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_interleaved_calls_match_pool(self, seed):
        new, old = SplitMix64(seed), PoolSplitMix64(seed)
        pick = PoolSplitMix64(seed ^ 0xC0FFEE)  # chooses the calls, off both streams
        population = tuple(range(-3, 37))
        bounds = (1, 2, 3, 34, 1000, 2**63 + 1, 2**64 - 1, 2**64)
        for _ in range(600):
            op = pick.randrange(4)
            if op == 0:
                n = bounds[pick.randrange(len(bounds))]
                assert new.randrange(n) == old.randrange(n)
            elif op == 1:
                k = pick.randrange(len(population) + 1)
                assert new.sample(population, k) == old.sample(population, k)
            elif op == 2:
                assert new.choice(population) == old.choice(population)
            else:
                assert new.next64() == old.next64()
            assert new._state == old._state
        assert outputs_read(new, seed) > 3 * rng_module._LANES

    def test_rejection_across_a_buffer_end(self):
        # randrange(2^63 + 1) rejects an output with probability about 1/2
        n, lanes = 2**63 + 1, rng_module._LANES

        def last_of_first_buffer(seed):
            pool = PoolSplitMix64(seed)
            return [pool.next64() for _ in range(lanes)][-1]

        seed = next(s for s in range(100) if last_of_first_buffer(s) >= 2**64 - 2**64 % n)
        new, old = SplitMix64(seed), PoolSplitMix64(seed)
        for _ in range(lanes - 1):
            assert new.next64() == old.next64()
        assert len(new._buf) == 1
        assert new.randrange(n) == old.randrange(n)
        assert new._state == old._state
        assert outputs_read(new, seed) > lanes  # it rejected the last output and read on
