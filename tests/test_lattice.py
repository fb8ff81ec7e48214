import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pdds.lattice import (
    BoxSpec,
    Shape,
    _offset_ball,
    box_shape,
    is_box,
    lee_distance,
    nearest_within,
    shifted_flats,
    strides,
    t_neighborhood,
    translate,
    unflatten,
)


def brute_torus_distance(u, v, dims):
    """Minimum grid distance over all unwrapped images of v (small dims only)."""
    best = None
    for shifts in itertools.product(*(range(-1, 2) for _ in dims)):
        w = tuple(c + s * d for c, s, d in zip(v, shifts, dims))
        d = sum(abs(a - b) for a, b in zip(u, w))
        if best is None or d < best:
            best = d
    return best


def test_lee_distance_grid():
    assert lee_distance((0, 0), (2, 3)) == 5
    assert lee_distance((1, -2, 3), (1, -2, 3)) == 0
    assert lee_distance((-1,), (4,)) == 5


def test_lee_distance_wraparound():
    assert lee_distance((0, 0), (4, 0), (5, 5)) == 1
    assert lee_distance((0, 0), (3, 3), (6, 6)) == 6
    assert lee_distance((0,), (2,), (4,)) == 2


def test_lee_distance_matches_unwrapped_minimum():
    rng = random.Random(20210)
    for _ in range(300):
        n = rng.randint(1, 4)
        dims = tuple(rng.randint(1, 6) for _ in range(n))
        u = tuple(rng.randrange(d) for d in dims)
        v = tuple(rng.randrange(d) for d in dims)
        assert lee_distance(u, v, dims) == brute_torus_distance(u, v, dims)
        assert lee_distance(u, v, dims) == lee_distance(v, u, dims)


def test_lee_distance_triangle_inequality_on_torus():
    dims = (5, 4)
    pts = list(itertools.product(range(5), range(4)))
    rng = random.Random(7)
    for _ in range(400):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert (lee_distance(a, c, dims)
                <= lee_distance(a, b, dims) + lee_distance(b, c, dims))


def test_box_spec_validation_and_json():
    spec = BoxSpec((3, 1, 2))
    assert spec.dim == 3
    assert BoxSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        BoxSpec((2, 0))
    with pytest.raises(ValueError):
        BoxSpec(())


@pytest.mark.parametrize("extents", [(1.5, 1), (2.0,), (True, 1), ("2",)])
def test_box_spec_rejects_non_integer_extents(extents):
    # (1.5, 1) used to become (1, 1)
    with pytest.raises(ValueError, match="positive integers"):
        BoxSpec(extents)


def test_box_shape_paths_and_cube():
    assert set(box_shape(BoxSpec((3, 1)))) == {(0, 0), (1, 0), (2, 0)}
    cube = box_shape(BoxSpec((2, 2, 2)))
    assert len(cube) == 8
    assert set(cube) == set(itertools.product((0, 1), repeat=3))


def test_shape_canonicalization_and_json():
    s = Shape.of([(1, 0), (0, 0), (1, 0)])
    assert s.vertices == ((0, 0), (1, 0))
    assert (0, 0) in s and (2, 2) not in s
    with pytest.raises(ValueError):
        Shape.of([(0, 0), (0, 0, 0)])


@pytest.mark.parametrize("vertex", [("3", 1), (0.5, 0.5), (2.0, 1), (True, 0), (None, 1)])
def test_shape_rejects_non_integer_coordinates(vertex):
    # ("3", 1) used to become (3, 1) and (0.5, 0.5) became (0, 0)
    with pytest.raises(ValueError, match="coordinates must be integers"):
        Shape.of([(0, 0), vertex])


def test_translate_plain_and_torus():
    s = box_shape(BoxSpec((2, 1)))
    assert set(translate(s, (3, 1))) == {(3, 1), (4, 1)}
    wrapped = translate(s, (3, 0), (4, 2))
    assert set(wrapped) == {(3, 0), (0, 0)}


def test_t_neighborhood_radius_zero_is_identity():
    s = Shape.of([(0, 0), (5, 5)])
    assert t_neighborhood(s, 0) == s


def test_t_neighborhood_ball_sizes():
    # Lee ball around one vertex: 2n+1 at radius 1, 2n^2+2n+1 at radius 2.
    for n in range(1, 5):
        pt = box_shape(BoxSpec((1,) * n))
        assert len(t_neighborhood(pt, 1)) == 2 * n + 1
        assert len(t_neighborhood(pt, 2)) == 2 * n * n + 2 * n + 1


def test_t_neighborhood_torus_wrap_compresses():
    ring = t_neighborhood(box_shape(BoxSpec((2,))), 2, (4,))
    assert set(ring) == {(0,), (1,), (2,), (3,)}


def test_t_neighborhood_matches_brute_on_torus():
    rng = random.Random(99)
    for _ in range(50):
        dims = (rng.randint(3, 6), rng.randint(3, 6))
        verts = {(rng.randrange(dims[0]), rng.randrange(dims[1]))
                 for _ in range(rng.randint(1, 4))}
        t = rng.randint(0, 3)
        got = set(t_neighborhood(Shape.of(sorted(verts)), t, dims))
        want = {x for x in itertools.product(range(dims[0]), range(dims[1]))
                if min(lee_distance(x, v, dims) for v in verts) <= t}
        assert got == want


@pytest.mark.parametrize("dim, t", [
    (1, 0), (1, 3), (2, 0), (2, 1), (2, 4), (3, 2), (4, 1), (4, 2),
])
def test_offset_ball_matches_every_grid_offset(dim, t):
    # on the grid each axis offers -t..t; lexicographic, as on a torus
    want = [(x, sum(map(abs, x)))
            for x in itertools.product(range(-t, t + 1), repeat=dim)
            if sum(map(abs, x)) <= t]
    assert _offset_ball(dim, t, None) == tuple(want)


@st.composite
def nearest_cases(draw):
    """A vertex list (unreduced, repeats allowed), a radius, and a torus
    (None for the grid) small enough to scan."""
    n = draw(st.integers(1, 3))
    torus = draw(st.one_of(st.none(), st.tuples(*[st.integers(1, 6)] * n)))
    point = st.tuples(*[st.integers(-4, 8)] * n)
    verts = draw(st.lists(point, min_size=1, max_size=4))
    return verts, draw(st.integers(0, 4)), torus


def _nearest_by_brute_force(verts, t, torus):
    n = len(verts[0])
    if torus is None:
        region = itertools.product(*(
            range(min(v[i] for v in verts) - t, max(v[i] for v in verts) + t + 1)
            for i in range(n)))
    else:
        region = itertools.product(*map(range, torus))
    out = {}
    for x in region:
        dists = [lee_distance(x, w, torus) for w in verts]
        best = min(dists)
        if best <= t:
            out[x] = (best, dists.count(best), verts[dists.index(best)])
    return out


@settings(max_examples=300, deadline=None)
@given(nearest_cases())
@example(([(0,), (2,)], 2, (4,)))             # two nearest at 1 and 3, wrapping
@example(([(0, 0), (2, 0)], 1, None))         # a tie on the grid
@example(([(0,), (5,)], 3, (5,)))             # one vertex twice mod 5
@example(([(-1, 7)], 4, (3, 2)))              # ball larger than the torus
def test_nearest_within_matches_brute_force(case):
    verts, t, torus = case
    assert nearest_within(verts, t, torus) == \
        _nearest_by_brute_force(verts, t, torus)


def test_nearest_within_torus_work_is_bounded_by_the_torus():
    # a grid ball of radius 10**6 would never finish; the torus caps it
    near = nearest_within([(0, 0)], 10 ** 6, (5, 5))
    assert len(near) == 25 and {c for _, c, _ in near.values()} == {1}


def test_nearest_within_rejects_negative_radius():
    with pytest.raises(ValueError, match="nonnegative"):
        nearest_within([(0,)], -1)


def test_is_box_accepts_boxes_rejects_others():
    assert is_box(box_shape(BoxSpec((2, 3)))) == BoxSpec((2, 3))
    moved = translate(box_shape(BoxSpec((1, 4))), (-2, 7))
    assert is_box(moved) == BoxSpec((1, 4))
    ell = Shape.of([(0, 0), (1, 0), (0, 1)])
    assert is_box(ell) is None
    gapped = Shape.of([(0, 0), (2, 0)])
    assert is_box(gapped) is None
    # (4, 0) is (0, 0) on the torus: three cells, not the 2x2 box.
    assert is_box(Shape.of([(0, 0), (4, 0), (1, 1), (0, 1)]), (4, 6)) is None


def test_flat_index_is_lexicographic_order():
    for dims in ((1,), (5,), (3, 1), (2, 3, 4), (1, 2, 1, 3)):
        row_strides = strides(dims)
        points = list(itertools.product(*(range(d) for d in dims)))
        for flat, p in enumerate(points):
            assert unflatten(flat, dims) == p
            assert sum(c * s for c, s in zip(p, row_strides)) == flat


@st.composite
def shift_cases(draw):
    """1-3 axes of length 1-6; vertices and anchors with coordinates in
    [-7, 7] (negative and unreduced), some anchors drawn twice, and either
    list possibly empty."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(draw(st.integers(1, 3))))
    point = st.tuples(*(st.integers(-7, 7) for _ in dims))
    verts = draw(st.lists(point, max_size=6))
    anchors = draw(st.lists(point, max_size=5))
    if anchors:
        anchors += draw(st.lists(st.sampled_from(anchors), max_size=3))
    return dims, verts, draw(st.permutations(anchors))


@settings(max_examples=300, deadline=None)
@given(shift_cases())
@example(((3, 4), [], [(0, 0), (-1, 9)]))            # no vertices
@example(((3, 4), [(1, 2), (-4, 7)], []))            # no anchors
@example(((2, 5), [(1, 1)], [(-7, 6), (-7, 6)]))     # one anchor twice
@example(((4, 5), [(x, y) for x in range(-4, 6) for y in (0, 3, -9)],
          [(2, -1)]))                                # one anchor, many vertices
@example(((3, 4), [(-2, 5)],
          [(x, y) for x in range(-3, 4) for y in range(-2, 6)]))   # many anchors, one vertex
@example(((200, 3), [(-201, 2), (199, -3), (0, 0), (400, 1)],
          [(-1, 4), (377, -5), (3, 3)]))             # too few anchors for a slice
def test_shifted_flats_matches_per_vertex_sum(case):
    dims, verts, anchors = case
    row_strides = strides(dims)
    want = [[sum((vi + ai) % d * s for vi, ai, d, s in zip(v, a, dims, row_strides))
             for a in anchors] for v in verts]
    assert [list(col) for col in shifted_flats(verts, anchors, dims)] == want
