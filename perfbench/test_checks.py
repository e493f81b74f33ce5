"""Each independent check accepts a right answer and rejects a perturbed one.

Run with `python -m pytest perfbench`. The answers are built by hand on
squares, cubes and the gadget hexagon, so no test depends on poise.
"""

import itertools

import numpy as np
import pytest

import checks
import gen

SQUARE = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
CUBE_V = np.array([(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                   for z in (-1.0, 1.0)])
CUBE_F = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6], [0, 2, 6, 4],
          [1, 5, 7, 3]]


def cube_hrep(d):
    return np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d)


def test_balance():
    assert checks.balance(SQUARE, [1, 1], [(1, 0), (-1, 0)]) is None
    assert "weighted sum" in checks.balance(SQUARE, [1, 1], [(1, 0), (-1, 0.1)])
    assert "off the boundary" in checks.balance(SQUARE, [1, 1], [(0.5, 0), (-0.5, 0)])


def test_fast_balance_allows_three_locations():
    assert checks.fast_balance(SQUARE, [1] * 4, [(1, 0), (1, 0), (-1, 0), (-1, 0)]) is None
    why = checks.fast_balance(SQUARE, [1] * 4, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert "4 distinct locations" in why


def test_antipodal():
    assert checks.antipodal(SQUARE, [(1, 0.5), (-1, -0.5)]) is None
    assert "midpoint" in checks.antipodal(SQUARE, [(1, 0.5), (-1, -0.4)])
    assert "off the boundary" in checks.antipodal(SQUARE, [(0.5, 0), (-0.5, 0)])


def test_subset_sum_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = rng.integers(1, 12, size=int(rng.integers(1, 8))).tolist()
        brute = any(2 * sum(c) == sum(vals)
                    for r in range(len(vals) + 1)
                    for c in itertools.combinations(vals, r))
        assert checks.equal_split_exists(vals) == brute


def test_gadget_decision():
    # heavy weight 12 on the reflex vertex, 3 | 2 + 1 on the two top corners
    wit = {"weights": [12, 3, 2, 1], "points": [(0, -1), (2, 2), (-2, 2), (-2, 2)]}
    assert checks.gadget_decision([1, 2, 3], {"balanceable": True, "witness": wit}) is None
    assert "disagrees" in checks.gadget_decision([1, 2, 3], {"balanceable": False})
    moved = dict(wit, points=[(0, -1), (2, 2), (-2, 2), (-2, 1.5)])
    assert checks.gadget_decision([1, 2, 3], {"balanceable": True, "witness": moved})
    assert checks.gadget_decision([1, 2, 4], {"balanceable": False}) is None


def test_three_groups():
    w = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert checks.three_groups(w, {"groups": [[0], [1, 2], [3, 4, 5]]}) is None
    assert "half" in checks.three_groups(w, {"groups": [[0, 1], [2], [3, 4, 5]]})
    assert "partition" in checks.three_groups(w, {"groups": [[0], [1, 2], [3, 4]]})


def test_gadget_reduction():
    good = {"weights": [12, 3, 2, 1], "polygon": checks.GADGET[::-1].tolist()}
    assert checks.gadget_reduction([1, 2, 3], good) is None
    assert "weights" in checks.gadget_reduction([1, 2, 3], dict(good, weights=[12, 1, 2, 3]))
    squashed = (checks.GADGET * [1.0, 0.5]).tolist()
    assert "hexagon" in checks.gadget_reduction([1, 2, 3], dict(good, polygon=squashed))


def test_tripod():
    pts = np.array([(1.0, -1.0, 0.0), (0.0, 1.0, -1.0), (-1.0, 0.0, 1.0)])
    assert checks.tripod(CUBE_V, CUBE_F, pts) is None
    assert "norms" in checks.tripod(CUBE_V, CUBE_F, pts + [(0.01, 0, 0), (0, 0, 0), (0, 0, 0)])
    assert "off the mesh" in checks.tripod(CUBE_V, CUBE_F, 0.9 * pts)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert "sum" in checks.tripod(CUBE_V, CUBE_F, np.vstack([pts[:2], pts[2] @ rot.T]))


def test_four_on_edges():
    pts = [(1, -1, 0), (-1, 1, 0), (1, 1, 0), (-1, -1, 0)]
    assert checks.four_on_edges(CUBE_V, CUBE_F, pts) is None
    on_faces = [(1, -0.5, 0), (-1, 0.5, 0), (1, 1, 0), (-1, -1, 0)]
    assert "off the mesh edges" in checks.four_on_edges(CUBE_V, CUBE_F, on_faces)
    assert "sum" in checks.four_on_edges(CUBE_V, CUBE_F, [(1, -1, 0.5)] + pts[1:])


def test_halving():
    A, b = cube_hrep(3)
    assert checks.halving(A, b, [1.0, 1.0, 0.0]) is None
    assert "rank 1" in checks.halving(A, b, [1.0, 0.3, 0.0])
    assert "outside" in checks.halving(A, b, [1.5, 1.0, 0.0])
    A2, b2 = cube_hrep(2)
    assert checks.halving(A2, b2, [1.0, 0.2]) is None
    assert "rank 0" in checks.halving(A2, b2, [0.5, 0.2])


def test_skeleton_placement():
    A, b = cube_hrep(3)
    assert checks.skeleton(A, b, [(1, 1, 0.3), (-1, -1, -0.3)], 2) is None
    assert "not on an edge" in checks.skeleton(A, b, [(1, 0.5, 0), (-1, -0.5, 0)], 2)
    assert "sum" in checks.skeleton(A, b, [(1, 1, 0.3), (-1, -1, 0.3)], 2)
    assert "outside" in checks.skeleton(A, b, [(1.2, 1, 0), (-1.2, -1, 0)], 2)
    target = np.array([0.5, 0.0, 0.0])
    assert checks.skeleton(A, b, [(1, 1, 1), (0, -1, -1)], 2, target) is None


def test_separation():
    assert checks.separation({"empty": True}, True) is None
    assert checks.separation({"empty": True}, False)
    assert checks.separation({"empty": False}, True)


def test_origin_inside():
    assert checks.origin_inside_polygon(SQUARE) is None
    assert checks.origin_inside_polygon(SQUARE + 1.5)
    assert checks.origin_inside_polygon(SQUARE + [1.0, 0.0])
    assert checks.origin_inside_mesh(CUBE_V, CUBE_F) is None
    assert checks.origin_inside_mesh(CUBE_V + 1.5, CUBE_F)
    assert checks.origin_inside_mesh(CUBE_V + [1.0, 0.0, 0.0], CUBE_F)
    A, b = cube_hrep(4)
    assert checks.origin_inside_hrep(A, b) is None
    assert checks.origin_inside_hrep(A, b - np.eye(8)[0])


@pytest.mark.parametrize("seed", range(5))
def test_generators_keep_the_origin_inside(seed):
    rng = np.random.default_rng(seed)
    assert checks.origin_inside_polygon(gen.star_polygon(rng, 40)) is None
    assert checks.origin_inside_mesh(*gen.star_mesh(rng, "ico", 1)) is None
    assert checks.origin_inside_hrep(*gen.random_hull(rng, 4, 9)) is None
    for yes in (True, False):
        assert checks.equal_split_exists(gen.partition_values(rng, 12, yes)) == yes
