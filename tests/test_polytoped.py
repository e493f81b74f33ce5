import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from helpers import random_hull_hrep
from poise.errors import EmptyInteriorError, ParseError, UnboundedError
from poise.polytoped import (chebyshev_center, cross_hrep, cube_hrep,
                             dump_hrep_text, enumerate_vertices,
                             enumerate_vertices_bruteforce, faces_of_dim,
                             hpolytope, hull_of_points, load_hrep,
                             parse_hrep_text, product, simplex_hrep,
                             skeleton_graph)


def test_fixture_shapes():
    assert cube_hrep(3).m == 6 and cube_hrep(3).d == 3
    assert cross_hrep(3).m == 8
    assert simplex_hrep(3).m == 4
    assert cube_hrep(2, half=2.0).b.max() == 2.0


def test_qhull_matches_bruteforce_enumeration():
    rng = np.random.default_rng(13)
    cases = [cube_hrep(2), cube_hrep(3), cross_hrep(3), simplex_hrep(3),
             cube_hrep(4)] + [random_hull_hrep(rng, d) for d in (2, 3, 4)]
    for H in cases:
        fast = enumerate_vertices(H)
        slow = enumerate_vertices_bruteforce(H)
        assert np.allclose(fast.vertices, slow.vertices, atol=1e-9)
        assert fast.tight_sets == slow.tight_sets


def test_hypercube4_face_counts():
    H = cube_hrep(4)
    V = enumerate_vertices(H)
    counts = [len(V.vertices)] + [len(faces_of_dim(H, V, k)) for k in (1, 2, 3)]
    assert counts == [16, 32, 24, 8]
    # Euler characteristic of the boundary 3-sphere complex
    assert counts[0] - counts[1] + counts[2] - counts[3] == 0


def test_edges_have_two_endpoints_on_simple_polytopes():
    for H in (cube_hrep(3), simplex_hrep(4)):
        V = enumerate_vertices(H)
        for f in faces_of_dim(H, V, 1):
            assert len(f.members) == 2
            assert f.dim == 1


def test_skeleton_graph_cube():
    H = cube_hrep(3)
    V = enumerate_vertices(H)
    G = skeleton_graph(H, V)
    assert len(G.nodes) == 8 and len(G.edges) == 12
    assert all(len(G.adj[v]) == 3 for v in G.nodes)
    # connectivity by BFS
    seen = {0}
    stack = [0]
    while stack:
        for nb in G.adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert len(seen) == 8


def test_chebyshev_center_and_support():
    H = cube_hrep(3)
    c, r = chebyshev_center(H)
    assert np.allclose(c, 0.0, atol=1e-9) and r == pytest.approx(1.0)


def test_hull_of_points_drops_interior_points():
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)], float)
    pts = np.vstack([corners, [[0.0, 0.0, 0.0], [0.2, 0.1, -0.3]]])
    H = hull_of_points(pts)
    assert H.m == 6
    V = enumerate_vertices(H)
    assert len(V.vertices) == 8
    assert np.allclose(np.sort(np.abs(V.vertices).ravel()), 1.0)


def test_enumeration_is_scale_invariant():
    """Vertex counts and tight sets of 45 polytopes (random, cube and cross,
    d = 2..6) scaled by 1e-8, 1e-6 and 1e8 equal the unscaled ones: the
    tightness tolerance is relative to the offsets, with no absolute floor."""
    rng = np.random.default_rng(45)
    for d in range(2, 7):
        for H in (random_hull_hrep(rng, d), cube_hrep(d), cross_hrep(d)):
            want = enumerate_vertices(H)
            for s in (1e-8, 1e-6, 1e8):
                got = enumerate_vertices(hpolytope(H.A, H.b * s))
                assert len(got.vertices) == len(want.vertices), (d, H.m, s)
                assert got.tight_sets == want.tight_sets, (d, H.m, s)


def test_enumerate_handles_many_duplicate_intersections():
    ang = np.linspace(0, 2 * np.pi, 300, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    H = hull_of_points(pts)
    V = enumerate_vertices(H)
    assert len(V.vertices) == 300
    assert np.allclose(np.linalg.norm(V.vertices, axis=1), 1.0, atol=1e-9)
    assert all(len(t) >= 2 for t in V.tight_sets)


def test_product_dimensions():
    H = product(cube_hrep(2), simplex_hrep(3))
    assert H.d == 5 and H.m == 4 + 4
    V = enumerate_vertices(H)
    assert len(V.vertices) == 4 * 4  # vertex counts multiply


def test_parse_dump_round_trip_and_errors():
    H = cross_hrep(3)
    again = parse_hrep_text(dump_hrep_text(H))
    assert np.array_equal(again.A, H.A) and np.array_equal(again.b, H.b)
    with pytest.raises(ParseError):
        parse_hrep_text("1 0\n")
    with pytest.raises(UnboundedError):
        hpolytope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
    with pytest.raises(EmptyInteriorError):
        hpolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                  [1.0, -2.0, 1.0, 1.0])


def test_load_hrep(tmp_path):
    path = tmp_path / "c.hrep"
    path.write_text(dump_hrep_text(cube_hrep(2)))
    H = load_hrep(path)
    assert H.d == 2 and H.m == 4


def _axis_probe(A, b):
    """Status of the first of the 2d LPs max +-x_i over Ax <= b that is not
    0 (0 if none): the boundedness probe vertex enumeration used to run."""
    for i in range(A.shape[1]):
        for s in (1.0, -1.0):
            c = np.zeros(A.shape[1])
            c[i] = -s
            status = linprog(c, A_ub=A, b_ub=b, bounds=(None, None),
                             method="highs").status
            if status != 0:
                return status
    return 0


def _bounded_by_hull(A):
    """Without an LP: {x : Ax <= 0} = {0} iff the origin lies strictly inside
    the hull of the unit normals. None when it lies within 1e-9 of the hull's
    boundary, too close to call."""
    norms = np.linalg.norm(A, axis=1)
    unit = A[norms > 0] / norms[norms > 0, None]
    d = A.shape[1]
    if d == 1:
        return bool((unit > 0).any() and (unit < 0).any())
    if len(unit) <= d or np.linalg.matrix_rank(unit) < d:
        return False
    offsets = ConvexHull(unit).equations[:, -1]   # n.x + offset <= 0 inside
    if np.abs(offsets).min() <= 1e-9:
        return None
    return bool((offsets < 0).all())


def _random_system(rng, d, kind, scale):
    m = int(rng.integers(d + 1, 3 * d + 3))
    A = rng.normal(size=(m, d))
    b = rng.uniform(0.1, 1.0, m)
    if kind == "cone":              # every normal in the open half-space u.a > 0
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        s = A @ u
        A += (np.abs(s) - s + 0.1)[:, None] * u
    elif kind == "rank-deficient":  # no normal has an x_j component
        A[:, rng.integers(d)] = 0.0
    elif kind == "possibly-empty":
        b = rng.uniform(-1.0, 1.0, m)
    if rng.random() < 0.25:         # a zero row, vacuous or infeasible
        A = np.vstack([A, np.zeros(d)])
        b = np.append(b, rng.choice([-1.0, 1.0]))
    return A, b * scale


def _verdict(A, b):
    try:
        hpolytope(A, b)
    except UnboundedError:
        return "unbounded"
    except EmptyInteriorError:
        return "empty"
    return "ok"


def test_hpolytope_check_matches_hull_and_axis_probe():
    """The one LP cone test against two references on 400 seeded systems.

    Where the axis probe stopped on an LP status other than 0 or 3 it is not
    compared: HiGHS can call a feasible, unbounded system infeasible there.
    """
    rng = np.random.default_rng(6)
    kinds = ("random", "cone", "rank-deficient", "possibly-empty")
    verdicts = []
    for i in range(400):
        d, kind = 1 + i % 6, kinds[(i // 6) % 4]
        A, b = _random_system(rng, d, kind, (1e-8, 1.0, 1e8)[(i // 24) % 3])
        bounded = _bounded_by_hull(A)
        if bounded is None:
            continue
        got = _verdict(A, b)
        verdicts.append(got)
        assert (got != "unbounded") == bounded, (i, kind, got)
        if kind == "cone":
            assert got == "unbounded", i
        probe = _axis_probe(A, b)
        if probe in (0, 3):
            assert (got == "unbounded") == (probe == 3), (i, kind, got, probe)
    assert len(verdicts) >= 390
    assert min(verdicts.count(v) for v in ("ok", "unbounded", "empty")) >= 30
