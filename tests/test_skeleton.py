import numpy as np
import pytest

from helpers import (cross_hrep, cube_mesh, face_per_point, hull_hrep, octa_mesh,
                     prop9_check_all_faces, random_hull_hrep, simplex_hrep,
                     stiemke_cone_lp, tetra_mesh, three_on_edges_all_triples)
from poise import polytoped, skeleton_balance
from poise.errors import InputError, NotFoundError, UnsupportedDimensionError
from poise.geom3d import Plane3
from poise.polytoped import (cube_hrep, enumerate_vertices, faces_of_dim,
                             hpolytope, members, product)
from poise.skeleton import four_on_edges, verify_skeleton
from poise.skeleton_balance import (compose_balance, halving_point, pow2_points,
                                    prop9_check, prop9_fixture, three_on_edges,
                                    verify_halving)

SIMPLEX_HULL = hpolytope(*hull_hrep([(3.0, 0.0, 0.0), (0.0, 3.0, 0.0),
                                    (0.0, 0.0, 3.0), (-1.0, -1.0, -1.0)]))


def hrep_boundary_gap(H, x):
    """(max violation, distance of the closest constraint to tightness)."""
    norms = np.linalg.norm(H.A, axis=1)
    r = (H.A @ x - H.b) / norms
    return float(r.max()), float(np.abs(r).min())


def test_halving_square_type():
    wit = halving_point(cube_hrep(2))
    assert wit.vertex_type == (1, 1)
    for point in (wit.x, -wit.x):
        viol, touch = hrep_boundary_gap(cube_hrep(2), point)
        assert viol <= 1e-9 and touch <= 1e-9
    assert wit.face_P.dim <= 1 and wit.face_negP.dim <= 1


def test_halving_cube_degenerate_intersection():
    H = cube_hrep(3)
    wit = halving_point(H)  # C = P is centrally symmetric, not simple
    assert wit.vertex_type == (2, 1)
    viol, touch = hrep_boundary_gap(H, wit.x)
    assert viol <= 1e-7 and touch <= 1e-7
    # x = (-1, -1, 1) and -x are vertices, though the basis holds two and one
    # rows of P
    assert wit.face_P.dim == 0 and wit.face_negP.dim == 0


def test_halving_simplex_hull_vertex_on_reflection():
    wit = halving_point(SIMPLEX_HULL)
    assert wit.vertex_type == (2, 1)
    viol, _ = hrep_boundary_gap(SIMPLEX_HULL, wit.x)
    assert viol <= 1e-7


def test_halving_random_dims_and_seeds():
    rng = np.random.default_rng(101)
    for d in (2, 3, 4, 5):
        H = random_hull_hrep(rng, d)
        wit = halving_point(H)
        assert sum(wit.vertex_type) >= d
        assert wit.vertex_type[0] == -(-d // 2)  # ceil(d/2) P-tight rows
        V = enumerate_vertices(H)
        viol, touch = hrep_boundary_gap(H, wit.x)
        assert viol <= 1e-7 * V.diam and touch <= 1e-7 * V.diam


def _rotated(H, rng):
    q, r = np.linalg.qr(rng.normal(size=(H.d, H.d)))
    return hpolytope(H.A @ (q * np.sign(np.diag(r))), H.b)


def _assert_walk_halves(H, twice=True):
    """ceil(d/2) rows of P in the final basis, a passing certificate, and
    the same bytes from a second walk."""
    wit = halving_point(H)
    assert wit.vertex_type[0] == -(-H.d // 2), H.d
    assert verify_halving(H, wit.x).passed, H.d
    if not twice:
        return
    again = halving_point(H)
    assert wit.x.tobytes() == again.x.tobytes()
    assert (wit.face_P.tight, wit.face_negP.tight) == (again.face_P.tight,
                                                     again.face_negP.tight)


def test_halving_walk_on_symmetric_polytopes():
    """Axis and rotated cubes and cross-polytopes, where C = P is neither
    simple nor generic, up to the 8-cross-polytope (256 rows). Its vertex
    enumeration takes most of a second, so it is walked once."""
    rng = np.random.default_rng(31)
    for d in range(2, 9):
        for H in (cube_hrep(d), cross_hrep(d)):
            _assert_walk_halves(H, twice=H.m < 256)
            _assert_walk_halves(_rotated(H, rng), twice=H.m < 256)


def test_halving_walk_on_random_hulls():
    rng = np.random.default_rng(32)
    for d in range(2, 11):
        _assert_walk_halves(random_hull_hrep(rng, d))


def test_three_on_edges_cube_symmetric_triple():
    H = cube_hrep(3)
    sp = three_on_edges(H)
    pts = {tuple(np.round(p, 9)) for p in sp.points()}
    assert pts == {(1.0, 1.0, 0.0), (-1.0, 0.0, 1.0), (0.0, -1.0, -1.0)}
    cert = verify_skeleton(H, sp.points())
    assert cert.passed and cert.max_host_dim <= 1


def test_three_on_edges_shifted_target():
    H = cube_hrep(3)
    target = np.array([0.9, 0.9, 0.9])
    sp = three_on_edges(H, target)
    assert np.allclose(sp.points().mean(axis=0), target, atol=1e-9)
    cert = verify_skeleton(H, sp.points(), target)
    assert cert.passed


def test_three_on_edges_repeated_edge_degeneracy():
    sp = three_on_edges(SIMPLEX_HULL)
    cert = verify_skeleton(SIMPLEX_HULL, sp.points())
    assert cert.passed
    assert sp.count == 3


def test_three_on_edges_rejects_outside_target():
    with pytest.raises(InputError):
        three_on_edges(cube_hrep(3), (5.0, 0.0, 0.0))


@pytest.mark.parametrize("blocks", [None, (1, 4)])
def test_three_on_edges_matches_the_all_triples_oracle(monkeypatch, blocks):
    """The block scan finds the first balanced triple of the one-batch scan:
    the same points, bit for bit, on the same host edges. The winners sit
    at scan positions 23 to 4,501, so tiny blocks put many block boundaries
    before them."""
    if blocks:
        monkeypatch.setattr(skeleton_balance, "EDGE_FIRST_BLOCK", blocks[0])
        monkeypatch.setattr(skeleton_balance, "EDGE_BLOCK", blocks[1])
    for seed, n in enumerate(range(8, 41, 8)):
        H = random_hull_hrep(np.random.default_rng([14, seed]), 3, n)
        for target in (None, 0.6 * H.vrep.vertices[0]):
            ref = three_on_edges_all_triples(H, target)
            if ref is None:
                with pytest.raises(NotFoundError):
                    three_on_edges(H, target)
                continue
            sp = three_on_edges(H, target)
            assert sp.points().tobytes() == ref[0].tobytes(), n
            assert [f.tight for _, f in sp.entries] == [f.tight for f in ref[1]], n


def test_four_on_edges_cube():
    sp = four_on_edges(cube_mesh())
    assert sp.count == 4
    cert = verify_skeleton(cube_mesh(), sp.points())
    assert cert.passed
    assert np.linalg.norm(sp.points().sum(axis=0)) <= 1e-12


def test_four_on_edges_octahedron_collapses_pairs():
    sp = four_on_edges(octa_mesh(), Plane3((0.0, 0.0, 1.0), 0.0))
    pts = sp.points()
    # section vertices sit on mesh edges, so each pair collapses
    assert np.allclose(pts[0], pts[1]) and np.allclose(pts[2], pts[3])
    assert np.allclose(pts[0], -pts[2])
    assert verify_skeleton(octa_mesh(), pts).passed


def test_four_on_edges_tetra_and_tilted_plane():
    mesh = tetra_mesh()
    sp = four_on_edges(mesh, Plane3((1.0, 1.0, 1.0), 0.0))
    assert verify_skeleton(mesh, sp.points()).passed


def test_four_on_edges_requires_origin_plane():
    with pytest.raises(InputError):
        four_on_edges(cube_mesh(), Plane3((0.0, 0.0, 1.0), 0.5))


def test_pow2_counts_and_balance():
    for H, k in ((cube_hrep(2), 1), (cube_hrep(3), 2), (cube_hrep(4), 2),
                 (SIMPLEX_HULL, 2)):
        sp = pow2_points(H, k)
        assert sp.count == 2 ** k
        cert = verify_skeleton(H, sp.points())
        assert cert.passed, (H.d, k, cert)


def test_pow2_rejects_too_few_points():
    with pytest.raises(InputError):
        pow2_points(cube_hrep(3), 1)  # 2 points cannot span d=3
    with pytest.raises(InputError):
        pow2_points(cube_hrep(2), -1)


def test_pow2_hypercube4_symmetric_witness():
    H = cube_hrep(4)
    witness = [(1, 1, 1, 0), (-1, -1, -1, 0), (1, -1, 0, 1), (-1, 1, 0, -1)]
    cert = verify_skeleton(H, np.array(witness, dtype=float))
    assert cert.passed
    assert cert.max_host_dim <= 1 and cert.sum_residual == 0.0


def test_verify_skeleton_shape_check():
    with pytest.raises(InputError):
        verify_skeleton(cube_hrep(3), np.zeros((2, 2)))


def test_compose_supported_dimensions():
    rng = np.random.default_rng(55)
    cases = [cube_hrep(2), cube_hrep(3), cube_hrep(4),
             product(random_hull_hrep(rng, 3), random_hull_hrep(rng, 3))]
    for H in cases:
        sp = compose_balance(H)
        assert sp.count == H.d
        assert verify_skeleton(H, sp.points()).passed


def test_compose_rejects_unsupported_dimensions():
    rng = np.random.default_rng(56)
    for build in (lambda: product(cube_hrep(4), cube_hrep(5)),  # d = 9
                  lambda: random_hull_hrep(rng, 5),
                  lambda: product(cube_hrep(3), cube_hrep(4))):  # d = 7
        with pytest.raises(UnsupportedDimensionError):
            compose_balance(build())


def _tier1_pow2_and_compose():
    """(solver, polytope, args) of every pow2 and compose run in the
    skeleton and acceptance tests, with the same seeds."""
    for H, k in ((cube_hrep(2), 1), (cube_hrep(3), 2), (cube_hrep(4), 2),
                 (SIMPLEX_HULL, 2)):
        yield pow2_points, H, (k,)
    rng = np.random.default_rng(9000)
    for d in (2, 3, 4):
        for _ in range(50):
            yield pow2_points, random_hull_hrep(rng, d), (int(np.ceil(np.log2(d))),)
    rng = np.random.default_rng(55)
    for H in (cube_hrep(2), cube_hrep(3), cube_hrep(4),
              product(random_hull_hrep(rng, 3), random_hull_hrep(rng, 3))):
        yield compose_balance, H, ()
    rng = np.random.default_rng(10000)
    for _ in range(10):
        yield compose_balance, product(random_hull_hrep(rng, 3),
                                       random_hull_hrep(rng, 3)), ()


def test_charts_pass_the_full_check(monkeypatch):
    """Every chart _place builds without hpolytope's check would pass the
    check as it stood with the cone LP: bounded, with a positive Chebyshev
    radius. The root chart is H itself, which is not built again."""
    charts = []
    real_chart = skeleton_balance.HPolytope

    def chart(A, b):
        charts.append(real_chart(A, b))
        return charts[-1]

    monkeypatch.setattr(skeleton_balance, "HPolytope", chart)
    for solve, H, args in _tier1_pow2_and_compose():
        solve(H, *args)
    assert len(charts) >= 150
    for face in charts:
        assert stiemke_cone_lp(face.A) and face.chebyshev[1] > 0.0


def _tier1_halving():
    """Every polytope the halving tests and criterion 08 walk on, up to the
    7-cube and 7-cross-polytope."""
    yield from (cube_hrep(2), cube_hrep(3), SIMPLEX_HULL, cube_hrep(4))
    for seed, dims, count in ((101, range(2, 6), 1), (32, range(2, 11), 1),
                              (8000, range(2, 7), 20)):
        rng = np.random.default_rng(seed)
        for d in dims:
            for _ in range(count):
                yield random_hull_hrep(rng, d)
    for d in range(2, 8):
        yield from (cube_hrep(d), cross_hrep(d))


def test_faces_match_the_per_face_reference(monkeypatch):
    """Every face decided for the tier-1 pow2, compose and halving inputs,
    by the solvers and by verify_skeleton and verify_halving, has the
    (tight, dim) of the reference that decides one point at a time."""
    seen = []
    real = skeleton_balance.point_faces

    def recorded(H, points, tol):
        seen.append((H, points, tol, real(H, points, tol)))
        return seen[-1][3]

    # the solvers call it by their module's name, verify_skeleton from polytoped
    monkeypatch.setattr(skeleton_balance, "point_faces", recorded)
    monkeypatch.setattr(polytoped, "point_faces", recorded)
    for solve, H, args in _tier1_pow2_and_compose():
        verify_skeleton(H, solve(H, *args).points())
    for H in _tier1_halving():
        verify_halving(H, halving_point(H).x)
    points = 0
    for H, pts, tol, got in seen:
        want = [face_per_point(H, p, tol) for p in pts]
        assert [(f.tight, f.dim) for f in got] == want
        points += len(want)
    assert points >= 1000


def test_prop9_fixture_shapes():
    assert prop9_fixture(4).d == 4 and prop9_fixture(4).m == 6
    assert prop9_fixture(5).d == 5 and prop9_fixture(5).m == 8
    assert prop9_fixture(6).d == 6 and prop9_fixture(6).m == 9


def test_prop9_truth_table():
    for d in (4, 5, 6):
        H = prop9_fixture(d)
        for k in range(d // 2):
            assert prop9_check(H, k), (d, k)
        assert not prop9_check(H, d // 2), d


def test_prop9_hypercube_control_fails_immediately():
    H = cube_hrep(4)
    assert not prop9_check(H, 0)
    assert not prop9_check(H, 1)


def _rotated(H, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(H.d, H.d)))
    return hpolytope(H.A @ Q.T, H.b)


def test_prop9_check_matches_the_all_faces_oracle():
    """Vertices and top-faces only, with an LP only where no row of -H
    separates: the same answer as one LP on every face of dimension <= k."""
    rng = np.random.default_rng(909)
    cases = [build(d) for d in (2, 3, 4, 5)
             for build in (cube_hrep, cross_hrep, simplex_hrep)]
    cases += [prop9_fixture(d) for d in (4, 5, 6, 7)]
    cases += [_rotated(prop9_fixture(d), rng) for d in (4, 5, 6)]
    cases += [random_hull_hrep(rng, d, d + 3 + i % 4)
              for i, d in enumerate((2, 3, 4, 5) * 3)]
    mismatches = [(i, k) for i, H in enumerate(cases) for k in range(H.d + 1)
                  if prop9_check(H, k) != prop9_check_all_faces(H, k)]
    assert mismatches == []


def test_prop9_check_runs_lps_only_on_undecided_faces(monkeypatch):
    calls = []
    real = skeleton_balance.linprog
    monkeypatch.setattr(skeleton_balance, "linprog",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert prop9_check(prop9_fixture(6), 2)
    assert len(calls) == 0
    assert not prop9_check(cube_hrep(6), 1)
    assert len(calls) <= 1


def test_verify_skeleton_rejects_interior_point():
    H = cube_hrep(3)
    pts = np.array([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0)])
    assert not verify_skeleton(H, pts).passed


def test_verify_skeleton_rejects_face_interior_point():
    H = cube_hrep(3)
    # on the boundary but in a 2-face interior: host dim 2
    pts = np.array([(1.0, 0.3, 0.2), (-1.0, -0.3, -0.2)])
    cert = verify_skeleton(H, pts)
    assert cert.max_host_dim == 2 and not cert.passed


def test_skeleton_edges_match_walk_adjacency():
    # lattice-route edges equal shared-(d-1)-tight-rows adjacency when simple
    for H in (cube_hrep(3), simplex_hrep(4)):
        V = enumerate_vertices(H)
        edges = {tuple(members(H, f.tight).tolist()) for f in faces_of_dim(H, 1)}
        d = H.d
        byrows = set()
        for i in range(len(V.vertices)):
            for j in range(i + 1, len(V.vertices)):
                if (V.tight[i] & V.tight[j]).sum() == d - 1:
                    byrows.add((i, j))
        assert edges == byrows
