import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import (cross_hrep, cube_mesh, edge_triple_systems, face_per_point,
                     hull_hrep, near_earlier_all_pairs, octa_mesh, prop9_check_all_faces,
                     random_hull_hrep, repeated_rows, simplex_hrep,
                     stiemke_cone_lp, tetra_mesh, three_on_edges_all_triples,
                     tight_sets)
from poise import polytoped, skeleton_balance
from poise.errors import (InputError, NoLoopContainsOriginError, NotFoundError,
                          OriginOutsideError, UnsupportedDimensionError)
from poise.geom3d import Plane3, cross_section, validate_polyhedron
from poise.polytoped import (RANK_TOL, cube_hrep, edges, enumerate_vertices,
                             dump_hrep_text, enumerate_vertices_bruteforce,
                             hpolytope, load_hrep, product)
from poise.skeleton import four_on_edges, verify_skeleton
from poise.skeleton_balance import (_Chart, _descend, compose_balance,
                                    halving_point, pow2_points, prop9_check,
                                    prop9_fixture, three_on_edges,
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
    hulls = [random_hull_hrep(np.random.default_rng([14, seed]), 3, n)
             for seed, n in enumerate(range(8, 41, 8))]
    for H in hulls + [cube_hrep(3), cross_hrep(3), SIMPLEX_HULL]:
        n = H.m
        for target in (None, 0.6 * H.vrep.vertices[0]):
            ref = three_on_edges_all_triples(H, target)
            if ref is None:
                with pytest.raises(NotFoundError):
                    three_on_edges(H, target)
                continue
            sp = three_on_edges(H, target)
            assert sp.points().tobytes() == ref[0].tobytes(), n
            assert [f.tight for _, f in sp.entries] == [f.tight for f in ref[1]], n


def test_hopeless_singular_triples_yield_nothing():
    """Every singular edge triple that three_on_edges drops unsolved is one
    the per-triple solve rejects: _singular_triple gives None, or a point
    sum more than the 1e-10 * scale gate off the target. It drops every
    singular triple of the random hulls and the cube, and keeps some of the
    octahedron's and a tetrahedron's, among them triples that
    _singular_triple solves."""
    all_dropped = [random_hull_hrep(np.random.default_rng([14, seed]), 3, n)
                   for seed, n in enumerate((8, 16, 24))] + [cube_hrep(3)]
    solved = 0
    for H in all_dropped + [cross_hrep(3), SIMPLEX_HULL]:
        for target in (np.zeros(3), 0.6 * H.vrep.vertices[0]):
            *_, M, rhs, scale, nonsing = edge_triple_systems(H, target)
            M, rhs = M[~nonsing], rhs[~nonsing]
            drop = skeleton_balance._hopeless(M, rhs, scale)
            for Mi, ri in zip(M[drop], rhs[drop]):
                t = skeleton_balance._singular_triple(Mi, ri, scale)
                assert t is None or np.linalg.norm(Mi @ t - ri) > 1e-10 * scale
            assert drop.all() or H not in all_dropped
            solved += sum(skeleton_balance._singular_triple(Mi, ri, scale) is not None
                          for Mi, ri in zip(M[~drop], rhs[~drop]))
    assert solved > 0


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


def test_four_on_edges_origin_outside_the_shifted_cube():
    """The cube moved 5 along x: four_on_edges rejects the origin as
    outside (exit 2). The plane z = 0 misses the cube moved 5 along z,
    the one case cross_section reports as NoLoopContainsOriginError."""
    cube = cube_mesh()
    shifted = validate_polyhedron(cube.vertices + (5.0, 0.0, 0.0), cube.faces)
    with pytest.raises(OriginOutsideError):
        four_on_edges(shifted, Plane3((0.0, 0.0, 1.0), 0.0))
    lifted = validate_polyhedron(cube.vertices + (0.0, 0.0, 5.0), cube.faces)
    with pytest.raises(NoLoopContainsOriginError, match="plane misses the surface"):
        cross_section(lifted, Plane3((0.0, 0.0, 1.0), 0.0))


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


def _two_face_splits(monkeypatch):
    """A list that gains one entry for each _place call that puts three
    points on a 2-face."""
    hits, real = [], skeleton_balance._place

    def place(chart, count, out):
        if count == 3 and len(_descend(chart).basis) == 2:
            hits.append(chart)
        real(chart, count, out)

    monkeypatch.setattr(skeleton_balance, "_place", place)
    return hits


def test_three_points_on_a_2_face(monkeypatch):
    """Three points from the root chart of a 2-polytope pass verify_skeleton
    with no warning: the square, x <= 1, |y| <= 1, -1e-10 x + y <= 1 (2e10
    long), a 2e6 x 2e-3 box (which _descend takes to an edge, so it alone
    does not reach the case), a box with the origin 1e-6 from a side,
    random hulls with their repeated-row copies, and a triangle with a
    zero-normal row, which only a root chart can have."""
    rng = np.random.default_rng(71)
    box = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    cases = [cube_hrep(2),
             hpolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1e-10, 1.0]], [1.0] * 4),
             hpolytope(box, [1e6, 1e6, 1e-3, 1e-3]),
             hpolytope(box, [1.0, 1e-6, 1.0, 1.0]),
             hpolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.0, 0.0]], [1.0] * 4)]
    for _ in range(10):
        H = random_hull_hrep(rng, 2)
        cases += [H, repeated_rows(H, rng)]
    hits = _two_face_splits(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, H in enumerate(cases):
            pts = []
            skeleton_balance._place(skeleton_balance._root_chart(H), 3, pts)
            assert verify_skeleton(H, np.array(pts)).passed, n
    assert len(hits) == len(cases) - 1


def test_compose_reaches_the_2_face_case(monkeypatch):
    """compose on prop9_fixture(3) x 3-cube halves it onto a 2-face that
    carries three points, as it does with the factors swapped, rotated and
    with repeated rows, and twice on the 12-d product of that polytope with
    itself. Every placement passes verify_skeleton."""
    rng = np.random.default_rng(72)
    P = product(prop9_fixture(3), cube_hrep(3))
    cases = [(P, 1), (product(cube_hrep(3), prop9_fixture(3)), 1),
             (_rotated(P, rng), 1), (_rotated(P, rng), 1),
             (repeated_rows(P, rng), 1), (repeated_rows(P, rng), 1),
             (product(P, P), 2)]
    hits = _two_face_splits(monkeypatch)
    for n, (H, reached) in enumerate(cases):
        hits.clear()
        sp = compose_balance(H)
        assert len(hits) == reached, n
        assert verify_skeleton(H, sp.points()).passed, n


def test_skeleton_balance_loads_no_planar_solver():
    """Three points on a 2-face need no polygon, so importing
    skeleton_balance leaves the planar solver unloaded."""
    script = ("import sys, poise.skeleton_balance\n"
              "print('poise.balance2d' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_halving_on_repeated_rows():
    """verify_halving passes on row-repeated copies of random 2- to 6-hulls,
    the 3- and 4-cubes and prop9_fixture(4) and (5)."""
    rng = np.random.default_rng(73)
    bodies = [random_hull_hrep(rng, d) for d in range(2, 7)]
    bodies += [cube_hrep(3), cube_hrep(4), prop9_fixture(4), prop9_fixture(5)]
    for n, H in enumerate(bodies):
        for _ in range(2):
            R = repeated_rows(H, rng)
            assert verify_halving(R, halving_point(R).x).passed, n


def test_three_on_edges_on_repeated_rows():
    """three_on_edges on row-repeated copies of random 3-hulls, about the
    origin and 0.6 times a vertex, passes verify_skeleton."""
    rng = np.random.default_rng(74)
    for n in range(6):
        H = random_hull_hrep(rng, 3)
        R = repeated_rows(H, rng)
        for target in (np.zeros(3), 0.6 * H.vrep.vertices[0]):
            sp = three_on_edges(R, target)
            assert verify_skeleton(R, sp.points(), target).passed, n


def test_prop9_check_on_repeated_rows():
    """prop9_check answers every k on a row-repeated copy as on H itself,
    for prop9_fixture(4) to (8) and random 3- to 5-hulls."""
    rng = np.random.default_rng(75)
    bodies = [prop9_fixture(d) for d in range(4, 9)]
    bodies += [random_hull_hrep(rng, d) for d in (3, 4, 5)]
    for n, H in enumerate(bodies):
        R = repeated_rows(H, rng)
        for k in range(H.d + 1):
            assert prop9_check(R, k) == prop9_check(H, k), (n, k)


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


def test_chart_vertices_match_the_subset_solver(monkeypatch):
    """Every vertex enumeration of the tier-1 pow2 and compose runs (the
    charts of compose's 3-faces; pow2 enumerates none) has the
    subset solver's tight sets. Qhull once returned a point in mid-edge on
    2-face charts whose edge was one line given by two or three rows."""
    seen = []
    real = polytoped.enumerate_vertices
    monkeypatch.setattr(polytoped, "enumerate_vertices",
                        lambda H: seen.append((H, real(H))) or seen[-1][1])
    for solve, H, args in _tier1_pow2_and_compose():
        calls = len(seen)
        solve(H, *args)
        assert solve is compose_balance or len(seen) == calls
    assert len(seen) >= 20
    for H, V in seen:          # the vertex order may differ by rounding
        assert (sorted(tight_sets(V))
                == sorted(tight_sets(enumerate_vertices_bruteforce(H))))


def _unit_rows(A, b):
    """Rows as (unit normal, offset over the largest), as _descend keeps them."""
    nrm = np.linalg.norm(A, axis=1)
    return np.column_stack([A / nrm[:, None], b / nrm / (b / nrm).max(initial=0.0)])


def _near_earlier_checked(monkeypatch):
    """Makes every dedupe of chart rows assert the all-pairs rule's answer;
    returns (rows, rows dropped) per chart."""
    real, seen = skeleton_balance._near_earlier, []

    def both(rows):
        got = real(rows)
        assert np.array_equal(got, near_earlier_all_pairs(rows))
        seen.append((len(rows), int(got.sum())))
        return got

    monkeypatch.setattr(skeleton_balance, "_near_earlier", both)
    return seen


def test_charts_keep_each_halfspace_once(monkeypatch):
    """No two rows of a chart _descend returns in the tier-1 pow2 and compose
    runs lie within RANK_TOL of one another, and each chart drops the rows
    the all-pairs rule drops."""
    charts, seen = [], _near_earlier_checked(monkeypatch)
    real = skeleton_balance._descend
    monkeypatch.setattr(skeleton_balance, "_descend",
                        lambda chart: charts.append(real(chart)) or charts[-1])
    for solve, H, args in _tier1_pow2_and_compose():
        solve(H, *args)
    assert sum(len(c.basis) == 2 for c in charts) >= 100
    for chart in charts:
        rows = _unit_rows(chart.A, chart.b)
        near = (np.abs(rows[:, None] - rows) <= RANK_TOL).all(axis=2)
        assert near.sum() == len(rows)          # each row near itself only
    assert len(seen) >= 100 and any(dropped for _, dropped in seen)


@pytest.mark.parametrize("gap, kept", [(1e-14, 4), (1e-6, 5)])
def test_descend_merges_rows_within_the_tolerance(gap, kept, monkeypatch):
    """The top facet of the 3-cube, with the row x <= 1 given again at
    offset 1 + gap: its chart keeps one row for the two when they are
    1e-14 apart, and both when 1e-6 apart."""
    seen = _near_earlier_checked(monkeypatch)
    H = cube_hrep(3)
    A, b = np.vstack([H.A, H.A[0]]), np.append(H.b, 1.0 + gap)
    top = np.array([0.0, 0.0, 1.0])
    chart = _descend(_Chart(top, np.eye(3), A, b - A @ top))
    assert len(chart.basis) == 2 and len(chart.A) == kept and seen


def test_placements_on_repeated_rows(monkeypatch):
    """pow2 and compose on H-reps whose rows each repeat 1 to 3 times, the
    copies scaled, give placements that pass verify_skeleton: the 4-cube
    at k = 2, compose on the 3-cube, 30 random hulls (d = 2..4) at the
    smallest k, and 6-dimensional products, by compose and at k = 3. Each
    chart drops the rows the all-pairs rule drops."""
    seen = _near_earlier_checked(monkeypatch)
    rng = np.random.default_rng(3030)
    cases = [(pow2_points, repeated_rows(cube_hrep(4), rng), (2,)),
             (compose_balance, repeated_rows(cube_hrep(3), rng), ())]
    for i in range(30):
        d = 2 + i % 3
        cases.append((pow2_points, repeated_rows(random_hull_hrep(rng, d), rng),
                      (int(np.ceil(np.log2(d))),)))
    for _ in range(3):
        H = repeated_rows(product(random_hull_hrep(rng, 3),
                                  random_hull_hrep(rng, 3)), rng)
        cases += [(compose_balance, H, ()), (pow2_points, H, (3,))]
    for solve, H, args in cases:
        sp = solve(H, *args)
        assert verify_skeleton(H, sp.points()).passed, (solve.__name__, H.m)
    assert sum(dropped for _, dropped in seen) >= 100


def test_pow2_and_compose_on_a_hull_of_17959_rows(tmp_path):
    """The 6-d hull of 200 random unit vectors, 17,959 rows: pow2 at k = 3
    and compose solve and pass check, under 200 MB peak. Comparing every
    pair of chart rows at once needed an array of 9.6 GiB here."""
    H = random_hull_hrep(np.random.default_rng(1), 6, 200)
    assert H.m >= 10000
    hrep = tmp_path / "hull.hrep"
    hrep.write_text(dump_hrep_text(H))
    script = (
        "import sys\n"
        "from poise.cli import run\n"
        "hrep, out = sys.argv[1:]\n"
        "for argv in (['pow2', '--k', '3'], ['compose']):\n"
        "    assert run(argv + ['--hrep', hrep, '--json', out]).exit_code == 0, argv\n"
        "    assert run(['check', '--json', out, '--hrep', hrep]).exit_code == 0, argv\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(hrep), str(tmp_path / "out.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200 * 1024     # VmHWM is in KiB


def test_prop9_fixture_shapes():
    assert prop9_fixture(4).d == 4 and prop9_fixture(4).m == 6
    assert prop9_fixture(5).d == 5 and prop9_fixture(5).m == 8
    assert prop9_fixture(6).d == 6 and prop9_fixture(6).m == 9


def test_prop9_truth_table():
    for d in (4, 5, 6, 8, 10):
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


def _translated(H, shift):
    """H - shift: the origin moves to the point `shift` of H's frame."""
    return hpolytope(H.A, H.b - H.A @ np.asarray(shift, dtype=float))


def test_prop9_check_matches_the_all_faces_oracle():
    """H's vertices and edges, then the vertices of H and -H together: the
    same answer as one LP on every face of dimension <= k. The translated cases put the
    origin on a facet, on an edge and outside, of the cube and of the
    fixture, and on a vertex up to rounding."""
    rng = np.random.default_rng(909)
    cases = [build(d) for d in (2, 3, 4, 5)
             for build in (cube_hrep, cross_hrep, simplex_hrep)]
    cases += [prop9_fixture(d) for d in (4, 5, 6, 7)]
    cases += [_rotated(prop9_fixture(d), rng) for d in (4, 5, 6)]
    cases += [random_hull_hrep(rng, d, d + 3 + i % 4)
              for i, d in enumerate((2, 3, 4, 5) * 3)]
    cases += [_translated(cube_hrep(3), s)
              for s in ((1, 0.5, 0), (1, 1, 0.5), (1.5, 0, 0))]
    cases += [_translated(prop9_fixture(4), s)
              for s in ((-0.5, 0, 0, 0), (1, 0, -0.5, 0), (0, 0, 1, 0.5))]
    rot = _rotated(prop9_fixture(5), rng)
    cases.append(_translated(rot, rot.vrep.vertices[3]))
    mismatches = [(i, k) for i, H in enumerate(cases) for k in range(H.d + 1)
                  if prop9_check(H, k) != prop9_check_all_faces(H, k)]
    assert mismatches == []


def test_prop9_check_answers_from_the_edges_of_a_degenerate_hull():
    """tests/data/tiny7.hrep is a 7-hull of 14 points with 196 rows, 80 to
    113 of them tight at each vertex; Qhull (SciPy 1.17) fails on H ∩ -H.
    No vertex of H meets -H and an edge does, which answers every k."""
    H = load_hrep(os.path.join(os.path.dirname(__file__), "data", "tiny7.hrep"))
    assert [prop9_check(H, k) for k in range(4)] == [True, False, False, False]


def test_prop9_check_runs_no_face_lp(monkeypatch):
    """The only LPs are the Chebyshev centres that start Qhull, in polytoped."""
    calls = []
    real = skeleton_balance.linprog
    monkeypatch.setattr(skeleton_balance, "linprog",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert prop9_check(prop9_fixture(6), 2)
    assert not prop9_check(cube_hrep(6), 1)
    assert calls == []


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
    # edges equal shared-(d-1)-tight-rows adjacency when simple
    for H in (cube_hrep(3), simplex_hrep(4)):
        V = enumerate_vertices(H)
        got = {tuple(e.tolist()) for e in edges(H)[1]}
        d = H.d
        byrows = set()
        for i in range(len(V.vertices)):
            for j in range(i + 1, len(V.vertices)):
                if (V.tight[i] & V.tight[j]).sum() == d - 1:
                    byrows.add((i, j))
        assert got == byrows
