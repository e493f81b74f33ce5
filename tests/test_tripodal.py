import numpy as np
import pytest

from helpers import (SIG_MM, SIG_PP, convex_mesh, criterion05_meshes, cube_mesh,
                     extreme_boundary_points, newton_polish_pointwise, newton_rows_dense,
                     octa_mesh, signature, sphere_points, star_mesh, tetra_mesh,
                     tripod_points, tripodal_search_whole_grid)
from poise import tripodal
from poise.errors import BadFrameError, OriginOutsideError, PoiseError
from poise.geom3d import Polyhedron3, frame_field, surface_path, validate_polyhedron
from poise.tripodal import (SWEEP_CHUNK, SWEEP_FIRST_CHUNK, tripodal_by_face_triples,
                            tripodal_search, verify_tripodal)


def test_tripod_points_norms_and_sum():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = rng.normal(size=3)
        v = np.cross(g, rng.normal(size=3))
        v /= np.linalg.norm(v)
        theta = rng.uniform(0, 2 * np.pi)
        b, c = tripod_points(g, v, theta)
        r = np.linalg.norm(g)
        assert np.linalg.norm(b) == pytest.approx(r)
        assert np.linalg.norm(c) == pytest.approx(r)
        assert np.allclose(g + b + c, 0.0, atol=1e-12 * r)


def test_tripod_points_theta_shift_swaps_companions():
    g = np.array([1.0, 0.2, -0.3])
    v = np.cross(g, [0.0, 0.0, 1.0])
    v /= np.linalg.norm(v)
    b0, c0 = tripod_points(g, v, 0.7)
    b1, c1 = tripod_points(g, v, 0.7 + np.pi)
    assert np.allclose(b0, c1) and np.allclose(c0, b1)


def test_tripod_points_frame_checks():
    with pytest.raises(BadFrameError):
        tripod_points((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(BadFrameError):
        tripod_points((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)  # not perp
    with pytest.raises(BadFrameError):
        tripod_points((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), 0.0)  # not unit


def test_signature_folding_on_cube():
    cube = cube_mesh()
    inside = (0.1, 0.2, 0.0)
    outside = (3.0, 0.0, 0.0)
    assert signature(cube, inside, inside) == "++"
    assert signature(cube, outside, outside) == "--"
    assert signature(cube, inside, outside) == "+-"
    assert signature(cube, outside, inside) == "-+"
    boundary = (1.0, 0.0, 0.0)
    assert signature(cube, boundary, boundary) == "00"
    # a boundary touch folds into the strict side of the partner
    assert signature(cube, boundary, inside) == "++"
    assert signature(cube, boundary, outside) == "--"


CUBE_TRIPOD = np.array([(1.0, -1.0, 0.0), (0.0, 1.0, -1.0), (-1.0, 0.0, 1.0)])
OCTA_TRIPOD = 0.5 * np.array([(1.0, -1.0, 0.0), (0.0, 1.0, -1.0),
                              (-1.0, 0.0, 1.0)])


def test_symmetric_witnesses_verify():
    cube = cube_mesh()
    cert = verify_tripodal(cube, CUBE_TRIPOD)
    assert cert.passed
    assert cert.radius == pytest.approx(np.sqrt(2))
    assert cert.sum_residual == 0.0

    octa = octa_mesh()
    assert verify_tripodal(octa, OCTA_TRIPOD).passed


def test_verify_rejects_unbalanced_triple():
    cube = cube_mesh()
    pts = np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    cert = verify_tripodal(cube, pts)
    assert not cert.passed  # equal norms but nonzero sum


def test_search_and_sweep_cross_validate():
    rng = np.random.default_rng(9)
    for poly in (cube_mesh(), octa_mesh(), tetra_mesh(), star_mesh(rng)):
        t1 = tripodal_search(poly, grid=(64, 64))
        assert verify_tripodal(poly, t1.points).passed
        t2 = tripodal_by_face_triples(poly)
        assert verify_tripodal(poly, t2.points).passed


def test_search_boundary_signatures_cube():
    poly = cube_mesh()
    near, far = extreme_boundary_points(poly)
    path = surface_path(poly, near, far)
    frame = frame_field(path)
    for t, expected in ((0.0, SIG_PP), (1.0, SIG_MM)):
        g = path.eval(np.array([t]))[0]
        v = frame.eval(np.array([t]))[0]
        for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            b, c = tripod_points(g, v, theta)
            assert signature(poly, b, c) == expected


def test_origin_outside_raises():
    shifted = cube_mesh()
    v = shifted.vertices + np.array([5.0, 0.0, 0.0])
    poly = validate_polyhedron(v, shifted.faces)
    with pytest.raises(OriginOutsideError):
        tripodal_search(poly)


def test_origin_on_boundary_degenerates_to_zero_radius():
    base = cube_mesh()
    v = base.vertices + np.array([1.0, 0.0, 0.0])  # origin at a face center
    poly = validate_polyhedron(v, base.faces)
    tri = tripodal_search(poly)
    assert tri.radius == 0.0
    assert np.allclose(tri.points, 0.0)
    assert verify_tripodal(poly, tri.points).passed


def _hull0():
    """The first convex hull of the acceptance suite's tripodal fixtures."""
    rng = np.random.default_rng(500)
    n = int(rng.integers(8, 29, size=19)[0])
    return convex_mesh(sphere_points(rng, n))


SWEEP_MESHES = {"cube": cube_mesh, "octa": octa_mesh, "simplex": tetra_mesh,
                "hull0": _hull0}


@pytest.mark.parametrize("name", list(SWEEP_MESHES))
def test_sweep_chunks_match_the_dense_reference(name, monkeypatch):
    """Every chunk the sweep solves gives, bit for bit, the triple the dense
    Newton pass gives, and the chunks grow 16, 32, ... up to SWEEP_CHUNK."""
    poly = SWEEP_MESHES[name]()
    solve, sizes = tripodal._sweep_chunk, []

    def both(*args):
        sizes.append(len(args[1]))
        live = solve(*args)
        with monkeypatch.context() as m:
            m.setattr(tripodal, "_newton_rows", newton_rows_dense)
            dense = solve(*args)
        assert (live is None) == (dense is None)
        if live is not None:
            assert live.points.tobytes() == dense.points.tobytes()
            assert live.faces == dense.faces
        return live

    monkeypatch.setattr(tripodal, "_sweep_chunk", both)
    tri = tripodal_by_face_triples(poly)
    assert verify_tripodal(poly, tri.points).passed
    full = [min(SWEEP_FIRST_CHUNK << c, SWEEP_CHUNK) for c in range(len(sizes))]
    assert sizes[:-1] == full[:-1] and 1 <= sizes[-1] <= full[-1]
    if name == "hull0":
        assert sizes == [16, 32, 64, 128]


def test_search_locates_the_origin_once(monkeypatch):
    """One closest-point query and one parity query of the origin per search."""
    calls = {"closest_points": 0, "contains": 0}
    for meth in calls:
        orig = getattr(Polyhedron3, meth)

        def counted(self, points, *args, _orig=orig, _meth=meth):
            if np.array_equal(np.atleast_2d(np.asarray(points, float)), np.zeros((1, 3))):
                calls[_meth] += 1
            return _orig(self, points, *args)

        monkeypatch.setattr(Polyhedron3, meth, counted)
    tri = tripodal_search(cube_mesh(), grid=(16, 16))
    assert tri.t is not None  # the grid search answered, not the sweep
    assert calls == {"closest_points": 1, "contains": 1}


@pytest.mark.parametrize("sub", [0, 1, 2])
def test_grid_signs_are_the_signs_of_the_values(sub, monkeypatch):
    """Every sign grid the search reads equals np.sign of the signed
    distances, bit for bit."""
    poly = star_mesh(np.random.default_rng(30 + sub), sub)
    real, sizes = tripodal._CompanionField.signs, []

    def both(self, ts, thetas):
        got = real(self, ts, thetas)
        for g, v in zip(got, self.values(ts, thetas)):
            assert g.tobytes() == np.sign(v).tobytes()
        sizes.append(np.size(ts))
        return got

    monkeypatch.setattr(tripodal._CompanionField, "signs", both)
    tri = tripodal_search(poly, grid=(32, 32))
    assert verify_tripodal(poly, tri.points).passed
    assert sizes[0] == (tripodal.ROW_FIRST_BLOCK + 1) * 33


def test_grid_scan_computes_few_exact_distances(monkeypatch):
    """The first sign query holds the first block of node rows, and at most
    1 % of the nodes scanned reach signed_distances through the sign scans."""
    poly = star_mesh(np.random.default_rng(9), 2)
    real_signs, real_sd = Polyhedron3.side_signs, Polyhedron3.signed_distances
    exact, scanning, asked = [], [], []

    def signs(self, points, eps=None):
        asked.append(len(points))
        scanning.append(True)
        try:
            return real_signs(self, points, eps)
        finally:
            scanning.pop()

    def sd(self, points, eps=None):
        if scanning:
            exact.append(len(points))
        return real_sd(self, points, eps)

    monkeypatch.setattr(Polyhedron3, "side_signs", signs)
    monkeypatch.setattr(Polyhedron3, "signed_distances", sd)
    tri = tripodal_search(poly, grid=(64, 64))
    assert verify_tripodal(poly, tri.points).passed
    assert asked[0] == 2 * (tripodal.ROW_FIRST_BLOCK + 1) * 65
    assert sum(exact) <= 0.01 * sum(asked) / 2


def _polish_meshes():
    return [m for _, m in criterion05_meshes()] + [
        star_mesh(np.random.default_rng(40 + sub), sub) for sub in range(3)]


def test_newton_polish_matches_the_pointwise_oracle(monkeypatch):
    """Every polish of a search gives the (t, theta, g) bytes of the
    one-point-per-query Newton iteration."""
    real, calls = tripodal._newton_polish, []

    def both(field, t0, th0, tol, iters=30):
        got = real(field, t0, th0, tol, iters)
        want = newton_polish_pointwise(field, t0, th0, tol, iters)
        for g, w in zip(got, want):
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (t0, th0)
        calls.append(got)
        return got

    monkeypatch.setattr(tripodal, "_newton_polish", both)
    for poly in _polish_meshes():
        assert verify_tripodal(poly, tripodal_search(poly, grid=(64, 64)).points).passed
    assert len(calls) >= 40
    assert any(np.abs(g).max() > 1e-9 for _, _, g in calls)   # some polish stalled


def _search_outcome(search, poly, grid):
    try:
        tri = search(poly, grid=(grid, grid))
    except PoiseError as exc:
        return type(exc), str(exc)
    t = None if tri.t is None else np.float64(tri.t).tobytes()
    theta = None if tri.theta is None else np.float64(tri.theta).tobytes()
    return tri.points.tobytes(), tri.faces, t, theta


def test_row_blocks_match_the_whole_grid_scan(monkeypatch):
    """The row-block scan returns the whole-grid scan's triple, bit for bit,
    at the real block sizes and at blocks of 1, 2, 4, ... rows, so that the
    winners sit past block edges."""
    meshes = [m for _, m in criterion05_meshes()] + [star_mesh(np.random.default_rng(44), 3)]
    rows = []
    for poly in meshes:
        for grid in (16, 64):
            want = _search_outcome(tripodal_search_whole_grid, poly, grid)
            for first in (tripodal.ROW_FIRST_BLOCK, 1):
                monkeypatch.setattr(tripodal, "ROW_FIRST_BLOCK", first)
                assert _search_outcome(tripodal_search, poly, grid) == want, (poly, grid)
            monkeypatch.undo()
            if want[2] is not None:
                rows.append(int(np.frombuffer(want[2])[0] * grid))
    assert max(rows) >= tripodal.ROW_FIRST_BLOCK
