import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (all_segment_hits, closest_points_all_pairs, convex_mesh,
                     criterion05_meshes, cross_section_per_face, cube_mesh, dump_off,
                     extreme_boundary_points, l_prism_mesh, octa_mesh, parse_off_reference,
                     needle_mesh, ray_hits_all_pairs, signed_distance, star_mesh,
                     tetra_mesh, validate_polyhedron_reference)
from poise import geom3d, skeleton, tripodal
from poise.errors import (DegenerateSectionError, InputError,
                          NoLoopContainsOriginError, NonPlanarFaceError,
                          OpenSurfaceError, ParseError)
from poise.geom3d import (Plane3, cross_section, frame_field, parse_off, surface_path,
                          validate_polyhedron)


def test_validate_rejects_open_surface():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(OpenSurfaceError):
        validate_polyhedron(v, [[0, 2, 1], [0, 1, 3], [1, 2, 3]])


@pytest.mark.parametrize("make", [cube_mesh, lambda: star_mesh(np.random.default_rng(5))],
                         ids=["cube", "star"])
def test_inward_mesh_is_built_once(monkeypatch, make):
    """parse_off of an inward-oriented mesh decides its orientation from the
    triangulation's signed volume and builds one Polyhedron3: the faces and
    triangles of the same mesh read outward."""
    outward = make()
    inward = dump_off(SimpleNamespace(vertices=outward.vertices,
                                      faces=[f[::-1] for f in outward.faces]))
    builds = []
    real = geom3d.Polyhedron3
    monkeypatch.setattr(geom3d, "Polyhedron3",
                        lambda *args: builds.append(1) or real(*args))
    poly = geom3d.parse_off(inward)
    assert len(builds) == 1
    assert poly.faces == outward.faces
    assert poly.tris.tobytes() == outward.tris.tobytes()
    assert poly.tri_face.tobytes() == outward.tri_face.tobytes()


def test_validate_rejects_nonplanar_face():
    v = [[0, 0, 0], [1, 0, 0], [1, 1, 0.3], [0, 1, 0], [0.5, 0.5, -2]]
    faces = [[0, 1, 2, 3], [1, 0, 4], [2, 1, 4], [3, 2, 4], [0, 3, 4]]
    with pytest.raises(NonPlanarFaceError):
        validate_polyhedron(v, faces)


def test_off_round_trip():
    poly = cube_mesh()
    again = parse_off(dump_off(poly))
    assert np.array_equal(again.vertices, poly.vertices)
    assert again.faces == poly.faces
    with pytest.raises(ParseError):
        parse_off("OFF\n3 1 0\n0 0 0\n")
    with pytest.raises(ParseError):
        parse_off("not an off file")


def test_side_signs_and_signed_distance():
    cube = cube_mesh()
    pts = [(0, 0, 0), (2, 0, 0), (1, 0, 0), (1 + 1e-12, 0, 0)]
    assert cube.side_signs(pts).tolist() == [-1.0, 1.0, 0.0, 0.0]
    assert signed_distance(cube, (0, 0, 0)) == pytest.approx(-1.0)
    assert signed_distance(cube, (2, 0, 0)) == pytest.approx(1.0)
    assert abs(signed_distance(cube, (1, 0, 0))) <= 1e-12


def test_extreme_boundary_points_cube():
    cube = cube_mesh()
    x0, tri0, far = extreme_boundary_points(cube)
    assert np.linalg.norm(x0) == pytest.approx(1.0)
    assert cube.closest_points([x0])[0][0] <= 1e-12
    a, b, c = cube.vertices[cube.tris[tri0]]
    assert abs(np.linalg.det(np.stack([b - a, c - a, x0 - a]))) <= 1e-12
    assert np.linalg.norm(cube.vertices[far]) == pytest.approx(np.sqrt(3))
    assert far == 0     # all eight corners tie: the smallest id


def test_surface_path_runs_near_to_far_on_surface():
    rng = np.random.default_rng(2)
    for poly in (cube_mesh(), octa_mesh(), star_mesh(rng)):
        x0, tri0, far = extreme_boundary_points(poly)
        path = surface_path(poly, x0, tri0, far)
        ts = np.linspace(0, 1, 40)
        pts = path.eval(ts)
        assert np.array_equal(path.points[0], x0)
        assert np.array_equal(path.points[-1], poly.vertices[far])
        sd = np.array([abs(signed_distance(poly, p)) for p in pts])
        assert sd.max() <= 1e-7 * poly.diam


def test_frame_field_unit_and_perpendicular():
    poly = cube_mesh()
    path = surface_path(poly, *extreme_boundary_points(poly))
    frame = frame_field(path)
    ts = np.linspace(0, 1, 25)
    g = path.eval(ts)
    v = frame.eval(ts)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-9)
    dots = np.abs((g * v).sum(axis=1)) / np.linalg.norm(g, axis=1)
    assert dots.max() <= 1e-9


def test_cross_section_cube_through_origin():
    """The quad-faced cube cut by z = 0: each side face's two triangles give
    a chord, in the plane, and the eight chords join end to end, sharing
    each end bit for bit, into the square of side 2."""
    cube = cube_mesh()
    frame, chords, fids = cross_section(cube, Plane3((0, 0, 1), 0.0))
    assert chords.shape == (8, 2, 3) and fids.shape == (8,)
    assert np.array_equal(np.bincount(fids, minlength=6) == 2,
                          [abs(cube.face_frame(f)[1][2]) < 0.5 for f in range(6)])
    assert np.allclose(chords[..., 2], 0.0, atol=1e-12)
    assert np.allclose(frame.to3d(frame.to2d(chords)), chords, atol=1e-12)
    assert np.linalg.norm(chords[:, 1] - chords[:, 0], axis=1).sum() == pytest.approx(8.0)
    _, count = np.unique(chords.reshape(-1, 3), axis=0, return_counts=True)
    assert len(count) == 8 and (count == 2).all()


def test_cross_section_of_planes_that_touch_the_cube():
    """The plane z = 1 holds the top face, which gives no chord; the side
    faces give its four edges. The plane through the corner (1, 1, 1) alone
    gives no chord at all."""
    cube = cube_mesh()
    _, chords, fids = cross_section(cube, Plane3((0, 0, 1), 1.0))
    assert (chords[..., 2] == 1.0).all()
    assert len({frozenset(map(tuple, c)) for c in chords.tolist()}) == 4
    assert all(abs(cube.face_frame(f)[1][2]) < 0.5 for f in fids)
    with pytest.raises(DegenerateSectionError, match="only at vertices"):
        cross_section(cube, Plane3((1, 1, 1), 3 ** 0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("normal,unit", [
    ((1e308, 1e308, 1e308), (3 ** -0.5,) * 3),
    ((1e200, 1e200, 1e200), (3 ** -0.5,) * 3),
    ((0.0, 0.0, 1e-200), (0.0, 0.0, 1.0)),
    ((0.0, 0.0, 5e-324), (0.0, 0.0, 1.0)),
    ((0.0, -3.0, 4.0), (0.0, -0.6, 0.8)),
])
def test_unit_normal_neither_overflows_nor_underflows(normal, unit):
    """A normal's length once overflowed to inf above about 1e154 and fell
    below the zero test under about 1e-300."""
    assert np.allclose(Plane3(normal).unit_normal(), unit, rtol=1e-15, atol=0.0)


def test_only_the_zero_normal_is_rejected():
    with pytest.raises(InputError, match="zero plane normal"):
        Plane3((0.0, -0.0, 0.0)).unit_normal()


# --- culled queries against the all-pairs oracle ---------------------------------

def _rotated_cube_parallel_to_first_ray():
    """A cube with four faces parallel to _RAY_DIRS[0], so parity meets
    ray-parallel triangles."""
    d = geom3d._RAY_DIRS[0]
    frame = np.stack((d,) + geom3d._plane_basis(d))
    cube = cube_mesh()
    return validate_polyhedron(cube.vertices @ frame, cube.faces)


def _query_points(rng, poly):
    """Uniform, near-surface, vertex, edge and far points, and points just
    past the topmost vertex along a ray, whose crossings there are loose."""
    lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    tri = rng.integers(0, len(poly.tris), 160)
    bary = rng.dirichlet(np.ones(3), size=160)
    on = np.einsum("mk,mkj->mj", bary, poly.vertices[poly.tris[tri]])
    nrm = poly._tn[tri] / np.linalg.norm(poly._tn[tri], axis=1, keepdims=True)
    offs = rng.choice([-1e-6, -1e-9, 0.0, 1e-12, 1e-9, 1e-6], 160) * poly.diam
    a, b = poly.vertices[poly.tris[tri, 0]], poly.vertices[poly.tris[tri, 1]]
    t = rng.choice([0.0, 0.5, 1.0, rng.uniform()], 60)[:, None]
    far = rng.normal(size=(40, 3))
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    dirs = geom3d._RAY_DIRS[:2]
    top = poly.vertices[np.argmax(poly.vertices @ dirs.T, axis=0)]
    past = top[:, None] + (np.array([0.1, 0.5, 0.9])[:, None] * 1e-9
                           * poly.diam * dirs[:, None])
    return np.concatenate([
        rng.uniform(lo, hi, size=(200, 3)),
        on + offs[:, None] * nrm,
        poly.vertices[rng.integers(0, len(poly.vertices), 40)],
        a[:60] + t * (b[:60] - a[:60]),
        far[:20] * 1e6, far[20:] * 1e150, past.reshape(-1, 3)])


def _meshes():
    rng = np.random.default_rng(11)
    base = [star_mesh(rng, sub) for sub in range(5)]      # 8 to 2048 triangles
    base += [cube_mesh(), tetra_mesh(), convex_mesh(cube_mesh().vertices)]
    scaled = [validate_polyhedron(p.vertices * s, p.faces)
              for p in base[1:2] + base[5:] for s in (1e-8, 1e8)]
    return base + scaled + [_rotated_cube_parallel_to_first_ray()]


def _section_planes(rng, poly):
    """Axis and random planes through the origin, planes through the origin
    and a mesh vertex or a mesh edge, and off-origin planes through an edge."""
    V = poly.vertices
    edges = poly.edges[rng.choice(len(poly.edges), 3, replace=False)]
    normals = [(0, 0, 1), (1, -1, 0), (1, 1, 1)] + rng.normal(size=(2, 3)).tolist()
    normals += [np.cross(V[a], V[b]) for a, b in edges]
    normals += [np.cross(V[i], rng.normal(size=3)) for i in rng.choice(len(V), 3)]
    planes = [Plane3(tuple(n), 0.0) for n in normals]
    for a, b in edges:
        n = np.cross(V[b] - V[a], rng.normal(size=3))
        n /= np.linalg.norm(n)
        planes.append(Plane3(tuple(n), float(n @ V[a])))
    return planes


def _face_runs(chords, fids, plane, poly, tol):
    """Per face id, the union of its chords as (start, end) points along the
    line where the face meets the plane; chords within tol join."""
    runs = {}
    for fid in sorted(set(fids)):
        line = np.cross(plane.unit_normal(), poly.face_frame(fid)[1])
        segs = sorted((tuple(sorted((p, q), key=lambda x: float(x @ line)))
                       for (p, q), f in zip(chords, fids) if f == fid),
                      key=lambda s: float(s[0] @ line))
        out = [list(segs[0])]
        for p, q in segs[1:]:
            if p @ line > out[-1][1] @ line + tol:
                out.append([p, q])
            elif q @ line > out[-1][1] @ line:
                out[-1][1] = q
        runs[fid] = out
    return runs


def test_cross_section_matches_the_per_face_section():
    """Per face, the union of the chords is the per-face routine's, which
    matches points by coordinates with tol = eps_geom: the same runs, with
    ends within 1e-15 diam, on planes through mesh vertices and edges,
    whose in-plane edges give duplicate chords, and on the L-prism, whose
    face 4 lies in the plane z = 0. Each chord end lies on its face and is
    the end of another chord too, bit for bit."""
    rng = np.random.default_rng(4)
    cases = [(poly, plane) for poly in _meshes() for plane in _section_planes(rng, poly)]
    cases.append((l_prism_mesh(), Plane3((0, 0, 1), 0.0)))
    sections, dup = 0, []
    for poly, plane in cases:
        want = cross_section_per_face(poly, plane, poly.eps_geom())
        if not want:
            with pytest.raises((DegenerateSectionError, NoLoopContainsOriginError)):
                cross_section(poly, plane)
            continue
        sections += 1
        frame, chords, fids = cross_section(poly, plane)
        assert np.array_equal(frame.origin, plane.unit_normal() * plane.offset)
        tol = poly.eps_geom()
        got = _face_runs(chords, fids.tolist(), plane, poly, tol)
        exp = _face_runs([(p, q) for p, q, _ in want], [f for _, _, f in want],
                         plane, poly, tol)
        assert got.keys() == exp.keys(), (poly, plane)
        for fid, runs in got.items():
            assert len(runs) == len(exp[fid]), (poly, plane, fid)
            err = np.abs(np.array(runs) - np.array(exp[fid])).max()
            assert err <= 1e-15 * poly.diam, (poly, plane, fid, err)
        for ends, f in zip(chords, fids):
            ff, normal, _ = poly.face_frame(f)
            assert np.abs((ends - ff.origin) @ normal).max() <= 1e-15 * poly.diam
        _, count = np.unique(chords.reshape(-1, 3), axis=0, return_counts=True)
        assert (count >= 2).all(), (poly, plane)     # ends shared bit for bit
        dup.append(len(chords) - len({frozenset((p.tobytes(), q.tobytes()))
                                      for p, q in chords}))
    assert sections >= 100
    assert max(dup) > 0      # some section had duplicate chords


def _companion_field(poly):
    """The companion field of tripodal_search's path on poly."""
    tri0, x0 = tripodal._locate_origin(poly)
    far = int(np.argmax(np.linalg.norm(poly.vertices, axis=1)))
    path = surface_path(poly, x0, tri0, far)
    return tripodal._CompanionField(poly, path, frame_field(path))


def _companion_grid(poly, n=64):
    """The 2 (n + 1)^2 companion points of a whole n x n tripodal scan."""
    ts, ths = np.meshgrid(np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, np.pi, n + 1),
                          indexing="ij")
    return np.concatenate([x.reshape(-1, 3) for x in _companion_field(poly).companions(ts, ths)])


def _past_one_block(pts, poly):
    """pts, tiled as often as it takes to fill more than one query block."""
    return np.tile(pts, (geom3d._PAIR_BUDGET // (len(pts) * len(poly.tris)) + 1, 1))


def _assert_rays_match(poly, pts, k, why):
    """_ray_hits(pts, k) gives the oracle's answers: on every row, or on
    2^20 pairs' worth of rows drawn at random, as each row's answer is its
    own."""
    got = poly._ray_hits(pts, k)
    n = min(len(pts), (1 << 20) // len(poly.tris))
    rows = np.sort(np.random.default_rng(k).choice(len(pts), n, replace=False))
    with np.errstate(over="ignore", invalid="ignore"):
        want = ray_hits_all_pairs(poly, pts[rows], geom3d._RAY_DIRS[k])
    assert np.array_equal(got[0][rows], want[0]), (poly, why, k)
    assert np.array_equal(got[1][rows], want[1]), (poly, why, k)
    return want


def test_culled_queries_match_all_pairs_oracle(monkeypatch):
    """Bitwise equal answers, at the default block size and at blocks of
    2^6 pairs (one to sixteen points), where a block can hold only the
    points just past a vertex and so tests every slack on its own; and on
    queries of 1, 2, 8 and 20 points, one block at the default size, drawn
    from near-surface, vertex, edge, far, NaN and inf points.

    Parity queries of more than one block take their pairs from a bucket
    grid: at the default size, along three directions, a 64 x 64 companion
    scan builds it and runs on it alone, and the query points, tiled past
    one block, run on it but for their far rows, which scan blocks."""
    rng, qrng = np.random.default_rng(5), np.random.default_rng(7)
    saw_para = False
    for poly in _meshes():
        pts = _query_points(rng, poly)
        comp, tiled = (_past_one_block(x, poly) for x in (_companion_grid(poly), pts))
        blocks, real = [], geom3d._morton_blocks
        monkeypatch.setattr(geom3d, "_morton_blocks",
                            lambda p, n: blocks.append(len(p)) or real(p, n))
        for k in (0, 1, 2):
            assert k not in poly._grids
            _assert_rays_match(poly, comp, k, "companions")
            grid = poly._grids[k]
            _assert_rays_match(poly, tiled, k, "tiled")
            assert poly._grids[k] is grid
        far = (np.abs(tiled).max(axis=1) > 3.0 * np.abs(poly.vertices).max()).sum()
        assert far > 0 and blocks == [0, far] * 3, (poly, blocks)
        monkeypatch.undo()
        # the all-pairs formulas overflow at 1e150 on the 1e8 meshes
        with np.errstate(over="ignore", invalid="ignore"):
            want = closest_points_all_pairs(poly, pts)
        rays = [ray_hits_all_pairs(poly, pts, geom3d._RAY_DIRS[k]) for k in (0, 1)]
        for budget in (geom3d._PAIR_BUDGET, 1 << 6):
            monkeypatch.setattr(geom3d, "_PAIR_BUDGET", budget)
            with np.errstate(over="ignore", invalid="ignore"):
                got = poly.closest_points(pts)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (poly, budget)
            for k in (0, 1):
                got = poly._ray_hits(pts, k)
                assert np.array_equal(got[0], rays[k][0]), (poly, budget, k)
                assert np.array_equal(got[1], rays[k][1]), (poly, budget, k)
            monkeypatch.undo()
        saw_para |= bool(poly._ray_data(0)[2].any())

        pool = _shell_points(qrng, poly)
        queries = [pool[[i]] for i in np.flatnonzero(~np.isfinite(pool).all(axis=1))]
        for n in (1, 2, 8, 20):
            assert len(geom3d._morton_blocks(pool[:n], len(poly.tris))) == 1
            queries += [pool[qrng.choice(len(pool), n, replace=False)] for _ in range(8)]
        for q in queries:
            with np.errstate(over="ignore", invalid="ignore"):
                for g, w in zip(poly.closest_points(q), closest_points_all_pairs(poly, q)):
                    assert np.array_equal(g, w, equal_nan=True), (poly, q)
                for k in (0, 1):
                    got = poly._ray_hits(q, k)
                    want = ray_hits_all_pairs(poly, q, geom3d._RAY_DIRS[k])
                    assert np.array_equal(got[0], want[0]), (poly, q, k)
                    assert np.array_equal(got[1], want[1]), (poly, q, k)
    assert saw_para


def _shell_points(rng, poly):
    """_query_points plus points on the eps shell's edge (eps = 1e-9 diam)
    and rows holding NaN or inf."""
    tri = rng.integers(0, len(poly.tris), 40)
    bary = rng.dirichlet(np.ones(3), size=40)
    on = np.einsum("mk,mkj->mj", bary, poly.vertices[poly.tris[tri]])
    nrm = poly._tn[tri] / np.linalg.norm(poly._tn[tri], axis=1, keepdims=True)
    offs = rng.choice([-1.0 - 1e-6, -1.0, 1.0, 1.0 + 1e-6], 40) * 1e-9 * poly.diam
    bad = np.array([[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0],
                    [np.inf, -np.inf, np.nan]])
    return np.concatenate([_query_points(rng, poly), on + offs[:, None] * nrm,
                           bad * poly.diam])


def test_sliver_pairs_run_in_chunks():
    """Every point pairs with a sliver of unbounded growth: 45,000 points
    near the needle give more than one chunk of pairs, with the oracle's
    answers along three directions, among them points whose ray meets the
    needle's long edge, a loose crossing of the slivers on it."""
    rng = np.random.default_rng(8)
    for _ in range(2):
        poly, pts = needle_mesh(rng)
        a, b = poly.vertices[:2]
        on_edge = a + rng.uniform(0.1, 0.9, (100, 1)) * (b - a)
        for k in (0, 1, 2):
            back = rng.uniform(0.1, 1.0, (100, 1)) * geom3d._RAY_DIRS[k]
            q = np.tile(np.concatenate([pts, on_edge - back]), (150, 1))
            assert _assert_rays_match(poly, q, k, "needle")[1].sum() >= 150
            assert len(q) * len(poly._grids[k][4]) > geom3d._PAIR_BUDGET


def test_one_block_queries_build_no_grid(monkeypatch):
    """four_on_edges' origin query and Newton's queries of 1 to 9 points
    scan one block and build no grid; a 64 x 64 scan builds one grid per
    direction it casts along, once."""
    poly = star_mesh(np.random.default_rng(1), 3)
    skeleton.four_on_edges(poly)
    tripodal._newton_polish(_companion_field(poly), 0.3, 1.0, 1e-9 * poly.diam)
    assert poly._grids == {}

    builds = []
    ray_grid = geom3d.Polyhedron3._ray_grid

    def counting(self, k):
        if k not in self._grids:
            builds.append(k)
        return ray_grid(self, k)

    monkeypatch.setattr(geom3d.Polyhedron3, "_ray_grid", counting)
    tripodal.tripodal_search(poly, (64, 64))
    assert builds and sorted(builds) == sorted(set(builds)) == sorted(poly._grids)


def test_tripodal_is_the_same_on_both_ray_paths(monkeypatch):
    """A 64 x 64 tripodal search gives the same points, t and theta when
    every query is one block, so no grid is built, as at the default block
    size, where the grid answers its larger parity queries."""
    here = os.path.dirname(os.path.abspath(__file__))
    meshes = [parse_off(open(os.path.join(here, "data", "surface_seed4_mesh5.off")).read())]
    meshes += _meshes()[2:5]
    for poly in meshes:
        out = []
        for budget in (1 << 40, geom3d._PAIR_BUDGET):
            monkeypatch.setattr(geom3d, "_PAIR_BUDGET", budget)
            fresh = validate_polyhedron(poly.vertices, poly.faces)
            res = tripodal.tripodal_search(fresh, (64, 64))
            out.append((res.points.tobytes(), res.t, res.theta, bool(fresh._grids)))
            monkeypatch.undo()
        assert out[0][:3] == out[1][:3], poly
        assert (out[0][3], out[1][3]) == (False, True), poly


def test_side_signs_are_the_signs_of_signed_distances(monkeypatch):
    """np.sign(signed_distances) bit for bit, on, within 1e-12 diam of and
    well off the surface and in non-finite rows, at both block sizes; and
    near sliver triangles."""
    rng = np.random.default_rng(6)
    cases = [(poly, _shell_points(rng, poly)) for poly in _meshes()]
    cases += [needle_mesh(rng) for _ in range(4)]
    for poly, pts in cases:
        for budget in (geom3d._PAIR_BUDGET, 1 << 6):
            monkeypatch.setattr(geom3d, "_PAIR_BUDGET", budget)
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.sign(poly.signed_distances(pts))
                got = poly.side_signs(pts)
            assert got.tobytes() == want.tobytes(), (poly, budget)
            assert (want == 0).any() and (want == 1).any()
            monkeypatch.undo()


def test_batched_queries_stay_small(tmp_path):
    """65,536 points against 512 triangles, whose parity queries run on the
    bucket grid, and 65,600 against the four slivers of a needle, which
    pair with every point: the all-pairs scan peaked at 1.3 GB; the culled
    queries must stay under 300 MB.

    The child reports VmHWM, not ru_maxrss: Linux carries ru_maxrss over
    from the forking process, which here is the pytest process.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import numpy as np\n"
        "from helpers import needle_mesh, star_mesh\n"
        "poly = star_mesh(np.random.default_rng(1), 3)\n"
        "rng = np.random.default_rng(2)\n"
        "cp = poly.closest_points(rng.uniform(-1, 1, size=(4096, 3)))[2]\n"
        "pts = np.repeat(cp, 16, axis=0) + rng.normal(size=(65536, 3)) * 0.02\n"
        "assert len(poly.tris) == 512\n"
        "poly.closest_points(pts)\n"
        "poly.contains(pts)\n"
        "assert poly._grids\n"
        "needle, q = needle_mesh(rng)\n"
        "needle._ray_hits(np.repeat(q, 328, axis=0), 0)\n"
        "assert len(needle._grids[0][4]) >= 3\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [here, os.path.join(os.path.dirname(here), "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 300 * 1024     # VmHWM is in KiB


def test_four_on_edges_takes_the_least_scalar_hit(monkeypatch):
    """The two section points four_on_edges takes are those of the least
    (i, t, j, u) hit of a scalar _segment_hits scan over every chord i and
    reflected chord j, on the meshes and origin planes above and on the
    octahedron: on it and on the cube, both centrally symmetric, every
    chord is collinear with a reflected one."""
    taken, real = [], skeleton._face_pair

    def recording(P, fid, center3):
        taken.append((fid, center3))
        return real(P, fid, center3)

    monkeypatch.setattr(skeleton, "_face_pair", recording)
    rng = np.random.default_rng(4)
    solved = 0
    for poly in _meshes() + [octa_mesh()]:
        for plane in _section_planes(rng, poly):
            if plane.offset != 0.0:
                continue
            frame, chords, fids = cross_section(poly, plane)
            a, b = np.moveaxis(frame.to2d(chords), 1, 0)
            i, t, j, u = all_segment_hits(a, b, -a, -b, poly.eps_geom())[0]
            taken.clear()
            sp = skeleton.four_on_edges(poly, plane)
            assert [f for f, _ in taken] == [fids[i], fids[j]], (poly, plane)
            for (_, got), (c, s) in zip(taken, ((i, t), (j, u))):
                assert np.array_equal(got, chords[c, 0] + s * (chords[c, 1] - chords[c, 0]))
            assert skeleton.verify_skeleton(poly, sp.points()).passed, (poly, plane)
            solved += 1
    assert solved >= 100


# --- per-face frames and edges owned by the mesh ---------------------------------

def _star():
    return star_mesh(np.random.default_rng(12), subdiv=1)


@pytest.mark.parametrize("make", [cube_mesh, _star], ids=["cube", "star"])
def test_one_solve_frames_each_face_at_most_once(make, monkeypatch):
    from poise.skeleton import four_on_edges
    from poise.tripodal import tripodal_by_face_triples
    framed = []
    real = geom3d._face_frame

    def counting(verts, f, diam):
        framed.append(tuple(f))
        return real(verts, f, diam)

    monkeypatch.setattr(geom3d, "_face_frame", counting)
    for solve in (four_on_edges, tripodal_by_face_triples):
        mesh = make()
        framed.clear()    # quad faces are framed once at load, to triangulate
        solve(mesh)
        assert framed and len(set(framed)) == len(framed), solve.__name__


@pytest.mark.parametrize("make", [cube_mesh, tetra_mesh, _star],
                         ids=["cube", "tetra", "star"])
def test_edges_are_the_face_loop_edges(make):
    mesh = make()
    want = {frozenset(e) for f in mesh.faces for e in zip(f, f[1:] + f[:1])}
    got = mesh.edges
    assert {frozenset(e) for e in got.tolist()} == want
    assert len(got) == len(want) and (got[:, 0] < got[:, 1]).all()
    assert got.tolist() == sorted(got.tolist())
    assert len(mesh.vertices) - len(got) + len(mesh.faces) == 2   # Euler, genus 0
    assert not got.flags.writeable


# --- the array loader against the token-by-token oracle --------------------------

def _l_prism():
    """(vertices, faces) of an L-shaped prism: its top and bottom are
    non-convex hexagons, which only ear clipping splits, its sides quads."""
    ell = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    v = [(x - 0.5, y - 0.5, z) for z in (-0.5, 0.5) for x, y in ell]
    n = len(ell)
    faces = [list(range(n))[::-1], list(range(n, 2 * n))]
    faces += [[i, (i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return v, faces


def _loaded(poly):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (poly.vertices, poly.tris, poly.tri_face, poly.edges)] + [poly.faces]


def _outcome(load, *args):
    try:
        return _loaded(load(*args))
    except InputError as exc:
        return type(exc), str(exc)


def test_loader_matches_the_token_by_token_oracle():
    """parse_off and validate_polyhedron give the oracle's vertices, faces,
    triangles, face ids and edges, bit for bit, on every mesh the geometry
    and tripodal tests build, on star meshes of 2,048 and 32,768 triangles,
    the quad cube and an L-shaped prism, each given outward and inward."""
    meshes = [m for _, m in criterion05_meshes()] + _meshes() + [octa_mesh()]
    meshes += [star_mesh(np.random.default_rng(7), 6), validate_polyhedron(*_l_prism())]
    assert {len(m.tris) for m in meshes} >= {2048, 32768}
    for poly in meshes:
        for faces in (poly.faces, [f[::-1] for f in poly.faces]):
            text = dump_off(SimpleNamespace(vertices=poly.vertices, faces=faces))
            want = _loaded(parse_off_reference(text))
            assert _loaded(parse_off(text)) == want
            if len(faces) < 10000:
                got = validate_polyhedron(poly.vertices, faces)
                assert _loaded(got) == _loaded(validate_polyhedron_reference(
                    poly.vertices, faces)) == want


def test_off_comments_blank_lines_and_line_ends():
    lines = dump_off(validate_polyhedron(*_l_prism())).splitlines()
    lines[0] += "  # kind"
    lines[1] = "# counts follow\n\n" + lines[1] + " # nv nf ne"
    lines[5] = "\t" + lines[5] + "#" + lines[6]
    lines[-1] += " # last face\n\n# end"
    for end in ("\n", "\r\n", "\r"):
        text = "# header\n" + end.join(lines) + end + "trailing tokens are ignored"
        assert _outcome(parse_off, text) == _outcome(parse_off_reference, text)
        assert len(parse_off(text).faces) == 8


def _tetra_off(counts=None, verts=(), faces=None, drop=0):
    lines = dump_off(tetra_mesh()).splitlines()
    head, body, loops = lines[:2], lines[2:6] + list(verts), lines[6:]
    if counts is not None:
        head[1] = counts
    if faces is not None:
        loops = faces(loops)
    text = "\n".join(head + body + loops) + "\n"
    return text[:len(text) - drop]


BAD_OFF = {
    "short-face": _tetra_off(faces=lambda f: f[:1] + ["2 0 1"] + f[2:]),
    "short-face-before-a-bad-token": _tetra_off(
        faces=lambda f: f[:1] + ["2 0 1", "3 a b c"] + f[3:]),
    "bad-token-before-a-short-face": _tetra_off(
        faces=lambda f: ["3 0 a 2", "2 0 1"] + f[2:]),
    "bad-token-before-a-bad-length": _tetra_off(
        faces=lambda f: ["3 0 a 2", "x 0 1 2"] + f[2:]),
    "truncated-last-face": _tetra_off(drop=3),
    "repeated-index": _tetra_off(faces=lambda f: f[:2] + ["3 0 1 1"] + f[3:]),
    "out-of-range-index": _tetra_off(faces=lambda f: ["3 0 1 7"] + f[1:]),
    "negative-index": _tetra_off(faces=lambda f: f[:3] + ["3 0 -1 2"]),
    "index-beyond-int64": _tetra_off(faces=lambda f: ["3 0 1 " + "9" * 30] + f[1:]),
    "repeat-and-beyond-int64": _tetra_off(
        faces=lambda f: ["4 0 " + "9" * 30 + " " + "9" * 30 + " 1"] + f[1:]),
    "unused-vertex": _tetra_off(counts="5 4 0", verts=["7 7 7"]),
    "repeated-directed-edge": _tetra_off(faces=lambda f: f[:1] + f[:1] + f[2:]),
    "missing-edge": _tetra_off(counts="4 3 0", faces=lambda f: f[:3]),
    "too-few-faces": _tetra_off(counts="4 5 0"),
    "too-few-vertices": "OFF\n3 1 0\n0 0 0\n",
    "fractional-count": _tetra_off(counts="4.0 4 0"),
    "negative-count": _tetra_off(counts="-4 4 0"),
    "bad-coordinate": _tetra_off().replace("\n3.0 0.0 0.0\n", "\n3.0 x 0.0\n"),
    "bad-face-token": _tetra_off(faces=lambda f: f[:3] + ["3 0 1 a"]),
    "not-an-off-file": "not an off file",
    "empty": "",
}


@pytest.mark.parametrize("name", list(BAD_OFF))
def test_malformed_off_fails_as_the_oracle_does(name):
    """The same error class and message as the token-by-token read. A missing
    edge is named at its first reverse in face order, where the set-based
    check named one in set order."""
    want = _outcome(parse_off_reference, BAD_OFF[name])
    assert isinstance(want, tuple) and issubclass(want[0], InputError), want
    assert _outcome(parse_off, BAD_OFF[name]) == want
