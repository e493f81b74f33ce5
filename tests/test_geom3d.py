import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (closest_points_all_pairs, convex_mesh, cross_section_per_face,
                     cube_mesh, dump_off, extreme_boundary_points, octa_mesh,
                     ray_hits_all_pairs, signed_distance, star_mesh, tetra_mesh)
from poise import geom3d
from poise.errors import (DegenerateSectionError, InputError,
                          NoLoopContainsOriginError, NonPlanarFaceError,
                          OpenSurfaceError, ParseError)
from poise.geom3d import (Plane3, cross_section, frame_field, parse_off, side3,
                          surface_path, validate_polyhedron)


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


def test_side3_and_signed_distance():
    cube = cube_mesh()
    assert side3(cube, (0, 0, 0)).side == "inside"
    assert side3(cube, (2, 0, 0)).side == "outside"
    assert side3(cube, (1, 0, 0)).side == "boundary"
    assert signed_distance(cube, (0, 0, 0)) == pytest.approx(-1.0)
    assert signed_distance(cube, (2, 0, 0)) == pytest.approx(1.0)
    assert abs(signed_distance(cube, (1, 0, 0))) <= 1e-12


def test_extreme_boundary_points_cube():
    cube = cube_mesh()
    near, far = extreme_boundary_points(cube)
    pn = cube.vertices[cube.faces[near.face][0]]  # just for shape sanity
    assert pn.shape == (3,)
    from poise.geom3d import eval_surface
    assert np.linalg.norm(eval_surface(cube, near)) == pytest.approx(1.0)
    assert np.linalg.norm(eval_surface(cube, far)) == pytest.approx(np.sqrt(3))


def test_surface_path_runs_near_to_far_on_surface():
    rng = np.random.default_rng(2)
    for poly in (cube_mesh(), octa_mesh(), star_mesh(rng)):
        near, far = extreme_boundary_points(poly)
        path = surface_path(poly, near, far)
        ts = np.linspace(0, 1, 40)
        pts = path.eval(ts)
        from poise.geom3d import eval_surface
        assert np.allclose(pts[0], eval_surface(poly, near), atol=1e-9)
        assert np.allclose(pts[-1], eval_surface(poly, far), atol=1e-9)
        sd = np.array([abs(signed_distance(poly, p)) for p in pts])
        assert sd.max() <= 1e-7 * poly.diam


def test_frame_field_unit_and_perpendicular():
    poly = cube_mesh()
    near, far = extreme_boundary_points(poly)
    path = surface_path(poly, near, far)
    frame = frame_field(path)
    ts = np.linspace(0, 1, 25)
    g = path.eval(ts)
    v = frame.eval(ts)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-9)
    dots = np.abs((g * v).sum(axis=1)) / np.linalg.norm(g, axis=1)
    assert dots.max() <= 1e-9


def test_cross_section_cube_through_origin():
    cube = cube_mesh()
    sec = cross_section(cube, Plane3((0, 0, 1), 0.0))
    loop = sec.polygon
    assert loop.n == 4
    assert loop.signed_area() == pytest.approx(4.0)
    # 2d -> 3d -> 2d round trip, and the section sits in the plane
    p3 = sec.to3d(loop.vertices)
    assert np.allclose(p3[:, 2], 0.0, atol=1e-12)
    assert np.allclose(sec.to2d(p3), loop.vertices, atol=1e-12)
    # each section edge is owned by a mesh face
    assert len(sec.edge_faces) == loop.n
    assert all(0 <= f < len(cube.faces) for f in sec.edge_faces)


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


def test_cross_section_requires_origin_in_a_loop():
    # shift the cube so the z=0 plane misses it entirely around the origin
    shifted = cube_mesh()
    v = shifted.vertices + np.array([5.0, 0.0, 0.0])
    poly = validate_polyhedron(v, shifted.faces)
    with pytest.raises(NoLoopContainsOriginError):
        cross_section(poly, Plane3((0, 0, 1), 0.0))


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


def _section_outcome(section):
    try:
        return section()
    except (DegenerateSectionError, NoLoopContainsOriginError) as exc:
        return type(exc)


def test_cross_section_matches_the_per_face_section(monkeypatch):
    """The loop of the per-face routine that matches points by coordinates,
    with tol = eps_geom: the same length, the same edge faces up to a cyclic
    shift, and vertices within 1e-15 diam, on planes through mesh vertices
    and edges, whose in-plane edges give duplicate chords. Each polygon
    vertex is the projection of its 3D point, which lies on the faces of
    its two edges."""
    real, dup = geom3d._stitch_loops, []

    def counting(ends, fids):
        dup.append(len(ends) - len(np.unique(np.sort(ends, axis=1), axis=0)))
        return real(ends, fids)

    monkeypatch.setattr(geom3d, "_stitch_loops", counting)
    rng = np.random.default_rng(4)
    sections = 0
    for poly in _meshes():
        for plane in _section_planes(rng, poly):
            got = _section_outcome(lambda: cross_section(poly, plane))
            want = _section_outcome(
                lambda: cross_section_per_face(poly, plane, poly.eps_geom()))
            if isinstance(want, type):
                assert got is want, (poly, plane)
                continue
            sections += 1
            frame, loop, fids = want
            assert got.polygon.n == loop.n, (poly, plane)
            assert np.array_equal(got.origin, frame.origin)
            errs = [np.abs(np.roll(got.polygon.vertices, -r, axis=0) - loop.vertices).max()
                    if list(np.roll(got.edge_faces, -r)) == list(fids) else np.inf
                    for r in range(loop.n)]
            assert min(errs) <= 1e-15 * poly.diam, (poly, plane, min(errs))
            assert np.array_equal(got.to2d(got.points3), got.polygon.vertices)
            for i, p in enumerate(got.points3):
                for f in (got.edge_faces[i - 1], got.edge_faces[i]):
                    frame, normal, _ = poly.face_frame(f)
                    assert abs((p - frame.origin) @ normal) <= 1e-15 * poly.diam
    assert sections >= 100
    assert max(dup) > 0      # some section had duplicate chords


def test_culled_queries_match_all_pairs_oracle(monkeypatch):
    """Bitwise equal answers, at the default block size and at blocks of
    2^6 pairs (one to sixteen points), where a block can hold only the
    points just past a vertex and so tests every slack on its own; and on
    queries of 1, 2, 8 and 20 points, one block at the default size, drawn
    from near-surface, vertex, edge, far, NaN and inf points."""
    rng, qrng = np.random.default_rng(5), np.random.default_rng(7)
    saw_para = False
    for poly in _meshes():
        pts = _query_points(rng, poly)
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


def _needle(rng):
    """A tetrahedron whose four faces are slivers: two vertices sit within
    1e-13 of the segment between the other two. Its rounded normals point
    anywhere, and points near it are near its long edge."""
    a, u, w = rng.normal(size=(3, 3))
    u /= np.linalg.norm(u)
    v = [a, a + u, a + 0.4 * u + 1e-13 * w, a + 0.6 * u - 1e-13 * w[::-1]]
    poly = validate_polyhedron(v, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    t = rng.uniform(0.0, 1.0, (200, 1))
    scale = rng.choice([1e-10, 1e-9, 2e-9, 1e-8], (200, 1)) * poly.diam
    return poly, a + t * u + rng.normal(size=(200, 3)) * scale


def test_side_signs_are_the_signs_of_signed_distances(monkeypatch):
    """np.sign(signed_distances) bit for bit, on, within 1e-12 diam of and
    well off the surface and in non-finite rows, at both block sizes; and
    near sliver triangles."""
    rng = np.random.default_rng(6)
    cases = [(poly, _shell_points(rng, poly)) for poly in _meshes()]
    cases += [_needle(rng) for _ in range(4)]
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
    """65,536 points against 512 triangles: the all-pairs scan peaked at
    1.3 GB; the culled blocks must stay under 300 MB.

    The child reports VmHWM, not ru_maxrss: Linux carries ru_maxrss over
    from the forking process, which here is the pytest process.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import numpy as np\n"
        "from helpers import star_mesh\n"
        "poly = star_mesh(np.random.default_rng(1), 3)\n"
        "rng = np.random.default_rng(2)\n"
        "cp = poly.closest_points(rng.uniform(-1, 1, size=(4096, 3)))[2]\n"
        "pts = np.repeat(cp, 16, axis=0) + rng.normal(size=(65536, 3)) * 0.02\n"
        "assert len(poly.tris) == 512\n"
        "poly.closest_points(pts)\n"
        "poly.contains(pts)\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [here, os.path.join(os.path.dirname(here), "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 300 * 1024     # VmHWM is in KiB


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
