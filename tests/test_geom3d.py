import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import (closest_points_all_pairs, convex_mesh, cube_mesh, octa_mesh,
                     ray_hits_all_pairs, star_mesh, tetra_mesh)
from poise import geom3d
from poise.errors import (NoLoopContainsOriginError, NonPlanarFaceError,
                          OpenSurfaceError, ParseError)
from poise.geom3d import (Plane3, cross_section, dump_off,
                          extreme_boundary_points, frame_field, parse_off,
                          side3, signed_distance, surface_path,
                          validate_polyhedron)


def test_validate_rejects_open_surface():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(OpenSurfaceError):
        validate_polyhedron(v, [[0, 2, 1], [0, 1, 3], [1, 2, 3]])


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


def test_culled_queries_match_all_pairs_oracle(monkeypatch):
    """Bitwise equal answers, at the default block size and at blocks of
    2^6 pairs (one to sixteen points), where a block can hold only the
    points just past a vertex and so tests every slack on its own."""
    rng = np.random.default_rng(5)
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
    assert saw_para


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
