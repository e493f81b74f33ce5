import numpy as np
import pytest

from helpers import cube_mesh, octa_mesh, star_mesh, tetra_mesh
from poise.errors import BadFrameError, OriginOutsideError
from poise.geom3d import (extreme_boundary_points, frame_field, surface_path,
                          validate_polyhedron)
from poise.tripodal import (SIG_MM, SIG_PP, signature,
                            tripod_points, tripodal_by_face_triples,
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
        t2 = tripodal_by_face_triples(poly, samples=48)
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
