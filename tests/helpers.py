"""Shared fixture generators for the test suite."""

import numpy as np
from scipy.spatial import ConvexHull

from poise.balance2d import feasibility
from poise.geom2d import validate_polygon
from poise.geom3d import _closest_on_triangles, validate_polyhedron
from poise.polytoped import chebyshev_center, hpolytope, hull_of_points


def star_polygon(rng, n, r_lo=0.3, r_hi=1.5):
    """Random simple polygon, star-shaped about the interior origin.

    Angular gaps stay well below pi so every boundary chord keeps a
    positive distance from the origin.
    """
    gaps = rng.uniform(0.7, 1.0, size=n)
    ang = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    rad = rng.uniform(r_lo, r_hi, size=n)
    return validate_polygon(np.column_stack([rad * np.cos(ang),
                                             rad * np.sin(ang)]))


def feasible_weights(rng, k):
    """k positive weights with the largest at most the sum of the rest."""
    if k == 2:
        w = float(rng.uniform(0.5, 2.0))
        return [w, w]
    while True:
        w = rng.uniform(0.1, 1.0, size=k).tolist()
        if feasibility(w):
            return w


def convex_mesh(points):
    """Triangulated convex hull as a validated closed surface."""
    points = np.asarray(points, dtype=float)
    hull = ConvexHull(points)
    cen = points[np.unique(hull.simplices)].mean(axis=0)
    faces = []
    for simp in hull.simplices:
        a, b, c = points[simp]
        n = np.cross(b - a, c - a)
        faces.append(list(simp) if n @ (a - cen) > 0 else list(simp[::-1]))
    return validate_polyhedron(points, faces)


def sphere_points(rng, n):
    pts = rng.normal(size=(n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def star_mesh(rng, subdiv=1, r_lo=0.7, r_hi=1.3):
    """Radially jittered subdivided octahedron: non-convex, star about origin."""
    verts = [np.array(v, float) for v in
             [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
    faces = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
             (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]
    for _ in range(subdiv):
        idx = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in idx:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                idx[key] = len(verts) - 1
            return idx[key]

        nf = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nf += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nf
    V = np.array(verts) * rng.uniform(r_lo, r_hi, size=(len(verts), 1))
    return validate_polyhedron(V, [list(f) for f in faces])


def cube_mesh(half=1.0):
    v = half * np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                         for z in (-1, 1)], float)
    faces = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
             [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]]
    return validate_polyhedron(v, faces)


def octa_mesh():
    v = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                  [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)
    faces = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
             [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    return validate_polyhedron(v, faces)


def tetra_mesh():
    return convex_mesh(np.array([[3, 0, 0], [0, 3, 0], [0, 0, 3],
                                 [-1, -1, -1]], float))


def random_hull_hrep(rng, d, npts=None):
    """Random bounded H-polytope with origin interior (Chebyshev-recentred)."""
    npts = d + 3 if npts is None else npts
    pts = rng.normal(size=(npts, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    H = hull_of_points(pts)
    c, _ = chebyshev_center(H)
    return hpolytope(H.A, H.b - H.A @ c)


# --- all-pairs oracles of the culled Polyhedron3 queries ----------------------

ORACLE_PAIRS = 1 << 20   # point-triangle pairs per chunk of an oracle scan


def closest_points_all_pairs(poly, points):
    """Polyhedron3.closest_points by testing every point against every triangle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(pts)
    best_d2 = np.full(m, np.inf)
    best_tri = np.zeros(m, dtype=int)
    best_cp = np.zeros((m, 3))
    chunk = max(1, ORACLE_PAIRS // len(poly.tris))
    for lo in range(0, m, chunk):
        p = pts[lo:lo + chunk]
        cp = _closest_on_triangles(p, poly._tv0, poly._ab, poly._ac)
        d2 = np.einsum("mtj,mtj->mt", cp - p[:, None, :], cp - p[:, None, :])
        ti = np.argmin(d2, axis=1)
        rows = np.arange(len(p))
        best_d2[lo:lo + chunk] = d2[rows, ti]
        best_tri[lo:lo + chunk] = ti
        best_cp[lo:lo + chunk] = cp[rows, ti]
    return np.sqrt(best_d2), best_tri, best_cp


def ray_hits_all_pairs(poly, pts, d):
    """Polyhedron3._ray_hits along direction d, over every triangle."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m = len(pts)
    eps_b = 1e-9
    eps_t = 1e-9 * poly.diam
    h = np.cross(d, poly._ac)
    a = np.einsum("tj,tj->t", poly._ab, h)
    nn = np.linalg.norm(poly._tn, axis=1)
    para = np.abs(a) <= 1e-12 * np.maximum(nn, 1e-300)
    live = ~para
    counts = np.zeros(m, dtype=int)
    bad = np.zeros(m, dtype=bool)
    chunk = max(1, ORACLE_PAIRS // len(poly.tris))
    f = np.zeros_like(a)
    f[live] = 1.0 / a[live]
    for lo in range(0, m, chunk):
        p = pts[lo:lo + chunk]
        s = p[:, None, :] - poly._tv0[None, :, :]
        u = np.einsum("mtj,tj->mt", s, h) * f
        q = np.cross(s, poly._ab[None, :, :])
        v = np.einsum("mtj,j->mt", q, d) * f
        t = np.einsum("mtj,tj->mt", q, poly._ac) * f
        good = (u > eps_b) & (v > eps_b) & (u + v < 1.0 - eps_b) & (t > eps_t)
        loose = (u > -eps_b) & (v > -eps_b) & (u + v < 1.0 + eps_b) & (t > -eps_t)
        good &= live[None, :]
        loose &= live[None, :]
        counts[lo:lo + chunk] = good.sum(axis=1)
        bad[lo:lo + chunk] = (loose & ~good).any(axis=1)
        if para.any():
            dp = np.abs(np.einsum("mtj,tj->mt", s[:, para, :], poly._tn[para]))
            bad[lo:lo + chunk] |= (dp <= eps_t * np.maximum(nn[para], 1e-300)).any(axis=1)
    return counts, bad
