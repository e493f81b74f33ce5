"""Shared fixture generators for the test suite."""

import functools
import itertools
import json
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from poise.balance2d import Placement2, feasibility, gadget_polygon
from poise import geom3d
from poise import tripodal as tp
from poise import geom2d
from poise.errors import (DegenerateError, InputError, NoIntersectionError,
                          NonSimpleError, NotFoundError, OpenSurfaceError, ParseError,
                          PoiseError, SearchExhaustedError)
from poise.geom2d import (OUTSIDE, BoundaryPoint2, Polygon2, _boxes_overlap, _check_pair,
                          _clamp01, _crossings, _segment_hits, locate_point,
                          nearest_boundary_point, validate_polygon)
from poise.geom3d import (_closest_on_triangles, frame_field, surface_path,
                          validate_polyhedron)
from poise.polytoped import RANK_TOL, HPolytope, edges, hpolytope
from poise.skeleton_balance import EPS_T, _singular_triple


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


def first_hit_all_hits(curve, poly, start_param):
    """first_hit_from by the plain route, as (seg, t, edge, u): every hit of
    the whole curve as a Python tuple, sorted, then one key scan over all."""
    tol = poly.eps_geom()
    cq = np.roll(curve, -1, axis=0)
    pv, pw = poly.edge_arrays()
    I, J = np.nonzero(_boxes_overlap(np.minimum(curve, cq) - tol,
                                     np.maximum(curve, cq) + tol,
                                     np.minimum(pv, pw), np.maximum(pv, pw)))
    a = curve[I]
    ok, general, good, t, u = _crossings(a, cq[I] - a, pv[J], pw[J] - pv[J], tol)
    hits = [(int(I[k]), min(max(float(t[k]), 0.0), 1.0),
             int(J[k]), min(max(float(u[k]), 0.0), 1.0)) for k in np.nonzero(good)[0]]
    for k in np.nonzero(ok & ~general)[0]:
        i, j = int(I[k]), int(J[k])
        hits += [(i, tt, j, uu)
                 for tt, uu in _segment_hits(curve[i], cq[i], pv[j], pw[j], tol)]
    if not hits:
        raise NoIntersectionError("curve does not meet the boundary")
    n = len(curve)
    best = None
    for h in sorted(hits):
        off = (h[0] + h[1] - start_param) % n
        if off > n - 1e-7:
            off = 0.0
        if best is None or (off,) + h < best:
            best = (off,) + h
    return best[1:]


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


def needle_mesh(rng):
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


def cube_mesh(half=1.0):
    v = half * np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                         for z in (-1, 1)], float)
    faces = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
             [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]]
    return validate_polyhedron(v, faces)


def l_prism_mesh():
    """The L (x, z) = (-2, -2), (2, -2), (2, 0), (1, 0), (1, 2), (-2, 2)
    extruded over y in [-2, 2]; its face 4 lies in the plane z = 0."""
    L = [(-2, -2), (2, -2), (2, 0), (1, 0), (1, 2), (-2, 2)]
    v = np.array([(x, y, z) for y in (-2, 2) for x, z in L], float)
    n = len(L)
    faces = [list(range(n))[::-1], list(range(n, 2 * n))]
    faces += [[k, (k + 1) % n, n + (k + 1) % n, n + k] for k in range(n)]
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


def criterion05_meshes():
    """(name, mesh) pairs of the acceptance suite's tripodal criterion."""
    rng = np.random.default_rng(500)
    meshes = [("cube", cube_mesh()), ("octa", octa_mesh()),
              ("simplex", tetra_mesh())]
    sizes = list(rng.integers(8, 29, size=19)) + [50]
    for i, n in enumerate(sizes):
        meshes.append((f"hull{i}", convex_mesh(sphere_points(rng, int(n)))))
    for i in range(5):
        meshes.append((f"star{i}", star_mesh(rng, subdiv=1)))
    return meshes


# --- token-by-token oracle of the mesh loader --------------------------------

def parse_off_reference(text):
    """geom3d.parse_off reading one token at a time."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    pos = 0
    if pos < len(tokens) and tokens[pos].upper() == "OFF":
        pos += 1
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        pos += 3
        verts = []
        for _ in range(nv):
            verts.append([float(tokens[pos]), float(tokens[pos + 1]),
                          float(tokens[pos + 2])])
            pos += 3
        faces = []
        for _ in range(nf):
            k = int(tokens[pos])
            pos += 1
            if k < 3:
                raise ParseError(f"face with {k} vertices")
            faces.append([int(t) for t in tokens[pos:pos + k]])
            pos += k
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad OFF data: {exc}") from exc
    return validate_polyhedron_reference(verts, faces)


def validate_polyhedron_reference(vertices, faces):
    """geom3d.validate_polyhedron face by face and edge by edge, with sets.
    A missing directed edge is named at its first reverse in face order."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 4:
        raise InputError("need at least 4 vertices of dimension 3")
    if not np.all(np.isfinite(verts)):
        raise InputError("non-finite vertex coordinates")
    faces = [list(map(int, f)) for f in faces]
    nv = len(verts)
    for f in faces:
        if len(f) < 3 or len(set(f)) != len(f):
            raise InputError(f"bad face loop {f}")
        if any(i < 0 or i >= nv for i in f):
            raise InputError(f"face index out of range in {f}")
    used = np.zeros(nv, dtype=bool)
    used[[i for f in faces for i in f]] = True
    if not used.all():
        raise InputError(f"vertex {int(np.argmin(used))} is used by no face")
    directed = [(a, b) for f in faces for a, b in zip(f, f[1:] + f[:1])]
    seen = set()
    for a, b in directed:
        if (a, b) in seen:
            raise OpenSurfaceError(f"directed edge ({a},{b}) repeated")
        seen.add((a, b))
    for a, b in directed:
        if (b, a) not in seen:
            raise OpenSurfaceError(f"directed edge ({b},{a}) missing")
    diam = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
    tris, tri_face = _triangulate_reference(verts, faces, diam)
    v0, v1, v2 = (verts[tris[:, k]] for k in range(3))
    if np.einsum("ij,ij->i", v0, np.cross(v1 - v0, v2 - v0)).sum() < 0.0:
        faces = [f[::-1] for f in faces]
        tris, tri_face = _triangulate_reference(verts, faces, diam)
    edges = np.array(sorted({(min(a, b), max(a, b)) for a, b in directed}))
    edges.flags.writeable = False
    return geom3d.Polyhedron3(verts, faces, tris, tri_face, edges)


def _triangulate_reference(verts, faces, diam):
    tris, tri_face = [], []
    for fid, f in enumerate(faces):
        if len(f) == 3:
            tris.append(f)
            tri_face.append(fid)
            continue
        nrm, centroid = geom3d._face_frame(verts, f, diam)
        for tri in geom3d._ear_clip(verts, f, nrm, centroid):
            tris.append(tri)
            tri_face.append(fid)
    return np.array(tris, dtype=int), np.array(tri_face, dtype=int)


def near_earlier_all_pairs(rows):
    """skeleton_balance._near_earlier over all pairs of rows at once."""
    near = (np.abs(rows[:, None] - rows) <= RANK_TOL).all(axis=2)
    return np.triu(near, 1).any(axis=0)


def hull_hrep(points):
    """(A, b) of the convex hull of points, a.x <= b: Qhull's facets with unit
    normals, one row per facet, rows in lexicographic order of (a, b)
    rounded to 12 decimals, so rounding noise never decides the order."""
    eq = ConvexHull(np.asarray(points, dtype=float)).equations   # a.x + c <= 0
    # coplanar simplices of one facet repeat a row; keep one of each
    _, keep = np.unique(np.round(eq, 12), axis=0, return_index=True)
    A, b = eq[keep, :-1], -eq[keep, -1]
    order = np.lexsort(np.round(np.column_stack([A, b]), 12).T[::-1])
    return A[order], b[order]


def random_hull_hrep(rng, d, npts=None):
    """Random bounded H-polytope with origin interior (Chebyshev-recentred)."""
    npts = d + 3 if npts is None else npts
    pts = rng.normal(size=(npts, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    A, b = hull_hrep(pts)
    c, _ = hpolytope(A, b).chebyshev
    return hpolytope(A, b - A @ c)


def repeated_rows(H, rng):
    """H with each row given 1 to 3 times, shuffled; every copy after the
    first is scaled by a factor in [0.5, 2), so the copies are one halfspace
    up to rounding once their normals are made unit."""
    idx = rng.permutation(np.repeat(np.arange(H.m), rng.integers(1, 4, H.m)))
    first = np.zeros(len(idx), dtype=bool)
    first[np.unique(idx, return_index=True)[1]] = True
    scale = np.where(first, 1.0, rng.uniform(0.5, 2.0, len(idx)))
    return hpolytope(H.A[idx] * scale[:, None], H.b[idx] * scale)


# --- reference of the polytope load check -------------------------------------

def stiemke_cone_lp(A):
    """Whether {x : A x <= 0} = {0}, by the cone LP polytoped used before its
    NNLS test: the unit normals U of the nonzero rows have rank d, and one
    LP finds y >= 1 with U^T y = 0."""
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    unit = A[norms > 0] / norms[norms > 0, None]
    return bool(np.linalg.matrix_rank(unit) == A.shape[1]
                and linprog(np.zeros(len(unit)), A_eq=unit.T,
                            b_eq=np.zeros(A.shape[1]), bounds=(1.0, None),
                            method="highs").status == 0)


# --- per-face references of polytoped's face decisions -----------------------

def tight_sets(V):
    """A V-rep's tight rows as one tuple of row indices per vertex."""
    return [tuple(np.flatnonzero(t).tolist()) for t in V.tight]


def members(H, tight):
    """Ids of the vertices of H at which every row of `tight` is tight."""
    return np.flatnonzero(H.vrep.tight[:, list(tight)].all(axis=1))


def face_per_point(H, p, tol):
    """(tight, dim) of one point's face in polytoped.point_faces: the rows
    within tol of p in unit residuals, one at a time, and the width of their
    null space."""
    resid = np.abs(H.unit_residuals(np.asarray(p, dtype=float)))
    tight = tuple(int(i) for i in np.nonzero(resid <= tol)[0])
    return tight, null_space(H.A[list(tight)]).shape[1] if tight else H.d


@functools.lru_cache(maxsize=16)
def faces_by_svd(H):
    """(dim, tight, members) of every proper face, sorted: the closure of
    the vertex tight sets under intersection (the whole face lattice), each
    ranked on its raw rows and checked by one SVD of its vertices."""
    V = H.vrep
    gens = [frozenset(t) for t in tight_sets(V)]
    closed, frontier = set(gens), set(gens)
    for _ in range(H.d + 2):
        new = {s & g for s in frontier for g in gens if s & g} - closed
        if not new:
            break
        closed |= new
        frontier = new
    scale = max(V.diam, 1e-300)
    faces = []
    for t in closed:
        rows = H.A[sorted(t)]
        sv = np.linalg.svd(rows, compute_uv=False)
        k = H.d - int((sv > 1e-9 * max(1.0, np.abs(rows).max())).sum())
        if k == H.d:
            continue
        members = tuple(i for i, g in enumerate(gens) if t <= g)
        pts = V.vertices[list(members)]
        if len(members) > 1:
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            if int((sv > 1e-9 * scale).sum()) != k:
                continue
        elif k:
            continue
        faces.append((k, tuple(sorted(t)), members))
    return sorted(faces)


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


# --- dense oracle of the face-triple sweep's Newton iteration -----------------

def newton_rows_dense(y, a0, b0, A1, A2, Rm, tol_g):
    """tripodal._newton_rows by stepping every (triple, row) pair of the
    (m, rows) block each iteration, a zero step where a row has converged."""
    dA = A1[:, :, :2]
    dB = A2[:, :, :2]
    dS = dA + dB
    for _ in range(22):
        a = a0[:, None, :] + np.einsum("mrk,mak->mra", y, A1)
        b = b0[:, None, :] + np.einsum("mrk,mak->mra", y, A2)
        ab = a + b
        g1 = (a * a).sum(-1) - (b * b).sum(-1)
        g2 = (a * a).sum(-1) - (ab * ab).sum(-1)
        live = (np.abs(g1) > tol_g) | (np.abs(g2) > tol_g)
        if not live.any():
            break
        j11 = 2 * (np.einsum("mra,mak->mrk", a, dA)
                   - np.einsum("mra,mak->mrk", b, dB))
        j21 = 2 * (np.einsum("mra,mak->mrk", a, dA)
                   - np.einsum("mra,mak->mrk", ab, dS))
        det = j11[..., 0] * j21[..., 1] - j11[..., 1] * j21[..., 0]
        ok = np.abs(det) > 1e-300
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        s0 = (-g1 * j21[..., 1] + g2 * j11[..., 1]) * inv
        s1 = (g1 * j21[..., 0] - g2 * j11[..., 0]) * inv
        ln = np.sqrt(s0 * s0 + s1 * s1)
        big = ln > Rm[:, None]
        damp = np.divide(Rm[:, None], ln, out=np.ones_like(ln), where=big)
        damp *= (live & ok)
        y[..., 0] += s0 * damp
        y[..., 1] += s1 * damp


# --- one-point and whole-grid oracles of the tripodal search -----------------

def newton_polish_pointwise(field, t0, th0, tol, iters=30):
    """tripodal._newton_polish with one (t, theta) per field.values call:
    four calls per Jacobian, then one per damped trial until one lowers
    max|g|."""
    dt, dth = 1e-6, 1e-6
    t, th = float(t0), float(th0)

    def val(tt, hh):
        g1, g2 = field.values(np.array([tt]), np.array([hh]))
        return np.array([g1[0], g2[0]])

    g = val(t, th)
    for _ in range(iters):
        if np.abs(g).max() <= tol:
            return t, th, g
        tp = min(t + dt, 1.0)
        tm = max(t - dt, 0.0)
        gp, gm = val(tp, th), val(tm, th)
        col_t = (gp - gm) / max(tp - tm, 1e-300)
        gp, gm = val(t, th + dth), val(t, th - dth)
        col_th = (gp - gm) / (2 * dth)
        J = np.stack([col_t, col_th], axis=1)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            return t, th, g
        lam = 1.0
        for _ in range(10):
            tn = min(max(t + lam * step[0], 0.0), 1.0)
            thn = th + lam * step[1]
            gn = val(tn, thn)
            if np.abs(gn).max() < np.abs(g).max():
                t, th, g = tn, thn, gn
                break
            lam *= 0.5
        else:
            return t, th, g
    return t, th, g


def tripodal_search_whole_grid(poly, grid=(256, 256)):
    """tripodal.tripodal_search signing the whole grid in one query."""
    nt, nth = int(grid[0]), int(grid[1])
    if not (1 <= nt <= tp.GRID_MAX and 1 <= nth <= tp.GRID_MAX):
        raise InputError(f"grid sides must be in 1..{tp.GRID_MAX}, got {nt}x{nth}")
    tri0, x0 = tp._locate_origin(poly)
    if x0 is None:
        return tp._degenerate_triple(poly, tri0)
    path = surface_path(poly, x0, tri0, int(np.argmax(np.linalg.norm(poly.vertices, axis=1))))
    field = tp._CompanionField(poly, path, frame_field(path))
    tol = 1e-9 * poly.diam
    ts = np.linspace(0.0, 1.0, nt + 1)
    ths = np.linspace(0.0, np.pi, nth + 1)
    g1, g2 = field.signs(*np.meshgrid(ts, ths, indexing="ij"))
    for it, ith in np.argwhere(tp._straddle_mask(g1, g2)):
        hit = tp._polish_cell(field, poly, ts[it], ts[it + 1], ths[ith],
                              ths[ith + 1], tol, tp.REFINE_DEPTH)
        if hit is not None:
            return hit
    try:
        return tp._face_triple_sweep(poly)
    except NotFoundError as exc:
        raise SearchExhaustedError("grid search and face sweep both failed") from exc


# --- exhaustive oracles of the skeleton decision scans ------------------------

def prop9_check_all_faces(H, k):
    """skeleton_balance.prop9_check by one LP on every face of every
    dimension 0..k, H itself included, the faces listed by faces_by_svd."""
    return not any(_some_face_meets_reflection(H, dim)
                   for dim in range(min(k, H.d) + 1))


@functools.lru_cache(maxsize=64)
def _some_face_meets_reflection(H, dim):
    """Whether some dim-face of H meets -H, one LP per face; kept per (H, dim)
    so that a test asking every k repeats no LP."""
    faces = ([m for k, _, m in faces_by_svd(H) if k == dim] if dim < H.d
             else [range(len(H.vrep.vertices))])
    for mem in faces:
        Vm = H.vrep.vertices[list(mem)]
        res = linprog(np.zeros(len(Vm)), A_ub=-H.A @ Vm.T, b_ub=H.b,
                      A_eq=np.ones((1, len(Vm))), b_eq=[1.0],
                      bounds=(0.0, None), method="highs")
        if res.status == 0:
            return True
    return False


def edge_triple_systems(H, target):
    """Every edge triple of a 3-polytope, as three_on_edges scans them:
    (edge faces, U, D, triples, M, rhs, scale, nonsingular mask), the
    systems M t = rhs in the edge parameters t."""
    V = H.vrep
    edge_faces, ends = edges(H)
    U = V.vertices[ends[:, 0]]
    D = V.vertices[ends[:, 1]] - U
    scale = max(V.diam, 1e-300)
    trips = np.array(list(combinations_with_replacement(range(len(ends)), 3)))
    M = np.stack([D[trips[:, 0]], D[trips[:, 1]], D[trips[:, 2]]], axis=2)
    rhs = 3.0 * target - (U[trips[:, 0]] + U[trips[:, 1]] + U[trips[:, 2]])
    nonsing = np.abs(np.linalg.det(M)) > 1e-12 * scale ** 3
    return edge_faces, U, D, trips, M, rhs, scale, nonsing


def three_on_edges_all_triples(H, target=None):
    """skeleton_balance.three_on_edges by solving every edge triple in one
    batch, each singular one by _singular_triple: (points, host faces) of
    the first balanced triple, or None."""
    target = np.zeros(3) if target is None else np.asarray(target, dtype=float)
    edge_faces, U, D, trips, M, rhs, scale, nonsing = edge_triple_systems(H, target)
    tsol = np.full((len(trips), 3), np.nan)
    if nonsing.any():
        tsol[nonsing] = np.linalg.solve(M[nonsing], rhs[nonsing, :, None])[:, :, 0]
    window = nonsing & (tsol >= -EPS_T).all(axis=1) & (tsol <= 1 + EPS_T).all(axis=1)
    for idx in np.nonzero(window | ~nonsing)[0]:
        if nonsing[idx]:
            t = np.clip(tsol[idx], 0.0, 1.0)
        else:
            t = _singular_triple(M[idx], rhs[idx], scale)
            if t is None:
                continue
        i, j, k = trips[idx]
        pts = np.array([U[i] + t[0] * D[i], U[j] + t[1] * D[j], U[k] + t[2] * D[k]])
        if np.linalg.norm(pts.sum(axis=0) - 3.0 * target) <= 1e-10 * scale:
            return pts, [edge_faces[i], edge_faces[j], edge_faces[k]]
    return None


def cross_section_per_face(poly, plane, tol):
    """geom3d.cross_section face by face, matching points by coordinates.

    On-plane vertices (|d| <= tol) and boundary crossings become each face's
    section points; points within tol merge, the rest are sorted along the
    section line, and consecutive pairs whose midpoint lies in the face are
    chords. A face in the plane gives none. Returns (p0, p1, face id) chords.
    """
    n = plane.unit_normal()
    d = poly.vertices @ n - plane.offset
    on = np.abs(d) <= tol
    chords = []
    for fid, f in enumerate(poly.faces):
        pts = []
        for i, a in enumerate(f):
            b = f[(i + 1) % len(f)]
            if on[a]:
                pts.append(poly.vertices[a])
            elif not on[b] and d[a] * d[b] < 0.0:
                frac = d[a] / (d[a] - d[b])
                pts.append(poly.vertices[a] + frac * (poly.vertices[b] - poly.vertices[a]))
        uniq = []
        for p in pts:
            if all(np.linalg.norm(p - q) > tol for q in uniq):
                uniq.append(p)
        if len(uniq) < 2:
            continue
        ff, fn, face2 = poly.face_frame(fid)
        line = np.cross(n, fn)
        if np.linalg.norm(line) <= 1e-9:
            continue
        uniq.sort(key=lambda p: float(p @ line))
        for p0, p1 in zip(uniq, uniq[1:]):
            if locate_point(face2, ff.to2d(0.5 * (p0 + p1)), tol).side != OUTSIDE:
                chords.append((p0, p1, fid))
    return chords


def all_segment_hits(a, b, c, d, tol):
    """Every hit (i, t, j, u) of segment a[i] -> b[i] with c[j] -> d[j], one
    scalar _segment_hits call per pair, sorted."""
    return sorted((i, t, j, u) for i in range(len(a)) for j in range(len(c))
                  for t, u in _segment_hits(a[i], b[i], c[j], d[j], tol))


# --- planar kernels that derive their edge data per call -------------------------
# Each recomputes the next vertices with np.roll and the edge vectors and boxes
# on every call; the cached kernels of geom2d must match them bit for bit.

def signed_area_reference(poly):
    x, y = poly.vertices[:, 0], poly.vertices[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * y2 - x2 * y))


def validate_polygon_reference(vertices):
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise DegenerateError("need at least 3 points of dimension 2")
    if not np.all(np.isfinite(v)):
        raise DegenerateError("non-finite vertex coordinates")
    poly = Polygon2(v)
    scale = max(poly.diam, 1e-300)
    dif = np.roll(v, -1, axis=0) - v
    if np.any(np.linalg.norm(dif, axis=1) <= 1e-12 * scale):
        raise DegenerateError("repeated consecutive vertices")
    area = signed_area_reference(poly)
    if abs(area) <= 1e-14 * scale * scale:
        raise DegenerateError("zero-area polygon")
    if area < 0.0:
        poly = Polygon2(v[::-1])
    check_simple_reference(poly)
    return poly


def check_simple_reference(poly):
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    n = poly.n
    tol = 1e-12 * max(poly.diam, 1e-300)
    lo = np.minimum(v, w) - 2.0 * tol
    hi = np.maximum(v, w) + 2.0 * tol
    for i0 in range(0, n - 1, geom2d._ROW_BLOCK):
        i1 = min(i0 + geom2d._ROW_BLOCK, n - 1)
        I, J = np.nonzero(np.triu(_boxes_overlap(lo[i0:i1], hi[i0:i1],
                                                 lo[i0 + 1:], hi[i0 + 1:])))
        I += i0
        J += i0 + 1
        ok, general, hit, t, u = _crossings(v[I], w[I] - v[I], v[J], w[J] - v[J], tol)
        t = np.clip(t, 0.0, 1.0)
        u = np.clip(u, 0.0, 1.0)
        shared = (((J == I + 1) & (t >= 1.0 - 1e-9) & (u <= 1e-9))
                  | ((I == 0) & (J == n - 1) & (u >= 1.0 - 1e-9) & (t <= 1e-9)))
        for k in np.nonzero((hit & ~shared) | (ok & ~general))[0]:
            _check_pair(v, w, int(I[k]), int(J[k]), n, tol)


def nearest_with_distance_reference(poly, q):
    q = np.asarray(q, dtype=float)
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    e = w - v
    ee = np.maximum(np.einsum("ij,ij->i", e, e), 1e-300)
    out = []
    for qb in np.array_split(q, max(1, min(len(q), len(q) * poly.n // geom2d._PAIR_BLOCK))):
        t = np.clip(np.einsum("mij,ij->mi", qb[:, None, :] - v, e) / ee, 0.0, 1.0)
        off = v + t[..., None] * e - qb[:, None, :]
        d2 = np.einsum("mij,mij->mi", off, off)
        i = np.argmin(d2, axis=1)
        rows = np.arange(len(qb))
        out.append((i, t[rows, i], np.sqrt(d2[rows, i])))
    return tuple(np.concatenate(col) for col in zip(*out))


def parity_inside_reference(vertices, q):
    x, y = float(q[0]), float(q[1])
    xs, ys = vertices[:, 0], vertices[:, 1]
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    straddle = (ys > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = xs + (y - ys) * (x2 - xs) / (y2 - ys)
    return bool(np.count_nonzero(straddle & (x < xint)) % 2)


def segment_crossings_reference(a, b, c, d, tol):
    I, J = np.nonzero(_boxes_overlap(np.minimum(a, b) - tol, np.maximum(a, b) + tol,
                                     np.minimum(c, d), np.maximum(c, d)))
    a, b = a[I], b[I]
    ok, general, hit, t, u = _crossings(a, b - a, c[J], d[J] - c[J], tol)
    cols = [I[hit], _clamp01(t[hit]), J[hit], _clamp01(u[hit])]
    extra = [(I[k], tt, J[k], uu) for k in np.nonzero(ok & ~general)[0]
             for tt, uu in _segment_hits(a[k], b[k], c[J[k]], d[J[k]], tol)]
    if extra:
        cols = [np.concatenate([col, x]) for col, x in zip(cols, zip(*extra))]
    return tuple(cols)


def parse_polygon_text_reference(text):
    """parse_polygon_text reading `x y` lines one at a time."""
    if text.lstrip().startswith("{"):
        try:
            verts = json.loads(text)["vertices"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad polygon JSON: {exc}") from exc
    else:
        verts = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected `x y`")
            try:
                verts.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    try:
        return validate_polygon_reference(verts)
    except (DegenerateError, NonSimpleError):
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad polygon data: {exc}") from exc


def gadget_witness_reference(inst):
    """gadget_witness with reachable loads grown as a dict of parents."""
    total = sum(int(a) for a in inst.values)
    if total % 2 == 1:
        return None
    vals = sorted((int(a) for a in inst.values), reverse=True)
    parent = {0: None}
    for pos, a in enumerate(vals):
        for r in list(parent):
            if r + a not in parent:
                parent[r + a] = (r, pos)
    half = total // 2
    if half not in parent:
        return None
    on_right = set()
    r = half
    while parent[r] is not None:
        r, pos = parent[r]
        on_right.add(pos)
    poly = gadget_polygon()
    reflex = nearest_boundary_point(poly, (0.0, -1.0))
    left = nearest_boundary_point(poly, (-2.0, 2.0))
    right = nearest_boundary_point(poly, (2.0, 2.0))
    assignments = [(0, reflex)]
    for pos in range(len(vals)):
        assignments.append((pos + 1, right if pos in on_right else left))
    return Placement2(assignments, np.zeros(2), rounds=0)


# --- routines only the tests call ----------------------------------------------

def boundary_point_at_param(poly, param):
    """Inverse of BoundaryPoint2.param, with wraparound."""
    param = param % poly.n
    edge = int(param)
    if edge == poly.n:  # param == n after fp wrap
        edge = 0
    return BoundaryPoint2(edge, param - edge)


def dump_polygon_text(poly) -> str:
    lines = [f"{float(x)!r} {float(y)!r}" for x, y in poly.vertices]
    return "\n".join(lines) + "\n"


def dump_off(poly) -> str:
    lines = ["OFF", f"{len(poly.vertices)} {len(poly.faces)} 0"]
    for v in poly.vertices:
        # repr of a Python float round-trips exactly
        lines.append(" ".join(repr(float(x)) for x in v))
    for f in poly.faces:
        lines.append(" ".join([str(len(f))] + [str(i) for i in f]))
    return "\n".join(lines) + "\n"


def signed_distance(poly, point) -> float:
    return float(poly.signed_distances([point])[0])


class OriginOnBoundaryError(PoiseError):
    """Origin lies on the surface; extreme points are undefined."""


class BadFrameError(InputError):
    """Frame vector is not unit length and perpendicular to its anchor."""


def extreme_boundary_points(poly):
    """(x0, tri0, far): the surface point nearest the origin as tripodal_search
    snaps it, its triangle, and the id of the vertex farthest from the origin,
    the arguments of surface_path; the origin must be interior."""
    tri0, x0 = tp._locate_origin(poly)
    if x0 is None:
        raise OriginOnBoundaryError("origin lies on the surface")
    return x0, tri0, int(np.argmax(np.linalg.norm(poly.vertices, axis=1)))


def tripod_points(gamma, v, theta):
    """Companions b, c for anchor gamma and frame vector v at angle theta."""
    g = np.asarray(gamma, dtype=float)
    v = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(g))
    if r < 1e-300:
        raise BadFrameError("anchor at the origin has no frame")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9 or abs(float(v @ g)) > 1e-9 * r:
        raise BadFrameError("v must be unit and perpendicular to gamma")
    ahat = g / r
    u = np.cos(theta) * v + np.sin(theta) * np.cross(ahat, v)
    half = np.sqrt(3.0) / 2.0 * r * u
    return -0.5 * g + half, -0.5 * g - half


SIG_PP = "++"
SIG_MM = "--"
SIG_PM = "+-"
SIG_MP = "-+"
SIG_ZERO = "00"


def signature(poly, b, c) -> str:
    """Fold the companions' inside(+)/outside(-)/boundary(0) signs."""
    fb, fc = -poly.side_signs([b, c])
    if fb == 0 and fc == 0:
        return SIG_ZERO
    if fb >= 0 and fc >= 0:
        return SIG_PP
    if fb <= 0 and fc <= 0:
        return SIG_MM
    return SIG_PM if fb > 0 else SIG_MP


def cross_hrep(d: int) -> HPolytope:
    A = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    return hpolytope(A, np.ones(len(A)))


def simplex_hrep(d: int) -> HPolytope:
    # regular-enough simplex with the origin interior
    A = np.vstack([-np.eye(d), np.ones(d)])
    b = np.concatenate([np.ones(d) * 0.5, [0.5 * d + 1.0 - 0.5]])
    return hpolytope(A, b)
