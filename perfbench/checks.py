"""Independent checks of poise's outputs, in NumPy and exact arithmetic.

None of these call poise. Each returns None when the answer holds and a
short reason when it does not; tests in test_checks.py show that each one
rejects a perturbed answer.
"""

import math
from fractions import Fraction

import numpy as np


# --- distances ------------------------------------------------------------------

def segment_distances(P, A, B):
    """(m, s) distances from points P to segments A[i]B[i], any dimension."""
    P = np.atleast_2d(np.asarray(P, float))
    D = B - A
    L2 = np.maximum((D * D).sum(axis=1), 1e-300)
    t = np.clip(((P[:, None, :] - A[None]) * D[None]).sum(axis=2) / L2, 0.0, 1.0)
    Q = A[None] + t[..., None] * D[None]
    return np.linalg.norm(Q - P[:, None, :], axis=2)


def triangle_distances(P, T):
    """(m, t) distances from points P to triangles T of shape (t, 3, 3).

    Inside the prism over a triangle the distance is the plane distance;
    outside it the nearest point lies on one of the three sides.
    """
    P = np.atleast_2d(np.asarray(P, float))
    a, b, c = T[:, 0], T[:, 1], T[:, 2]
    n = np.cross(b - a, c - a)
    n /= np.maximum(np.linalg.norm(n, axis=1, keepdims=True), 1e-300)
    rel = P[:, None, :] - a[None]
    h = (rel * n[None]).sum(axis=2)
    foot = P[:, None, :] - h[..., None] * n[None]
    inside = np.ones(h.shape, bool)
    for u, v in ((a, b), (b, c), (c, a)):
        side = (np.cross(v - u, foot - u[None]) * n[None]).sum(axis=2)
        inside &= side >= 0.0
    edge = np.minimum.reduce([segment_distances(P, u, v)
                              for u, v in ((a, b), (b, c), (c, a))])
    return np.where(inside, np.abs(h), edge)


def polygon_edges(V):
    return V, np.roll(V, -1, axis=0)


def mesh_triangles(V, faces):
    return np.array([[V[f[0]], V[f[i]], V[f[i + 1]]]
                     for f in faces for i in range(1, len(f) - 1)])


def mesh_edges(V, faces):
    pairs = sorted({(min(a, b), max(a, b)) for f in faces
                    for a, b in zip(f, f[1:] + f[:1])})
    idx = np.array(pairs)
    return V[idx[:, 0]], V[idx[:, 1]]


def diameter(V):
    V = np.asarray(V, float)
    return float(np.linalg.norm(V.max(axis=0) - V.min(axis=0)))


# --- inputs: the origin strictly inside -------------------------------------------

def origin_inside_polygon(V):
    a, b = polygon_edges(np.asarray(V, float))
    turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], (a * b).sum(axis=1))
    if abs(abs(turn.sum()) - 2 * math.pi) > 1e-6:
        return "origin has winding number 0 about the polygon"
    if segment_distances(np.zeros((1, 2)), a, b).min() <= 1e-9 * diameter(V):
        return "origin lies on the polygon boundary"
    return None


def origin_inside_mesh(V, faces):
    """Winding number by summed solid angles (Van Oosterom and Strackee)."""
    T = mesh_triangles(np.asarray(V, float), faces)
    a, b, c = T[:, 0], T[:, 1], T[:, 2]
    la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
    num = (a * np.cross(b, c)).sum(axis=1)
    den = (la * lb * lc + (a * b).sum(axis=1) * lc + (b * c).sum(axis=1) * la
           + (c * a).sum(axis=1) * lb)
    wind = 2 * np.arctan2(num, den).sum() / (4 * math.pi)
    if abs(abs(wind) - 1.0) > 1e-6:
        return f"origin has winding number {wind:.3g} about the mesh"
    if triangle_distances(np.zeros((1, 3)), T).min() <= 1e-9 * diameter(V):
        return "origin lies on the mesh"
    return None


def origin_inside_hrep(A, b):
    if not (np.asarray(b) > 0).all():
        return "origin is not strictly inside every halfspace"
    return None


# --- 2D balance -------------------------------------------------------------------

def balance(V, weights, points, target=(0.0, 0.0)):
    """Weighted sum at W * target (fsum) and every point on the boundary."""
    V = np.asarray(V, float)
    pts = np.asarray(points, float)
    w = [float(x) for x in weights]
    if pts.shape != (len(w), 2):
        return f"expected {len(w)} points, got shape {pts.shape}"
    total = math.fsum(w)
    diam = diameter(V)
    res = math.hypot(*(math.fsum([wi * p[j] for wi, p in zip(w, pts)]
                                 + [-total * target[j]]) for j in range(2)))
    if res > 1e-8 * diam * total:
        return f"weighted sum misses the target by {res:.3g}"
    far = float(segment_distances(pts, *polygon_edges(V)).min(axis=1).max())
    if far > 1e-8 * diam:
        return f"a point lies {far:.3g} off the boundary"
    return None


def distinct_locations(points, tol):
    kept = []
    for p in np.asarray(points, float):
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return len(kept)


def fast_balance(V, weights, points):
    why = balance(V, weights, points)
    if why:
        return why
    n = distinct_locations(points, 1e-9 * diameter(V))
    return None if n <= 3 else f"{n} distinct locations, at most 3 allowed"


def antipodal(V, points, target=(0.0, 0.0)):
    V = np.asarray(V, float)
    pts = np.asarray(points, float)
    if pts.shape != (2, 2):
        return f"expected 2 points, got shape {pts.shape}"
    diam = diameter(V)
    gap = float(np.linalg.norm(0.5 * (pts[0] + pts[1]) - np.asarray(target)))
    if gap > 1e-8 * diam:
        return f"midpoint misses the target by {gap:.3g}"
    far = float(segment_distances(pts, *polygon_edges(V)).min(axis=1).max())
    if far > 1e-8 * diam:
        return f"a point lies {far:.3g} off the boundary"
    return None


# --- PARTITION ------------------------------------------------------------------

GADGET = np.array([(0.0, 1.0), (2.0, 2.0), (2.0, -2.0), (0.0, -1.0),
                   (-2.0, -2.0), (-2.0, 2.0)])


def equal_split_exists(values):
    """Subset-sum table over a boolean array: is there a half of the total?"""
    total = sum(values)
    if total % 2:
        return False
    reach = np.zeros(total // 2 + 1, bool)
    reach[0] = True
    for v in values:
        if v <= total // 2:
            reach[v:] = reach[v:] | reach[:len(reach) - v]
    return bool(reach[-1])


def gadget_decision(values, payload):
    if payload.get("balanceable") != equal_split_exists(values):
        return f"balanceable={payload.get('balanceable')} disagrees with subset sum"
    if not payload["balanceable"]:
        return None
    wit = payload["witness"]
    weights = [2 * sum(values)] + sorted(values, reverse=True)
    if [float(w) for w in wit["weights"]] != [float(w) for w in weights]:
        return "witness weights are not the gadget weights"
    return balance(GADGET, weights, wit["points"])


def three_groups(weights, payload):
    groups = payload["groups"]
    if sorted(i for g in groups for i in g) != list(range(len(weights))):
        return "groups do not partition the weight indices"
    exact = [Fraction(w) for w in weights]
    half = sum(exact) / 2
    if any(sum((exact[i] for i in g), Fraction(0)) > half for g in groups):
        return "a group exceeds half the total weight"
    return None


def gadget_reduction(values, payload):
    weights = [2 * sum(values)] + sorted(values, reverse=True)
    if [float(w) for w in payload["weights"]] != [float(w) for w in weights]:
        return "reduction weights are not [2T] + values in descending order"
    got = np.asarray(payload["polygon"], float)
    if got.shape != GADGET.shape or not np.allclose(
            got[np.lexsort(got.T)], GADGET[np.lexsort(GADGET.T)]):
        return "reduction polygon is not the gadget hexagon"
    return None


# --- surfaces -----------------------------------------------------------------------

def tripod(V, faces, points):
    pts = np.asarray(points, float)
    if pts.shape != (3, 3):
        return f"expected 3 points, got shape {pts.shape}"
    diam = diameter(V)
    norms = np.linalg.norm(pts, axis=1)
    if norms.max() - norms.min() > 2e-6 * diam:
        return f"norms spread by {norms.max() - norms.min():.3g}"
    if norms.min() <= 0.0:
        return "degenerate triple at the origin"
    s = float(np.linalg.norm(pts.sum(axis=0)))
    if s > 2e-6 * diam:
        return f"sum is {s:.3g} away from the origin"
    far = float(triangle_distances(pts, mesh_triangles(V, faces)).min(axis=1).max())
    if far > 2e-6 * diam:
        return f"a point lies {far:.3g} off the mesh"
    return None


def four_on_edges(V, faces, points):
    pts = np.asarray(points, float)
    if pts.shape != (4, 3):
        return f"expected 4 points, got shape {pts.shape}"
    diam = diameter(V)
    s = float(np.linalg.norm(pts.sum(axis=0)))
    if s > 1e-8 * diam:
        return f"sum is {s:.3g} away from the origin"
    far = float(segment_distances(pts, *mesh_edges(np.asarray(V, float), faces))
                .min(axis=1).max())
    if far > 1e-7 * diam:
        return f"a point lies {far:.3g} off the mesh edges"
    return None


# --- H-polytopes ----------------------------------------------------------------------

def _scale(A, b):
    return float((b / np.linalg.norm(A, axis=1)).max())


def tight_rank(A, b, x, tol):
    """Rank of the rows tight at x, or -1 when x violates a row by > tol."""
    r = (A @ x - b) / np.linalg.norm(A, axis=1)
    if r.max() > tol:
        return -1
    rows = A[np.abs(r) <= tol]
    return int(np.linalg.matrix_rank(rows, tol=1e-9)) if len(rows) else 0


def halving(A, b, x):
    x = np.asarray(x, float)
    d = A.shape[1]
    tol = 1e-6 * _scale(A, b)
    for point, need, what in ((x, d - d // 2, "x"), (-x, d - (d + 1) // 2, "-x")):
        rank = tight_rank(A, b, point, tol)
        if rank < 0:
            return f"{what} lies outside the polytope"
        if rank < need:
            return f"{what} has tight-row rank {rank}, needs {need}"
    return None


def skeleton(A, b, points, count, target=None):
    pts = np.asarray(points, float)
    d = A.shape[1]
    if pts.shape != (count, d):
        return f"expected {count} points in R^{d}, got shape {pts.shape}"
    target = np.zeros(d) if target is None else np.asarray(target, float)
    scale = _scale(A, b)
    miss = float(np.linalg.norm(pts.sum(axis=0) - count * target))
    if miss > 1e-7 * scale * count:
        return f"sum misses count*target by {miss:.3g}"
    for p in pts:
        rank = tight_rank(A, b, p, 1e-6 * scale)
        if rank < 0:
            return "a point lies outside the polytope"
        if rank < d - 1:
            return f"a point has tight-row rank {rank}, not on an edge"
    return None


def separation(payload, expect_empty):
    got = payload.get("empty")
    if got is not expect_empty:
        return f"empty={got}, expected {expect_empty}"
    return None
