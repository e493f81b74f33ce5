"""Balanced point placements on H-polytope skeletons.

Builds on the halfspace kernel: a halving witness (a boundary point x with
x and -x on low-dimensional faces), recursive placements of 2^k points or
d points on the 1-skeleton with barycenter at the target, an exhaustive
edge-triple solver in 3D, and product fixtures whose low skeletons avoid
the reflected body entirely, with prop9_check, which decides that from
the vertices and edges of H and the vertices of H (intersect) -H, with no
LP on a face. Placements and their verifier live in poise.skeleton.
"""

from dataclasses import dataclass

from itertools import combinations_with_replacement, islice
import math
import sys

import numpy as np

from .certificate import Certificate, FaceD
from .errors import (
    InputError,
    NotFoundError,
    UnsupportedDimensionError,
    WalkFailedError,
)
from .polytoped import (
    RANK_TOL,
    HPolytope,
    _lazy_scipy,
    edges,
    hpolytope,
    point_faces,
    product,
)
from .skeleton import SkeletonPlacement

# largest k for pow2_points (2^k points): on the 3-cube, on a 2-vCPU Xeon,
# k = 14 takes about 4 s and 128 MB and k = 16 about 15 s and 257 MB
POW2_MAX_K = 16

# slack of the edge parameters' [0, 1] window in three_on_edges
EPS_T = 1e-9
# first and largest block of edge triples three_on_edges solves at once
EDGE_FIRST_BLOCK = 256
EDGE_BLOCK = 1 << 16

__getattr__ = _lazy_scipy(__name__, {"linprog": "scipy.optimize"})
_module = sys.modules[__name__]         # call sites read linprog here


@dataclass
class HalvingWitness:
    x: np.ndarray
    face_P: FaceD            # face of P containing x, dim <= floor(d/2)
    face_negP: FaceD         # face of P containing -x, dim <= ceil(d/2)
    vertex_type: tuple       # (j, d - j): rows of P and of -P in the basis
    attempts: int            # always 1; see halving_point


@dataclass
class HalvingCertificate(Certificate):
    violation: float          # largest distance of x or -x outside P
    boundary_distance: float  # the larger distance of x, -x to the boundary
    dim_P: int                # dimension of the face of P holding x
    dim_negP: int             # dimension of the face of P holding -x
    eps_geom: float
    d: int

    def limits(self):
        return (("violation", self.violation, self.eps_geom),
                ("boundary_distance", self.boundary_distance, self.eps_geom),
                ("face_P_dim", self.dim_P, self.d // 2),
                ("face_negP_dim", self.dim_negP, (self.d + 1) // 2))


# --- halving witness ---------------------------------------------------------

# a slack (in units of the largest offset) or a cosine between a unit normal
# and the unit walk direction at or below this counts as zero
_TIE = 1e-9


def halving_point(H: HPolytope) -> HalvingWitness:
    """Boundary point x with x on a floor(d/2)-face of P and -x likewise.

    One simplex walk on C = P (intersect) -P. Row i < m of C is row i of P
    and row i + m its mirror -a_i.x <= b_i, on unit normals with offsets
    divided by the largest. Both get the offset b_i + eps^(i+1), a symbolic
    perturbation (Edelsbrunner and Muecke 1990, "Simulation of Simplicity")
    that keeps C centrally symmetric and makes it simple; the lexicographic
    ratio test of Dantzig, Orden and Wolfe (1955) is that perturbation.
    A ray from the origin, continued in the null space of the rows it
    meets, reaches a basis B0. Maximising c = -(sum of B0's normals), whose
    unique optimum is the mirror basis -B0, Dantzig's rule picks the row
    that leaves. Each pivot swaps one row, so the count of P rows passes
    ceil(d/2) on the way, and x is the point of the first such basis. Its
    faces are those of x and -x, from the rows within H.eps_geom() of each.
    """
    keep = np.flatnonzero(~H.zero_rows())
    if not (H.b[keep] > 0).all():
        raise InputError("halving needs the origin strictly interior (b > 0)")
    norms = np.linalg.norm(H.A[keep], axis=1)
    scale = float((H.b[keep] / norms).max())
    A = H.A[keep] / norms[:, None]
    AC = np.vstack([A, -A])
    bC = np.tile(H.b[keep] / norms / scale, 2)
    m, d = A.shape
    target = (d + 1) // 2

    basis, M = [], np.zeros((d, 0))        # x(eps) = M @ (bC + eps)[basis]
    while len(basis) < d:
        u = _null_space(AC[basis])[:, 0] if basis else np.eye(d)[0]
        r = _entering(AC, bC, m, basis, M, u)
        au = AC[r] @ u
        M = np.column_stack([M - np.outer(u, AC[r] @ M) / au, u / au])
        basis.append(r)
    c = -AC[basis].sum(axis=0)
    for _ in range(4 * len(AC) + d):
        if sum(r < m for r in basis) == target:
            break
        M = np.linalg.inv(AC[basis])
        lam = M.T @ c                      # c = sum of lam_j times basis normal j
        p = int(np.argmin(lam))
        if lam[p] >= 0.0:
            raise WalkFailedError("walk reached the mirror basis without "
                                  f"meeting {target} rows of P")
        u = -M[:, p] / np.linalg.norm(M[:, p])
        basis[p] = _entering(AC, bC, m, basis, M, u)
    else:
        raise WalkFailedError("halving walk exceeded its pivot bound")

    x = scale * np.linalg.solve(AC[basis], bC[basis])
    face_P, face_negP = point_faces(H, [x, -x], H.eps_geom())
    # attempts is always 1, as nothing is retried; it stays because the
    # traced benchmark (perfbench/spans.py) counts it
    return HalvingWitness(x, face_P, face_negP, (target, d - target), 1)


def _entering(AC, bC, m, basis, M, u):
    """Row that a move along u from the point of basis meets first.

    Rows tied on the real ratio are ranked by their eps-coefficients: row
    r's slack is bC_r + eps^r - AC_r M (bC + eps)[basis], over AC_r.u, with
    eps^r shared by row r and its mirror and lower powers ranking first.
    """
    au = AC @ u
    s = bC - AC @ (M @ bC[basis])
    cand = np.flatnonzero(au > _TIE)
    if not len(cand):
        raise WalkFailedError("halving walk found an unbounded direction")
    tmin = (s[cand] / au[cand]).min()
    tied = cand[s[cand] - tmin * au[cand] <= _TIE]
    if len(tied) == 1:
        return int(tied[0])
    power = np.arange(len(AC)) % m
    powers = np.unique(np.concatenate([power[basis], power[tied]]))
    coef = np.zeros((len(tied), len(powers)))
    coef[:, np.searchsorted(powers, power[basis])] = -(AC[tied] @ M)
    coef[np.arange(len(tied)), np.searchsorted(powers, power[tied])] += 1.0
    coef /= au[tied, None]
    alive = np.arange(len(tied))
    tol = _TIE * np.abs(coef).max()
    for col in coef.T:
        v = col[alive]
        alive = alive[v <= v.min() + tol]
        if len(alive) == 1:
            break
    return int(tied[alive[0]])


def _null_space(A):
    """Orthonormal null-space columns, by scipy.linalg.null_space's rule:
    singular values above max(shape) * eps * s_max count."""
    _, s, vt = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * s.max(initial=0.0)
    return vt[int((s > tol).sum()):].T


# --- recursive placements ----------------------------------------------------

@dataclass
class _Chart:
    """Affine coordinates of a face: ambient = base + y @ basis."""
    base: np.ndarray         # (d,) carried target, local origin
    basis: np.ndarray        # (f, d) orthonormal rows
    A: np.ndarray            # (mf, f)
    b: np.ndarray            # (mf,) slacks at the local origin
    face: HPolytope = None   # the polytope A y <= b, where already built


def _descend(chart: _Chart) -> _Chart:
    """Drop to the minimal face holding the local origin in its interior:
    the chart itself, built face and all, when no row is tight there."""
    A, b, basis = chart.A, chart.b, chart.basis
    while len(basis):
        eps = 1e-8 * float(np.abs(b).max()) if len(b) else 0.0
        tight = b <= eps
        if not tight.any():
            break
        ns = _null_space(A[tight])
        if ns.shape[1] == 0:
            basis = np.empty((0, chart.base.shape[0]))
            A, b = np.empty((0, 0)), np.empty(0)
            break
        A2, b2 = A[~tight] @ ns, b[~tight]
        nrm = np.linalg.norm(A2, axis=1)
        keep = nrm > 1e-10
        A, b = A2[keep] / nrm[keep, None], b2[keep] / nrm[keep]
        # facets through one ridge project onto one row: drop a row within
        # RANK_TOL of an earlier one in unit normal and offset over the largest
        keep = ~_near_earlier(np.column_stack([A, b / b.max(initial=0.0)]))
        A, b = A[keep], b[keep]
        basis = ns.T @ basis
    if basis is chart.basis:
        return chart
    return _Chart(chart.base, basis, A, b)


def _near_earlier(rows):
    """Per row: is an earlier row within RANK_TOL of it in every coordinate?
    Such rows are within RANK_TOL sum(w) on the key rows @ w, w generic (no
    single column: on a 1-face chart the first is +-1 in every row). Sorted
    on the key, each row is compared with the next k-th, k = 1, 2, ..., while
    some row has one in reach: one pair per row at a time, not all pairs."""
    w = np.sqrt(np.arange(2.0, rows.shape[1] + 2.0))
    key = rows @ w
    order = np.argsort(key, kind="stable")
    s = rows[order]
    # twice the bound, for the keys' rounding: the exact test below decides
    reach = np.searchsorted(key[order], key[order] + 2 * RANK_TOL * w.sum(),
                            side="right") - np.arange(len(s))
    out = np.zeros(len(s), dtype=bool)
    for k in range(1, int(reach.max(initial=0))):
        i = np.flatnonzero(reach[:-k] > k)
        near = (np.abs(s[i] - s[i + k]) <= RANK_TOL).all(axis=1)
        out[np.maximum(order[i], order[i + k])[near]] = True
    return out


def _translate(chart: _Chart, y) -> _Chart:
    y = np.asarray(y, dtype=float)
    return _Chart(chart.base + y @ chart.basis, chart.basis,
                  chart.A, chart.b - chart.A @ y)


def _place(chart: _Chart, count: int, out: list):
    """count points on the chart face's 1-skeleton summing to count times
    its origin: all at the origin of a <= 1-face, three on a 3-face's edges,
    else half at x, half at -x of a halving. Three on a 2-face are the foot
    p of the row of least unit offset h, where the inscribed ball of radius
    h touches that row, and the halving points about -p/2, which is at
    least h/2 inside every row."""
    chart = _descend(chart)
    f = len(chart.basis)
    if f <= 1:
        out.extend([chart.base.copy() for _ in range(count)])
        return
    if count == 3 and f == 2:
        norms = np.linalg.norm(chart.A, axis=1)
        live = np.flatnonzero(norms > 0)    # a zero row only on the root chart
        i = live[np.argmin(chart.b[live] / norms[live])]
        p = chart.A[i] * (chart.b[i] / norms[i] ** 2)
        out.append(chart.base + p @ chart.basis)
        _place(_translate(chart, -p / 2), 2, out)
        return
    # a face of a checked polytope whose slacks at the local origin _descend
    # left above 1e-8 max|b|: bounded and solid, so hpolytope's check is moot
    face = chart.face or HPolytope(chart.A, chart.b)
    if count == 3 and f == 3:
        pts = three_on_edges(face, np.zeros(3)).points()
        out.extend(chart.base + p @ chart.basis for p in pts)
        return
    if count % 2:
        raise InputError(f"odd count {count} on a {f}-face")
    wit = halving_point(face)
    _place(_translate(chart, wit.x), count // 2, out)
    _place(_translate(chart, -wit.x), count // 2, out)


def _root_chart(H: HPolytope) -> _Chart:
    if not (H.b[~H.zero_rows()] > 0).all():
        raise InputError("target must be strictly interior")
    return _Chart(np.zeros(H.d), np.eye(H.d), H.A, H.b, H)


def pow2_points(H: HPolytope, k: int) -> SkeletonPlacement:
    """2^k points on the 1-skeleton of H with barycenter at the origin.

    Recursively halves: a halving witness splits the problem into two
    faces of roughly half the dimension, each carrying half the points,
    down to dimension 2, whose witness x and -x lie on edges; dimension
    <= 1 collapses all points onto the target.
    """
    if k > POW2_MAX_K:
        raise InputError(f"k = {k} exceeds the limit {POW2_MAX_K} "
                         f"(2^k points; memory grows with 2^k)")
    if k < 0 or H.d > 2 ** k:
        raise InputError(f"need d <= 2^k, got d={H.d}, k={k}")
    return _placement_from_recursion(H, 2 ** k)


def compose_balance(H: HPolytope) -> SkeletonPlacement:
    """d points on the 1-skeleton summing to the origin, d = 2^i * 3^j, j <= 1.

    Same recursion as pow2_points, with three_on_edges as the ternary base
    case on 3-faces; on a 2-face one boundary point and a halving about a
    shifted centre give the three (see _place).
    """
    n = H.d
    while n % 2 == 0:
        n //= 2
    if n not in (1, 3):
        raise UnsupportedDimensionError(
            f"dimension {H.d} is not 2^i * 3^j with j <= 1")
    return _placement_from_recursion(H, H.d)


def _placement_from_recursion(H, count):
    pts = []
    _place(_root_chart(H), count, pts)
    return SkeletonPlacement(list(zip(pts, point_faces(H, pts, H.eps_geom()))),
                             count, np.zeros(H.d))


# --- edge triples in 3D ------------------------------------------------------

def three_on_edges(H: HPolytope, target=None) -> SkeletonPlacement:
    """Three points on edges of a 3-polytope with barycenter at the target.

    Scans unordered edge triples (repeats allowed) in lexicographic order,
    in blocks of EDGE_FIRST_BLOCK triples doubling up to EDGE_BLOCK, and
    solves the 3x3 system in the edge parameters; singular systems that
    _hopeless does not drop fall back to a line or plane intersection with
    the parameter cube. The first triple meeting the residual gate wins.
    """
    if H.d != 3:
        raise InputError("edge-triple balancing is a 3-polytope operation")
    target = np.zeros(3) if target is None else np.asarray(target, dtype=float)
    if target.shape != (3,) or not np.all(np.isfinite(target)):
        raise InputError(f"target must be 3 finite numbers, got {target.tolist()}")
    if H.unit_residuals(target).max() > H.eps_tight():
        raise InputError("target must lie inside the polytope")

    V = H.vrep
    edge_faces, ends = edges(H)
    U = V.vertices[ends[:, 0]]
    D = V.vertices[ends[:, 1]] - U
    ne = len(ends)
    scale = max(V.diam, 1e-300)
    tol_res = 1e-10 * scale
    # the determinant test runs on M * f, f the power of two that puts
    # scale * f in [1, 2): exact, and neither side overflows on a big polytope
    f = math.ldexp(1.0, 1 - math.frexp(scale)[1])
    det_tol = 1e-12 * (scale * f) ** 3

    combos = combinations_with_replacement(range(ne), 3)
    size = EDGE_FIRST_BLOCK                # the lambda reads its current value
    for block in iter(lambda: list(islice(combos, size)), []):
        trips = np.array(block)
        M = np.stack([D[trips[:, 0]], D[trips[:, 1]], D[trips[:, 2]]], axis=2)
        rhs = 3.0 * target - (U[trips[:, 0]] + U[trips[:, 1]] + U[trips[:, 2]])
        nonsing = np.abs(np.linalg.det(M * f)) > det_tol
        tsol = np.full((len(trips), 3), np.nan)
        if nonsing.any():
            tsol[nonsing] = np.linalg.solve(M[nonsing], rhs[nonsing, :, None])[:, :, 0]
        window = (nonsing & (tsol >= -EPS_T).all(axis=1)
                  & (tsol <= 1 + EPS_T).all(axis=1))
        sing = np.flatnonzero(~nonsing)
        window[sing[~_hopeless(M[sing], rhs[sing], scale)]] = True

        for idx in np.flatnonzero(window):
            if nonsing[idx]:
                t = np.clip(tsol[idx], 0.0, 1.0)
            else:
                t = _singular_triple(M[idx], rhs[idx], scale)
                if t is None:
                    continue
            i, j, k = trips[idx]
            pts = np.array([U[i] + t[0] * D[i], U[j] + t[1] * D[j],
                            U[k] + t[2] * D[k]])
            if np.linalg.norm(pts.sum(axis=0) - 3.0 * target) > tol_res:
                continue
            entries = [(pts[0], edge_faces[i]), (pts[1], edge_faces[j]),
                       (pts[2], edge_faces[k])]
            return SkeletonPlacement(entries, 3, target)
        size = min(2 * size, EDGE_BLOCK)
    raise NotFoundError(
        f"no balanced edge triple: {ne} edges, {math.comb(ne + 2, 3)} triples "
        f"scanned, target {target.tolist()}")


def _hopeless(M, rhs, scale):
    """Singular M t = rhs that no t in [0, 1]^3 solves within twice the
    1e-9 scale gate: |M t - rhs| >= |u.rhs| - sqrt(3) s, s M's least
    singular value and u its left singular vector."""
    u, sv, _ = np.linalg.svd(M)
    off = np.abs(np.einsum("ni,ni->n", u[:, :, 2], rhs)) - math.sqrt(3.0) * sv[:, 2]
    return off > 2e-9 * scale


def _singular_triple(M, rhs, scale):
    """Solve M t = rhs with t in [0,1]^3 when M is rank-deficient."""
    u, sv, vt = np.linalg.svd(M)
    rank = int((sv > 1e-12 * max(sv[0], scale)).sum())
    t0, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    if np.linalg.norm(M @ t0 - rhs) > 1e-9 * scale:
        return None
    if rank == 3:
        t = t0
    elif rank == 2:
        n = vt[2]
        lo, hi = -np.inf, np.inf
        for c in range(3):
            if abs(n[c]) <= 1e-12:
                if not (-EPS_T <= t0[c] <= 1.0 + EPS_T):
                    return None
                continue
            a, b = (0.0 - t0[c]) / n[c], (1.0 - t0[c]) / n[c]
            lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
        if lo > hi + EPS_T:
            return None
        lam = min(max(0.0, lo), hi)
        t = t0 + lam * n
    else:
        res = _module.linprog(np.ones(3), A_eq=M, b_eq=rhs,
                              bounds=[(0.0, 1.0)] * 3, method="highs")
        if res.status != 0:
            return None
        t = res.x
    if (t < -EPS_T).any() or (t > 1.0 + EPS_T).any():
        return None
    return np.clip(t, 0.0, 1.0)


# --- product fixtures and low-skeleton separation -----------------------------

def prop9_fixture(d: int) -> HPolytope:
    """Product polytope whose k-skeleton misses its reflection for small k.

    Even d: the d/2-fold product of the equilateral triangle T with
    vertices (1,0), (-1/2, +-sqrt(3)/2); odd d: [-1,2] x T^((d-1)/2).
    """
    if d < 2:
        raise InputError("fixture needs d >= 2")
    s = math.sqrt(3.0) / 2.0
    tri = hpolytope([[-1.0, 0.0], [0.5, -s], [0.5, s]], [0.5, 0.5, 0.5])
    iv = hpolytope([[1.0], [-1.0]], [2.0, 1.0])
    out = iv if d % 2 else tri
    for _ in range((d - 2 if d % 2 == 0 else d - 1) // 2):
        out = product(out, tri)
    return out


def prop9_check(H: HPolytope, k: int) -> bool:
    """True iff no face of dim <= k of H meets the reflected body -H.

    A face G of H meets C = H (intersect) -H in a face of C, which holds a
    vertex of C (Ziegler, Lectures on Polytopes, ch. 2): the answer is
    whether every vertex of C lies on faces of H above dimension k, by
    point_faces, with eps_geom the tolerance of every step. An origin
    outside H leaves C empty: x and -x in H put their midpoint 0 in H.
    H's vertices and edges answer k <= 1, and every k if one meets -H:
    Qhull fails on C where each vertex of H lies on a hundred rows or more
    (tests/data/tiny7.hrep, most random 7-hulls of 18 points), and an edge
    meets -H there. Otherwise C is enumerated on the minimal face of H that
    holds the origin in its interior.
    """
    if k < 0:
        raise InputError("face dimension bound must be >= 0")
    eps = H.eps_geom()
    if (H.unit_residuals(np.zeros(H.d)) > eps).any():
        return True
    low = _lowest_face_meeting_reflection(H, eps)
    if low < 2 or k < 2:
        return k < low
    chart = _descend(_Chart(np.zeros(H.d), np.eye(H.d), H.A, H.b))
    xs = chart.base[None, :]
    if len(chart.basis):
        # offsets above 1e-8 max|b| on a face of a checked polytope, as in
        # _place: bounded and solid, so hpolytope's check is moot
        C = HPolytope(np.vstack([chart.A, -chart.A]), np.tile(chart.b, 2))
        xs = chart.base + C.vrep.vertices @ chart.basis
    return min(f.dim for f in point_faces(H, xs, eps)) > k


def _lowest_face_meeting_reflection(H: HPolytope, eps) -> int:
    """0 if a vertex of H is within eps of -H in unit residuals, else 1 if an
    edge u + t (v - u), t in [0, 1], is (each row of -H bounds t on one
    side), else 2."""
    V = H.vrep.vertices
    if (H.unit_residuals(-V) <= eps).all(axis=1).any():
        return 0
    _, ends = edges(H)
    U = V[ends[:, 0]]
    p = -U @ H.A.T - H.b - eps * H.norms        # p + t q <= 0 on every row
    q = -(V[ends[:, 1]] - U) @ H.A.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -p / q
    lo = np.where(q < 0, t, 0.0).max(axis=1, initial=0.0)
    hi = np.where(q > 0, t, 1.0).min(axis=1, initial=1.0)
    return 1 if ((lo <= hi) & ((q != 0) | (p <= 0)).all(axis=1)).any() else 2


# --- verification -------------------------------------------------------------

def verify_halving(H: HPolytope, x) -> HalvingCertificate:
    """x and -x lie on the boundary of P within eps_geom, on faces of P of
    dimension <= floor(d/2) and <= ceil(d/2) respectively.

    eps_geom is 1e-7 * H.scale, a bound on H's width from its rows; a row
    counts as tight within eps_geom and a face's dimension is d minus
    the rank of its tight rows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (H.d,):
        raise InputError(f"need a point of shape ({H.d},)")
    eps = H.eps_geom()
    r = np.array([H.unit_residuals(x), H.unit_residuals(-x)])
    face_P, face_negP = point_faces(H, [x, -x], eps)
    return HalvingCertificate(max(float(r.max()), 0.0),
                              float(np.abs(r).min(axis=1).max()),
                              face_P.dim, face_negP.dim, eps, H.d)
