"""Closed oriented polyhedral surfaces: OFF files, point classification,
surface paths, perpendicular frame fields, and planar cross-sections, one
chord per cut triangle.

Faces are vertex-index loops, CCW seen from outside. Everything metric runs
on the fan/ear triangulation; face ids always refer to the original loops.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSectionError,
    DisconnectedError,
    InputError,
    NoLoopContainsOriginError,
    NonPlanarFaceError,
    OpenSurfaceError,
    ParseError,
    RayCastError,
    SubdivisionLimitError,
)
from .geom2d import Polygon2

EPS_GEOM_REL = 1e-9

# ray directions for parity tests: fixed, irrational-ish, in retry order
_RAY_DIRS = np.array([
    [0.57735026918962576, 0.30028310963471227, 0.76095228569524860],
    [0.27261862555534123, 0.89442719099991588, -0.35355339059327373],
    [-0.80178372573727319, 0.26726124191242440, 0.53452248382484879],
    [0.12309149097933272, -0.49236596391733095, 0.86164043685532309],
    [0.90453403373329089, -0.30151134457776363, 0.30151134457776363],
    [-0.18257418583505536, 0.36514837167011072, -0.91287092917527679],
    [0.70710678118654752, 0.40824829046386302, 0.57735026918962576],
    [-0.50709255283710986, -0.84515425472851657, 0.16903085094570331],
    [0.32444284226152509, 0.48666426339228763, 0.81110710565381272],
    [-0.59628479399994383, 0.29814239699997192, 0.74535599249992989],
    [0.45584231742130190, -0.56980289677662737, -0.68376347613195285],
    [0.87287156094396952, 0.21821789023599239, -0.43643578047198478],
    [-0.09853292781642932, 0.78826342253143455, 0.60746638485796746],
    [0.64699664397735786, -0.64699664397735786, 0.40437290248584866],
    [-0.36650833485098543, -0.54976250227647814, 0.75063374815267762],
    [0.21693045781865616, 0.65079137345596849, -0.72762820614740413],
])
_RAY_DIRS /= np.linalg.norm(_RAY_DIRS, axis=1)[:, None]

_PAIR_BUDGET = 1 << 16   # point-triangle pairs per block of a batched query
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Plane3:
    normal: tuple
    offset: float = 0.0

    def unit_normal(self) -> np.ndarray:
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise InputError(f"plane normal must be 3 finite numbers, got {self.normal}")
        big = np.abs(n).max()
        if big == 0.0:
            raise InputError("zero plane normal")
        # max|n_i| into [0.5, 1) by a power of two: exact, even from a subnormal
        n = np.ldexp(n, -np.frexp(big)[1])
        return n / np.linalg.norm(n)


@dataclass(frozen=True, eq=False)
class PlaneFrame:
    """Orthonormal axes u, w of a plane through `origin`. to2d projects with
    `rel @ u`, `rel @ w` on the shape given: points and loops keep their rounding."""

    origin: np.ndarray
    u: np.ndarray
    w: np.ndarray

    @classmethod
    def about(cls, origin, normal):
        return cls(origin, *_plane_basis(normal))

    def to3d(self, pt2):
        pt2 = np.asarray(pt2, dtype=float)
        return self.origin + pt2[..., 0, None] * self.u + pt2[..., 1, None] * self.w

    def to2d(self, pt3):
        rel = np.asarray(pt3, dtype=float) - self.origin
        return np.stack([rel @ self.u, rel @ self.w], axis=-1)


class Polyhedron3:
    """Validated closed oriented surface; build via validate_polyhedron/load_off.
    Faces are int lists; edges the (a, b) with a < b, sorted and read-only."""

    def __init__(self, vertices, faces, tris, tri_face, edges):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces, self.edges = faces, edges
        self.tris = np.asarray(tris, dtype=int)
        self.tri_face = np.asarray(tri_face, dtype=int)
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        self.diam = float(np.linalg.norm(hi - lo))
        v0 = self.vertices[self.tris[:, 0]]
        v1 = self.vertices[self.tris[:, 1]]
        v2 = self.vertices[self.tris[:, 2]]
        self._tv0 = v0
        self._ab = v1 - v0
        self._ac = v2 - v0
        self._tn = _cross(self._ab, self._ac)
        self._tnn = np.linalg.norm(self._tn, axis=1)
        self._rays = {}     # ray direction index -> per-triangle ray data
        self._grids = {}    # ray direction index -> its bucket grid, see _ray_grid
        self._frames = {}   # face id -> face_frame(fid), filled on first use

    def eps_geom(self) -> float:
        return EPS_GEOM_REL * self.diam

    def face_frame(self, fid):
        """(PlaneFrame about the centroid, unit outward normal, Polygon2 of
        the loop in that frame) of face fid, computed once, on first use."""
        if fid not in self._frames:
            loop = self.faces[fid]
            nrm, cen = _face_frame(self.vertices, loop, self.diam)
            frame = PlaneFrame.about(cen, nrm)
            self._frames[fid] = (frame, nrm,
                                 Polygon2(frame.to2d(self.vertices[loop])))
        return self._frames[fid]

    # --- batched metric queries ------------------------------------------
    # Points run in Morton-ordered blocks of about _PAIR_BUDGET point-triangle
    # pairs. Each block scans only the triangles that can change its answers
    # (box culling, Ericson, Real-Time Collision Detection, ch. 5.1 and 6):
    # the answers of an all-pairs scan, bit for bit. A parity query of more
    # than one block looks up each point's triangles in a per-direction
    # bucket grid instead (ch. 7.1) and tests the flat pairs in chunks of at
    # most _PAIR_BUDGET; a one-block query keeps the block scan, which costs
    # less than building the grid.

    @cached_property
    def _boxes(self):
        """Triangle boxes; vertices (all used), their squared norms, max |coord|."""
        corners = self.vertices[self.tris]
        used = self.vertices
        return (corners.min(axis=1), corners.max(axis=1), used,
                np.einsum("vj,vj->v", used, used), np.abs(used).max())

    def closest_points(self, points):
        """Per point: (distance, global tri index, closest point on surface)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = len(pts)
        best_d2, best_tri, best_cp = np.empty(m), np.empty(m, dtype=int), np.empty((m, 3))
        for idx in _morton_blocks(pts, len(self.tris)):
            p = pts[idx]
            tri = self._near_tris(p)
            cp = _closest_on_triangles(p, self._tv0[tri], self._ab[tri], self._ac[tri])
            d2 = np.einsum("mtj,mtj->mt", cp - p[:, None, :], cp - p[:, None, :])
            ti = np.argmin(d2, axis=1)
            rows = np.arange(len(p))
            best_d2[idx], best_cp[idx] = d2[rows, ti], cp[rows, ti]
            best_tri[idx] = tri[ti]
        return np.sqrt(best_d2), best_tri, best_cp

    def _near_tris(self, p):
        """Ascending ids of the triangles that can be nearest to a point of p,
        each point being within sqrt(bound) of a vertex. The slack covers
        rounding; a bound that overflows or is NaN keeps every triangle."""
        lo, hi, used, used2, vabs = self._boxes
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = np.einsum("mj,mj->m", p, p)[:, None] - 2.0 * (p @ used.T) + used2
            bound = d2.min(axis=1).max()
            slack = 1e-6 * (np.abs(p).max() + vabs)
            bound = bound + 1e-6 * bound + slack * slack
            gap = np.maximum(np.maximum(lo - p.max(axis=0), p.min(axis=0) - hi), 0.0)
            far = np.einsum("tj,tj->t", gap, gap) > bound
        return np.flatnonzero(~far)

    def contains(self, points):
        """Parity test per point; callers keep points off the surface. Each
        ray direction's _ray_hits takes a query of more than one block
        through the bucket grid, a one-block query through the block scan."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts), dtype=bool)
        todo = np.arange(len(pts))
        for k in range(len(_RAY_DIRS)):
            if len(todo) == 0:
                break
            cnt, bad = self._ray_hits(pts[todo], k)
            ok = ~bad
            out[todo[ok]] = (cnt[ok] % 2) == 1
            todo = todo[bad]
        if len(todo):
            raise RayCastError("parity ray casting failed for some points")
        return out

    def _ray_data(self, k):
        """Once per direction: Moller-Trumbore's h and f = 1/a, parallel flags,
        normal lengths, and for _ray_tris the triangles' boxes in the frame
        (u, w, d), their low d ends at -inf, and per box the growth terms g0
        and g1 of the rounding bound g0 + S g1 on each axis."""
        if k not in self._rays:
            d = _RAY_DIRS[k]
            h = _cross(d, self._ac)
            a = np.einsum("tj,tj->t", self._ab, h)
            nn = self._tnn
            para = np.abs(a) <= 1e-12 * np.maximum(nn, 1e-300)
            f = np.zeros_like(a)
            f[~para] = 1.0 / a[~para]
            frame = np.stack(_plane_basis(d) + (d,))
            corners = (self.vertices @ frame.T)[self.tris]
            lo, hi = corners.min(axis=1), corners.max(axis=1)
            lab, lac = np.linalg.norm(self._ab, axis=1), np.linalg.norm(self._ac, axis=1)
            with np.errstate(over="ignore", invalid="ignore"):
                rho = _EPS * (64.0 * lab * lac * np.abs(f) + 8.0)
                ext = 32.0 * (hi - lo).max(axis=1)
                g0 = np.where(rho < 0.05, ext * (1e-9 + rho), np.inf)
                g1 = 64.0 * _EPS * (ext * (lab + lac) * np.abs(f) + 1.0)
                g0 = g0[:, None] + [0.0, 0.0, 1e-9 * self.diam]
                g1 = g1[:, None] + np.outer(16.0 * rho, [0.0, 0.0, 1.0])
            lo[:, 2] = -np.inf
            self._rays[k] = (h, f, para, nn, frame, lo, hi, g0, g1)
        return self._rays[k]

    def _ray_hits(self, pts, k):
        """Crossing counts along _RAY_DIRS[k] plus degeneracy flags. In a
        query of more than one block (m ntri > _PAIR_BUDGET), the points that
        _ray_grid serves take their triangles from it (_grid_pairs); the
        others scan Morton blocks against _ray_tris, as every point of a
        one-block query does. The same Moller-Trumbore values decide either
        way, and the parallel triangles' in-plane test runs on every point."""
        d = _RAY_DIRS[k]
        h, f, para, nn, frame = self._ray_data(k)[:5]
        eps_t = 1e-9 * self.diam
        m = len(pts)
        counts = np.zeros(m, dtype=int)
        bad = np.zeros(m, dtype=bool)
        rest = np.arange(m)       # the rows that scan blocks
        if m * len(self.tris) > _PAIR_BUDGET:
            cap, *grid = self._ray_grid(k)
            with np.errstate(over="ignore", invalid="ignore"):
                c = frame @ pts.T
                S = np.abs(pts).max(axis=1) + self._boxes[4]   # per row, as _ray_tris
                near = np.isfinite(c).all(axis=0) & (S <= cap)
            rest, near = np.flatnonzero(~near), np.flatnonzero(near)
            for i, t in _grid_pairs(grid, c[:, near]):
                i = near[i]
                good, loose = _mt_crossings(pts[i] - self._tv0[t], h[t], f[t],
                                            self._ab[t], self._ac[t], d, eps_t)
                counts += np.bincount(i[good], minlength=m)
                bad |= np.bincount(i[loose & ~good], minlength=m) > 0
        for idx in _morton_blocks(pts[rest], len(self.tris)):
            idx = rest[idx]
            p = pts[idx]
            tri = self._ray_tris(p, k)
            good, loose = _mt_crossings(p[:, None, :] - self._tv0[tri], h[tri], f[tri],
                                        self._ab[tri], self._ac[tri], d, eps_t)
            counts[idx] = good.sum(axis=1)
            bad[idx] = (loose & ~good).any(axis=1)
        if para.any():
            # a ray inside the plane of a parallel triangle breaks parity
            tv0, tn = self._tv0[para], self._tn[para]
            tol = eps_t * np.maximum(nn[para], 1e-300)
            size = max(1, _PAIR_BUDGET // len(tn))
            for a in range(0, m, size):
                s = pts[a:a + size, None, :] - tv0
                bad[a:a + size] |= (np.abs(np.einsum("mtj,tj->mt", s, tn)) <= tol).any(axis=1)
        return counts, bad

    def _ray_grid(self, k):
        """Bucket grid of ray direction k (Ericson, Real-Time Collision
        Detection, 7.1), built on first use: the non-parallel triangles'
        boxes in the frame (u, w, d), grown by the _ray_tris bound at S =
        cap = 4 max |vertex|, binned by (u, w) on an n x n grid over the
        triangles' extent, n = isqrt of their count. It serves the points
        with max |p| + max |vertex| <= cap, so every point of the ball about
        the origin through the farthest vertex. Holds the cap, the inner cell
        edges per axis, the cells' CSR start offsets into their triangle ids,
        the triangles of unbounded growth, which every cell holds, and the
        grown boxes' low and high ends per axis."""
        if k not in self._grids:
            _, _, para, _, _, lo, hi, g0, g1 = self._ray_data(k)
            cap = 4.0 * self._boxes[4]
            with np.errstate(over="ignore", invalid="ignore"):
                grow = g0 + cap * g1
                glo = np.where(grow >= 0.0, lo - grow, -np.inf).T    # no usable bound: kept
                ghi = np.where(grow >= 0.0, hi + grow, np.inf).T
                wide = ~np.isfinite(glo[:2] + ghi[:2]).all(axis=0) & ~para
                live = np.flatnonzero(~(para | wide))
                n = max(1, math.isqrt(len(live)))
                edges = np.linspace(lo[:, :2].min(axis=0), hi[:, :2].max(axis=0), n + 1)[1:-1].T
            c0, c1 = ([np.searchsorted(edges[j], b[j, live], "right") for j in (0, 1)]
                      for b in (glo, ghi))
            nw = c1[1] - c0[1] + 1
            cnt = (c1[0] - c0[0] + 1) * nw
            r = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            nw = np.repeat(nw, cnt)
            cell = np.repeat(c0[0] * n + c0[1], cnt) + (r // nw) * n + r % nw
            order = np.argsort(cell, kind="stable")
            start = np.searchsorted(cell[order], np.arange(n * n + 1))
            self._grids[k] = (cap, edges, start, np.repeat(live, cnt)[order],
                              np.flatnonzero(wide), np.ascontiguousarray(glo),
                              np.ascontiguousarray(ghi))
        return self._grids[k]

    def _ray_tris(self, p, k):
        """Ascending ids of the non-parallel triangles that a ray from a point
        of p along _RAY_DIRS[k] can cross, even loosely: a ray keeps its (u, w),
        so only boxes holding it with far end along d not behind p count. Boxes
        grow by the rounding of the Moller-Trumbore values, in barycentric units
        eps_b + eps (S (|ab| + |ac|) + |ab| |ac|) / |a| up to constant factors,
        S = max |p| + max |vertex|; a triangle with no usable bound is kept."""
        _, _, para, _, frame, lo, hi, g0, g1 = self._ray_data(k)
        with np.errstate(over="ignore", invalid="ignore"):
            c = p @ frame.T
            grow = g0 + (np.abs(p).max() + self._boxes[4]) * g1
            miss = ((lo - grow > c.max(axis=0)) | (hi + grow < c.min(axis=0))).any(axis=1)
        return np.flatnonzero(~(miss | para))

    def signed_distances(self, points):
        """Negative inside, positive outside, exactly 0 on the eps_geom shell."""
        eps = self.eps_geom()
        dist, _, _ = self.closest_points(points)
        out = dist.copy()
        shell = dist <= eps
        out[shell] = 0.0
        off = ~shell
        if off.any():
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            inside = self.contains(pts[off])
            sign = np.where(inside, -1.0, 1.0)
            out[off] = dist[off] * sign
        return out

    def side_signs(self, points):
        """np.sign(signed_distances(points)), bit for bit.

        A closest point is computed only for a point that can lie on the eps
        shell: inside some triangle's box grown by r and within r of its
        plane, r being eps plus a rounding slack. Every other point is off
        the shell, so parity alone gives its sign. A block whose r is not
        finite (a NaN or inf point), a NaN test, and the plane of a sliver,
        whose rounded normal may point anywhere, count as near.
        """
        eps = self.eps_geom()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi, _, _, vabs = self._boxes
        tn, nn, lab = self._tn, self._tnn, np.linalg.norm(self._ab, axis=1)
        sliver = nn <= 1e-8 * lab * np.linalg.norm(self._ac, axis=1)
        base = np.einsum("tj,tj->t", self._tv0, tn)
        near = np.ones(len(pts), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in _morton_blocks(pts, len(self.tris)):
                p = pts[idx]
                r = eps + 1e-6 * (np.abs(p).max() + vabs)
                if not np.isfinite(r):
                    continue
                tri = np.flatnonzero(~((lo - r > p.max(axis=0))
                                       | (hi + r < p.min(axis=0))).any(axis=1))
                off = np.abs(p @ tn[tri].T - base[tri]) > r * nn[tri]
                i, t = np.nonzero(~off | sliver[tri])      # near a plane, then the box
                box = ((p[i] >= lo[tri[t]] - r) & (p[i] <= hi[tri[t]] + r)).all(axis=1)
                near[idx] = np.bincount(i[box], minlength=len(idx)) > 0
        out = np.empty(len(pts))
        if near.any():
            out[near] = np.sign(self.signed_distances(pts[near]))
        if not near.all():
            out[~near] = np.where(self.contains(pts[~near]), -1.0, 1.0)
        return out

    def __repr__(self):
        return (f"Polyhedron3(V={len(self.vertices)}, F={len(self.faces)}, "
                f"T={len(self.tris)})")


def _cross(a, b):
    """np.cross of (..., 3) arrays, bit for bit, without its axis handling.
    The result is C-contiguous like np.cross's: einsum sums a row of three
    in an order that depends on the layout."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _mt_crossings(s, h, f, ab, ac, d, eps_t):
    """Moller-Trumbore (1997) along d from points at offsets s from the first
    vertices of triangles with terms h, f, ab, ac, which broadcast against s
    up to its last axis: masks of clear crossings, eps_b = 1e-9 inside the
    edges and eps_t past the start, and of loose ones, as far outside them."""
    eps_b = 1e-9
    u = np.einsum("...j,...j->...", s, h) * f
    q = _cross(s, ab)
    v = np.einsum("...j,j->...", q, d) * f
    t = np.einsum("...j,...j->...", q, ac) * f
    good = (u > eps_b) & (v > eps_b) & (u + v < 1.0 - eps_b) & (t > eps_t)
    loose = (u > -eps_b) & (v > -eps_b) & (u + v < 1.0 + eps_b) & (t > -eps_t)
    return good, loose


def _grid_pairs(grid, c):
    """Chunks (i, t) of at most _PAIR_BUDGET point-triangle pairs for the
    points with frame coordinates c (3 x m): per point i, the triangles t of
    its cell of the _ray_grid and those of unbounded growth, kept when their
    grown box holds the point with far end along d not behind it, as
    _ray_tris keeps them for a block."""
    edges, start, tris, wide, glo, ghi = grid
    cu, cw, cd = c
    cell = (np.searchsorted(edges[0], cu, "right") * (edges.shape[1] + 1)
            + np.searchsorted(edges[1], cw, "right"))
    m = len(cu)
    pairs = itertools.chain(_csr_pairs(tris, start[cell], start[cell + 1] - start[cell]),
                            _csr_pairs(wide, np.zeros(m, dtype=int), np.full(m, len(wide))))
    for i, t in pairs:
        u, w = cu[i], cw[i]
        keep = ~((glo[0, t] > u) | (ghi[0, t] < u) | (glo[1, t] > w)
                 | (ghi[1, t] < w) | (ghi[2, t] < cd[i]))
        yield i[keep], t[keep]


def _csr_pairs(ids, first, cnt):
    """Chunks (i, t) of the pairs of row i with its cnt[i] ids from
    ids[first[i]:], rows ascending: at most _PAIR_BUDGET pairs a chunk, or
    one row's if it has more."""
    end = np.cumsum(cnt)
    base, total = 0, int(cnt.sum())
    while base < total:
        a = int(np.searchsorted(end, base, "right"))   # the first row with pairs left
        b = max(a + 1, int(np.searchsorted(end, base + _PAIR_BUDGET, "right")))
        n = cnt[a:b]
        j = np.repeat(first[a:b] - (end[a:b] - n), n) + np.arange(base, end[b - 1])
        yield np.repeat(np.arange(a, b), n), ids[j]
        base = int(end[b - 1])


def _morton_blocks(pts, ntri):
    """Index runs of spatially close points (Morton order), each run of at
    most _PAIR_BUDGET point-triangle pairs against ntri triangles."""
    m, size = len(pts), max(1, _PAIR_BUDGET // max(ntri, 1))
    order = np.arange(m)
    q = np.where(np.isfinite(pts), pts, 0.0)
    with np.errstate(over="ignore"):
        span = float((q.max(axis=0) - q.min(axis=0)).max()) if m > size else 0.0
    if 1e-300 < span < np.inf:
        cells = ((q - q.min(axis=0)) * (1023.0 / span)).astype(np.int64)
        code = sum(((cells[:, j] >> b) & 1) << (3 * b + j)
                   for b in range(10) for j in range(3))
        order = np.argsort(code, kind="stable")
    return [order[i:i + size] for i in range(0, m, size)]


def _closest_on_triangles(p, v0, ab, ac):
    """Closest points on each triangle for each query point (Ericson)."""
    ap = p[:, None, :] - v0[None, :, :]
    d1 = np.einsum("mtj,tj->mt", ap, ab)
    d2 = np.einsum("mtj,tj->mt", ap, ac)
    bp = ap - ab[None, :, :]
    d3 = np.einsum("mtj,tj->mt", bp, ab)
    d4 = np.einsum("mtj,tj->mt", bp, ac)
    cp_ = ap - ac[None, :, :]
    d5 = np.einsum("mtj,tj->mt", cp_, ab)
    d6 = np.einsum("mtj,tj->mt", cp_, ac)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0.0, d1 / (d1 - d3), 0.0)
        t_ac = np.where(d2 - d6 != 0.0, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(den_bc != 0.0, (d4 - d3) / den_bc, 0.0)
        den = va + vb + vc
        v_in = np.where(den != 0.0, vb / den, 0.0)
        w_in = np.where(den != 0.0, vc / den, 0.0)

    # interior projection as the default, then overwrite region by region
    cp = v0[None] + v_in[..., None] * ab[None] + w_in[..., None] * ac[None]
    m_bc = (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)
    alt = (v0 + ab)[None] + t_bc[..., None] * (ac - ab)[None]
    cp = np.where(m_bc[..., None], alt, cp)
    m_ac = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    alt = v0[None] + t_ac[..., None] * ac[None]
    cp = np.where(m_ac[..., None], alt, cp)
    m_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    alt = v0[None] + t_ab[..., None] * ab[None]
    cp = np.where(m_ab[..., None], alt, cp)
    m_c = (d6 >= 0.0) & (d5 <= d6)
    cp = np.where(m_c[..., None], (v0 + ac)[None], cp)
    m_b = (d3 >= 0.0) & (d4 <= d3)
    cp = np.where(m_b[..., None], (v0 + ab)[None], cp)
    m_a = (d1 <= 0.0) & (d2 <= 0.0)
    cp = np.where(m_a[..., None], v0[None], cp)
    return cp


# --- construction and IO -----------------------------------------------------

def validate_polyhedron(vertices, faces) -> Polyhedron3:
    """Check closedness, orientation, planarity; normalize outward; triangulate."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 4:
        raise InputError("need at least 4 vertices of dimension 3")
    if not np.all(np.isfinite(verts)):
        raise InputError("non-finite vertex coordinates")
    nv, nf = len(verts), len(faces)
    lens = np.fromiter(map(len, faces), dtype=np.int64, count=nf)
    try:
        flat = np.fromiter(itertools.chain.from_iterable(faces), dtype=np.int64,
                           count=int(lens.sum()))
    except OverflowError:              # beyond int64: out of range, named below
        flat = np.full(int(lens.sum()), -1)
    fid = np.repeat(np.arange(nf), lens)
    if (((flat < 0) | (flat >= nv)).any() or (lens < 3).any()
            or not np.diff(np.sort(fid * nv + flat)).all()):
        for f in faces:                # the first bad face names the fault
            f = list(map(int, f))
            if len(f) < 3 or len(set(f)) != len(f):
                raise InputError(f"bad face loop {f}")
            if any(i < 0 or i >= nv for i in f):
                raise InputError(f"face index out of range in {f}")
    used = np.bincount(flat, minlength=nv)
    if not used.all():
        raise InputError(f"vertex {int(np.argmin(used))} is used by no face")
    ends = np.cumsum(lens)
    nxt = np.arange(1, len(flat) + 1)
    nxt[ends - 1] = ends - lens
    edges = _check_closed(flat, flat[nxt], nv)
    diam = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
    tris, tri_face = _triangulate(verts, flat, lens, ends, diam)
    v0, v1, v2 = (verts[tris[:, k]] for k in range(3))
    if np.einsum("ij,ij->i", v0, _cross(v1 - v0, v2 - v0)).sum() < 0.0:
        # signed volume below zero: every loop reversed
        flat = flat[np.repeat(2 * ends - lens - 1, lens) - np.arange(len(flat))]
        tris, tri_face = _triangulate(verts, flat, lens, ends, diam)
    ints = flat.tolist()
    faces = [ints[e - k:e] for e, k in zip(ends.tolist(), lens.tolist())]
    return Polyhedron3(verts, faces, tris, tri_face, edges)


def _check_closed(a, b, nv):
    """Each directed edge a -> b must occur once, and so must its reverse; the
    first to fail in face order raises. Returns the (a, b) with a < b, sorted."""
    keys, back = a * nv + b, b * nv + a
    sk = np.sort(keys)
    if not np.diff(sk).all() or not np.array_equal(sk, np.sort(back)):
        rep = np.setdiff1d(np.arange(len(keys)), np.unique(keys, return_index=True)[1])
        if len(rep):                   # positions that repeat an earlier key
            q = rep[0]
            raise OpenSurfaceError(f"directed edge ({a[q]},{b[q]}) repeated")
        q = int(np.argmax(~np.isin(back, sk)))
        raise OpenSurfaceError(f"directed edge ({b[q]},{a[q]}) missing")
    lo, hi = np.divmod(sk, nv)
    edges = np.column_stack([lo[lo < hi], hi[lo < hi]])
    edges.flags.writeable = False
    return edges


def _face_frame(verts, f, diam):
    """Newell normal + centroid; raises if the loop is not planar."""
    pts = verts[f]
    nrm = np.zeros(3)
    for i in range(len(f)):
        a, b = pts[i], pts[(i + 1) % len(f)]
        nrm += np.cross(a, b)
    norm = np.linalg.norm(nrm)
    if norm <= 1e-14 * diam ** 2:
        raise NonPlanarFaceError(f"face {f} has no usable normal")
    nrm = nrm / norm
    centroid = pts.mean(axis=0)
    off = np.abs((pts - centroid) @ nrm)
    if off.max() > 1e-8 * diam:
        raise NonPlanarFaceError(f"face {f} is not planar")
    return nrm, centroid


def _triangulate(verts, flat, lens, ends, diam):
    """Triangles and their face ids, in face order, of the loops in flat (lens
    long, ending at ends): a triangle as it is, a k-gon ear-clipped into k - 2."""
    cnt = lens - 2
    first = np.cumsum(cnt) - cnt
    tris = np.empty((len(flat) - 2 * len(lens), 3), dtype=int)
    tri3 = lens == 3
    tris[first[tri3]] = flat[(ends - 3)[tri3, None] + np.arange(3)]
    for fid in np.flatnonzero(~tri3).tolist():
        f, at = flat[ends[fid] - lens[fid]:ends[fid]].tolist(), first[fid]
        tris[at:at + cnt[fid]] = _ear_clip(verts, f, *_face_frame(verts, f, diam))
    return tris, np.repeat(np.arange(len(lens)), cnt)


def _ear_clip(verts, loop, nrm, centroid):
    """Triangulate a simple planar loop (fan for convex faces falls out)."""
    frame = PlaneFrame.about(centroid, nrm)
    pts2 = {i: frame.to2d(verts[i]) for i in loop}
    idx = list(loop)
    area2 = sum(_cross2(pts2[idx[i]], pts2[idx[(i + 1) % len(idx)]])
                for i in range(len(idx)))
    if area2 < 0.0:
        idx.reverse()
        flipped = True
    else:
        flipped = False
    out = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise NonPlanarFaceError("ear clipping failed (non-simple face?)")
        n = len(idx)
        clipped = False
        for i in range(n):
            a, b, c = pts2[idx[i - 1]], pts2[idx[i]], pts2[idx[(i + 1) % n]]
            if _cross2(b - a, c - b) <= 0.0:
                continue  # reflex corner
            ear = True
            for j in range(n):
                if j in (i - 1, i, (i + 1) % n) or (i == 0 and j == n - 1):
                    continue
                if _in_triangle2(pts2[idx[j]], a, b, c):
                    ear = False
                    break
            if ear:
                tri = [idx[i - 1], idx[i], idx[(i + 1) % n]]
                out.append(tri[::-1] if flipped else tri)
                del idx[i]
                clipped = True
                break
        if not clipped:
            raise NonPlanarFaceError("ear clipping failed (degenerate face?)")
    tri = list(idx)
    out.append(tri[::-1] if flipped else tri)
    return out


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _in_triangle2(p, a, b, c) -> bool:
    d1 = _cross2(b - a, p - a)
    d2 = _cross2(c - b, p - b)
    d3 = _cross2(a - c, p - c)
    return min(d1, d2, d3) >= 0.0


def _plane_basis(n):
    """Orthonormal (u, w) spanning the plane with unit normal n. u is n x e
    over its length, e the axis least aligned with n: a unit vector
    perpendicular to n for any nonzero n."""
    j = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[j] = 1.0
    u = _cross(n, e)
    u = u / np.linalg.norm(u)
    return u, _cross(n, u)


def parse_off(text: str) -> Polyhedron3:
    """ASCII OFF; comments, blank lines and tokens after the last face allowed.
    Counts, nv vertices, nf faces of k >= 3 and k indices (the last: those the
    text holds). A walk over the face lengths finds each face's tokens; all
    face integers are then read at once."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    pos = 1 if tokens and tokens[0].upper() == "OFF" else 0
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        pos += 3  # counts line also carries the (ignored) edge count
        coords = list(map(float, tokens[pos:pos + 3 * max(nv, 0)]))
        if len(coords) < 3 * nv:
            raise IndexError("list index out of range")
        tokens = tokens[pos + len(coords):]
        spans, p = [], 0
        try:
            for _ in range(nf):
                k = int(tokens[p])
                if k < 3:
                    raise ParseError(f"face with {k} vertices")
                spans.append(slice(p + 1, p + 1 + k))
                p += k + 1
        finally:                       # an index before p that is no integer fails first
            ints = list(map(int, tokens[:p]))
        faces = [ints[s] for s in spans]
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad OFF data: {exc}") from exc
    return validate_polyhedron(np.reshape(coords, (-1, 3)), faces)


def load_off(path) -> Polyhedron3:
    with open(path, "r", encoding="utf-8") as f:
        return parse_off(f.read())


# --- surface paths and frames --------------------------------------------------

class SurfacePath:
    """Piecewise-linear path on the surface, parametrized by arclength in [0,1]."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        keep = [pts[0]]
        for p in pts[1:]:
            if np.linalg.norm(p - keep[-1]) > 1e-300:
                keep.append(p)
        self.points = np.array(keep)
        if len(self.points) < 2:
            raise InputError("path endpoints coincide")
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.length = float(cum[-1])
        self.params = cum / self.length

    def eval(self, t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        i = np.clip(np.searchsorted(self.params, t, side="right") - 1, 0,
                    len(self.points) - 2)
        t0 = self.params[i]
        t1 = self.params[i + 1]
        frac = np.where(t1 > t0, (t - t0) / (t1 - t0), 0.0)
        return self.points[i] + frac[..., None] * (self.points[i + 1] - self.points[i])


def surface_path(poly: Polyhedron3, x0, tri0: int, vertex: int) -> SurfacePath:
    """From the point x0 on triangle tri0 to the vertex with id `vertex`: x0,
    then Dijkstra along triangulation edges from tri0's corner nearest x0."""
    import heapq

    x0 = np.asarray(x0, dtype=float)
    if np.linalg.norm(x0 - poly.vertices[vertex]) <= 1e-12 * poly.diam:
        raise InputError("path endpoints coincide")

    adj = {}
    for tri in poly.tris:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            adj.setdefault(int(a), set()).add(int(b))
            adj.setdefault(int(b), set()).add(int(a))
    adj = {k: sorted(v) for k, v in adj.items()}

    tri = poly.tris[tri0]
    va = int(tri[int(np.argmin([np.linalg.norm(poly.vertices[i] - x0) for i in tri]))])
    vb = int(vertex)
    dist = {va: 0.0}
    prev = {}
    heap = [(0.0, va)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == vb:
            break
        for w in adj.get(u, []):
            nd = d + float(np.linalg.norm(poly.vertices[u] - poly.vertices[w]))
            if w not in dist or nd < dist[w] - 1e-300:
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    if vb not in seen:
        raise DisconnectedError("surface path endpoints are not connected")
    chain = [vb]
    while chain[-1] != va:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return SurfacePath([x0] + [poly.vertices[i] for i in chain])


class FrameField:
    """Unit field v(t) perpendicular to gamma(t) along a surface path."""

    def __init__(self, ts, qs, vs):
        self.ts = np.asarray(ts, dtype=float)
        self.qs = np.asarray(qs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)

    def eval(self, t):
        t = np.clip(np.asarray(t, dtype=float), self.ts[0], self.ts[-1])
        i = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[i], self.ts[i + 1]
        frac = np.where(t1 > t0, (t - t0) / (t1 - t0), 0.0)[..., None]
        q = self.qs[i] + frac * (self.qs[i + 1] - self.qs[i])
        w = self.vs[i] + frac * (self.vs[i + 1] - self.vs[i])
        qn = q / np.linalg.norm(q, axis=-1, keepdims=True)
        proj = w - np.einsum("...j,...j->...", w, qn)[..., None] * qn
        return proj / np.linalg.norm(proj, axis=-1, keepdims=True)


def _segment_ok(q0, q1, v0, v1, depth=8):
    """Projection norm stays >= 0.5 at all dyadic samples of the segment."""
    frac = np.linspace(0.0, 1.0, 2**depth + 1)[:, None]
    q = q0 + frac * (q1 - q0)
    w = v0 + frac * (v1 - v0)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    proj = w - np.einsum("ij,ij->i", w, qn)[:, None] * qn
    return bool(np.linalg.norm(proj, axis=1).min() >= 0.5)


def frame_field(path: SurfacePath) -> FrameField:
    """Breakpoint frames from the least-aligned-axis rule, then midpoint
    subdivision until interpolate-project stays well-conditioned."""
    ts = list(path.params)
    qs = [path.points[i] for i in range(len(ts))]
    vs = [_plane_basis(q)[0] for q in qs]

    out_t, out_q, out_v = [ts[0]], [qs[0]], [vs[0]]
    stack = [(ts[i], qs[i], vs[i], ts[i + 1], qs[i + 1], vs[i + 1], 0)
             for i in range(len(ts) - 1)][::-1]
    while stack:
        t0, q0, v0, t1, q1, v1, level = stack.pop()
        if _segment_ok(q0, q1, v0, v1):
            out_t.append(t1)
            out_q.append(q1)
            out_v.append(v1)
            continue
        if level >= 12:
            raise SubdivisionLimitError("frame subdivision exceeded 12 levels")
        tm = 0.5 * (t0 + t1)
        qm = 0.5 * (q0 + q1)
        wm = 0.5 * (v0 + v1)
        qn = qm / np.linalg.norm(qm)
        proj = wm - (wm @ qn) * qn
        norm = np.linalg.norm(proj)
        if norm < 1e-12:
            raise SubdivisionLimitError("frame interpolation collapsed")
        vm = proj / norm
        stack.append((tm, qm, vm, t1, q1, v1, level + 1))
        stack.append((t0, q0, v0, tm, qm, vm, level + 1))
    return FrameField(out_t, out_q, out_v)


# --- planar cross-sections ------------------------------------------------------

def cross_section(poly: Polyhedron3, plane: Plane3):
    """Slice the surface: (PlaneFrame of the plane, chords, face ids).

    A vertex within eps_geom of the plane is on it, and each triangulation
    edge with ends strictly on opposite sides crosses it once. A triangle
    with two such section points gives a chord of its face: chords is the
    (k, 2, 3) array of their 3D points, which lie on the face, and fids
    the (k,) face ids. A crossing point is computed from the edge taken
    from its negative end, so the triangles on an edge share it bit for
    bit (Minetto et al., "An optimal algorithm for 3D triangle mesh
    slicing", CAD 2017). A triangle in the plane gives no chord: the
    boundary of the in-plane region is made of its neighbours' chords.
    """
    n = plane.unit_normal()
    d = poly.vertices @ n - plane.offset
    on = np.abs(d) <= poly.eps_geom()
    side = np.where(on, 0.0, np.sign(d))
    tris = poly.tris
    nxt = np.roll(tris, -1, axis=1)         # edge k of a triangle: corner k to k + 1
    has = np.hstack([on[tris], side[tris] * side[nxt] < 0.0])   # corners, then edges
    rows = np.flatnonzero(has.sum(axis=1) == 2)
    if not len(rows):
        if on.any():
            raise DegenerateSectionError("plane touches the surface only at vertices")
        raise NoLoopContainsOriginError("plane misses the surface")
    r, c = np.nonzero(has[rows])            # two per row: corner a, or edge a -> b
    a, b = tris[rows[r], c % 3], nxt[rows[r], c % 3]
    cut, neg = c >= 3, d[a] < 0.0
    lo, hi = np.where(neg, a, b)[cut], np.where(neg, b, a)[cut]
    V = poly.vertices
    points = V[a]
    points[cut] = V[lo] + (d[lo] / (d[lo] - d[hi]))[:, None] * (V[hi] - V[lo])
    return (PlaneFrame.about(n * plane.offset, n), points.reshape(-1, 2, 3),
            poly.tri_face[rows])
