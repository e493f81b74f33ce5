"""Simple-polygon kernel: validation, boundary parametrization,
curve/boundary intersections, and antipodal pairs.

Boundary points are addressed as (edge index, fraction s in [0, 1]); the
scalar parameter edge + s runs over [0, n) counterclockwise. A curve is a
closed polyline, an (m, 2) array of points: segment i runs from point i to
point i + 1, and the last wraps to the first.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CenterOutsideError,
    DegenerateError,
    IndexOutOfRangeError,
    NoIntersectionError,
    NonSimpleError,
    ParseError,
)

# Relative tolerances; absolute values scale with the polygon diameter.
EPS_GEOM_REL = 1e-9

INSIDE = "inside"
OUTSIDE = "outside"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class BoundaryPoint2:
    """A point on a polygon boundary: fraction s along directed edge `edge`."""

    edge: int
    s: float

    @property
    def param(self) -> float:
        return self.edge + self.s


class Polygon2:
    """Validated simple polygon with CCW vertex order.

    Build instances from outside data through validate_polygon; the
    constructor only stores the array and derived quantities.
    """

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        self.n = len(self.vertices)
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        self.diam = float(np.linalg.norm(hi - lo))

    def edge_arrays(self):
        """(starts, ends) arrays of shape (n, 2)."""
        v = self.vertices
        return v, np.roll(v, -1, axis=0)

    def eps_geom(self, eps=None) -> float:
        return EPS_GEOM_REL * self.diam if eps is None else float(eps)

    def signed_area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        return 0.5 * float(np.sum(x * y2 - x2 * y))

    def __repr__(self):
        return f"Polygon2(n={self.n}, diam={self.diam:.6g})"


@dataclass(frozen=True)
class PointLocation:
    side: str
    boundary: BoundaryPoint2      # nearest boundary point
    distance: float               # distance to it


def validate_polygon(vertices) -> Polygon2:
    """Check simplicity and nondegeneracy; normalize orientation to CCW."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise DegenerateError("need at least 3 points of dimension 2")
    if not np.all(np.isfinite(v)):
        raise DegenerateError("non-finite vertex coordinates")
    poly = Polygon2(v)
    scale = max(poly.diam, 1e-300)
    # repeated consecutive vertices collapse an edge
    dif = np.roll(v, -1, axis=0) - v
    if np.any(np.linalg.norm(dif, axis=1) <= 1e-12 * scale):
        raise DegenerateError("repeated consecutive vertices")
    area = poly.signed_area()
    if abs(area) <= 1e-14 * scale * scale:
        raise DegenerateError("zero-area polygon")
    if area < 0.0:
        poly = Polygon2(v[::-1])
    _check_simple(poly)
    return poly


# Rows of the edge-pair matrix tested at a time: temporaries are O(n * block).
_ROW_BLOCK = 64


def _check_simple(poly: Polygon2) -> None:
    """Reject any contact between non-adjacent edges.

    Decides as the scan of every pair i < j with _segment_hits would, and
    raises the error of its first failing pair. Pairs whose bounding boxes
    stay apart after each box grows by 2*tol cannot hit and are skipped;
    the rest are tested in one batch per block of rows. Only near-parallel
    pairs and pairs the batch finds at fault are retested by the scalar
    routine, in (i, j) order.
    """
    v, w = poly.edge_arrays()
    n = poly.n
    tol = 1e-12 * max(poly.diam, 1e-300)
    lo = np.minimum(v, w) - 2.0 * tol
    hi = np.maximum(v, w) + 2.0 * tol
    for i0 in range(0, n - 1, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n - 1)
        # rows i0..i1-1 against columns j > i0; triu keeps j > i
        I, J = np.nonzero(np.triu(_boxes_overlap(lo[i0:i1], hi[i0:i1],
                                                 lo[i0 + 1:], hi[i0 + 1:])))
        I += i0
        J += i0 + 1
        ok, general, hit, t, u = _crossings(v[I], w[I] - v[I], v[J], w[J] - v[J], tol)
        t = np.clip(t, 0.0, 1.0)
        u = np.clip(u, 0.0, 1.0)
        # adjacent edges may only share their common endpoint
        shared = (((J == I + 1) & (t >= 1.0 - 1e-9) & (u <= 1e-9))
                  | ((I == 0) & (J == n - 1) & (u >= 1.0 - 1e-9) & (t <= 1e-9)))
        for k in np.nonzero((hit & ~shared) | (ok & ~general))[0]:
            _check_pair(v, w, int(I[k]), int(J[k]), n, tol)


def _check_pair(v, w, i, j, n, tol) -> None:
    """Raise NonSimpleError if edges i < j meet other than at a shared end."""
    hits = _segment_hits(v[i], w[i], v[j], w[j], tol)
    if not hits:
        return
    if not (j == i + 1 or (i == 0 and j == n - 1)):
        raise NonSimpleError(f"edges {i} and {j} touch")
    for t, u in hits:
        if j == i + 1 and (t < 1.0 - 1e-9 or u > 1e-9):
            raise NonSimpleError(f"edges {i} and {j} overlap")
        if j == n - 1 and i == 0 and (u < 1.0 - 1e-9 or t > 1e-9):
            raise NonSimpleError(f"edges {j} and {i} overlap")


def eval_boundary(poly: Polygon2, bp: BoundaryPoint2) -> np.ndarray:
    """Point on the boundary at (edge, s)."""
    if not 0 <= bp.edge < poly.n:
        raise IndexOutOfRangeError(f"edge {bp.edge} out of range")
    if not -1e-12 <= bp.s <= 1.0 + 1e-12:
        raise IndexOutOfRangeError(f"s={bp.s} outside [0, 1]")
    s = min(max(bp.s, 0.0), 1.0)
    a = poly.vertices[bp.edge]
    b = poly.vertices[(bp.edge + 1) % poly.n]
    return a + s * (b - a)


def nearest_boundary_point(poly: Polygon2, q) -> BoundaryPoint2:
    """Closest boundary point; ties pick the smallest edge index, then s."""
    return _nearest_point(poly, q)[0]


def _nearest_point(poly: Polygon2, q):
    """(BoundaryPoint2, distance) of the boundary point nearest the point q."""
    edge, s, dist = _nearest_with_distance(poly, [q])
    return BoundaryPoint2(int(edge[0]), float(s[0])), float(dist[0])


# _nearest_with_distance takes about this many (point, edge) pairs at a time
_PAIR_BLOCK = 1 << 16


def _nearest_with_distance(poly: Polygon2, q):
    """Arrays (edge, s, distance) of the boundary point nearest each row of
    q, shape (m, 2), in (points x edges) passes; ties pick the smallest edge."""
    q = np.asarray(q, dtype=float)
    v, w = poly.edge_arrays()
    e = w - v
    # guards a zero-length edge of a Polygon2 built without validation
    ee = np.maximum(np.einsum("ij,ij->i", e, e), 1e-300)
    out = []
    for qb in np.array_split(q, max(1, min(len(q), len(q) * poly.n // _PAIR_BLOCK))):
        t = np.clip(np.einsum("mij,ij->mi", qb[:, None, :] - v, e) / ee, 0.0, 1.0)
        off = v + t[..., None] * e - qb[:, None, :]
        d2 = np.einsum("mij,mij->mi", off, off)
        i = np.argmin(d2, axis=1)   # argmin keeps the first minimum: edge tie-break
        rows = np.arange(len(qb))
        out.append((i, t[rows, i], np.sqrt(d2[rows, i])))
    return tuple(np.concatenate(col) for col in zip(*out))


def locate_point(poly: Polygon2, q, eps=None) -> PointLocation:
    """Classify q against the polygon within tolerance eps (default 1e-9*diam),
    with the boundary point nearest q and the distance to it."""
    bp, dist = _nearest_point(poly, q)
    if dist <= poly.eps_geom(eps):
        return PointLocation(BOUNDARY, bp, dist)
    side = INSIDE if _parity_inside(poly.vertices, np.asarray(q, float)) else OUTSIDE
    return PointLocation(side, bp, dist)


def _parity_inside(vertices: np.ndarray, q: np.ndarray) -> bool:
    """Even-odd ray test; callers must keep q off the boundary."""
    x, y = float(q[0]), float(q[1])
    xs, ys = vertices[:, 0], vertices[:, 1]
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    straddle = (ys > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = xs + (y - ys) * (x2 - xs) / (y2 - ys)
    return bool(np.count_nonzero(straddle & (x < xint)) % 2)


def _segment_hits(a, b, c, d, tol):
    """Intersections of segment ab with cd.

    Returns a list of (t, u) with t along ab and u along cd, both
    clamped to [0, 1]. Proper and touching crossings give one entry;
    collinear overlaps give the two overlap endpoints.
    """
    r = b - a
    s = d - c
    lr = float(np.hypot(*r))
    ls = float(np.hypot(*s))
    if lr < 1e-300 or ls < 1e-300:
        return []
    rxs = r[0] * s[1] - r[1] * s[0]
    qp = c - a
    if abs(rxs) > 1e-12 * lr * ls:
        t = (qp[0] * s[1] - qp[1] * s[0]) / rxs
        u = (qp[0] * r[1] - qp[1] * r[0]) / rxs
        et = tol / lr
        eu = tol / ls
        if -et <= t <= 1.0 + et and -eu <= u <= 1.0 + eu:
            t = min(max(t, 0.0), 1.0)
            u = min(max(u, 0.0), 1.0)
            return [(t, u)]
        return []
    # parallel: either clearly apart or collinear overlap
    h = abs(qp[0] * r[1] - qp[1] * r[0]) / lr
    if h > tol:
        return []
    tc = float(np.dot(qp, r) / (lr * lr))
    td = float(np.dot(d - a, r) / (lr * lr))
    t0 = max(0.0, min(tc, td))
    t1 = min(1.0, max(tc, td))
    et = tol / lr
    if t0 > t1 + et:
        return []
    out = []
    denom = td - tc
    for t in ([t0] if t1 - t0 <= et else [t0, t1]):
        u = (t - tc) / denom if abs(denom) > 1e-300 else 0.0
        u = min(max(u, 0.0), 1.0)
        out.append((t, u))
    return out


def _boxes_overlap(lo1, hi1, lo2, hi2):
    """(len1, len2) mask of the axis-aligned boxes [lo1, hi1] x [lo2, hi2] that meet."""
    return ((lo1[:, None, 0] <= hi2[None, :, 0]) & (hi1[:, None, 0] >= lo2[None, :, 0])
            & (lo1[:, None, 1] <= hi2[None, :, 1]) & (hi1[:, None, 1] >= lo2[None, :, 1]))


def _crossings(a, r, c, s, tol):
    """Batch form of the general-position branch of _segment_hits.

    For segment pairs a + t*r and c + u*s returns (ok, general, hit, t, u):
    ok where both segments have length, general where they are not
    (near-)parallel, hit where a general pair meets within tol, and the
    unclamped t and u. Pairs that are ok but not general need _segment_hits.
    """
    lr = np.hypot(r[:, 0], r[:, 1])
    ls = np.hypot(s[:, 0], s[:, 1])
    ok = (lr >= 1e-300) & (ls >= 1e-300)
    rxs = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qp = c - a
    general = ok & (np.abs(rxs) > 1e-12 * lr * ls)
    den = np.where(general, rxs, 1.0)
    t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / den
    u = (qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]) / den
    et = tol / np.where(ok, lr, 1.0)
    eu = tol / np.where(ok, ls, 1.0)
    hit = general & (t >= -et) & (t <= 1.0 + et) & (u >= -eu) & (u <= 1.0 + eu)
    return ok, general, hit, t, u


def _clamp01(x):
    """min(max(x, 0.0), 1.0) elementwise, keeping -0.0 as Python's min/max do."""
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def curve_polygon_intersections(curve, poly: Polygon2, segs):
    """Hits of the curve segments with indices `segs` with the boundary.

    Returns arrays (seg, t, edge, u), t along the segment and u along the
    edge, both clamped to [0, 1]. Pairs are pruned by bounding-box overlap;
    general-position crossings solve in one batch and only (near-)parallel
    pairs fall back to the scalar routine.
    """
    tol = poly.eps_geom()
    seg = np.asarray(segs)
    a = curve[seg]
    b = curve[(seg + 1) % len(curve)]
    pv, pw = poly.edge_arrays()
    I, J = np.nonzero(_boxes_overlap(np.minimum(a, b) - tol, np.maximum(a, b) + tol,
                                     np.minimum(pv, pw), np.maximum(pv, pw)))
    a, b = a[I], b[I]
    ok, general, hit, t, u = _crossings(a, b - a, pv[J], pw[J] - pv[J], tol)
    cols = [seg[I[hit]], _clamp01(t[hit]), J[hit], _clamp01(u[hit])]
    extra = [(seg[I[k]], tt, J[k], uu) for k in np.nonzero(ok & ~general)[0]
             for tt, uu in _segment_hits(a[k], b[k], pv[J[k]], pw[J[k]], tol)]
    if extra:
        cols = [np.concatenate([c, x]) for c, x in zip(cols, zip(*extra))]
    return tuple(cols)


# first_hit_from tests blocks of _FIRST_BLOCK segments, doubling up to
# _ROW_BLOCK; its offsets (segment units, below n) round by far less than
# _OFFSET_MARGIN.
_FIRST_BLOCK, _OFFSET_MARGIN = 8, 1e-6


def first_hit_from(curve, poly: Polygon2, start_param: float):
    """First boundary hit at or after start_param along the curve (CCW), as
    (BoundaryPoint2(segment, t), BoundaryPoint2(edge, u)).

    Traversal offset is measured in segment units modulo n; offsets within
    1e-7 of a full loop are folded to zero so a start point sitting on the
    boundary is accepted immediately. Ties go to the least (segment, t,
    edge, u). Segments are tested in cyclic blocks from the one before
    start_param's (the fold reaches no further back) until no untested
    segment can reach an offset as small as the best hit's.
    """
    n = len(curve)
    first = int(np.floor(start_param)) - 1
    best, done, size = None, 0, _FIRST_BLOCK
    while done < n:
        block = np.arange(first + done, first + min(done + size, n)) % n
        done, size = done + len(block), min(2 * size, _ROW_BLOCK)
        seg, t, edge, u = curve_polygon_intersections(curve, poly, block)
        if len(seg):
            off = np.mod(seg + t - start_param, n)
            off[off > n - 1e-7] = 0.0
            k = np.lexsort((u, edge, t, seg, off))[0]
            key = (float(off[k]), int(seg[k]), float(t[k]), int(edge[k]), float(u[k]))
            best = key if best is None else min(best, key)
        # an untested segment's offset is at least first + done - start_param
        if best is not None and best[0] < first + done - start_param - _OFFSET_MARGIN:
            break
    if best is None:
        raise NoIntersectionError("curve does not meet the boundary")
    return BoundaryPoint2(best[1], best[2]), BoundaryPoint2(best[3], best[4])


def antipodal_about(poly: Polygon2, c):
    """Boundary pair (q, q') with midpoint c.

    q starts at the boundary point nearest c; its companion 2c - q then
    sits inside the polygon, and q slides CCW until the reflected copy of
    the boundary meets the boundary again. Returns (q, q') with q' = 2c - q.
    """
    c = np.asarray(c, dtype=float)
    loc = locate_point(poly, c)
    if loc.side == OUTSIDE:
        raise CenterOutsideError("center lies outside the polygon")
    bp0 = loc.boundary
    p0 = eval_boundary(poly, bp0)
    comp = 2.0 * c - p0
    bpc, dist = _nearest_point(poly, comp)
    if dist <= poly.eps_geom():
        return bp0, bpc
    # the boundary reflected through c: segment i is the image of edge i
    return first_hit_from(-1.0 * poly.vertices + 2.0 * c, poly, bp0.param)


# --- file formats -----------------------------------------------------------

def parse_polygon_text(text: str) -> Polygon2:
    """Polygon from `x y` lines (# comments) or a JSON {"vertices": [...]}."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
            verts = data["vertices"]
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
        return validate_polygon(verts)
    except (DegenerateError, NonSimpleError):
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad polygon data: {exc}") from exc


def load_polygon(path) -> Polygon2:
    with open(path, "r", encoding="utf-8") as f:
        return parse_polygon_text(f.read())
