"""Equilateral zero-sum triples on a polyhedral surface.

A tripodal triple is three surface points a, b, c with a + b + c = 0 and
|a| = |b| = |c|. With a = gamma(t) on a nearest-to-farthest surface path and
a perpendicular frame v(t), the companions

    b, c = -gamma/2 +- (sqrt(3)/2) r u(theta),   u = cos(theta) v + sin(theta) (a_hat x v)

always satisfy the algebra; the search only has to drive both companions
onto the surface. Companion side signatures are ++ at t = 0 and -- at t = 1,
so a sign change exists along the way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import Certificate
from .errors import (
    InputError,
    NotFoundError,
    OriginOutsideError,
    SearchExhaustedError,
)
from .geom2d import locate_point
from .geom3d import (
    BOUNDARY,
    OUTSIDE,
    Plane3,
    Polyhedron3,
    SurfacePoint3,
    _closest_on_triangles,
    eval_surface,
    farthest_vertex,
    frame_field,
    side3,
    surface_path,
)

EPS_REL = 1e-6    # relative tolerances of verify_tripodal
REFINE_DEPTH = 6  # subdivision levels of a grid cell whose polish stalls
GRID_MAX = 2048   # largest grid side tripodal_search scans
ROW_FIRST_BLOCK = 8  # cell rows of the grid's first sign block; later ones double
# The face-triple sweep solves its triples in lex-ordered chunks: the first
# of SWEEP_FIRST_CHUNK triples, each later one twice the last, capped at
# SWEEP_CHUNK, so a triple found early costs one small chunk.
SWEEP_FIRST_CHUNK = 16
SWEEP_CHUNK = 256
SWEEP_SAMPLES = 64  # grid values of the sweep's free coordinate


@dataclass
class TripodalTriple:
    points: np.ndarray            # rows a, b, c
    faces: tuple                  # host face ids
    radius: float
    t: float | None = None
    theta: float | None = None


@dataclass
class TripodalCertificate(Certificate):
    radius: float
    norm_spread: float
    sum_residual: float
    side_spread: float
    max_membership_error: float
    eps_geom: float
    eps_bal: float

    def limits(self):
        eg, eb = self.eps_geom, self.eps_bal
        return (("norm_spread", self.norm_spread, eg),
                ("sum_residual", self.sum_residual, eb),
                ("max_membership_error", self.max_membership_error, eg),
                ("side_spread", self.side_spread, 2 * (eg + eb)))


def verify_tripodal(poly: Polyhedron3, points) -> TripodalCertificate:
    """Equal norms and membership within eps_geom, zero sum within eps_bal.

    Both tolerances are EPS_REL * diam. Pairwise side lengths are also
    compared (equilateral redundancy); equal norms plus zero sum already
    imply it, so its tolerance is the slack 2*(eps_geom + eps_bal).
    """
    eg = eb = EPS_REL * poly.diam
    pts = np.asarray(points, dtype=float)
    norms = np.linalg.norm(pts, axis=1)
    spread = float(max(abs(norms[0] - norms[1]), abs(norms[1] - norms[2])))
    rbar = float(norms.mean())
    ssum = float(np.linalg.norm(pts.sum(axis=0)))
    sides = np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1)
    side_spread = float(sides.max() - sides.min())
    dist, _, _ = poly.closest_points(pts)
    mem = float(dist.max())
    return TripodalCertificate(rbar, spread, ssum, side_spread, mem, eg, eb)


def _degenerate_triple(poly: Polyhedron3, sp: SurfacePoint3) -> TripodalTriple:
    o = np.zeros(3)
    return TripodalTriple(np.array([o, o, o]), (sp.face, sp.face, sp.face), 0.0)


class _CompanionField:
    """Batched evaluation of (g1, g2) = signed distances of the companions,
    or of their signs alone."""

    def __init__(self, poly, path, frame):
        self.poly = poly
        self.path = path
        self.frame = frame

    def companions(self, ts, thetas):
        g = self.path.eval(ts)
        v = self.frame.eval(ts)
        r = np.linalg.norm(g, axis=-1, keepdims=True)
        ahat = g / r
        u = (np.cos(thetas)[..., None] * v
             + np.sin(thetas)[..., None] * np.cross(ahat, v))
        half = (np.sqrt(3.0) / 2.0) * r * u
        return -0.5 * g + half, -0.5 * g - half

    def values(self, ts, thetas, query="signed_distances"):
        ts = np.asarray(ts, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        b, c = self.companions(ts, thetas)
        flat = np.concatenate([b.reshape(-1, 3), c.reshape(-1, 3)])
        sd = getattr(self.poly, query)(flat)
        half = len(flat) // 2
        return sd[:half].reshape(ts.shape), sd[half:].reshape(ts.shape)

    def signs(self, ts, thetas):
        """np.sign(values(ts, thetas)), from Polyhedron3.side_signs."""
        return self.values(ts, thetas, "side_signs")


def _newton_polish(field: _CompanionField, t0, th0, tol, iters=30):
    """Damped 2-var Newton with central-difference Jacobian; t clamped to [0,1].

    Each step asks field.values twice: once for the four Jacobian points,
    once for all ten damped trials, of which the first to lower max|g| is
    taken. Every value is per point, so these are the bits of one-point calls.
    """
    dt, dth = 1e-6, 1e-6
    t, th = float(t0), float(th0)
    lams = 0.5 ** np.arange(10)

    def vals(ts, ths):      # one row (g1, g2) per (t, theta)
        return np.stack(field.values(ts, ths), axis=1)

    g = vals([t], [th])[0]
    for _ in range(iters):
        if np.abs(g).max() <= tol:
            return t, th, g
        tp = min(t + dt, 1.0)
        tm = max(t - dt, 0.0)
        gp, gm, hp, hm = vals([tp, tm, t, t], [th, th, th + dth, th - dth])
        col_t = (gp - gm) / max(tp - tm, 1e-300)
        col_th = (hp - hm) / (2 * dth)
        J = np.stack([col_t, col_th], axis=1)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            return t, th, g
        tns = [min(max(t + lam * step[0], 0.0), 1.0) for lam in lams]
        thns = th + lams * step[1]
        gns = vals(tns, thns)
        better = np.flatnonzero(np.abs(gns).max(axis=1) < np.abs(g).max())
        if len(better) == 0:
            return t, th, g
        t, th, g = tns[better[0]], thns[better[0]], gns[better[0]]
    return t, th, g


def _triple_at(field: _CompanionField, poly: Polyhedron3, t, th) -> TripodalTriple:
    a = field.path.eval(np.array([t]))[0]
    b, c = field.companions(np.array([t]), np.array([th]))
    pts = np.array([a, b[0], c[0]])
    _, tri, _ = poly.closest_points(pts)
    faces = tuple(int(poly.tri_face[i]) for i in tri)
    return TripodalTriple(pts, faces, float(np.linalg.norm(a)),
                          t=float(t), theta=float(th % (2 * np.pi)))


def tripodal_search(poly: Polyhedron3, grid=(256, 256)) -> TripodalTriple:
    """Grid-scan the (t, theta) rectangle and polish sign-change cells.

    Cells whose corners change sign in both companion distances are polished
    with damped Newton (subdividing up to REFINE_DEPTH levels when a kink
    stalls the iteration); the first verified triple in scan order wins. The
    grid is signed in blocks of cell rows, ROW_FIRST_BLOCK first, each later
    block twice the last, and the exact on-surface nodes of a block are tried
    before its cells, so the scan stops in the block of its answer. The
    grid and the subdivisions read only signs, Newton the distances. The
    grid doubles while both sides stay <= GRID_MAX, then the face-triple
    sweep runs. A side < 1 or > GRID_MAX is an InputError. The origin is
    located once: its nearest surface point starts the path.
    """
    nt, nth = int(grid[0]), int(grid[1])
    if not (1 <= nt <= GRID_MAX and 1 <= nth <= GRID_MAX):
        raise InputError(f"grid sides must be in 1..{GRID_MAX}, got {nt}x{nth}")
    loc = side3(poly, (0.0, 0.0, 0.0))
    if loc.side == BOUNDARY:
        return _degenerate_triple(poly, loc.surface)
    if loc.side == OUTSIDE:
        raise OriginOutsideError("origin lies outside the surface")

    path = surface_path(poly, loc.surface, farthest_vertex(poly))
    frame = frame_field(path)
    field = _CompanionField(poly, path, frame)
    tol = 1e-9 * poly.diam

    while nt <= GRID_MAX and nth <= GRID_MAX:
        ts = np.linspace(0.0, 1.0, nt + 1)
        ths = np.linspace(0.0, np.pi, nth + 1)
        g1, g2 = np.empty((2, nt + 1, nth + 1))
        c0, c1 = 0, min(ROW_FIRST_BLOCK, nt)
        while c0 < nt:   # cell rows c0..c1-1; node row c0 carries over
            new = slice(c0 + (c0 > 0), c1 + 1)
            g1[new], g2[new] = field.signs(*np.meshgrid(ts[new], ths, indexing="ij"))
            # exact on-surface nodes of the block first
            for it, ith in np.argwhere((g1[new] == 0.0) & (g2[new] == 0.0)):
                cand = _triple_at(field, poly, ts[new.start + it], ths[ith])
                if verify_tripodal(poly, cand.points).passed:
                    return cand
            for it, ith in np.argwhere(_straddle_mask(g1[c0:c1 + 1], g2[c0:c1 + 1])):
                hit = _polish_cell(field, poly, ts[c0 + it], ts[c0 + it + 1],
                                   ths[ith], ths[ith + 1], tol, REFINE_DEPTH)
                if hit is not None:
                    return hit
            c0, c1 = c1, min(c1 + 2 * (c1 - c0), nt)
        nt *= 2
        nth *= 2

    try:
        return _face_triple_sweep(poly)
    except NotFoundError as exc:
        raise SearchExhaustedError("grid search and face sweep both failed") from exc


def _straddle_mask(g1, g2):
    """Grid cells whose corner signs change or vanish in both g1 and g2."""
    mask = True
    for s in (np.sign(g1), np.sign(g2)):
        c = (s[:-1, :-1], s[1:, :-1], s[:-1, 1:], s[1:, 1:])
        lo = np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))
        hi = np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))
        mask = mask & (((lo < 0) & (hi > 0)) | np.logical_or.reduce([x == 0 for x in c]))
    return mask


def _polish_cell(field, poly, t0, t1, th0, th1, tol, depth):
    t, th, g = _newton_polish(field, 0.5 * (t0 + t1), 0.5 * (th0 + th1), tol)
    if np.abs(g).max() <= tol:
        cand = _triple_at(field, poly, t, th)
        if verify_tripodal(poly, cand.points).passed:
            return cand
    if depth <= 0:
        return None
    ts = np.array([t0, 0.5 * (t0 + t1), t1])
    ths = np.array([th0, 0.5 * (th0 + th1), th1])
    g1, g2 = field.signs(*np.meshgrid(ts, ths, indexing="ij"))
    for i, j in np.argwhere(_straddle_mask(g1, g2)):
        hit = _polish_cell(field, poly, ts[i], ts[i + 1], ths[j], ths[j + 1],
                           tol, depth - 1)
        if hit is not None:
            return hit
    return None


# --- independent face-triple sweep ----------------------------------------------

def _face_planes(poly: Polyhedron3):
    """Per-face arrays: outward normal N, offset D, in-plane basis U (3x2),
    centroid CEN and its circumradius CR, radius interval [r_lo, r_hi], and
    the direction cone (axis, half-angle ang) seen from the origin."""
    nf = len(poly.faces)
    arrs = {"N": np.empty((nf, 3)), "D": np.empty(nf), "U": np.empty((nf, 3, 2)),
            "CEN": np.empty((nf, 3)), "CR": np.empty(nf), "r_lo": np.empty(nf),
            "r_hi": np.empty(nf), "axis": np.empty((nf, 3)), "ang": np.empty(nf)}
    origin = np.zeros((1, 3))
    cp = _closest_on_triangles(origin, poly._tv0, poly._ab, poly._ac)[0]
    tri_dist = np.linalg.norm(cp, axis=1)
    for fid, f in enumerate(poly.faces):
        frame, nrm, _ = poly.face_frame(fid)
        cen = frame.origin
        pts = poly.vertices[f]
        # direction cone of the face as seen from the origin
        dirs = pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-300)
        axis = dirs.mean(axis=0)
        an = np.linalg.norm(axis)
        if an < 1e-12:
            axis, ang = np.array([0.0, 0.0, 1.0]), np.pi
        else:
            axis = axis / an
            cmin = float((dirs @ axis).min())
            # wide cones are not pointed; give up on pruning those
            ang = np.pi if cmin <= 0.05 else float(np.arccos(min(cmin, 1.0)))
        arrs["N"][fid], arrs["D"][fid], arrs["CEN"][fid] = nrm, nrm @ cen, cen
        arrs["U"][fid] = np.stack([frame.u, frame.w], axis=1)
        arrs["CR"][fid] = np.linalg.norm(pts - cen, axis=1).max()
        arrs["r_lo"][fid] = tri_dist[poly.face_tris[fid]].min()
        arrs["r_hi"][fid] = np.linalg.norm(pts, axis=1).max()
        arrs["axis"][fid], arrs["ang"][fid] = axis, ang
    return arrs


def _in_face(poly: Polyhedron3, fid, p, tol) -> bool:
    frame, nrm, polygon = poly.face_frame(fid)
    if abs(float((p - frame.origin) @ nrm)) > tol * 10:
        return False
    return locate_point(polygon, frame.to2d(p), tol).side != OUTSIDE


def tripodal_by_face_triples(poly: Polyhedron3) -> TripodalTriple:
    """Exhaustive sweep over ordered face triples (F1, F2, F3).

    With a on plane 1 and b on plane 2 (two parameters each), the linear
    condition n3.(a+b) = -d3 cuts the parameter space to three dimensions.
    One coordinate is swept over SWEEP_SAMPLES grid values; the two equal-norm
    quadratics |a|^2 = |b|^2 and |a|^2 = |a+b|^2 are solved by damped Newton
    (4 starts per sample) in the other two, iterating only the (triple, row)
    pairs not yet converged. Triples are skipped when their radius intervals
    [min dist to face, max vertex norm] cannot intersect or when some pair of
    direction cones cannot span the 120 degrees any two points of the triple
    subtend; the rest are solved in lex-ordered vectorized chunks of
    SWEEP_FIRST_CHUNK triples, doubling up to SWEEP_CHUNK. A triple's
    solutions do not depend on its chunk, so the first verified triple in
    lex order wins whatever the chunk sizes.
    """
    loc = side3(poly, (0.0, 0.0, 0.0))
    if loc.side == BOUNDARY:
        return _degenerate_triple(poly, loc.surface)
    if loc.side == OUTSIDE:
        raise OriginOutsideError("origin lies outside the surface")
    return _face_triple_sweep(poly)


def _face_triple_sweep(poly: Polyhedron3) -> TripodalTriple:
    """tripodal_by_face_triples for an origin strictly inside the surface."""
    arrs = _face_planes(poly)
    nf = len(poly.faces)
    tol_pos = 1e-9 * poly.diam
    r_lo, r_hi = arrs["r_lo"], arrs["r_hi"]
    axes, angs = arrs["axis"], arrs["ang"]
    gap = np.arccos(np.clip(axes @ axes.T, -1.0, 1.0))
    can_pair = gap + angs[:, None] + angs[None, :] >= 2 * np.pi / 3 - 1e-12

    batch, size = [], SWEEP_FIRST_CHUNK
    for i in range(nf):
        for j in range(nf):
            if not can_pair[i, j]:
                continue
            lo_ij = max(r_lo[i], r_lo[j])
            hi_ij = min(r_hi[i], r_hi[j])
            if lo_ij > hi_ij:
                continue
            feas = ((np.maximum(lo_ij, r_lo) <= np.minimum(hi_ij, r_hi))
                    & can_pair[i] & can_pair[j])
            for k in np.nonzero(feas)[0]:
                batch.append((i, j, int(k)))
                if len(batch) >= size:
                    hit = _sweep_chunk(poly, np.array(batch), tol_pos, arrs)
                    if hit is not None:
                        return hit
                    batch, size = [], min(2 * size, SWEEP_CHUNK)
    if batch:
        hit = _sweep_chunk(poly, np.array(batch), tol_pos, arrs)
        if hit is not None:
            return hit
    raise NotFoundError("no face triple admits a tripodal solution")


def _sweep_chunk(poly, trips, tol_pos, arrs):
    """Solve the two quadratics for a chunk of triples at once."""
    N, D, U = arrs["N"], arrs["D"], arrs["U"]
    i, j, k = trips[:, 0], trips[:, 1], trips[:, 2]
    U1, U2 = U[i], U[j]                       # (m,3,2)
    base1 = N[i] * D[i][:, None]
    base2 = N[j] * D[j][:, None]
    n3, d3 = N[k], D[k]

    # linear constraint wvec.z = rho on z = (s1, s2, s3, s4)
    wvec = np.concatenate([np.einsum("ma,mab->mb", n3, U1),
                           np.einsum("ma,mab->mb", n3, U2)], axis=1)
    rho = -d3 - np.einsum("ma,ma->m", n3, base1 + base2)
    wn2 = np.einsum("mb,mb->m", wvec, wvec)
    degen = wn2 < 1e-24
    keep = ~(degen & (np.abs(rho) > tol_pos))  # all-parallel and infeasible
    if not keep.all():
        trips, i, j, k = trips[keep], i[keep], j[keep], k[keep]
        U1, U2, base1, base2 = U1[keep], U2[keep], base1[keep], base2[keep]
        wvec, rho, wn2, degen = wvec[keep], rho[keep], wn2[keep], degen[keep]
        if len(trips) == 0:
            return None
    m = len(trips)
    scale = np.where(degen, 0.0, rho / np.where(degen, 1.0, wn2))
    z0 = scale[:, None] * wvec                # (m,4) min-norm particular point
    _, _, vt = np.linalg.svd(wvec[:, None, :])
    W = vt[:, 1:, :].transpose(0, 2, 1)       # (m,4,3) orthonormal null basis

    A1 = np.einsum("mab,mbc->mac", U1, W[:, :2, :])   # (m,3,3) da/dy
    A2 = np.einsum("mab,mbc->mac", U2, W[:, 2:, :])
    a0 = base1 + np.einsum("mab,mb->ma", U1, z0[:, :2])
    b0 = base2 + np.einsum("mab,mb->ma", U2, z0[:, 2:])
    Rm = 2.0 * np.maximum(np.maximum(arrs["r_hi"][i], arrs["r_hi"][j]),
                          arrs["r_hi"][k])             # (m,)

    sweep = np.linspace(-1.0, 1.0, SWEEP_SAMPLES)
    starts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])
    rows = SWEEP_SAMPLES * len(starts)
    y = np.empty((m, rows, 3))
    y[:, :, 2] = Rm[:, None] * np.repeat(sweep, len(starts))[None, :]
    y[:, :, :2] = Rm[:, None, None] * np.tile(starts, (SWEEP_SAMPLES, 1))[None, :, :]

    tol_g = 1e-10 * poly.diam ** 2
    _newton_rows(y, a0, b0, A1, A2, Rm, tol_g)

    a = a0[:, None, :] + np.einsum("mrk,mak->mra", y, A1)
    b = b0[:, None, :] + np.einsum("mrk,mak->mra", y, A2)
    c = -a - b
    g1 = (a * a).sum(-1) - (b * b).sum(-1)
    g2 = (a * a).sum(-1) - ((a + b) * (a + b)).sum(-1)
    conv = (np.abs(g1) <= tol_g) & (np.abs(g2) <= tol_g)

    # cheap vectorized pruning before exact containment
    slack = 1e2 * tol_pos
    ra = np.linalg.norm(a, axis=-1)
    lo = np.maximum(np.maximum(arrs["r_lo"][i], arrs["r_lo"][j]),
                    arrs["r_lo"][k])[:, None]
    hi = np.minimum(np.minimum(arrs["r_hi"][i], arrs["r_hi"][j]),
                    arrs["r_hi"][k])[:, None]
    conv &= (ra >= lo - slack) & (ra <= hi + slack)
    CEN, CR = arrs["CEN"], arrs["CR"]
    conv &= np.linalg.norm(a - CEN[i][:, None, :], axis=-1) <= CR[i][:, None] + slack
    conv &= np.linalg.norm(b - CEN[j][:, None, :], axis=-1) <= CR[j][:, None] + slack
    conv &= np.linalg.norm(c - CEN[k][:, None, :], axis=-1) <= CR[k][:, None] + slack

    for ti in np.nonzero(conv.any(axis=1))[0]:
        fi, fj, fk = (int(v) for v in trips[ti])
        seen = set()
        for r in np.nonzero(conv[ti])[0]:
            key = tuple(np.round(a[ti, r] / max(slack, 1e-300)).astype(np.int64))
            if key in seen:
                continue
            seen.add(key)
            av, bv, cv = a[ti, r], b[ti, r], c[ti, r]
            if not (_in_face(poly, fi, av, tol_pos) and _in_face(poly, fj, bv, tol_pos)
                    and _in_face(poly, fk, cv, tol_pos)):
                continue
            triple = TripodalTriple(np.array([av, bv, cv]), (fi, fj, fk),
                                    float(np.linalg.norm(av)))
            if verify_tripodal(poly, triple.points).passed:
                return triple
    return None


def _newton_rows(y, a0, b0, A1, A2, Rm, tol_g):
    """Damped Newton on g1 = |a|^2 - |b|^2, g2 = |a|^2 - |a+b|^2, in place on
    the rows y (m, rows, 3) of m triples, with a = a0 + A1 y, b = b0 + A2 y.

    Only the live (triple, row) pairs, |g1| or |g2| above tol_g, are iterated:
    the rows are flattened to one index, each with its triple's data, and
    every iteration writes the rows that have converged back to y and drops
    them. A converged row would get a zero step and never turn live again,
    and a live row sees the same einsum products as in a dense (m, rows)
    pass, so y ends bit for bit as that pass leaves it. (np.matmul or
    hand-written sums would round differently.)
    """
    rows = y.shape[1]
    flat = y.reshape(-1, 3)
    live = np.arange(len(flat))
    t = live // rows
    yl, a0, b0, A1, A2, Rm = flat.copy(), a0[t], b0[t], A1[t], A2[t], Rm[t]
    for _ in range(22):
        a = a0 + np.einsum("nk,nak->na", yl, A1)
        b = b0 + np.einsum("nk,nak->na", yl, A2)
        ab = a + b
        g1 = (a * a).sum(-1) - (b * b).sum(-1)
        g2 = (a * a).sum(-1) - (ab * ab).sum(-1)
        on = (np.abs(g1) > tol_g) | (np.abs(g2) > tol_g)
        if not on.all():
            flat[live[~on]] = yl[~on]
            if not on.any():
                return
            keep = np.flatnonzero(on)
            live, yl, a0, b0, A1, A2, Rm, a, b, ab, g1, g2 = (
                x[keep] for x in (live, yl, a0, b0, A1, A2, Rm, a, b, ab, g1, g2))
        dA = A1[:, :, :2]
        dB = A2[:, :, :2]
        ad = np.einsum("na,nak->nk", a, dA)
        j11 = 2 * (ad - np.einsum("na,nak->nk", b, dB))
        j21 = 2 * (ad - np.einsum("na,nak->nk", ab, dA + dB))
        det = j11[..., 0] * j21[..., 1] - j11[..., 1] * j21[..., 0]
        ok = np.abs(det) > 1e-300
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        s0 = (-g1 * j21[..., 1] + g2 * j11[..., 1]) * inv
        s1 = (g1 * j21[..., 0] - g2 * j11[..., 0]) * inv
        ln = np.sqrt(s0 * s0 + s1 * s1)
        big = ln > Rm
        damp = np.divide(Rm, ln, out=np.ones_like(ln), where=big)
        damp *= ok
        yl[:, 0] += s0 * damp
        yl[:, 1] += s1 * damp
    flat[live] = yl
