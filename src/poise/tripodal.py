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
    BadFrameError,
    NotFoundError,
    OriginOutsideError,
    SearchExhaustedError,
)
from .geom2d import Polygon2, locate_point
from .geom3d import (
    BOUNDARY,
    OUTSIDE,
    Plane3,
    Polyhedron3,
    SurfacePoint3,
    _closest_on_triangles,
    _face_frame,
    _face_polygon2,
    eval_surface,
    extreme_boundary_points,
    frame_field,
    side3,
    surface_path,
)

SIG_PP = "++"
SIG_MM = "--"
SIG_PM = "+-"
SIG_MP = "-+"
SIG_ZERO = "00"

EPS_REL = 1e-6    # default relative tolerances of verify_tripodal


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


def _fold(fb: int, fc: int) -> str:
    if fb == 0 and fc == 0:
        return SIG_ZERO
    if fb >= 0 and fc >= 0:
        return SIG_PP
    if fb <= 0 and fc <= 0:
        return SIG_MM
    return SIG_PM if fb > 0 else SIG_MP


def signature(poly: Polyhedron3, b, c, eps=None) -> str:
    """Fold the companions' inside(+)/outside(-)/boundary(0) signs."""

    def sgn(p):
        loc = side3(poly, p, eps)
        if loc.side == BOUNDARY:
            return 0
        return 1 if loc.side == "inside" else -1

    return _fold(sgn(b), sgn(c))


def verify_tripodal(poly: Polyhedron3, points, eps_geom=None,
                    eps_bal=None) -> TripodalCertificate:
    """Equal norms and membership within eps_geom*diam, zero sum within eps_bal*diam.

    Both tolerances are relative and default to 1e-6. Pairwise side lengths
    are also compared (equilateral redundancy); equal norms plus zero sum
    already imply it, so its tolerance is the slack 2*(eps_geom + eps_bal)*diam.
    """
    eg = (EPS_REL if eps_geom is None else float(eps_geom)) * poly.diam
    eb = (EPS_REL if eps_bal is None else float(eps_bal)) * poly.diam
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
    """Batched evaluation of (g1, g2) = signed distances of the companions."""

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

    def values(self, ts, thetas):
        ts = np.asarray(ts, dtype=float)
        thetas = np.asarray(thetas, dtype=float)
        b, c = self.companions(ts, thetas)
        flat = np.concatenate([b.reshape(-1, 3), c.reshape(-1, 3)])
        sd = self.poly.signed_distances(flat)
        half = len(flat) // 2
        return sd[:half].reshape(ts.shape), sd[half:].reshape(ts.shape)


def _newton_polish(field: _CompanionField, t0, th0, tol, iters=30):
    """Damped 2-var Newton with central-difference Jacobian; t clamped to [0,1]."""
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


def _triple_at(field: _CompanionField, poly: Polyhedron3, t, th) -> TripodalTriple:
    a = field.path.eval(np.array([t]))[0]
    b, c = field.companions(np.array([t]), np.array([th]))
    pts = np.array([a, b[0], c[0]])
    _, tri, _ = poly.closest_points(pts)
    faces = tuple(int(poly.tri_face[i]) for i in tri)
    return TripodalTriple(pts, faces, float(np.linalg.norm(a)),
                          t=float(t), theta=float(th % (2 * np.pi)))


def tripodal_search(poly: Polyhedron3, grid=(256, 256), refine=6) -> TripodalTriple:
    """Grid-scan the (t, theta) rectangle and polish sign-change cells.

    Cells whose corners change sign in both companion distances are polished
    with damped Newton (subdividing up to `refine` levels when a kink stalls
    the iteration); the first verified triple in scan order wins. The grid
    doubles up to 2048 per axis before falling back to the face-triple sweep.
    """
    loc = side3(poly, (0.0, 0.0, 0.0))
    if loc.side == BOUNDARY:
        return _degenerate_triple(poly, loc.surface)
    if loc.side == OUTSIDE:
        raise OriginOutsideError("origin lies outside the surface")

    near, far = extreme_boundary_points(poly)
    path = surface_path(poly, near, far)
    frame = frame_field(path)
    field = _CompanionField(poly, path, frame)
    tol = 1e-9 * poly.diam

    nt, nth = int(grid[0]), int(grid[1])
    while nt <= 2048 and nth <= 2048:
        ts = np.linspace(0.0, 1.0, nt + 1)
        ths = np.linspace(0.0, np.pi, nth + 1)
        g1, g2 = field.values(*np.meshgrid(ts, ths, indexing="ij"))

        # exact on-surface grid nodes first
        zero = (g1 == 0.0) & (g2 == 0.0)
        for it, ith in np.argwhere(zero):
            cand = _triple_at(field, poly, ts[it], ths[ith])
            if verify_tripodal(poly, cand.points).passed:
                return cand

        for it, ith in np.argwhere(_straddle_mask(g1, g2)):
            hit = _polish_cell(field, poly, ts[it], ts[it + 1], ths[ith],
                               ths[ith + 1], tol, refine)
            if hit is not None:
                return hit
        nt *= 2
        nth *= 2

    try:
        return tripodal_by_face_triples(poly)
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
    g1, g2 = field.values(*np.meshgrid(ts, ths, indexing="ij"))
    for i, j in np.argwhere(_straddle_mask(g1, g2)):
        hit = _polish_cell(field, poly, ts[i], ts[i + 1], ths[j], ths[j + 1],
                           tol, depth - 1)
        if hit is not None:
            return hit
    return None


# --- independent face-triple sweep ----------------------------------------------

def _face_planes(poly: Polyhedron3):
    """Outward plane, 2D face polygon, frame, and radius interval per face."""
    planes = []
    origin = np.zeros((1, 3))
    cp = _closest_on_triangles(origin, poly._tv0, poly._ab, poly._ac)[0]
    tri_dist = np.linalg.norm(cp, axis=1)
    for fid, f in enumerate(poly.faces):
        nrm, cen = _face_frame(poly.vertices, f, poly.diam)
        loop2, u, w = _face_polygon2(poly, fid, nrm, cen)
        pts = poly.vertices[f]
        r_lo = float(tri_dist[poly.face_tris[fid]].min())
        r_hi = float(np.linalg.norm(pts, axis=1).max())
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
        planes.append({
            "n": nrm, "d": float(nrm @ cen), "cen": cen, "u": u, "w": w,
            "polygon": Polygon2(loop2), "r_lo": r_lo, "r_hi": r_hi,
            "crad": float(np.linalg.norm(pts - cen, axis=1).max()),
            "axis": axis, "ang": ang,
            "basis": np.stack([u, w], axis=1),  # 3x2
        })
    return planes


def _in_face(plane, p, tol) -> bool:
    rel = p - plane["cen"]
    if abs(float(rel @ plane["n"])) > tol * 10:
        return False
    p2 = np.array([float(rel @ plane["u"]), float(rel @ plane["w"])])
    return locate_point(plane["polygon"], p2, tol).side != OUTSIDE


def tripodal_by_face_triples(poly: Polyhedron3, samples=64, chunk=256) -> TripodalTriple:
    """Exhaustive sweep over ordered face triples (F1, F2, F3).

    With a on plane 1 and b on plane 2 (two parameters each), the linear
    condition n3.(a+b) = -d3 cuts the parameter space to three dimensions.
    One coordinate is swept over `samples` grid values; the two equal-norm
    quadratics |a|^2 = |b|^2 and |a|^2 = |a+b|^2 are solved by damped Newton
    (4 starts per sample) in the other two. Triples are skipped when their
    radius intervals [min dist to face, max vertex norm] cannot intersect or
    when some pair of direction cones cannot span the 120 degrees any two
    points of the triple subtend; the rest are solved in lex-ordered
    vectorized chunks. First verified triple in lex order wins.
    """
    loc = side3(poly, (0.0, 0.0, 0.0))
    if loc.side == BOUNDARY:
        return _degenerate_triple(poly, loc.surface)
    if loc.side == OUTSIDE:
        raise OriginOutsideError("origin lies outside the surface")

    planes = _face_planes(poly)
    nf = len(planes)
    tol_pos = 1e-9 * poly.diam
    arrs = {
        "N": np.array([p["n"] for p in planes]),
        "D": np.array([p["d"] for p in planes]),
        "U": np.array([p["basis"] for p in planes]),
        "CEN": np.array([p["cen"] for p in planes]),
        "CR": np.array([p["crad"] for p in planes]),
        "r_lo": np.array([p["r_lo"] for p in planes]),
        "r_hi": np.array([p["r_hi"] for p in planes]),
    }
    r_lo, r_hi = arrs["r_lo"], arrs["r_hi"]
    axes = np.array([p["axis"] for p in planes])
    angs = np.array([p["ang"] for p in planes])
    gap = np.arccos(np.clip(axes @ axes.T, -1.0, 1.0))
    can_pair = gap + angs[:, None] + angs[None, :] >= 2 * np.pi / 3 - 1e-12

    batch = []
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
                if len(batch) >= chunk:
                    hit = _sweep_chunk(poly, planes, np.array(batch), samples,
                                       tol_pos, arrs)
                    if hit is not None:
                        return hit
                    batch = []
    if batch:
        hit = _sweep_chunk(poly, planes, np.array(batch), samples, tol_pos, arrs)
        if hit is not None:
            return hit
    raise NotFoundError("no face triple admits a tripodal solution")


def _sweep_chunk(poly, planes, trips, samples, tol_pos, arrs):
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

    sweep = np.linspace(-1.0, 1.0, samples)
    starts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]])
    rows = samples * len(starts)
    y = np.empty((m, rows, 3))
    y[:, :, 2] = Rm[:, None] * np.repeat(sweep, len(starts))[None, :]
    y[:, :, :2] = Rm[:, None, None] * np.tile(starts, (samples, 1))[None, :, :]

    tol_g = 1e-10 * poly.diam ** 2
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
        p1, p2, p3 = planes[fi], planes[fj], planes[fk]
        seen = set()
        for r in np.nonzero(conv[ti])[0]:
            key = tuple(np.round(a[ti, r] / max(slack, 1e-300)).astype(np.int64))
            if key in seen:
                continue
            seen.add(key)
            av, bv, cv = a[ti, r], b[ti, r], c[ti, r]
            if not (_in_face(p1, av, tol_pos) and _in_face(p2, bv, tol_pos)
                    and _in_face(p3, cv, tol_pos)):
                continue
            triple = TripodalTriple(np.array([av, bv, cv]), (fi, fj, fk),
                                    float(np.linalg.norm(av)))
            if verify_tripodal(poly, triple.points).passed:
                return triple
    return None
