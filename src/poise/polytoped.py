"""d-dimensional convex polytope kernel.

H-representation polytopes (a_i . x <= b_i), vertex enumeration with tight
sets, face-lattice slices, skeleton graphs, and the product construction
used by the skeleton fixtures. Desk scale throughout: d <= 8 and a few
dozen halfspaces.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import (
    DegenerateSpanError,
    DisconnectedSkeletonError,
    EmptyInteriorError,
    InputError,
    ParseError,
    UnboundedError,
)


@dataclass
class HPolytope:
    """The polytope {x : A x <= b}: bounded, with a full-dimensional interior.

    hpolytope() checks both properties once, when it builds a polytope from
    outside data. product and hull_of_points build theirs from checked
    polytopes or from points, so they keep both by construction and skip
    the check. A row with a zero normal is allowed.
    """
    A: np.ndarray            # (m, d) outward normals
    b: np.ndarray            # (m,) offsets, a.x <= b

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def eps_tight(self) -> float:
        return 1e-8 * float(np.abs(self.b).max())

    def unit_residuals(self, x) -> np.ndarray:
        """(a.x - b) / |a| per row; -inf for a row with a zero normal, which
        is then never tight and never violated."""
        r = self.A @ x - self.b
        norms = np.linalg.norm(self.A, axis=1)
        return np.divide(r, norms, out=np.full_like(r, -np.inf), where=norms > 0)

    def zero_rows(self) -> np.ndarray:
        return ~self.A.any(axis=1)


@dataclass
class VRep:
    vertices: np.ndarray     # (n, d), lexicographically sorted
    tight_sets: list         # tuple of halfspace indices per vertex
    diam: float


@dataclass
class FaceD:
    tight: tuple             # maximal tight halfspace index set
    members: tuple           # vertex ids
    dim: int
    point: np.ndarray        # affine base point
    basis: np.ndarray        # (dim, d) orthonormal spanning directions


@dataclass
class SkeletonGraph:
    nodes: tuple
    edges: tuple             # sorted (u, v) pairs
    adj: dict


def hpolytope(A, b) -> HPolytope:
    """Checked HPolytope; raises UnboundedError or EmptyInteriorError."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or len(A) != len(b):
        raise InputError("need A of shape (m, d) and b of shape (m,)")
    if A.shape[1] < 1:
        raise InputError("a polytope needs dimension d >= 1")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise InputError("halfspace data must be finite")
    H = HPolytope(A, b)
    _check_bounded_interior(H)
    return H


def _check_bounded_interior(H: HPolytope) -> None:
    """Raise unless H is bounded and has a full-dimensional interior.

    Bounded means {x : A x <= 0} = {0}. By Stiemke's transposition theorem
    that holds iff the nonzero normals have rank d and some y > 0 solves
    A^T y = 0; scaled to unit normals, one LP with y >= 1 decides it. The
    interior is then the positive radius of the Chebyshev LP.
    """
    norms = np.linalg.norm(H.A, axis=1)
    unit = H.A[norms > 0] / norms[norms > 0, None]
    if (np.linalg.matrix_rank(unit) < H.d
            or linprog(np.zeros(len(unit)), A_eq=unit.T, b_eq=np.zeros(H.d),
                       bounds=(1.0, None), method="highs").status != 0):
        raise UnboundedError("polytope is unbounded: some direction x != 0 "
                             "has a.x <= 0 for every row")
    _, r = chebyshev_center(H)
    if r <= 0.0:
        raise EmptyInteriorError("no full-dimensional interior")


def chebyshev_center(H: HPolytope):
    """Center and radius of a largest inscribed ball."""
    norms = np.linalg.norm(H.A, axis=1)
    A = np.column_stack([H.A, norms])
    c = np.zeros(H.d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A, b_ub=H.b, bounds=[(None, None)] * H.d + [(0, None)],
                  method="highs")
    if res.status == 3:
        raise UnboundedError("polytope is unbounded")
    if res.status != 0:
        raise EmptyInteriorError("halfspace system infeasible")
    return res.x[:-1], float(res.x[-1])


def _dedupe(points, tights, merge_tol):
    """Merge near-duplicate vertices, unioning their tight sets."""
    # fast pre-pass: points in the same cell two decades below merge_tol
    # are duplicates of one another; union their sets and keep one
    if len(points) > 256:
        cell = max(merge_tol * 1e-2, 1e-300)
        keys = np.round(points / cell).astype(np.int64)
        buckets = {}
        for i, key in enumerate(map(tuple, keys)):
            j = buckets.setdefault(key, i)
            if j != i:
                tights[j] = tights[j] | tights[i]
        keep = sorted(buckets.values())
        points = points[keep]
        tights = [tights[i] for i in keep]
    order = np.lexsort(points.T[::-1])
    buf = np.empty_like(points)
    out_tight = []
    k = 0
    for idx in order:
        p = points[idx]
        if k:
            dist = np.linalg.norm(buf[:k] - p, axis=1)
            q = int(np.argmin(dist))
            if dist[q] <= merge_tol:
                out_tight[q] |= tights[idx]
                continue
        buf[k] = p
        out_tight.append(set(tights[idx]))
        k += 1
    return buf[:k].copy(), [tuple(sorted(t)) for t in out_tight]


def _vrep_from_points(H, pts, eps_tight):
    if len(pts) == 0:
        raise UnboundedError("no vertices found")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    slack = H.b[None, :] - pts @ H.A.T
    slack[:, H.zero_rows()] = np.inf      # a zero row is never tight
    tights = [set(np.nonzero(np.abs(slack[i]) <= eps_tight)[0].tolist())
              for i in range(len(pts))]
    verts, tight_sets = _dedupe(pts, tights, 1e-9 * max(diam, 1e-300))
    return VRep(verts, tight_sets, diam)


def enumerate_vertices(H: HPolytope) -> VRep:
    """All vertices with their tight halfspace index sets.

    Near-duplicate solutions are merged within 1e-9 of the diameter, so a
    non-simple vertex carries more than d tight indices. Uses the halfspace
    intersection dual when available, falling back to the subset solver.
    """
    eps = H.eps_tight()
    if H.d >= 2:
        try:
            center, r = chebyshev_center(H)
            if r <= 0:
                raise EmptyInteriorError("no full-dimensional interior")
            keep = ~H.zero_rows()       # Qhull rejects 0.x <= 0
            hs = HalfspaceIntersection(
                np.column_stack([H.A[keep], -H.b[keep]]), center)
            return _vrep_from_points(H, hs.intersections, eps)
        except QhullError:
            pass
    return enumerate_vertices_bruteforce(H, eps)


def enumerate_vertices_bruteforce(H: HPolytope, eps_tight=None) -> VRep:
    """Independent enumerator: solve every d-subset of halfspaces."""
    eps = H.eps_tight() if eps_tight is None else float(eps_tight)
    combos = np.array(list(itertools.combinations(range(H.m), H.d)))
    pts = []
    for lo in range(0, len(combos), 200000):
        sub = combos[lo:lo + 200000]
        M = H.A[sub]                      # (c, d, d)
        det = np.linalg.det(M)
        ok = np.abs(det) > 1e-12 * np.abs(M).max() ** H.d if H.d else det != 0
        if not ok.any():
            continue
        x = np.linalg.solve(M[ok], H.b[sub[ok]][..., None])[..., 0]
        feas = (x @ H.A.T - H.b[None, :] <= eps).all(axis=1)
        if feas.any():
            pts.append(x[feas])
    pts = np.concatenate(pts) if pts else np.empty((0, H.d))
    return _vrep_from_points(H, pts, eps)


def faces_of_dim(H: HPolytope, V: VRep, k: int) -> list:
    """All k-dimensional faces, from the closure of vertex tight sets.

    Candidate face tight sets are intersections of vertex tight sets,
    closed under further pairwise intersection; a candidate's members are
    the vertices whose tight set contains it, and its dimension is d minus
    the rank of its tight normals.
    """
    gens = [frozenset(t) for t in V.tight_sets]
    closed = set(gens)
    frontier = set(gens)
    for _ in range(H.d + 2):
        new = set()
        for s in frontier:
            for g in gens:
                t = s & g
                if t and t not in closed:
                    new.add(t)
        if not new:
            break
        closed |= new
        frontier = new

    scale = max(V.diam, 1e-300)
    faces = {}
    for t in closed:
        rows = H.A[sorted(t)]
        rank = np.linalg.matrix_rank(rows, tol=1e-9 * max(1.0, np.abs(rows).max()))
        if H.d - rank != k:
            continue
        members = tuple(i for i, vt in enumerate(V.tight_sets)
                        if t <= frozenset(vt))
        if not members:
            continue
        # canonical tight set: common tight rows of all members
        canon = frozenset.intersection(*[frozenset(V.tight_sets[i])
                                         for i in members])
        if canon in faces:
            continue
        pts = V.vertices[list(members)]
        point = pts.mean(axis=0)
        if len(members) == 1:
            basis = np.empty((0, H.d))
        else:
            _, sv, vt = np.linalg.svd(pts - point)
            nz = sv > 1e-9 * scale
            basis = vt[:len(sv)][nz]
        if len(basis) != k:
            continue
        faces[canon] = FaceD(tuple(sorted(canon)), members, k, point, basis)
    return [faces[t] for t in sorted(faces, key=lambda s: tuple(sorted(s)))]


def edge_segment(V: VRep, members) -> tuple:
    """Endpoint vertex ids (low, high) of a face with the given members.

    An edge whose collinear near-duplicate vertices were merged has more
    than two members; its extreme pair along the edge is kept.
    """
    mem = tuple(members)
    if len(mem) > 2:
        pts = V.vertices[list(mem)]
        t = (pts - pts[0]) @ (pts[-1] - pts[0])
        mem = (mem[int(np.argmin(t))], mem[int(np.argmax(t))])
    return min(mem), max(mem)


def skeleton_graph(H: HPolytope, V: VRep) -> SkeletonGraph:
    """Vertex-edge graph from the 1-faces; must be connected."""
    edges = {edge_segment(V, f.members) for f in faces_of_dim(H, V, 1)}
    nodes = tuple(range(len(V.vertices)))
    adj = {v: [] for v in nodes}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    seen = {0} if nodes else set()
    stack = [0] if nodes else []
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != len(nodes):
        raise DisconnectedSkeletonError("skeleton graph is not connected")
    return SkeletonGraph(nodes, tuple(sorted(edges)), adj)


def hull_of_points(points, d=None) -> HPolytope:
    """Facets of the convex hull, by brute force over d-subsets.

    A hyperplane through d affinely independent points is kept when every
    input point lies (weakly) on one side; normals point away from the
    centroid.
    """
    pts = np.asarray(points, dtype=float)
    if d is None:
        d = pts.shape[1]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise InputError("points must have shape (n, d)")
    n = len(pts)
    if n < d + 1:
        raise DegenerateSpanError("need at least d+1 points")
    scale = max(float(np.linalg.norm(pts.max(0) - pts.min(0))), 1e-300)
    if np.linalg.matrix_rank(pts - pts.mean(0), tol=1e-9 * scale) < d:
        raise DegenerateSpanError("points do not affinely span")
    tol = 1e-9 * scale
    seen = {}
    for combo in itertools.combinations(range(n), d):
        base = pts[combo[0]]
        if d == 1:
            a = np.array([1.0])
        else:
            rows = pts[list(combo[1:])] - base
            _, sv, vt = np.linalg.svd(rows, full_matrices=True)
            if sv[-1] <= 1e-9 * scale:
                continue  # affinely dependent subset, no unique hyperplane
            a = vt[-1]
        s = pts @ a - float(a @ base)
        pos, neg = bool((s > tol).any()), bool((s < -tol).any())
        if pos and neg:
            continue
        if pos:
            a = -a
        bb = float(a @ base)
        key = tuple(np.round(np.append(a, bb) / tol).astype(np.int64))
        if key not in seen:
            seen[key] = (a, bb)
    if not seen:
        raise DegenerateSpanError("no facets found")
    facets = list(seen.values())
    A = np.array([f[0] for f in facets])
    b = np.array([f[1] for f in facets])
    order = np.lexsort(np.column_stack([A, b]).T[::-1])
    return HPolytope(A[order], b[order])


def product(H1: HPolytope, H2: HPolytope) -> HPolytope:
    """Cartesian product: block-diagonal halfspace concatenation."""
    d1, d2 = H1.d, H2.d
    A = np.zeros((H1.m + H2.m, d1 + d2))
    A[:H1.m, :d1] = H1.A
    A[H1.m:, d1:] = H2.A
    return HPolytope(A, np.concatenate([H1.b, H2.b]))


# --- text format -----------------------------------------------------------------

def parse_hrep_text(text: str) -> HPolytope:
    """First line `m d`, then m lines of d normal components and the offset."""
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty halfspace file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be `m d`")
    try:
        m, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError("header must be two integers") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d + 1:
            raise ParseError(f"expected {d + 1} numbers per row: {ln!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad number in row: {ln!r}") from exc
    arr = np.array(rows, dtype=float).reshape(m, d + 1)
    return hpolytope(arr[:, :d], arr[:, d])


def dump_hrep_text(H: HPolytope) -> str:
    out = [f"{H.m} {H.d}"]
    for a, b in zip(H.A, H.b):
        out.append(" ".join(repr(float(x)) for x in a) + " " + repr(float(b)))
    return "\n".join(out) + "\n"


def load_hrep(path) -> HPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hrep_text(fh.read())


# --- standard fixtures -----------------------------------------------------------

def cube_hrep(d: int, half=1.0) -> HPolytope:
    A = np.vstack([np.eye(d), -np.eye(d)])
    return hpolytope(A, np.full(2 * d, float(half)))


def cross_hrep(d: int) -> HPolytope:
    A = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    return hpolytope(A, np.ones(len(A)))


def simplex_hrep(d: int) -> HPolytope:
    # regular-enough simplex with the origin interior
    A = np.vstack([-np.eye(d), np.ones(d)])
    b = np.concatenate([np.ones(d) * 0.5, [0.5 * d + 1.0 - 0.5]])
    return hpolytope(A, b)
