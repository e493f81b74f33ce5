"""d-dimensional convex polytope kernel.

H-representation polytopes (a_i . x <= b_i), vertex enumeration with tight
rows, the faces of H, and the product construction used by the skeleton
fixtures. A read-only polytope caches its Chebyshev ball, its width bound
and its vertices on first use. Every face decision, for solvers and
checkers alike, is made here, from the rows tight at a point: face_dims is
the one rank rule, and point_faces reads no vertex. Only the answers that
are vertices (edges, face members) enumerate them, and vertex enumeration
is the dimension wall: the 8-cross-polytope takes about a second.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import HalfspaceIntersection, QhullError

from .certificate import FaceD
from .errors import (
    EmptyInteriorError,
    EnumerationBudgetError,
    InputError,
    ParseError,
    UnboundedError,
)

# largest C(m, d) the subset solver takes on: at 0.1M to 0.3M subsets a
# second on a 2-vCPU Xeon, an allowed fallback takes 3 to 10 s
BRUTEFORCE_MAX_SUBSETS = 1_000_000
_BLOCK = 200_000            # d-subsets solved, or points masked, per batch
# default membership tolerance of the verifiers, per unit of HPolytope.scale
EPS_GEOM_REL = 1e-7


@dataclass(frozen=True, eq=False)
class HPolytope:
    """The polytope {x : A x <= b}: bounded, with a full-dimensional interior.

    hpolytope() checks both properties once, when it builds a polytope from
    outside data. product, and skeleton_balance._place for the charts of a
    checked polytope's faces, keep both by construction and skip the check.
    A row with a zero normal is allowed.

    A and b are read-only copies, so what is derived from them cannot go
    stale: `chebyshev` (center and radius of a largest inscribed ball, an
    LP), `scale` (a bound on its width, from its rows) and `vrep` (the
    vertices and their tight rows) are computed once per polytope, on first
    use. Where every b_i > 0 the Chebyshev LP runs only to give Qhull its
    start point, that is, only if the vertices are enumerated.
    """
    A: np.ndarray            # (m, d) outward normals
    b: np.ndarray            # (m,) offsets, a.x <= b

    def __post_init__(self):
        for name in ("A", "b"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def chebyshev(self):
        return chebyshev_center(self)

    @functools.cached_property
    def vrep(self) -> VRep:
        return enumerate_vertices(self)

    @functools.cached_property
    def _stiemke(self):
        """(y, residual): y >= 1 with U^T y ~ 0 on the unit normals U of the
        nonzero rows, one NNLS solve (Lawson and Hanson 1974, ch. 23)."""
        unit = self.A[~self.zero_rows()] / self.norms[~self.zero_rows(), None]
        z, res = nnls(unit.T, -unit.sum(axis=0))
        return 1.0 + z, res

    @functools.cached_property
    def scale(self) -> float:
        """Bound on the width of H along every row normal, from its rows alone.

        With c = b / |a| on the nonzero rows and y from _stiemke, y_j u_j.x
        = -sum_{i != j} y_i u_i.x >= -sum_{i != j} y_i c_i, so u_j.x spans
        at most (y . c) / y_j; the largest, (y . c) / min y, does not move
        when H is translated.
        """
        y, _ = self._stiemke
        c = self.b[~self.zero_rows()] / self.norms[~self.zero_rows()]
        return max(float(y @ c) / float(y.min()), 1e-300)

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.A, axis=1)

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def eps_tight(self) -> float:
        return 1e-8 * float(np.abs(self.b).max())

    def eps_geom(self) -> float:
        """Membership tolerance of the verifiers: 1e-7 scale."""
        return EPS_GEOM_REL * self.scale

    def unit_residuals(self, x) -> np.ndarray:
        """(a.x - b) / |a| per row, of a point or of each row of an (n, d)
        array; -inf for a row with a zero normal, which is then never tight
        and never violated."""
        r = (self.A @ np.asarray(x).T).T - self.b
        norms = self.norms
        return np.divide(r, norms, out=np.full_like(r, -np.inf), where=norms > 0)

    def zero_rows(self) -> np.ndarray:
        return ~self.A.any(axis=1)


@dataclass
class VRep:
    vertices: np.ndarray     # (n, d), lexicographically sorted
    tight: np.ndarray        # (n, m) read-only bool: row i is tight at vertex j
    diam: float


def hpolytope(A, b) -> HPolytope:
    """Checked HPolytope; raises UnboundedError or EmptyInteriorError.

    Every b_i > 0 costs no LP: the origin witnesses the interior."""
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
    A^T y = 0: on unit normals U, iff min over z >= 0 of |U^T (1 + z)| is
    zero (H._stiemke), a residual that counts as zero up to 1e-9 sqrt(n)
    for n rows. If every b_i > 0, zero rows included, the origin satisfies
    every row strictly, an exact witness of the interior. Otherwise the
    interior is the positive radius of the Chebyshev LP.
    """
    live = ~H.zero_rows()
    if (np.linalg.matrix_rank(H.A[live] / H.norms[live, None]) < H.d
            or H._stiemke[1] > 1e-9 * math.sqrt(live.sum())):
        raise UnboundedError("polytope is unbounded: some direction x != 0 "
                             "has a.x <= 0 for every row")
    if (H.b > 0.0).all():
        return
    _, r = H.chebyshev
    if r <= 0.0:
        raise EmptyInteriorError("no full-dimensional interior")


def _frame(H: HPolytope) -> float:
    """The power of two s that brings max|s b| into [1, 2).

    chebyshev_center and Qhull work on (A, s b) and divide their answers by
    s: exact in both directions, and the identity where max|b| is in [1, 2).
    """
    return math.ldexp(1.0, 1 - math.frexp(float(np.abs(H.b).max()))[1])


def chebyshev_center(H: HPolytope):
    """Center and radius of a largest inscribed ball, solved in _frame."""
    s = _frame(H)
    norms = np.linalg.norm(H.A, axis=1)
    A = np.column_stack([H.A, norms])
    c = np.zeros(H.d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A, b_ub=H.b * s,
                  bounds=[(None, None)] * H.d + [(0, None)], method="highs")
    if res.status == 3:
        raise UnboundedError("polytope is unbounded")
    if res.status != 0:
        raise EmptyInteriorError("halfspace system infeasible")
    return res.x[:-1] / s, float(res.x[-1]) / s


def _vrep_from_points(H, pts, eps_tight):
    """The V-rep of points that each lie on a vertex of H.

    A vertex is its set of tight rows (|b - a.x| <= eps_tight, a zero row
    never tight), so points with one tight-row pattern are one vertex: the
    lexicographically first of them stands for it, whatever the distances
    between points or the diameter. Masks are found _BLOCK points at a time.
    """
    if len(pts) == 0:
        raise UnboundedError("no vertices found")
    pts = pts[np.lexsort(pts.T[::-1])]
    diam = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    live = ~H.zero_rows()
    mask = np.concatenate([
        (np.abs(H.b - pts[i:i + _BLOCK] @ H.A.T) <= eps_tight) & live
        for i in range(0, len(pts), _BLOCK)])
    first = np.sort(np.unique(mask, axis=0, return_index=True)[1])
    tight = mask[first]
    tight.flags.writeable = False
    return VRep(pts[first], tight, diam)


def enumerate_vertices(H: HPolytope) -> VRep:
    """All vertices with their tight halfspace index sets.

    Qhull intersects the halfspaces in _frame about the Chebyshev center;
    if it fails there, it tries once more from the center moved r/2 along
    e_1, still r/2 inside every row, and then the subset solver takes
    over. A non-simple vertex carries more than d tight indices. Callers
    read the cached H.vrep.
    """
    eps = H.eps_tight()
    if H.d >= 2:
        s = _frame(H)
        keep = ~H.zero_rows()           # Qhull rejects 0.x <= 0
        halfspaces = np.column_stack([H.A[keep], -s * H.b[keep]])
        c, r = H.chebyshev
        for start in (c, c + np.eye(H.d)[0] * (r / 2)):
            try:
                pts = HalfspaceIntersection(halfspaces, s * start).intersections
            except QhullError:
                continue
            return _vrep_from_points(H, pts / s, eps)
    return enumerate_vertices_bruteforce(H, eps)


def enumerate_vertices_bruteforce(H: HPolytope, eps_tight=None) -> VRep:
    """Independent enumerator: solve every d-subset of halfspaces.

    Subsets stream in lexicographic order, _BLOCK at a time; more than
    BRUTEFORCE_MAX_SUBSETS of them raise EnumerationBudgetError up front.
    """
    total = math.comb(H.m, H.d)
    if total > BRUTEFORCE_MAX_SUBSETS:
        raise EnumerationBudgetError(
            f"subset vertex enumeration needs C({H.m}, {H.d}) = {total} "
            f"subsets, over the budget of {BRUTEFORCE_MAX_SUBSETS}")
    eps = H.eps_tight() if eps_tight is None else float(eps_tight)
    combos = itertools.combinations(range(H.m), H.d)
    pts = []
    for block in iter(lambda: list(itertools.islice(combos, _BLOCK)), []):
        sub = np.array(block)             # (c, d) row indices
        M = H.A[sub]                      # (c, d, d)
        det = np.linalg.det(M)
        ok = np.abs(det) > 1e-12 * np.abs(M).max() ** H.d
        if not ok.any():
            continue
        x = np.linalg.solve(M[ok], H.b[sub[ok]][..., None])[..., 0]
        feas = (x @ H.A.T - H.b[None, :] <= eps).all(axis=1)
        if feas.any():
            pts.append(x[feas])
    pts = np.concatenate(pts) if pts else np.empty((0, H.d))
    return _vrep_from_points(H, pts, eps)


# --- faces ---------------------------------------------------------------------

def face_dims(H: HPolytope, row_sets) -> list:
    """Dimension of the face each set of nonzero rows cuts out: d minus the
    rank of their unit normals, singular values above 1e-9 counting. The
    one rank rule of every face decision; one batched SVD per set size."""
    dims = [H.d] * len(row_sets)
    for size in {len(rows) for rows in row_sets} - {0}:
        idx = [i for i, rows in enumerate(row_sets) if len(rows) == size]
        normals = H.A[np.array([row_sets[i] for i in idx])]
        unit = normals / np.linalg.norm(normals, axis=2, keepdims=True)
        for i, r in zip(idx, np.linalg.matrix_rank(unit, tol=1e-9)):
            dims[i] = H.d - int(r)
    return dims


def point_faces(H: HPolytope, points, tol) -> list:
    """The face of each point, read from H's rows alone: the rows within tol
    of it in unit residuals, of dimension face_dims. Each distinct tight
    pattern is ranked once."""
    pts = np.asarray(points, dtype=float).reshape(-1, H.d)
    pats, inv = np.unique(np.abs(H.unit_residuals(pts)) <= tol, axis=0,
                          return_inverse=True)
    rows = [tuple(np.flatnonzero(p).tolist()) for p in pats]
    faces = [FaceD(t, dim) for t, dim in zip(rows, face_dims(H, rows))]
    return [faces[i] for i in inv.ravel()]


def members(H: HPolytope, tight) -> np.ndarray:
    """Ids of the vertices of H at which every row of `tight` is tight."""
    return np.flatnonzero(H.vrep.tight[:, list(tight)].all(axis=1))


def faces_of_dim(H: HPolytope, k: int) -> list:
    """All k-dimensional faces, from the closure of vertex tight sets.

    Candidate face tight sets are intersections of vertex tight sets,
    closed under further pairwise intersection. A candidate is also the
    common tight set of its members (the vertices whose tight set contains
    it), and face_dims gives its dimension.
    """
    gens = [frozenset(np.flatnonzero(t).tolist()) for t in H.vrep.tight]
    at_row = {}                 # row -> the tight sets holding it
    for g in gens:
        for r in g:
            at_row.setdefault(r, set()).add(g)
    closed = set(gens)
    frontier = set(gens)
    for _ in range(H.d + 2):
        new = set()
        for s in frontier:
            for g in set().union(*(at_row[r] for r in s)):
                t = s & g
                if t not in closed:
                    new.add(t)
        if not new:
            break
        closed |= new
        frontier = new
    cands = [tuple(sorted(t)) for t in closed]
    return sorted((FaceD(t, k) for t, dim in zip(cands, face_dims(H, cands))
                   if dim == k), key=lambda f: f.tight)


def edge_segment(H: HPolytope, tight) -> tuple:
    """Endpoint vertex ids (low, high) of the edge of H with these tight rows.

    A vertex within eps_tight of a row it is not on is a member of that
    row's faces too: the long, thin x <= 1, |y| <= 1, -1e-10 x + y <= 1
    has (1, 1) on row 3, so the edge of row 3 has three members. The
    extreme pair along the edge is kept.
    """
    mem = members(H, tight).tolist()
    if len(mem) > 2:
        pts = H.vrep.vertices[mem]
        t = (pts - pts[0]) @ (pts[-1] - pts[0])
        mem = [mem[int(np.argmin(t))], mem[int(np.argmax(t))]]
    return min(mem), max(mem)


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
