"""Skeleton placements, the four-point construction on a triangulated
surface, and the one verifier of every placement: points on mesh edges or on
low faces of an H-polytope, summing to count * target. It imports NumPy
only; the H-polytope branch reads polytoped, which its HPolytope argument
has loaded. Kernels are called through their modules, which the traced
benchmark patches.
"""

from dataclasses import InitVar, dataclass

import numpy as np

from . import geom2d, geom3d
from .certificate import Certificate, FaceD
from .errors import InputError, OriginOutsideError
from .geom3d import Plane3, Polyhedron3


@dataclass
class SkeletonPlacement:
    entries: list            # (point, host FaceD with dim <= 1) pairs
    count: int
    target: np.ndarray

    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.entries])


@dataclass
class SkeletonCertificate(Certificate):
    count: int
    sum_residual: float
    max_membership_error: float
    max_host_dim: int
    eps_geom: float
    eps_bal: float           # relative: the sum bound is eps_bal * scale
    scale: InitVar[float]

    def __post_init__(self, scale):
        self.sum_bound = self.eps_bal * scale
        super().__post_init__()

    def limits(self):
        return (("max_membership_error", self.max_membership_error, self.eps_geom),
                ("max_host_dim", self.max_host_dim, 1),
                ("sum_residual", self.sum_residual, self.sum_bound))


# --- four points via a planar section ----------------------------------------

def four_on_edges(P: Polyhedron3, plane: Plane3 = None) -> SkeletonPlacement:
    """Four points on mesh edges summing to the origin.

    An antipodal pair (q, -q) on the section loop pins down two host faces;
    an antipodal pair inside each face polygon about its section point then
    lands on the face's boundary edges.  A section point already sitting on
    an edge collapses its pair to two copies of itself. Each section point
    is taken on its face's chord in 3D, so a vertex up to eps_geom off the
    plane moves the sum by at most that much per point, never off the face.
    """
    if plane is None:
        plane = Plane3((0.0, 0.0, 1.0), 0.0)
    if abs(plane.offset) > 1e-12 * P.diam:
        raise InputError("section plane must pass through the origin")
    if not P.side_signs(np.zeros((1, 3)))[0] <= 0.0:    # NaN counts as outside
        raise OriginOutsideError("origin lies outside the surface")
    sec = geom3d.cross_section(P, plane)
    bq, bq2 = geom2d.antipodal_about(sec.polygon, (0.0, 0.0))
    entries = []
    for bp in (bq, bq2):
        a, b = sec.points3[bp.edge], sec.points3[(bp.edge + 1) % sec.polygon.n]
        center3 = a + bp.s * (b - a)
        fid = int(sec.edge_faces[bp.edge])
        entries.extend(_face_pair(P, fid, center3))
    return SkeletonPlacement(entries, 4, np.zeros(3))


def _face_pair(P: Polyhedron3, fid: int, center3):
    """Antipodal pair about center3 on the boundary of face fid."""
    frame, _, face2 = P.face_frame(fid)
    poly = geom2d.validate_polygon(face2.vertices)
    return [(frame.to3d(geom2d.eval_boundary(poly, bp)), FaceD((fid,), 1))
            for bp in geom2d.antipodal_about(poly, frame.to2d(center3))]


# --- verification -------------------------------------------------------------

def verify_skeleton(body, points, target=None) -> SkeletonCertificate:
    """Check points on the 1-skeleton whose sum is len(points) * target.

    body is an HPolytope, or a Polyhedron3 whose 1-skeleton is its mesh
    edges; target defaults to the origin. eps_geom is 1e-7 * scale, where
    scale is H.scale (a bound on H's width from its rows) or the mesh
    diameter; the sum residual is compared against eps_bal * scale, with
    eps_bal = 1e-8.
    """
    mesh = isinstance(body, Polyhedron3)
    if mesh:
        d, scale = 3, body.diam
        eg = 1e-7 * scale
    else:
        d, scale, eg = body.d, body.scale, body.eps_geom()
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise InputError(f"need points of shape (n, {d})")
    target = np.zeros(d) if target is None else np.asarray(target, dtype=float)
    membership = _mesh_membership if mesh else _hrep_membership
    mem_err, host_dim = membership(body, pts, eg)
    ssum = float(np.linalg.norm(pts.sum(axis=0) - len(pts) * target))
    return SkeletonCertificate(len(pts), ssum, float(mem_err), int(host_dim),
                               eg, 1e-8, scale)


def _hrep_membership(H, pts, eg):
    """Largest row violation of a point, and the largest dimension of a
    point's face: d minus the rank of the rows within eg of the point. More
    rows within eg can only lower that dimension."""
    from .polytoped import point_faces     # loaded already: H is an HPolytope
    worst = np.fmax.reduce(H.unit_residuals(pts).ravel(), initial=0.0)
    return float(worst), max((f.dim for f in point_faces(H, pts, eg)), default=0)


def _mesh_membership(P: Polyhedron3, pts, eg):
    """Largest distance to a mesh edge; host dimension 1 if within eg, else 2."""
    A, B = P.vertices[P.edges[:, 0]], P.vertices[P.edges[:, 1]]
    D = B - A
    lens2 = (D * D).sum(axis=1)
    p = pts[:, None, :]                                  # (points, edges, 3)
    t = np.clip(((p - A) * D).sum(axis=2) / lens2, 0.0, 1.0)
    d = np.linalg.norm(A + t[:, :, None] * D - p, axis=2).min(axis=1)
    worst = float(np.fmax.reduce(d, initial=0.0))     # a NaN point adds nothing
    return worst, 1 if worst <= eg else 2
