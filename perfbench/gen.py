"""Seeded benchmark inputs, built with NumPy and SciPy only.

Nothing here imports poise: a change to poise's validators or constructors
must not change the inputs or the time it takes to make them. Sizes are
fixed per workload; the seed only moves the geometry.
"""

import math

import numpy as np


def rotation(rng, d):
    """Uniform random orthogonal d x d matrix (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


# --- polygons and weights -----------------------------------------------------

def star_polygon(rng, n, r_lo=0.3, r_hi=1.5):
    """CCW polygon star-shaped about the origin: increasing angles, gaps < pi."""
    gaps = rng.uniform(0.7, 1.0, size=n)
    ang = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    rad = rng.uniform(r_lo, r_hi, size=n)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def feasible_weights(rng, k):
    """k positive weights whose largest is at most the sum of the others."""
    if k == 2:
        w = float(rng.uniform(0.5, 2.0))
        return [w, w]
    while True:
        w = rng.uniform(0.1, 1.0, size=k).tolist()
        top = max(w)
        if top <= math.fsum(w) - top:
            return w


def partition_values(rng, n, yes):
    """n positive integers; yes-instances split into two equal halves."""
    vals = rng.integers(1, 200, size=n).tolist()
    if yes:
        # move the imbalance of a random split onto one value per side
        side = rng.integers(0, 2, size=n)
        left = sum(v for v, s in zip(vals, side) if s == 0)
        right = sum(vals) - left
        if left < right:
            vals.append(right - left)
        elif right < left:
            vals.append(left - right)
        else:
            vals.append(int(rng.integers(1, 200)))
            vals.append(vals[-1])
    elif sum(vals) % 2 == 0:
        vals[0] += 1  # odd total: no equal split exists
    return vals


# --- meshes -------------------------------------------------------------------

_OCTA_V = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
_OCTA_F = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
           (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


def _icosahedron():
    p = (1 + 5 ** 0.5) / 2
    v = [(-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0), (0, -1, p), (0, 1, p),
         (0, -1, -p), (0, 1, -p), (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1)]
    f = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9),
         (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2),
         (3, 2, 6), (3, 6, 8), (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10),
         (8, 6, 7), (9, 8, 1)]
    return v, f


def star_mesh(rng, base, subdiv, r_lo=0.7, r_hi=1.3):
    """Radially jittered, randomly rotated subdivided octahedron/icosahedron.

    Vertex directions stay those of the subdivided solid, so the surface is
    star-shaped about the origin and every face is seen from it CCW. The
    rotation keeps axis planes from passing through mesh vertices.
    """
    v0, faces = (_OCTA_V, _OCTA_F) if base == "octa" else _icosahedron()
    verts = [np.asarray(v, float) / np.linalg.norm(v) for v in v0]
    faces = [tuple(f) for f in faces]
    for _ in range(subdiv):
        mids = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in mids:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                mids[key] = len(verts) - 1
            return mids[key]

        nf = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nf += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nf
    V = np.array(verts) * rng.uniform(r_lo, r_hi, size=(len(verts), 1))
    return V @ rotation(rng, 3).T, [list(f) for f in faces]


# --- H-polytopes --------------------------------------------------------------

def _chebyshev_shift(A, b):
    """Move the origin to the centre of the largest inscribed ball."""
    from scipy.optimize import linprog   # local: planar inputs need no SciPy
    d = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.column_stack([A, norms]), b_ub=b,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError("Chebyshev LP failed on a generated polytope")
    return b - A @ res.x[:d]


def random_hull(rng, d, npts):
    """Facets of the hull of npts random unit vectors, origin recentred."""
    from scipy.spatial import ConvexHull
    pts = rng.normal(size=(npts, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    eq = ConvexHull(pts).equations          # a.x + c <= 0, unit normals
    A, b = eq[:, :d], -eq[:, d]
    # coplanar simplices of one facet repeat a row; keep one of each
    _, keep = np.unique(np.round(np.column_stack([A, b]), 12), axis=0,
                        return_index=True)
    A, b = A[np.sort(keep)], b[np.sort(keep)]
    return A, _chebyshev_shift(A, b)


def cube(rng, d):
    """Randomly rotated cube [-1, 1]^d: centrally symmetric, so not simple."""
    R = rotation(rng, d)
    return np.vstack([np.eye(d), -np.eye(d)]) @ R.T, np.ones(2 * d)


def cross_polytope(rng, d):
    """Randomly rotated cross-polytope: 2^d facets, centrally symmetric."""
    R = rotation(rng, d)
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij"))
    A = signs.reshape(d, -1).T
    return A @ R.T, np.ones(len(A))


def product(P, Q):
    (A1, b1), (A2, b2) = P, Q
    A = np.zeros((len(b1) + len(b2), A1.shape[1] + A2.shape[1]))
    A[:len(b1), :A1.shape[1]] = A1
    A[len(b1):, A1.shape[1]:] = A2
    return A, np.concatenate([b1, b2])


def triangle_power(d):
    """Product of equilateral triangles (times [-1, 2] when d is odd).

    Its faces of dimension below floor(d/2) miss the reflected body.
    """
    s = math.sqrt(3.0) / 2.0
    tri = (np.array([[-1.0, 0.0], [0.5, -s], [0.5, s]]), np.full(3, 0.5))
    out = (np.array([[1.0], [-1.0]]), np.array([2.0, 1.0])) if d % 2 else tri
    for _ in range((d - 1) // 2 if d % 2 else d // 2 - 1):
        out = product(out, tri)
    return out


def rotated(rng, P):
    A, b = P
    return A @ rotation(rng, A.shape[1]).T, b


# --- text formats ---------------------------------------------------------------

def polygon_text(V):
    return "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in V)


def off_text(V, faces):
    lines = ["OFF", f"{len(V)} {len(faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in V]
    lines += [" ".join(map(str, [len(f)] + list(f))) for f in faces]
    return "\n".join(lines) + "\n"


def hrep_text(A, b):
    lines = [f"{len(b)} {A.shape[1]}"]
    lines += [" ".join(repr(float(x)) for x in a) + f" {float(bi)!r}"
              for a, bi in zip(A, b)]
    return "\n".join(lines) + "\n"


def numbers(vals):
    return " ".join(repr(v) if isinstance(v, float) else str(v) for v in vals)
