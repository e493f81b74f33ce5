"""Fixed reference computations that track how fast the host runs right now.

Each workload has its own probe, shaped like the work that dominates it:
a Python loop over edge pairs with NumPy scalars (planar), batched
point-to-triangle arrays (surface), and small HiGHS LPs, a Qhull halfspace
intersection and Python set work (skeleton). None of them calls poise, so
a change to poise cannot move them. Inputs come from a fixed seed.
"""

import subprocess
import sys
import time

import numpy as np

import checks
import gen


def _edge_pairs(V):
    W = np.roll(V, -1, axis=0)
    n = len(V)
    hits = 0
    for i in range(n):
        r = W[i] - V[i]
        lr = float(np.hypot(*r))
        for j in range(i + 2, n):
            s = W[j] - V[j]
            ls = float(np.hypot(*s))
            rxs = r[0] * s[1] - r[1] * s[0]
            qp = V[j] - V[i]
            if abs(rxs) > 1e-12 * lr * ls:
                t = (qp[0] * s[1] - qp[1] * s[0]) / rxs
                u = (qp[0] * r[1] - qp[1] * r[0]) / rxs
                hits += bool(0.0 <= t <= 1.0 and 0.0 <= u <= 1.0)
    return hits


def _point_triangles(P, T):
    return float(checks.triangle_distances(P, T).min(axis=1).sum())


def _lps_and_hull(A, b, costs, Ah, bh):
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection
    total = 0.0
    for c in costs:
        total += linprog(c, A_ub=A, b_ub=b, bounds=(None, None), method="highs").fun
    hs = HalfspaceIntersection(np.column_stack([Ah, -bh]), np.zeros(Ah.shape[1]))
    tights = [frozenset(np.nonzero(np.abs(bh - Ah @ v) <= 1e-8)[0].tolist())
              for v in hs.intersections]
    closed = set(tights)
    for s in tights:
        for t in tights:
            closed.add(s & t)
    return total + len(closed)


# Median probe and launch times on the reference host (README); times are
# reported as measured time * reference / the probe taken next to them.
PROBE_REF_S = {"planar": 0.009, "surface": 0.0063, "skeleton": 0.0078}
LAUNCH_REF_S = 0.9
LAUNCH_IMPORTS = "import numpy, scipy.linalg, scipy.optimize, scipy.spatial"


class Probe:
    """Times one fixed computation; the same inputs in every run."""

    def __init__(self, workload):
        rng = np.random.default_rng(11)
        if workload == "planar":
            V = gen.star_polygon(rng, 46)
            self._call = lambda: _edge_pairs(V)
        elif workload == "surface":
            Vm, F = gen.star_mesh(rng, "octa", 3)
            T = checks.mesh_triangles(Vm, F)
            P = rng.normal(size=(16, 3))
            self._call = lambda: _point_triangles(P, T)
        else:
            A, b = gen.random_hull(rng, 6, 14)
            Ah, bh = gen.random_hull(rng, 4, 8)
            costs = rng.normal(size=(2, 6))
            self._call = lambda: _lps_and_hull(A, b, costs, Ah, bh)

    def measure(self):
        """Seconds one run of the computation takes now."""
        t0 = time.perf_counter()
        self._call()
        return time.perf_counter() - t0


def launch_seconds(env, cwd):
    """Wall time of a fresh interpreter importing the libraries poise uses."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", LAUNCH_IMPORTS], env=env, cwd=cwd,
                   check=True, timeout=120)
    return time.perf_counter() - t0
