import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull

from helpers import (cross_hrep, faces_by_svd, hull_hrep, members,
                     random_hull_hrep, simplex_hrep, stiemke_cone_lp, tight_sets)
from poise import polytoped
from poise.errors import EmptyInteriorError, ParseError, UnboundedError
from poise.polytoped import (_vrep_from_points, chebyshev_center, cube_hrep,
                             dump_hrep_text, enumerate_vertices,
                             edges, enumerate_vertices_bruteforce, hpolytope,
                             load_hrep, parse_hrep_text, product)
from poise.skeleton_balance import prop9_fixture


def test_fixture_shapes():
    assert cube_hrep(3).m == 6 and cube_hrep(3).d == 3
    assert cross_hrep(3).m == 8
    assert simplex_hrep(3).m == 4
    assert cube_hrep(2, half=2.0).b.max() == 2.0


def test_qhull_matches_bruteforce_enumeration():
    rng = np.random.default_rng(13)
    cases = [cube_hrep(2), cube_hrep(3), cross_hrep(3), simplex_hrep(3),
             cube_hrep(4)] + [random_hull_hrep(rng, d) for d in (2, 3, 4)]
    for H in cases:
        fast = enumerate_vertices(H)
        slow = enumerate_vertices_bruteforce(H)
        assert np.allclose(fast.vertices, slow.vertices, atol=1e-9)
        assert np.array_equal(fast.tight, slow.tight)


def test_qhull_from_a_shallow_origin_matches_bruteforce():
    """Seeded random hulls, d = 2..5, each translated so that the origin
    lies 1e-1 to 1e-9 of the way from one vertex to the old origin: Qhull's
    tight sets equal the subset solver's on each. Below
    ORIGIN_START_RATIO the origin is no start for Qhull; with that gate
    removed (every b > 0 starting from the origin) this test fails: 13 of
    its 108 hulls, each at 1e-8 or 1e-9, give other tight sets."""
    rng = np.random.default_rng(29)
    for d in range(2, 6):
        for _ in range(3):
            H = random_hull_hrep(rng, d)
            v = H.vrep.vertices[rng.integers(len(H.vrep.vertices))]
            for k in range(1, 10):
                G = hpolytope(H.A, H.b - H.A @ ((1.0 - 10.0 ** -k) * v))
                want = enumerate_vertices_bruteforce(G)
                assert tight_sets(enumerate_vertices(G)) == tight_sets(want), (d, k)


def test_hypercube4_face_counts():
    H = cube_hrep(4)
    assert [len(H.vrep.vertices), len(edges(H)[0])] == [16, 32]


def test_edges_match_the_svd_reference():
    """Every edge's (dim, tight, members) equals the reference's, which
    builds the whole face lattice, ranks raw rows and takes an SVD of each
    face's vertices, on cubes, cross-polytopes and simplices (d = 2..6),
    prop9_fixture(4..7) and seeded random hulls, with offsets scaled by 1,
    1e-8 and 1e8."""
    rng = np.random.default_rng(71)
    cases = [f(d) for d in range(2, 7) for f in (cube_hrep, cross_hrep, simplex_hrep)]
    cases += [prop9_fixture(d) for d in range(4, 8)]
    cases += [random_hull_hrep(rng, d, n) for d in range(2, 7) for n in (d + 3, 2 * d + 4)]
    for H in cases:
        for s in (1.0, 1e-8, 1e8):
            Hs = hpolytope(H.A, H.b * s)
            faces, ends = edges(Hs)
            got = [(f.dim, f.tight, tuple(members(Hs, f.tight).tolist()))
                   for f in faces]
            assert [tuple(e) for e in ends] == [g[2] for g in got]
            assert got == [f for f in faces_by_svd(Hs) if f[0] == 1], (H.d, H.m, s)


def test_edges_have_two_endpoints_on_simple_polytopes():
    for H in (cube_hrep(3), simplex_hrep(4)):
        for f, e in zip(*edges(H)):
            assert members(H, f.tight).tolist() == e.tolist()
            assert f.dim == 1


def test_long_thin_polytope_has_four_edges():
    """On x <= 1, |y| <= 1, -1e-10 x + y <= 1, rows 2 and 3 rank as one at
    the far vertex (-2e10, -1), whose own tight set the face lattice listed
    as a fifth edge. Edges come from pairs of vertices, and no pair has both
    rows tight. Row 3 alone is the common set of two pairs, as (1, 1) is
    within eps_tight of it: the farther pair (-2e10, -1), (1, 1) is kept."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1e-10, 1.0]])
    H = hpolytope(A, np.ones(4))
    got = [(f.tight, f.dim, tuple(e.tolist())) for f, e in zip(*edges(H))]
    assert got == [((0,), 1, (2, 3)), ((1, 3), 1, (1, 3)), ((2,), 1, (0, 2)),
                   ((3,), 1, (0, 3))]


def test_arrays_are_read_only_and_owned():
    A = np.vstack([np.eye(2), -np.eye(2)])
    H = hpolytope(A, np.ones(4))
    A[0, 0] = 5.0                        # the caller's array is copied
    assert H.A[0, 0] == 1.0
    with pytest.raises(ValueError):
        H.A[0, 0] = 2.0
    with pytest.raises(ValueError):
        H.b[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.A = A
    assert H.vrep is H.vrep and H.chebyshev is H.chebyshev
    with pytest.raises(ValueError):
        H.vrep.tight[0, 0] = False


# tests/data/tiny7.hrep is random_hull_hrep(default_rng(2), 7, 14) with its
# offsets scaled by 1e-8: the subset solver would need C(196, 7) ~ 2e12
# subsets. Qhull enumerates it in the power-of-two frame, so prop9-check
# solves it and its check passes. With HalfspaceIntersection made to fail,
# the subset solver refuses it up front, exit 1. The child is capped at
# 2 GB, so that an enumerator that builds every subset fails there with a
# MemoryError instead of exhausting the host.
TINY7 = os.path.join(os.path.dirname(__file__), "data", "tiny7.hrep")
BUDGET_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from poise import polytoped
from poise.cli import run
from poise.errors import EnumerationBudgetError
hrep, cert = sys.argv[1:3]
argv = ["prop9-check", "--k", "0", "--hrep", hrep]
if (run(argv + ["--json", cert]).exit_code
        or run(["check", "--json", cert, "--hrep", hrep]).exit_code):
    sys.exit(4)
def no_qhull(*args, **kwargs):
    raise polytoped.QhullError("disabled")
polytoped.HalfspaceIntersection = no_qhull
try:
    polytoped.enumerate_vertices_bruteforce(polytoped.load_hrep(hrep))
except EnumerationBudgetError as exc:
    print(exc)
sys.exit(run(argv).exit_code)
"""


def test_subset_solver_refuses_over_budget(tmp_path):
    assert load_hrep(TINY7).m == 196
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", BUDGET_CHILD, TINY7,
                           str(tmp_path / "p.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads((tmp_path / "p.json").read_text())["certificate"]["passed"]
    assert "C(196, 7) = " in proc.stdout and "budget" in proc.stdout
    assert proc.stderr.startswith("poise: no result: subset vertex enumeration")
    assert "C(196, 7)" in proc.stderr


def test_qhull_retries_from_a_second_interior_point(monkeypatch):
    """When Qhull fails from one start, the next is tried, in the order
    origin, Chebyshev center c, c + r/2 e_1 (still r/2 inside every row),
    and then the subset solver: the same tight sets each time and, up to
    rounding, the same vertices. The frame of max|b| = 3 is s = 1/2."""
    H = hpolytope(cross_hrep(3).A, cross_hrep(3).b * 3.0)
    want = enumerate_vertices(H)
    c, r = H.chebyshev
    order = [np.zeros(3), c * 0.5, (c + [r / 2, 0.0, 0.0]) * 0.5]
    assert H.unit_residuals(order[2] / 0.5).max() <= -r / 2 * (1 - 1e-12)
    real = polytoped.HalfspaceIntersection
    for fails in (1, 2, 3):
        starts = []

        def failing(halfspaces, interior):
            starts.append(interior)
            if len(starts) <= fails:
                raise polytoped.QhullError(f"start {len(starts)} refused")
            return real(halfspaces, interior)

        monkeypatch.setattr(polytoped, "HalfspaceIntersection", failing)
        got = enumerate_vertices(hpolytope(H.A, H.b))
        assert len(starts) == min(fails + 1, 3), fails
        for start, expected in zip(starts, order):
            assert np.array_equal(start, expected), fails
        assert sorted(tight_sets(got)) == sorted(tight_sets(want)), fails
        at = dict(zip(tight_sets(want), want.vertices))
        for t, v in zip(tight_sets(got), got.vertices):
            assert np.allclose(v, at[t], atol=1e-12), (fails, t)


def test_chebyshev_center_and_support():
    H = cube_hrep(3)
    c, r = chebyshev_center(H)
    assert np.allclose(c, 0.0, atol=1e-9) and r == pytest.approx(1.0)


def _count_lps(monkeypatch):
    calls = []
    real = polytoped.linprog
    monkeypatch.setattr(polytoped, "linprog",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


CUBE_A = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize("b", [
    [3.0, 1.0, 1.0, -1.0, 1.0, 1.0],     # 1 <= x <= 3: the origin is outside
    [2.0, 1.0, 1.0, 0.0, 1.0, 1.0],      # 0 <= x <= 2: the origin is on a facet
])
def test_load_without_the_origin_inside_solves_one_lp(b, monkeypatch):
    """Where some b_i <= 0 the origin witnesses nothing, and the Chebyshev LP
    decides the interior; enumeration then reuses its cached answer."""
    lps = _count_lps(monkeypatch)
    H = hpolytope(CUBE_A, b)
    assert len(lps) == 1
    assert len(H.vrep.vertices) == 8 and len(lps) == 1
    assert H.chebyshev[1] == pytest.approx(1.0)


def test_empty_inputs_still_raise_after_their_lp(monkeypatch):
    lps = _count_lps(monkeypatch)
    with pytest.raises(EmptyInteriorError):
        hpolytope([[1.0], [-1.0]], [-1.0, -1.0])
    assert len(lps) == 1
    with pytest.raises(EmptyInteriorError):    # the zero row reads 0 <= -1
        hpolytope(np.vstack([CUBE_A, np.zeros(3)]), [1.0] * 6 + [-1.0])
    assert len(lps) == 2


def test_origin_inside_defers_the_lp_to_the_first_vrep(monkeypatch):
    """b > 0, a vacuous zero row included: loading solves no Chebyshev LP.
    Where the unit offsets stay within ORIGIN_START_RATIO of each other,
    Qhull starts from the origin and H.vrep solves none either. With the
    origin 1e-6 from a vertex of the cube [-1e-6, 2 - 1e-6]^3 they do not:
    the first H.vrep solves one LP, for Qhull's start point, and no more."""
    centred = []
    real = polytoped.chebyshev_center
    monkeypatch.setattr(polytoped, "chebyshev_center",
                        lambda H: centred.append(H) or real(H))
    lps = _count_lps(monkeypatch)
    H = hpolytope(np.vstack([CUBE_A, np.zeros(3)]), [1.0] * 6 + [0.5])
    assert H.scale > 0 and len(H.vrep.vertices) == 8
    assert centred == [] and lps == []
    near = [2.0 - 1e-6] * 3 + [1e-6] * 3 + [0.5]
    H = hpolytope(np.vstack([CUBE_A, np.zeros(3)]), near)
    assert 1e-6 / 2.0 < polytoped.ORIGIN_START_RATIO
    assert H.scale > 0 and centred == [] and lps == []
    assert len(H.vrep.vertices) == 8 and centred == [H] and len(lps) == 1
    assert len(members(H, (0,))) == 4 and H.chebyshev[1] == pytest.approx(1.0)
    assert centred == [H] and len(lps) == 1


def test_hull_with_interior_points_has_cube_vertices():
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)], float)
    pts = np.vstack([corners, [[0.0, 0.0, 0.0], [0.2, 0.1, -0.3]]])
    H = hpolytope(*hull_hrep(pts))
    assert H.m == 6
    V = enumerate_vertices(H)
    assert len(V.vertices) == 8
    assert np.allclose(np.sort(np.abs(V.vertices).ravel()), 1.0)


# Random 7-hulls whose offsets scaled by 1e-8 Qhull rejected about the
# Chebyshev center, each then over the subset budget, and the ones where
# Qhull needs the second interior point (seed 1 unscaled, seed 21 at 1 and
# at 1e8). Run capped at 2 GB, like BUDGET_CHILD.
SCALED7_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from helpers import random_hull_hrep
from poise.polytoped import enumerate_vertices, hpolytope
out = []
for seed in (1, 2, 4, 5, 8, 15, 16, 21, 26, 34, 35, 38, 39):
    H = random_hull_hrep(np.random.default_rng(seed), 7, 14)
    want = enumerate_vertices(H)
    for s in (1e-8, 1e8) if seed == 21 else (1e-8,):
        got = enumerate_vertices(hpolytope(H.A, H.b * s))
        out.append([seed, s, len(want.vertices), len(got.vertices),
                    bool(np.array_equal(got.tight, want.tight))])
print(json.dumps(out))
"""


def test_enumeration_is_scale_invariant():
    """Vertex counts and tight sets of 45 polytopes (random, cube and cross,
    d = 2..6) scaled by 1e-8, 1e-6 and 1e8, and of 13 random 7-hulls scaled
    by 1e-8 (and one by 1e8), equal the unscaled ones: the tightness
    tolerance is relative to the offsets, with no absolute floor, and
    Qhull runs in a frame where max|b| is in [1, 2)."""
    rng = np.random.default_rng(45)
    for d in range(2, 7):
        for H in (random_hull_hrep(rng, d), cube_hrep(d), cross_hrep(d)):
            want = enumerate_vertices(H)
            for s in (1e-8, 1e-6, 1e8):
                got = enumerate_vertices(hpolytope(H.A, H.b * s))
                assert len(got.vertices) == len(want.vertices), (d, H.m, s)
                assert np.array_equal(got.tight, want.tight), (d, H.m, s)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", SCALED7_CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == 14
    for seed, s, n_want, n_got, same_tight in runs:
        assert n_got == n_want and same_tight, (seed, s)


def test_enumerate_handles_many_duplicate_intersections():
    ang = np.linspace(0, 2 * np.pi, 300, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    H = hpolytope(*hull_hrep(pts))
    V = enumerate_vertices(H)
    assert len(V.vertices) == 300
    assert np.allclose(np.linalg.norm(V.vertices, axis=1), 1.0, atol=1e-9)
    assert (V.tight.sum(axis=1) >= 2).all()


def test_product_dimensions():
    H = product(cube_hrep(2), simplex_hrep(3))
    assert H.d == 5 and H.m == 4 + 4
    V = enumerate_vertices(H)
    assert len(V.vertices) == 4 * 4  # vertex counts multiply


def test_parse_dump_round_trip_and_errors():
    H = cross_hrep(3)
    again = parse_hrep_text(dump_hrep_text(H))
    assert np.array_equal(again.A, H.A) and np.array_equal(again.b, H.b)
    with pytest.raises(ParseError):
        parse_hrep_text("1 0\n")
    with pytest.raises(UnboundedError):
        hpolytope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
    with pytest.raises(EmptyInteriorError):
        hpolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                  [1.0, -2.0, 1.0, 1.0])


def test_load_hrep(tmp_path):
    path = tmp_path / "c.hrep"
    path.write_text(dump_hrep_text(cube_hrep(2)))
    H = load_hrep(path)
    assert H.d == 2 and H.m == 4


def _axis_probe(A, b):
    """Status of the first of the 2d LPs max +-x_i over Ax <= b that is not
    0 (0 if none): the boundedness probe vertex enumeration used to run."""
    for i in range(A.shape[1]):
        for s in (1.0, -1.0):
            c = np.zeros(A.shape[1])
            c[i] = -s
            status = linprog(c, A_ub=A, b_ub=b, bounds=(None, None),
                             method="highs").status
            if status != 0:
                return status
    return 0


def _bounded_by_hull(A):
    """Without an LP: {x : Ax <= 0} = {0} iff the origin lies strictly inside
    the hull of the unit normals. None when it lies within 1e-9 of the hull's
    boundary, too close to call."""
    norms = np.linalg.norm(A, axis=1)
    unit = A[norms > 0] / norms[norms > 0, None]
    d = A.shape[1]
    if d == 1:
        return bool((unit > 0).any() and (unit < 0).any())
    if len(unit) <= d or np.linalg.matrix_rank(unit) < d:
        return False
    offsets = ConvexHull(unit).equations[:, -1]   # n.x + offset <= 0 inside
    if np.abs(offsets).min() <= 1e-9:
        return None
    return bool((offsets < 0).all())


def _random_system(rng, d, kind, scale):
    m = int(rng.integers(d + 1, 3 * d + 3))
    A = rng.normal(size=(m, d))
    b = rng.uniform(0.1, 1.0, m)
    if kind == "cone":              # every normal in the open half-space u.a > 0
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        s = A @ u
        A += (np.abs(s) - s + 0.1)[:, None] * u
    elif kind == "rank-deficient":  # no normal has an x_j component
        A[:, rng.integers(d)] = 0.0
    elif kind == "possibly-empty":
        b = rng.uniform(-1.0, 1.0, m)
    if rng.random() < 0.25:         # a zero row, vacuous or infeasible
        A = np.vstack([A, np.zeros(d)])
        b = np.append(b, rng.choice([-1.0, 1.0]))
    return A, b * scale


def _verdict(A, b):
    try:
        hpolytope(A, b)
    except UnboundedError:
        return "unbounded"
    except EmptyInteriorError:
        return "empty"
    return "ok"


def test_hpolytope_check_matches_hull_and_axis_probe():
    """The NNLS cone test against two references on 400 seeded systems.

    Where the axis probe stopped on an LP status other than 0 or 3 it is not
    compared: HiGHS can call a feasible, unbounded system infeasible there.
    """
    rng = np.random.default_rng(6)
    kinds = ("random", "cone", "rank-deficient", "possibly-empty")
    verdicts = []
    for i in range(400):
        d, kind = 1 + i % 6, kinds[(i // 6) % 4]
        A, b = _random_system(rng, d, kind, (1e-8, 1.0, 1e8)[(i // 24) % 3])
        bounded = _bounded_by_hull(A)
        if bounded is None:
            continue
        got = _verdict(A, b)
        verdicts.append(got)
        assert (got != "unbounded") == bounded, (i, kind, got)
        if kind == "cone":
            assert got == "unbounded", i
        probe = _axis_probe(A, b)
        if probe in (0, 3):
            assert (got == "unbounded") == (probe == 3), (i, kind, got, probe)
    assert len(verdicts) >= 390
    assert min(verdicts.count(v) for v in ("ok", "unbounded", "empty")) >= 30


def _near_unbounded():
    """(A, b) just on either side of unboundedness."""
    box = cube_hrep(3)
    yield box.A, box.b * np.array([1e8, 1e-4, 1e-4, 1e8, 1e-4, 1e-4])  # long, thin
    for t in (1e-9, -1e-9):                 # a facet tilted by 1e-9
        A = box.A.copy()
        A[3] = [-1.0, t, 0.0]
        yield A, box.b
    strip = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    yield strip, np.ones(3)                 # the half-strip x <= 1, |y| <= 1
    yield np.vstack([strip, [1e-9, 1.0]]), np.ones(4)   # a row that misses it


def test_cone_test_matches_stiemke_lp():
    """The NNLS cone test decides boundedness as the cone LP it replaced
    does, on every polytope the suite builds from fixtures, on seeded random
    hulls and on inputs on either side of unboundedness."""
    cases = [(H.A, H.b) for d in range(1, 9)
             for H in (cube_hrep(d), cross_hrep(d), simplex_hrep(d))]
    cases += [(H.A, H.b) for H in map(prop9_fixture, range(4, 9))]
    for H in (product(cube_hrep(2), simplex_hrep(3)),
              product(cube_hrep(4), cube_hrep(5)),
              product(cross_hrep(3), prop9_fixture(4))):
        cases.append((H.A, H.b))
    rng = np.random.default_rng(16)
    for i in range(40):
        d = 2 + i % 7
        H = random_hull_hrep(rng, d, d + 2 + i % 5)
        cases.append((H.A, H.b * (1e-8, 1.0, 1e8)[i % 3]))
    cases += list(_near_unbounded())
    verdicts = [_verdict(A, b) for A, b in cases]
    assert "empty" not in verdicts
    assert [v == "ok" for v in verdicts] == [stiemke_cone_lp(A) for A, _ in cases]
    assert verdicts[-5:] == ["ok", "ok", "ok", "unbounded", "unbounded"]


def test_long_thin_polytopes_are_bounded():
    """x <= 1, |y| <= 1 and -t x + y <= 1 is bounded, of length about 2 / t.
    Where the cone LP calls it unbounded, the construction decides: it is
    bounded, and its far end (-2 / t, -1) is a vertex. Both enumerators
    give its four vertices, (1, 1) and (0, 1) apart although the diameter
    is 2 / t, with equal tight sets."""
    for t in (1e-9, 1e-10, 1e-12):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-t, 1.0]])
        H = hpolytope(A, np.ones(4))
        V = H.vrep
        assert np.allclose(V.vertices[0], [-2.0 / t, -1.0], rtol=1e-12), t
        slow = enumerate_vertices_bruteforce(H)
        assert len(V.vertices) == len(slow.vertices) == 4, t
        assert np.allclose(V.vertices, slow.vertices, rtol=1e-12, atol=1e-12), t
        assert np.array_equal(V.tight, slow.tight), t


def test_nnls_matches_scipy(monkeypatch):
    """polytoped's NNLS against scipy.optimize.nnls: the same passive
    columns and values within tol = 1e-12 max(1, max x), and the same
    residual. (Where b is only rounding, as on a cube, values below tol are
    rounding too, and either solver may keep them.)

    Stiemke systems (the unit normals of the nonzero rows) of the cubes,
    cross-polytopes and simplices d = 1..8 and 48 seeded hulls d = 2..8,
    each also with its first two rows repeated and with a zero row, give
    the bounded verdict of the cone LP. 1,500 seeded dense systems, a third
    of them with a repeated column, also drop passive columns: QR is
    rebuilt, only on a drop, more than 100 times."""
    rng = np.random.default_rng(26)
    hulls = [H for d in range(1, 9) for H in (cube_hrep(d), cross_hrep(d),
                                              simplex_hrep(d))]
    hulls += [random_hull_hrep(rng, 2 + i % 7, 4 + i % 7 + i % 5) for i in range(48)]
    systems = []
    for H in hulls:
        for A in (H.A, np.vstack([H.A, H.A[:2]]), np.vstack([H.A, 0.0 * H.A[0]])):
            P = polytoped.HPolytope(A, np.ones(len(A)))
            unit = A[A.any(axis=1)] / P.norms[A.any(axis=1), None]
            want, want_res = nnls(unit.T, -unit.sum(axis=0))
            got, res = P._stiemke
            systems.append((got - 1.0, res, want, want_res))
            assert _verdict(A, P.b) == ("ok" if stiemke_cone_lp(A) else "unbounded")
    rebuilds = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: rebuilds.append(1) or real_qr(a))
    for i in range(1500):
        A = rng.normal(size=(rng.integers(1, 10), rng.integers(1, 30)))
        if i % 3 == 0:
            A[:, -1] = A[:, 0]
        b = rng.normal(size=len(A))
        systems.append((*polytoped._nnls(A, b), *nnls(A, b)))
    assert len(rebuilds) > 100
    for i, (got, res, want, want_res) in enumerate(systems):
        tol = 1e-12 * max(1.0, want.max())
        assert np.array_equal(got > tol, want > tol), i
        assert np.abs(got - want).max() <= tol, i
        assert abs(res - want_res) <= 1e-12 * max(1.0, want_res), i


@pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
def test_long_thin_polytope_verdicts(t):
    """x <= 1, |y| <= 1 and -t x + y <= 1, and its prism |z| <= 1 turned by
    a seeded rotation, load as bounded down to t = 1e-13 and as unbounded
    at 1e-14, where the tilted row rounds to y <= 1. The NNLS residual is
    read from QR: on the turned prism |U^T y - b| is about 2e-7 at
    t = 1e-9, over the 1e-9 sqrt(n) bound, though y is right."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-t, 1.0]])
    prism = np.zeros((6, 3))
    prism[:4, :2], prism[4:, 2] = A, [1.0, -1.0]
    turn, _ = np.linalg.qr(np.random.default_rng(26).normal(size=(3, 3)))
    want = "unbounded" if t < 1e-13 else "ok"
    assert _verdict(A, np.ones(4)) == _verdict(prism @ turn, np.ones(6)) == want


def test_jittered_vertex_copies_give_the_vrep(monkeypatch):
    """Shuffled copies of each vertex, jittered by 0 and by up to half the
    tightness tolerance, give the V-rep's tight sets bit for bit, each
    vertex once, stood for by the lexicographically first of its copies,
    found in blocks of 64 points."""
    monkeypatch.setattr(polytoped, "_BLOCK", 64)
    rng = np.random.default_rng(17)
    zero_row = hpolytope(np.vstack([cube_hrep(3).A, np.zeros(3)]), np.ones(7))
    thin = hpolytope(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1e-10, 1.0]]),
                     np.ones(4))
    for H in (cube_hrep(3), cross_hrep(4), random_hull_hrep(rng, 5, 9),
              product(simplex_hrep(2), cube_hrep(2)), zero_row, thin):
        V = H.vrep
        eps = H.eps_tight()
        n = 400
        of = rng.integers(len(V.vertices), size=n)
        step = rng.choice([0.0, 1e-3, 0.5], n) * eps / H.norms.max()
        u = rng.normal(size=(n, H.d))
        pts = V.vertices[of] + (step / np.linalg.norm(u, axis=1))[:, None] * u
        got = _vrep_from_points(H, pts, eps)
        assert sorted(tight_sets(got)) == sorted(tight_sets(V)), H.m
        for v, t in zip(got.vertices, got.tight):
            j = int(np.flatnonzero((V.tight == t).all(axis=1))[0])
            copies = pts[of == j]
            assert np.array_equal(v, copies[np.lexsort(copies.T[::-1])[0]]), H.m


# A 6-dimensional hull of 10 points with 32 rows: C(32, 6) = 906,192 subsets,
# just under BRUTEFORCE_MAX_SUBSETS. Holding one slack row and one Python set
# per feasible subset grew the peak RSS by 1.1 GB here.
FALLBACK_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from poise.polytoped import enumerate_vertices_bruteforce, load_hrep
H = load_hrep(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
V = enumerate_vertices_bruteforce(H)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps([V.tight.sum(axis=1).tolist(), grown >> 10]))
"""


def test_subset_solver_memory_near_budget(tmp_path):
    H = random_hull_hrep(np.random.default_rng(200), 6, 10)
    assert H.m == 32
    path = tmp_path / "hull6.hrep"
    path.write_text(dump_hrep_text(H))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", FALLBACK_CHILD, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sizes, grown_mb = json.loads(proc.stdout)
    assert sorted(sizes) == [16] * 6 + [24] * 4
    assert grown_mb < 600
