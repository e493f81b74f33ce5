"""Acceptance checks: one test per criterion, one pass/fail line each in -v.

Each test prints a CRITERION summary with the measured extremes so a reader
can see the margins, not just the booleans.
"""

import json
import time
from itertools import combinations_with_replacement
from math import comb, fsum, log2

import numpy as np

from helpers import (SIG_MM, SIG_PP, criterion05_meshes, cube_mesh, dump_off,
                     extreme_boundary_points, feasible_weights, random_hull_hrep,
                     signature, star_polygon, tripod_points)
from poise.balance2d import (PartitionInstance, balance_fast, balance_iterative,
                             gadget_from_partition, gadget_witness,
                             partition_oracle, partition_three,
                             verify_balance_points)
from poise.cli import run
from poise.errors import UnsupportedDimensionError
from poise.geom2d import eval_boundary
from poise.geom3d import frame_field, surface_path
from poise.polytoped import cube_hrep, dump_hrep_text, edges, product
from poise.skeleton import four_on_edges, verify_skeleton
from poise.skeleton_balance import (compose_balance, halving_point, pow2_points,
                                    prop9_check, prop9_fixture, three_on_edges)
from poise.tripodal import (tripodal_by_face_triples, tripodal_search,
                            verify_tripodal)


def _report(n, detail):
    print(f"CRITERION {n} PASS: {detail}")


def _balance_instances(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        poly = star_polygon(rng, int(rng.integers(3, 65)))
        k = int(rng.integers(2, 17))
        out.append((poly, feasible_weights(rng, k)))
    return out


def test_criterion_01_iterative_balance():
    instances = _balance_instances(1000, 200)
    worst_res, worst_ms, worst_rounds = 0.0, 0.0, 0
    for poly, w in instances:
        ms = 1e9
        for _ in range(3):  # best-of-3 strips scheduler noise
            t0 = time.perf_counter()
            placement = balance_iterative(poly, w)
            ms = min(ms, 1000 * (time.perf_counter() - t0))
        pts = placement.points(poly)
        res = float(np.linalg.norm((np.asarray(w)[:, None] * pts).sum(axis=0))
                    / fsum(w))
        bound = 1e-8 * poly.diam
        assert res <= bound
        assert all(0 <= bp.edge < poly.n and 0.0 <= bp.s <= 1.0
                   for _, bp in placement.assignments)
        assert placement.rounds <= len(w) - 1
        assert ms < 100.0
        worst_res = max(worst_res, res / poly.diam)
        worst_ms = max(worst_ms, ms)
        worst_rounds = max(worst_rounds, placement.rounds)
    _report(1, f"200 instances, worst residual {worst_res:.2e}*diam, "
               f"worst {worst_ms:.1f} ms, max rounds {worst_rounds}")


def test_criterion_02_fast_balance_and_partition():
    instances = _balance_instances(1000, 200)
    for poly, w in instances:
        placement = balance_fast(poly, w)
        assert verify_balance_points(poly, placement.points(poly), w).passed
        pts = placement.points(poly)
        assert len(np.unique(np.round(pts, 12), axis=0)) <= 3
    rng = np.random.default_rng(2000)
    from fractions import Fraction
    violations = 0
    for _ in range(10 ** 4):
        w = feasible_weights(rng, int(rng.integers(2, 17)))
        three = partition_three(w)
        exact = [Fraction(float(x)) for x in w]
        half = sum(exact, Fraction(0)) / 2
        if any(sum((exact[i] for i in g), Fraction(0)) > half
               for g in three.groups):
            violations += 1
    assert violations == 0
    _report(2, "200 fast placements (<= 3 locations), 10^4 partitions, "
               "0 half-bound violations")


def test_criterion_03_two_weights_midpoint():
    rng = np.random.default_rng(3000)
    worst = 0.0
    for _ in range(100):
        poly = star_polygon(rng, int(rng.integers(3, 65)))
        placement = balance_iterative(poly, [1.0, 1.0])
        p = placement.points(poly)
        err = float(np.linalg.norm(0.5 * (p[0] + p[1]))) / poly.diam
        assert err <= 1e-9
        worst = max(worst, err)
    _report(3, f"100 polygons, worst midpoint error {worst:.2e}*diam")


def test_criterion_04_gadget_equivalence():
    rng = np.random.default_rng(4000)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        inst = PartitionInstance(tuple(int(v) for v in
                                       rng.integers(0, 21, size=n)))
        assert (gadget_witness(inst) is not None) == partition_oracle(inst)
    inst = PartitionInstance((1, 1))
    poly, weights = gadget_from_partition(inst)
    placement = gadget_witness(inst)
    pts = np.array([eval_boundary(poly, bp)
                    for _, bp in sorted(placement.assignments)])
    assert np.allclose(pts[0], (0.0, -1.0)) and weights[0] == 4.0
    assert {tuple(p) for p in pts[1:]} == {(-2.0, 2.0), (2.0, 2.0)}
    assert np.allclose((np.asarray(weights)[:, None] * pts).sum(axis=0), 0.0)
    _report(4, "100 instances decide==oracle, unit-pair witness reproduced")


def test_criterion_05_tripodal_suite():
    worst_spread, worst_sum, worst_mem = 0.0, 0.0, 0.0
    for name, mesh in criterion05_meshes():
        tri = tripodal_search(mesh, grid=(64, 64))
        cert = verify_tripodal(mesh, tri.points)
        assert cert.passed, name
        assert cert.norm_spread <= 1e-6 * mesh.diam
        assert cert.sum_residual <= 1e-6 * mesh.diam
        assert cert.max_membership_error <= 1e-6 * mesh.diam
        tri2 = tripodal_by_face_triples(mesh)
        assert verify_tripodal(mesh, tri2.points).passed, name

        path = surface_path(mesh, *extreme_boundary_points(mesh))
        frame = frame_field(path)
        for t, expected in ((0.0, SIG_PP), (1.0, SIG_MM)):
            g = path.eval(np.array([t]))[0]
            v = frame.eval(np.array([t]))[0]
            for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
                b, c = tripod_points(g, v, theta)
                assert signature(mesh, b, c) == expected, (name, t, theta)
        worst_spread = max(worst_spread, cert.norm_spread / mesh.diam)
        worst_sum = max(worst_sum, cert.sum_residual / mesh.diam)
        worst_mem = max(worst_mem, cert.max_membership_error / mesh.diam)
    _report(5, f"28 fixtures x (search + sweep + 128 boundary signatures), "
               f"worst spread {worst_spread:.2e}, sum {worst_sum:.2e}, "
               f"membership {worst_mem:.2e} (*diam)")


def test_criterion_06_three_on_edges_suite():
    rng = np.random.default_rng(6000)
    worst = 0.0
    for _ in range(50):
        H = random_hull_hrep(rng, 3, npts=int(rng.integers(6, 24)))
        sp = three_on_edges(H)  # NotFoundError would fail the test
        res = float(np.linalg.norm(sp.points().sum(axis=0))) / H.vrep.diam
        assert res <= 1e-10
        cert = verify_skeleton(H, sp.points())
        assert cert.passed and cert.max_host_dim <= 1
        ne = len(edges(H)[0])
        total = sum(1 for _ in combinations_with_replacement(range(ne), 3))
        assert total == comb(ne + 2, 3)
        assert total == comb(ne, 3) + ne * (ne - 1) + ne
        worst = max(worst, res)
    _report(6, f"50 polytopes, no NotFound, worst residual {worst:.2e}*diam, "
               f"triple enumeration count audited")


def test_criterion_07_four_on_edges_suite():
    worst_sum, worst_mem = 0.0, 0.0
    for name, mesh in criterion05_meshes():
        sp = four_on_edges(mesh)
        cert = verify_skeleton(mesh, sp.points())
        assert cert.passed, (name, cert)
        assert cert.max_membership_error <= 1e-9 * mesh.diam, (name, cert)
        assert cert.sum_residual <= 1e-8 * mesh.diam, (name, cert)
        worst_sum = max(worst_sum, cert.sum_residual / mesh.diam)
        worst_mem = max(worst_mem, cert.max_membership_error / mesh.diam)
    _report(7, f"28 meshes, worst sum {worst_sum:.2e}*diam, "
               f"worst edge membership {worst_mem:.2e}*diam")


def test_criterion_08_halving_suite():
    rng = np.random.default_rng(8000)
    cases = [cube_hrep(3), cube_hrep(4)]  # degenerate symmetric inputs
    for d in range(2, 7):
        cases += [random_hull_hrep(rng, d) for _ in range(20)]
    worst_mem = 0.0
    for H in cases:
        wit = halving_point(H)
        V = H.vrep
        norms = np.linalg.norm(H.A, axis=1)
        mem = max(float(((H.A @ x - H.b) / norms).max())
                  for x in (wit.x, -wit.x))
        mem = max(mem, 0.0)
        assert mem <= 1e-7 * V.diam
        worst_mem = max(worst_mem, mem / V.diam)
    _report(8, f"102 polytopes (d=2..6 + cube/hypercube), worst membership "
               f"{worst_mem:.2e}*diam")


def test_criterion_09_pow2_suite():
    rng = np.random.default_rng(9000)
    worst = 0.0
    for d in (2, 3, 4):
        k = int(np.ceil(log2(d)))
        for _ in range(50):
            H = random_hull_hrep(rng, d)
            sp = pow2_points(H, k)
            assert sp.count == 2 ** k
            cert = verify_skeleton(H, sp.points())
            assert cert.passed
            diam = H.vrep.diam
            assert cert.sum_residual <= 1e-7 * diam
            worst = max(worst, cert.sum_residual / diam)
    H = cube_hrep(4)
    witness = [(1, 1, 1, 0), (-1, -1, -1, 0), (1, -1, 0, 1), (-1, 1, 0, -1)]
    assert verify_skeleton(H, np.array(witness, dtype=float)).passed
    _report(9, f"150 fixtures (50 per d in 2..4), worst sum {worst:.2e}*diam; "
               f"hypercube-4 witness verified")


def test_criterion_10_compose_products():
    rng = np.random.default_rng(10000)
    for _ in range(10):
        H = product(random_hull_hrep(rng, 3), random_hull_hrep(rng, 3))
        sp = compose_balance(H)
        assert sp.count == 6
        assert verify_skeleton(H, sp.points()).passed
    try:
        compose_balance(product(cube_hrep(4), cube_hrep(5)))
        raise AssertionError("d=9 must be rejected")
    except UnsupportedDimensionError:
        pass
    _report(10, "10 six-dimensional products verified, d=9 rejected")


def test_criterion_11_prop9():
    for d in (4, 5, 6):
        H = prop9_fixture(d)
        for k in range(d // 2):
            assert prop9_check(H, k), (d, k)
    assert not prop9_check(cube_hrep(4), 1)
    _report(11, "triangle-product fixtures separate for all k < floor(d/2); "
                "hypercube control fails at k=1")


def test_criterion_12_cli_byte_determinism(tmp_path):
    square = tmp_path / "square.txt"
    square.write_text("-1 -1\n1 -1\n1 1\n-1 1\n")
    cube_h = tmp_path / "cube.hrep"
    cube_h.write_text(dump_hrep_text(cube_hrep(3)))
    cube_o = tmp_path / "cube.off"
    cube_o.write_text(dump_off(cube_mesh()))
    jobs = [
        ["balance2d", "--polygon", str(square), "--weights", "3 2 2"],
        ["halving", "--hrep", str(cube_h)],
        ["pow2", "--hrep", str(cube_h), "--k", "2"],
        ["tripodal", "--off", str(cube_o), "--grid", "32x32"],
        ["gadget-decide", "--partition", "1 2 3"],
    ]
    for i, argv in enumerate(jobs):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{i}_{tag}.json"
            res = run(argv + ["--json", str(out)])
            assert res.exit_code in (0, 1)
            blobs.append(out.read_bytes())
            assert json.loads(blobs[-1])["schema"] == 1
        assert blobs[0] == blobs[1], argv[0]
    _report(12, "5 commands x 2 runs, byte-identical JSON")
