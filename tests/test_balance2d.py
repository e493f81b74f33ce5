from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import feasible_weights, star_polygon
from poise.balance2d import (GADGET_VERTICES, PartitionInstance, balance_fast,
                             balance_iterative, feasibility,
                             gadget_from_partition, gadget_polygon,
                             gadget_witness, partition_oracle, partition_three,
                             verify_antipodal, verify_balance_points)
from poise.errors import InfeasibleError
from poise.geom2d import eval_boundary, validate_polygon

SQUARE = validate_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def brute_half_subset(values):
    """Exhaustive PARTITION decision: some subset sums to half the total."""
    total = sum(values)
    if total % 2:
        return False
    half = total // 2
    for r in range(len(values) + 1):
        for combo in combinations(values, r):
            if sum(combo) == half:
                return True
    return False


def test_feasibility_exact_ties():
    assert feasibility([1.0, 1.0, 2.0])
    assert not feasibility([1.0, 1.0, 2.0000001])
    assert feasibility([5.0, 5.0])
    assert not feasibility([5.0, 4.0])


def test_feasibility_rounding_ties():
    # fsum(0.1, 0.2) rounds to 0.30000000000000004, the exact sum lies below it
    assert not feasibility([0.1, 0.2, 0.30000000000000004])
    assert feasibility([0.5, 0.25, 0.75])
    for w in (0.1, 0.30000000000000004, 1e-300):
        assert feasibility([w, w])


def test_fast_rejects_infeasible_weights_with_feasible_group_sums():
    # groups [2] and [0, 1] both sum to 0.30000000000000004 once rounded
    with pytest.raises(InfeasibleError):
        balance_fast(SQUARE, [0.1, 0.2, 0.30000000000000004])


def test_iterative_square_three_weights():
    placement = balance_iterative(SQUARE, [3.0, 2.0, 2.0])
    cert = verify_balance_points(SQUARE, placement.points(SQUARE), [3.0, 2.0, 2.0])
    assert cert.passed and cert.residual <= 1e-12
    assert placement.rounds <= 2


def test_iterative_two_equal_weights_hits_midpoint():
    rng = np.random.default_rng(5)
    for _ in range(10):
        poly = star_polygon(rng, int(rng.integers(3, 30)))
        placement = balance_iterative(poly, [1.0, 1.0])
        p = placement.points(poly)
        assert np.linalg.norm(0.5 * (p[0] + p[1])) <= 1e-9 * poly.diam


def test_iterative_rejects_infeasible():
    with pytest.raises(InfeasibleError):
        balance_iterative(SQUARE, [10.0, 1.0, 1.0])


def test_iterative_round_bound_and_membership():
    rng = np.random.default_rng(17)
    for _ in range(20):
        poly = star_polygon(rng, int(rng.integers(3, 40)))
        k = int(rng.integers(2, 10))
        w = feasible_weights(rng, k)
        placement = balance_iterative(poly, w)
        assert placement.rounds <= k - 1
        cert = verify_balance_points(poly, placement.points(poly), w)
        assert cert.passed
        # points carried as params; only eval round-off remains
        assert cert.max_membership_error <= 1e-15 * poly.diam


def test_trace_records_migration_curves():
    placement = balance_iterative(SQUARE, [3.0, 2.0, 2.0], collect_trace=True)
    assert placement.trace, "trace requested but empty"
    entry = placement.trace[0]
    assert {"round", "scale", "offset", "curve", "driver", "companion"} \
        <= set(entry)


def test_partition_three_bounds_exact():
    rng = np.random.default_rng(23)
    for _ in range(200):
        w = feasible_weights(rng, int(rng.integers(2, 16)))
        three = partition_three(w)
        exact = [Fraction(float(x)) for x in w]
        half = sum(exact, Fraction(0)) / 2
        seen = sorted(i for g in three.groups for i in g)
        assert seen == list(range(len(w)))
        for g in three.groups:
            assert sum((exact[i] for i in g), Fraction(0)) <= half


def test_fast_three_locations():
    rng = np.random.default_rng(29)
    for _ in range(15):
        poly = star_polygon(rng, int(rng.integers(3, 30)))
        w = feasible_weights(rng, int(rng.integers(3, 12)))
        placement = balance_fast(poly, w)
        cert = verify_balance_points(poly, placement.points(poly), w)
        assert cert.passed
        pts = placement.points(poly)
        distinct = np.unique(np.round(pts, 12), axis=0)
        assert len(distinct) <= 3


def _same_cycle(got, expected):
    got = [tuple(v) for v in np.asarray(got, dtype=float)]
    exp = [tuple(map(float, v)) for v in expected]
    for seq in (exp, exp[::-1]):
        for shift in range(len(seq)):
            if got == seq[shift:] + seq[:shift]:
                return True
    return False


def test_gadget_polygon_is_the_fixed_hexagon():
    poly = gadget_polygon()
    assert poly.signed_area() > 0  # stored CCW
    assert _same_cycle(poly.vertices, GADGET_VERTICES)


def test_gadget_weights_layout():
    inst = PartitionInstance((2, 7, 3))
    poly, weights = gadget_from_partition(inst)
    assert weights == [24.0, 7.0, 3.0, 2.0]  # 2*total then values descending
    assert _same_cycle(poly.vertices, GADGET_VERTICES)


def test_partition_oracle_matches_exhaustive_subsets():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        vals = tuple(int(v) for v in rng.integers(0, 21, size=n))
        inst = PartitionInstance(vals)
        assert partition_oracle(inst) == brute_half_subset(vals)


def test_gadget_decide_agrees_with_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        vals = tuple(int(v) for v in rng.integers(0, 21, size=n))
        inst = PartitionInstance(vals)
        assert (gadget_witness(inst) is not None) == partition_oracle(inst)
    assert gadget_witness(PartitionInstance((2, 3, 7))) is None
    assert gadget_witness(PartitionInstance((1, 1))) is not None


def test_gadget_witness_for_unit_pair():
    inst = PartitionInstance((1, 1))
    poly, weights = gadget_from_partition(inst)
    placement = gadget_witness(inst)
    assert placement is not None
    pts = np.array([eval_boundary(poly, bp)
                    for _, bp in sorted(placement.assignments)])
    moment = (np.asarray(weights)[:, None] * pts).sum(axis=0)
    assert np.allclose(moment, 0.0)
    # 4*(0,-1) + (-2,2) + (2,2) = (0,0)
    assert np.allclose(pts[0], (0.0, -1.0))
    assert {tuple(p) for p in pts[1:]} == {(-2.0, 2.0), (2.0, 2.0)}


def test_gadget_witness_none_for_no_instance():
    assert gadget_witness(PartitionInstance((2, 3, 7))) is None


def test_verify_points_rejects_off_balance():
    pts = [(1.0, 0.0), (0.5, 1.0)]
    cert = verify_balance_points(SQUARE, pts, [1.0, 1.0])
    assert not cert.passed


def test_nan_point_reports_nan_membership_error():
    """A NaN point has no distance to the boundary: NaN, not 0.0."""
    pts = [(np.nan, np.nan), (1.0, 0.0)]
    for cert in (verify_balance_points(SQUARE, pts, [1.0, 1.0]),
                 verify_antipodal(SQUARE, pts, (0.0, 0.0))):
        assert np.isnan(cert.max_membership_error) and not cert.passed
