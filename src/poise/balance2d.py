"""Balance nonnegative weights on a polygon boundary.

The core solver pins the heaviest weight at the boundary point nearest the
target, parks the rest at the counterweight point, then migrates weights
pairwise: while weight s slides CCW along the boundary, weight s+1 follows
the scaled reflected copy of the boundary that keeps the barycenter fixed,
and both pin down where that copy meets the boundary. Since each copy is at
least as large as the boundary and starts inside, a crossing always exists.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certificate import Certificate
from .errors import (
    InfeasibleError,
    InputError,
    IntegerOverflowError,
    NoCrossingError,
    NoIntersectionError,
    OriginOutsideError,
)
from .geom2d import (
    OUTSIDE,
    Polygon2,
    _nearest_point,
    _nearest_with_distance,
    eval_boundary,
    first_hit_from,
    locate_point,
    nearest_boundary_point,
    validate_polygon,
)

EPS_BAL_REL = 1e-8
ORACLE_MAX_TOTAL = 2 ** 27    # partition_oracle's bitmask stays below 16 MB


@dataclass
class Placement2:
    """Weight-index -> boundary-point assignment about a target point."""

    assignments: list
    target: np.ndarray
    rounds: int = 0
    trace: list | None = field(default=None, repr=False)

    def points(self, poly: Polygon2) -> np.ndarray:
        return np.array([eval_boundary(poly, bp) for _, bp in self.assignments])


@dataclass
class BalanceCertificate(Certificate):
    residual: float
    max_membership_error: float
    eps_bal: float
    eps_geom: float

    def limits(self):
        return (("residual", self.residual, self.eps_bal),
                ("max_membership_error", self.max_membership_error, self.eps_geom))


@dataclass
class AntipodalCertificate(Certificate):
    midpoint_error: float
    max_membership_error: float
    eps_geom: float

    def limits(self):
        return (("midpoint_error", self.midpoint_error, self.eps_geom),
                ("max_membership_error", self.max_membership_error, self.eps_geom))


@dataclass
class PartitionCertificate(Certificate):
    misplaced: int           # indices not in exactly one group
    largest_group: Fraction  # exact total of the heaviest group
    half: Fraction           # exact half of the total

    def limits(self):
        return (("misplaced_indices", self.misplaced, 0),
                ("largest_group_total", self.largest_group, self.half))


@dataclass
class GadgetCertificate(Certificate):
    balanceable: bool
    oracle: bool                          # partition_oracle on the same values
    witness: BalanceCertificate | None    # present iff balanceable

    def limits(self):
        agree = (("decision_differs_from_oracle",
                  int(self.balanceable != self.oracle), 0),)
        return agree + (self.witness.limits() if self.witness else ())


@dataclass(frozen=True)
class PartitionInstance:
    """PARTITION input: nonnegative integers to split into two equal halves."""

    values: tuple

    def __post_init__(self):
        if len(self.values) < 1:
            raise InputError("need at least one value")
        for a in self.values:
            if not isinstance(a, (int, np.integer)) or isinstance(a, bool) or a < 0:
                raise InputError(f"values must be nonnegative integers, got {a!r}")
        if 2 * sum(int(a) for a in self.values) > 2**63 - 1:
            raise IntegerOverflowError("values sum beyond 64-bit range")


# vertices of the hardness gadget hexagon (input order is CW; validation flips)
GADGET_VERTICES = ((0.0, 1.0), (2.0, 2.0), (2.0, -2.0),
                   (0.0, -1.0), (-2.0, -2.0), (-2.0, 2.0))


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) < 1:
        raise InputError("weights must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise InputError("weights must be finite and nonnegative")
    try:
        math.fsum(w.tolist())
    except OverflowError as exc:
        raise InputError("weights total overflows a float") from exc
    return w


def feasibility(weights) -> bool:
    """True iff the largest weight is at most the sum of the others (exact)."""
    w = _check_weights(weights)
    if len(w) == 1:
        return w[0] == 0.0
    i = int(np.argmax(w))
    rest = math.fsum(float(x) for j, x in enumerate(w) if j != i)
    if rest != float(w[i]):
        return rest > float(w[i])  # rounding is monotone: fsum keeps the order
    # an fsum tie may hide an exact sum on either side; settle it exactly
    exact = sum((Fraction(float(x)) for j, x in enumerate(w) if j != i), Fraction(0))
    return exact >= Fraction(float(w[i]))


def _check_instance(poly: Polygon2, weights, target):
    """(weights, polygon translated so the target sits at the origin, its
    eps_geom, target), after the input checks and then the feasibility one."""
    w = _check_weights(weights)
    target = np.asarray(target, dtype=float)
    work = Polygon2(poly.vertices - target)
    eps_g = work.eps_geom()
    if locate_point(work, (0.0, 0.0), eps_g).side == OUTSIDE:
        raise OriginOutsideError("target lies outside the polygon")
    if not feasibility(w):
        raise InfeasibleError("largest weight exceeds the sum of the others")
    return w, work, eps_g, target


def balance_iterative(poly: Polygon2, weights, target=(0.0, 0.0),
                      collect_trace=False) -> Placement2:
    """Place weights on the boundary so the barycenter hits the target.

    Runs at most k-1 migration rounds; zero rounds when the shared
    counterweight point already sits on the boundary.
    """
    w, work, eps_g, target = _check_instance(poly, weights, target)
    k = len(w)
    order = [i for i in range(k) if w[i] > 0.0]
    if not order:
        # nothing to balance; park all (zero) weights at the nearest boundary point
        bp = nearest_boundary_point(work, (0.0, 0.0))
        return Placement2([(i, bp) for i in range(k)], target, rounds=0)
    order.sort(key=lambda i: -w[i])  # stable: ties keep input order
    ws = w[order]
    kk = len(ws)

    bp0 = nearest_boundary_point(work, (0.0, 0.0))
    p0 = eval_boundary(work, bp0)
    rest = math.fsum(ws[1:].tolist())
    m = -p0 * (ws[0] / rest)
    slots = [bp0] + [None] * (kk - 1)
    trace = [] if collect_trace else None
    rounds = 0

    bpm, dist_m = _nearest_point(work, m)
    if dist_m <= eps_g:
        for s in range(1, kk):
            slots[s] = bpm
    else:
        # points of pinned slots; unpinned ones all sit at m
        pts = [p0] + [m] * (kk - 1)
        for s in range(1, kk):
            c_vec = np.zeros(2)
            for i in range(kk):
                if i == s - 1 or i == s:
                    continue
                c_vec += ws[i] * pts[i]
            scale = -ws[s - 1] / ws[s]
            offset = -c_vec / ws[s]
            curve = scale * work.vertices + offset   # segment i: image of edge i
            try:
                slots[s - 1], slots[s] = first_hit_from(curve, work,
                                                        slots[s - 1].param, eps_g)
            except NoIntersectionError as exc:
                raise NoCrossingError(f"round {s}: no boundary crossing") from exc
            pts[s - 1] = eval_boundary(work, slots[s - 1])
            pts[s] = eval_boundary(work, slots[s])
            rounds += 1
            if trace is not None:
                trace.append({
                    "round": s,
                    "scale": scale,
                    "offset": offset + target,
                    "curve": curve + target,
                    "driver": pts[s - 1] + target,
                    "companion": pts[s] + target,
                })

    assignments = [(orig, slots[pos]) for pos, orig in enumerate(order)]
    for i in range(k):
        if w[i] == 0.0:
            assignments.append((i, slots[0]))  # ride along with the largest
    assignments.sort(key=lambda t: t[0])
    return Placement2(assignments, target, rounds=rounds, trace=trace)


@dataclass
class ThreeGroups:
    groups: tuple
    sums: tuple


def partition_three(weights) -> ThreeGroups:
    """Split indices into three groups, each totalling at most half the mass.

    G1 holds the (first) argmax; G2 is the shortest prefix of the remaining
    indices, in input order, reaching max(0, T/2 - w_max); G3 is the rest.
    The threshold test runs in exact arithmetic so the bound never slips.
    """
    w = _check_weights(weights)
    imax = int(np.argmax(w))
    exact = [Fraction(float(x)) for x in w]
    total = sum(exact, Fraction(0))
    threshold = total / 2 - exact[imax]
    rest = [i for i in range(len(w)) if i != imax]
    g2 = []
    acc = Fraction(0)
    pos = 0
    while pos < len(rest) and acc < threshold:
        g2.append(rest[pos])
        acc += exact[rest[pos]]
        pos += 1
    g3 = rest[pos:]
    groups = ([imax], g2, g3)
    sums = tuple(math.fsum(float(w[i]) for i in g) for g in groups)
    return ThreeGroups(groups, sums)


def verify_partition_three(weights, groups) -> PartitionCertificate:
    """Groups partition the weight indices, none above half the total (exact)."""
    exact = [Fraction(float(x)) for x in _check_weights(weights)]
    n = len(exact)
    seen = Counter(i for g in groups for i in g)
    if any(not 0 <= i < n for i in seen):
        raise InputError(f"group indices must lie in 0..{n - 1}")
    misplaced = sum(1 for i in range(n) if seen[i] != 1)
    largest = max(sum((exact[i] for i in g), Fraction(0)) for g in groups)
    return PartitionCertificate(misplaced, largest, sum(exact, Fraction(0)) / 2)


def balance_fast(poly: Polygon2, weights, target=(0.0, 0.0)) -> Placement2:
    """Like balance_iterative but with at most three distinct locations.

    Weights collapse onto the three partition groups; the tiny super-weight
    instance is solved exactly, then every member inherits its group's spot.
    Feasibility is decided on the weights, not on the rounded group sums.
    """
    w = _check_instance(poly, weights, target)[0]
    parts = partition_three(w)
    live = [(g, s) for g, s in zip(parts.groups, parts.sums) if s > 0.0]
    if not live:
        return balance_iterative(poly, w, target)
    inner = balance_iterative(poly, [s for _, s in live], target)
    spot = dict(inner.assignments)
    where = {i: spot[j] for j, (group, _) in enumerate(live) for i in group}
    # members of zero-total groups ride along with the largest weight
    assignments = [(i, where.get(i, spot[0])) for i in range(len(w))]
    return Placement2(assignments, np.asarray(target, float), rounds=inner.rounds)


def verify_balance_points(poly: Polygon2, points, weights,
                          target=(0.0, 0.0)) -> BalanceCertificate:
    """Points on the boundary (within eps_geom, 1e-9 diam) whose weighted
    barycenter is the target (moment residual within eps_bal, 1e-8 diam
    times the weight total, or 1e-8 diam if that is 0); points[i] carries
    weights[i]."""
    w = _check_weights(weights)
    pts = np.asarray(points, dtype=float)
    if pts.shape != (len(w), 2):
        raise InputError(f"need one 2-d point per weight, got shape {pts.shape}")
    target = np.asarray(target, dtype=float)
    total = math.fsum(w.tolist())
    eps_bal = EPS_BAL_REL * poly.diam * (total if total > 0 else 1.0)
    moment = (w[:, None] * pts).sum(axis=0) - total * target
    residual = float(np.linalg.norm(moment))
    return BalanceCertificate(residual, _boundary_distance(poly, pts),
                              float(eps_bal), poly.eps_geom())


def verify_antipodal(poly: Polygon2, points, center) -> AntipodalCertificate:
    """Two boundary points whose midpoint is the center, within eps_geom
    (1e-9 diam)."""
    pts = np.asarray(points, dtype=float)
    err = float(np.linalg.norm(0.5 * (pts[0] + pts[1]) - np.asarray(center, float)))
    return AntipodalCertificate(err, _boundary_distance(poly, pts),
                                poly.eps_geom())


def _boundary_distance(poly: Polygon2, pts) -> float:
    """Largest distance from a point of pts to the polygon boundary; NaN if
    a point is NaN."""
    return float(np.max(_nearest_with_distance(poly, pts)[2], initial=0.0))


# --- PARTITION hardness gadget ----------------------------------------------

def gadget_polygon() -> Polygon2:
    return validate_polygon(GADGET_VERTICES)


def gadget_from_partition(inst: PartitionInstance):
    """Hexagon plus weights whose balanceability encodes the instance.

    Weights are the instance values in descending order, led by twice their
    total, so the heavy weight is forced onto a reflex vertex and the rest
    must split evenly between the two far corners.
    """
    vals = sorted((int(a) for a in inst.values), reverse=True)
    total = sum(vals)
    weights = [2 * total] + vals
    return gadget_polygon(), weights


def partition_oracle(inst: PartitionInstance) -> bool:
    """Subset-sum bitmask DP: can the values split into two equal halves?

    The bitmask grows to total bits, so totals above ORACLE_MAX_TOTAL are
    refused rather than allowed to exhaust memory.
    """
    total = sum(int(a) for a in inst.values)
    if total % 2 == 1:
        return False
    if total > ORACLE_MAX_TOTAL:
        raise InputError(f"values total {total} exceeds the oracle's limit "
                         f"{ORACLE_MAX_TOTAL}")
    bits = 1
    for a in inst.values:
        bits |= bits << int(a)
    return bool((bits >> (total // 2)) & 1)


def verify_gadget_decision(inst: PartitionInstance, balanceable,
                           points=None) -> GadgetCertificate:
    """The decision agrees with partition_oracle, and a yes comes with points
    that balance the gadget's own weights at the origin on its boundary."""
    witness = None
    if balanceable:
        if points is None:
            raise InputError("a balanceable decision needs witness points")
        poly, weights = gadget_from_partition(inst)
        witness = verify_balance_points(poly, points, weights)
    return GadgetCertificate(bool(balanceable), partition_oracle(inst), witness)


def gadget_witness(inst: PartitionInstance) -> Placement2 | None:
    """Explicit balanced placement for yes-instances, None otherwise.

    The heavy weight takes the reflex vertex (0, -1); vertical balance then
    holds and horizontal balance needs the rest split between the corners
    x = -2 and x = +2 with equal totals. Reachable corner loads are grown
    as a parent map, a different route from the bitmask partition_oracle,
    so whether a witness exists is the gadget's decision.
    """
    total = sum(int(a) for a in inst.values)
    if total % 2 == 1:
        return None
    vals = sorted((int(a) for a in inst.values), reverse=True)
    parent = {0: None}
    for pos, a in enumerate(vals):
        for r in list(parent):
            if r + a not in parent:
                parent[r + a] = (r, pos)
    half = total // 2
    if half not in parent:
        return None
    on_right = set()
    r = half
    while parent[r] is not None:
        r, pos = parent[r]
        on_right.add(pos)
    poly = gadget_polygon()
    reflex = nearest_boundary_point(poly, (0.0, -1.0))
    left = nearest_boundary_point(poly, (-2.0, 2.0))
    right = nearest_boundary_point(poly, (2.0, 2.0))
    assignments = [(0, reflex)]
    for pos in range(len(vals)):
        assignments.append((pos + 1, right if pos in on_right else left))
    return Placement2(assignments, np.zeros(2), rounds=0)
