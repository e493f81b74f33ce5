import json

import numpy as np
import pytest

from helpers import (all_segment_hits, boundary_point_at_param, check_simple_reference,
                     dump_polygon_text, first_hit_all_hits, nearest_with_distance_reference,
                     parity_inside_reference, parse_polygon_text_reference,
                     segment_crossings_reference, signed_area_reference, star_polygon,
                     validate_polygon_reference)
from poise import geom2d
from poise.balance2d import GADGET_VERTICES
from poise.errors import (DegenerateError, NoIntersectionError, NonSimpleError, ParseError,
                          PoiseError)
from poise.geom2d import (BoundaryPoint2, Polygon2, _segment_hits, antipodal_about,
                          curve_polygon_intersections, eval_boundary, locate_point,
                          nearest_boundary_point, parse_polygon_text,
                          validate_polygon)

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def brute_segment_intersections(curve, poly):
    """All curve-segment x polygon-edge crossing points, O(n*m) reference."""
    hits = []
    pv = poly.vertices
    for i in range(len(curve)):
        a, b = curve[i], curve[(i + 1) % len(curve)]
        for j in range(poly.n):
            c, d = pv[j], pv[(j + 1) % poly.n]
            r, s = b - a, d - c
            den = r[0] * s[1] - r[1] * s[0]
            if abs(den) < 1e-14:
                continue
            q = c - a
            t = (q[0] * s[1] - q[1] * s[0]) / den
            u = (q[0] * r[1] - q[1] * r[0]) / den
            if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
                hits.append(a + t * r)
    return np.array(hits)


def all_pairs_check_simple(poly):
    """Every edge pair i < j through _segment_hits, in (i, j) order: the reference."""
    v, w = poly.edge_arrays()
    n = poly.n
    tol = 1e-12 * max(poly.diam, 1e-300)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            hits = _segment_hits(v[i], w[i], v[j], w[j], tol)
            if not hits:
                continue
            if not adjacent:
                raise NonSimpleError(f"edges {i} and {j} touch")
            for t, u in hits:
                if j == i + 1 and (t < 1.0 - 1e-9 or u > 1e-9):
                    raise NonSimpleError(f"edges {i} and {j} overlap")
                if j == n - 1 and i == 0 and (u < 1.0 - 1e-9 or t > 1e-9):
                    raise NonSimpleError(f"edges {j} and {i} overlap")


def _validation_outcome(vertices):
    try:
        return "ok", validate_polygon(vertices).vertices.tobytes()
    except (DegenerateError, NonSimpleError) as exc:
        return type(exc).__name__, str(exc)


def _differential_polygons(seed=0, count=1600):
    """Lattice (collinear, touching), Gaussian, 1e-8-scale lattice and jittered
    lattice polygons (contacts within the 1e-12*diam tolerance), half of them
    sorted by angle about their centroid."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 13))
        v = rng.integers(0, 5, size=(n, 2)).astype(float)
        if k % 4 == 1:
            v = rng.normal(size=(n, 2))
        elif k % 4 == 2:
            v *= 1e-8
        elif k % 4 == 3:
            v += rng.uniform(-4e-12, 4e-12, size=(n, 2))
        if rng.random() < 0.5:
            c = v.mean(axis=0)
            v = v[np.argsort(np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0]), kind="stable")]
        yield v


FOLD_AT_WRAP = [(0, 0), (1, 0), (1, -1), (3, -1), (3, 0)]   # edges 4 and 0 overlap
FOLD_BACK = [(0, 0), (2, 0), (1, 0), (1, 1)]                # edges 0 and 1 overlap
BOWTIE = [(0, 0), (4, 0), (4, 4), (2, -1), (0, 4)]


def test_check_simple_matches_all_pairs_scan(monkeypatch):
    cases = list(_differential_polygons()) + [
        np.array(c, dtype=float) for c in (FOLD_AT_WRAP, FOLD_BACK, BOWTIE)]
    got = [_validation_outcome(v) for v in cases]
    monkeypatch.setattr(geom2d, "_check_simple", all_pairs_check_simple)
    want = [_validation_outcome(v) for v in cases]
    assert got == want
    assert want[-3:] == [("NonSimpleError", "edges 4 and 0 overlap"),
                         ("NonSimpleError", "edges 0 and 1 overlap"),
                         ("NonSimpleError", "edges 0 and 2 touch")]
    kinds = [k if k != "NonSimpleError" else m.split()[-1] for k, m in want]
    # the set must exercise every outcome, not only the easy ones
    assert kinds.count("ok") >= 400 and kinds.count("touch") >= 400
    assert kinds.count("overlap") >= 15 and kinds.count("DegenerateError") >= 100


def test_large_star_polygon_validates():
    poly = star_polygon(np.random.default_rng(5), 2048)
    assert validate_polygon(poly.vertices).n == 2048


def test_validate_normalizes_orientation():
    ccw = validate_polygon(SQUARE)
    cw = validate_polygon(SQUARE[::-1])
    assert ccw.signed_area() > 0
    assert cw.signed_area() > 0
    assert np.allclose(np.sort(ccw.vertices, axis=0), np.sort(cw.vertices, axis=0))


def test_validate_rejects_bad_input():
    with pytest.raises(DegenerateError):
        validate_polygon([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(NonSimpleError):
        validate_polygon([(0, 0), (4, 0), (4, 4), (2, -1), (0, 4)])


def test_boundary_param_round_trip():
    poly = validate_polygon(SQUARE)
    for param in [0.0, 0.5, 1.25, 3.999]:
        bp = boundary_point_at_param(poly, param)
        assert bp.param == pytest.approx(param)
        p = eval_boundary(poly, bp)
        bp2 = nearest_boundary_point(poly, p)
        assert np.allclose(eval_boundary(poly, bp2), p)


def test_nearest_boundary_point_against_dense_sampling():
    rng = np.random.default_rng(3)
    poly = star_polygon(rng, 12)
    params = np.linspace(0.0, poly.n, 20000, endpoint=False)
    dense = np.array([eval_boundary(poly, boundary_point_at_param(poly, t))
                      for t in params])
    for q in rng.uniform(-2, 2, size=(20, 2)):
        bp = nearest_boundary_point(poly, q)
        d = np.linalg.norm(eval_boundary(poly, bp) - q)
        d_ref = np.linalg.norm(dense - q, axis=1).min()
        assert d <= d_ref + 1e-6


def test_locate_point_sides():
    poly = validate_polygon(SQUARE)
    assert locate_point(poly, (0.0, 0.0)).side == "inside"
    assert locate_point(poly, (3.0, 0.0)).side == "outside"
    assert locate_point(poly, (1.0, 0.0)).side == "boundary"


def test_antipodal_midpoint_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        poly = star_polygon(rng, int(rng.integers(3, 20)))
        c = 0.05 * rng.normal(size=2)
        bp1, bp2 = antipodal_about(poly, c)
        p1, p2 = eval_boundary(poly, bp1), eval_boundary(poly, bp2)
        assert np.linalg.norm(0.5 * (p1 + p2) - c) <= 1e-9 * poly.diam


def test_antipodal_center_on_boundary_collapses():
    poly = validate_polygon(SQUARE)
    bp1, bp2 = antipodal_about(poly, (1.0, 0.0))
    p1, p2 = eval_boundary(poly, bp1), eval_boundary(poly, bp2)
    assert np.allclose(p1, (1.0, 0.0)) and np.allclose(p2, (1.0, 0.0))


def test_curve_intersections_match_brute_force():
    rng = np.random.default_rng(7)
    crossing_cases = 0
    for _ in range(10):
        poly = star_polygon(rng, int(rng.integers(4, 24)))
        for scale in (-0.5, -1.0, -2.0):
            curve = scale * poly.vertices + 0.1 * rng.normal(size=2)
            seg, t, _, _ = curve_polygon_intersections(curve, poly, np.arange(len(curve)))
            a, b = curve[seg], curve[(seg + 1) % len(curve)]
            got = a + t[:, None] * (b - a)
            ref = brute_segment_intersections(curve, poly)
            assert len(got) == len(ref)
            if len(ref) == 0:
                continue
            crossing_cases += 1
            cost = np.linalg.norm(got[:, None, :] - ref[None, :, :], axis=2)
            assert cost.min(axis=1).max() <= 1e-9 * poly.diam
    assert crossing_cases >= 10  # the oracle comparison must actually bite


def test_segment_crossings_match_the_scalar_scan():
    """segment_crossings gives the hits of a scalar _segment_hits scan over
    all pairs, bit for bit, on random segments plus pieces of a few shared
    lines: axis lines with exact overlaps, and tilted ones whose pieces are
    collinear up to rounding."""
    rng = np.random.default_rng(33)
    collinear = 0
    for _ in range(20):
        sets = []
        base, step = rng.uniform(-1.0, 1.0, size=(2, 3, 2))
        step[:2] = ((1.0, 0.0), (0.0, 1.0))
        for m in rng.integers(3, 12, size=2):
            free = rng.uniform(-2.0, 2.0, size=(m, 2, 2))
            s = rng.integers(-4, 5, size=(3, m, 2)) / 2.0
            pieces = base[:, None, None] + s[..., None] * step[:, None, None]
            sets.append(np.concatenate([free, pieces.reshape(-1, 2, 2)]))
        (a, b), (c, d) = (np.moveaxis(x, 1, 0) for x in sets)
        tol = 1e-9
        got = sorted(zip(*(x.tolist() for x in geom2d.segment_crossings(a, b, c, d, tol))))
        want = all_segment_hits(a, b, c, d, tol)
        assert got == want
        collinear += sum(len(_segment_hits(a[i], b[i], c[j], d[j], tol)) == 2
                         for i, j in {(i, j) for i, _, j, _ in want})
    assert collinear >= 100     # the overlaps must actually occur


@pytest.fixture(params=["real", "1-to-4"])
def block_sizes(request, monkeypatch):
    """first_hit_from's own block sizes, or blocks of 1, 2, 4, 4, ... segments,
    which leave the start segment out of the first block and wrap past n - 1."""
    if request.param == "1-to-4":
        monkeypatch.setattr(geom2d, "_FIRST_BLOCK", 1)
        monkeypatch.setattr(geom2d, "_ROW_BLOCK", 4)


def _first_hit_cases():
    """(curve, polygon, start_param) triples for the block scan."""
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 7, 16, 33, 64, 256):
        poly = star_polygon(rng, n)
        for scale in (-0.5, -1.0, -2.0):
            curve = scale * poly.vertices + 0.1 * rng.normal(size=2)
            starts = [float(rng.integers(n)), n - 1e-9, float(rng.uniform(0, n))]
            try:
                seg, t, _, _ = first_hit_all_hits(curve, poly, starts[-1])
                starts.append((seg + t + 1e-9) % n)  # a hair after a crossing: the fold
            except NoIntersectionError:
                pass
            for start in starts:
                yield curve, poly, start
        # curve vertex k on the boundary: from start k the hit ends segment k - 1
        k, j = int(rng.integers(1, n)), int(rng.integers(n))
        p = 0.5 * (poly.vertices[j] + poly.vertices[(j + 1) % n])
        for scale in (-1.0, -2.0):
            curve = scale * poly.vertices + (p - scale * poly.vertices[k])
            yield curve, poly, float(k)
    # collinear overlaps take the parallel fallback; the last two curves miss
    square = validate_polygon(SQUARE)
    for scale, offset in ((-1.0, (0.0, 0.0)), (-2.0, (0.0, 1.0)), (-1.0, (0.5, 0.0)),
                          (-0.5, (0.0, 0.0)), (1.0, (10.0, 10.0))):
        curve = scale * square.vertices + np.asarray(offset)
        for start in (0.0, 1.0, 1.5, 3.0, 4 - 1e-9):
            yield curve, square, start


def _first_hit_outcome(find, curve, poly, start):
    try:
        return find(curve, poly, start)
    except NoIntersectionError:
        return None


def _block_scan(curve, poly, start):
    q, q_companion = geom2d.first_hit_from(curve, poly, start)
    return q.edge, q.s, q_companion.edge, q_companion.s


def test_first_hit_from_matches_all_hits(block_sizes):
    before_start = misses = 0
    for curve, poly, start in _first_hit_cases():
        want = _first_hit_outcome(first_hit_all_hits, curve, poly, start)
        got = _first_hit_outcome(_block_scan, curve, poly, start)
        assert repr(got) == repr(want), (poly.n, start)  # repr tells -0.0 from 0.0
        misses += want is None
        before_start += want is not None and want[0] == (int(np.floor(start)) - 1) % poly.n
    # the comparison must bite: curves that miss, and winners on the segment
    # before the start's, which the first block must hold
    assert misses >= 5 and before_start >= 10


@pytest.mark.parametrize("block", [geom2d._PAIR_BLOCK, 40])
def test_nearest_in_one_pass_matches_one_point_at_a_time(block, monkeypatch):
    """Every point gets the edge, fraction and distance bits it gets alone,
    at the real block size and at blocks of a few points."""
    monkeypatch.setattr(geom2d, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(5)
    for n in (3, 4, 9, 40, 200):
        poly = star_polygon(rng, n)
        v = poly.vertices
        pts = np.concatenate([rng.normal(size=(8, 2)), v[rng.integers(0, n, 3)],
                              0.5 * (v + np.roll(v, -1, axis=0))[:3],
                              v[:2] + 1e-12 * rng.normal(size=(2, 2))])
        edge, s, dist = geom2d._nearest_with_distance(poly, pts)
        for i, p in enumerate(pts):
            one = geom2d._nearest_with_distance(poly, p[None])
            assert repr([c[0].item() for c in one]) == repr([edge[i].item(), s[i].item(),
                                                            dist[i].item()])
    assert all(len(c) == 0 for c in geom2d._nearest_with_distance(poly, np.zeros((0, 2))))


def test_parse_dump_round_trip():
    poly = validate_polygon(SQUARE)
    text = dump_polygon_text(poly)
    again = parse_polygon_text(text)
    assert np.array_equal(again.vertices, poly.vertices)
    as_json = json.dumps({"vertices": SQUARE})
    assert np.allclose(parse_polygon_text(as_json).vertices, poly.vertices)
    with pytest.raises(ParseError):
        parse_polygon_text("1 2\n3\n")


def test_eval_boundary_index_checks():
    poly = validate_polygon(SQUARE)
    with pytest.raises(Exception):
        eval_boundary(poly, BoundaryPoint2(9, 0.5))


def _outcome(f, *args):
    """f's result with arrays as (dtype, bytes), or its error's class and text."""
    try:
        out = f(*args)
    except PoiseError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Polygon2):
        out = out.vertices
    if isinstance(out, tuple):
        return tuple(_outcome(lambda: x) for x in out)
    return (out.dtype.str, out.shape, out.tobytes()) if isinstance(out, np.ndarray) else out


def _oracle_cases():
    rng = np.random.default_rng(41)
    for n in (3, 4, 5, 16, 64, 257, 2048):
        yield pytest.param("polygon", star_polygon(rng, n).vertices, id=f"star{n}")
    for name, verts in (
            ("gadget", GADGET_VERTICES),
            ("collinear-fold", FOLD_BACK),
            ("collinear-wrap", FOLD_AT_WRAP),
            ("collinear-line", [(0, 0), (1, 0), (2, 0)]),
            ("collinear-vertex", [(0, 0), (1, 0), (2, 0), (2, 1)]),
            ("self-touching", [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)]),
            ("bowtie", BOWTIE),
            ("near-parallel", [(0, 0), (4, 4), (3, 3.01), (1, 1.01 + 1e-15), (-1, 2)]),
            ("near-parallel-touching",
             [(0, 0), (4, 4), (3, 3 + 1e-13), (1, 1 + 2e-13), (-1, 2)]),
            ("repeated-vertex", [(0, 0), (1, 0), (1, 0), (0, 1)])):
        yield pytest.param("polygon", np.array(verts, dtype=float), id=name)
    yield pytest.param("nearest", star_polygon(rng, 64).vertices, id="nearest-blocks")
    for name, text in (
            ("comments", "# a square\n0 0 # first\n\n1 0\n  # only a comment\n1 1\n0 1"),
            ("crlf-tabs", "0\t0\r\n1 0\r\n\t1\t 1 \r\n\r\n0 1\r\n"),
            ("unicode-space", "0\u00a00\n1 0\x0c1 1\n0 1\n"),
            ("one-token", "0 0\n1\n1 1\n0 1\n"),
            ("three-tokens", "0 0\n1 0 2\n1 1\n0 1\n"),
            ("bad-float-first", "0 0\nx 1\n1 0 2\n"),
            ("count-first", "0 0\n1 0 2\nx 1\n"),
            ("underscore", "0 0\n1_0 0\n1_0 1_0\n"),
            ("nan", "0 0\nnan 0\n1 1\n"),
            ("hex", "0 0\n0x1p3 0\n1 1\n"),
            ("overflow", "0 0\n1e400 0\n1 1\n"),
            ("negative-zero", "-0 -0.0\n1 0\n0 1\n"),
            ("empty", ""),
            ("comments-only", "# nothing\n\n"),
            ("json", '{"vertices": [[0, 0], [1, 0], [0, 1]]}'),
            ("json-short", '{"vertices": [[0, 0], [1, 0]]}'),
            ("json-ragged", '{"vertices": [[0, 0], [1, 0], [0]]}'),
            ("json-bad", '{"points": []}')):
        yield pytest.param("parse", text, id=f"parse-{name}")


@pytest.mark.parametrize("kind, data", _oracle_cases())
def test_cached_kernels_match_the_per_call_references(kind, data):
    """The kernels that read a Polygon2's cached edge data, and the one-pass
    parser, match kernels that derive it per call bit for bit: results,
    error classes and texts, for both orientations of each polygon."""
    if kind == "parse":
        assert _outcome(parse_polygon_text, data) == _outcome(parse_polygon_text_reference,
                                                              data)
        return
    rng = np.random.default_rng(43)
    for verts in (data, data[::-1]):
        assert _outcome(validate_polygon, verts) == _outcome(validate_polygon_reference,
                                                             verts)
        poly = Polygon2(verts)
        assert _outcome(geom2d._check_simple, poly) == _outcome(check_simple_reference, poly)
        assert repr(poly.signed_area()) == repr(signed_area_reference(poly))
        v, w = verts, np.roll(verts, -1, axis=0)
        k = slice(None, None, max(1, len(v) // 128))      # up to 128 vertices
        q = np.concatenate([poly.diam * rng.normal(size=(40, 2)), v[k], 0.5 * (v + w)[k],
                            v[k] + 1e-12 * rng.normal(size=v[k].shape)])
        if kind == "nearest":
            q = np.tile(q, (24, 1))
            assert len(q) * poly.n // geom2d._PAIR_BLOCK > 1
        assert (_outcome(geom2d._nearest_with_distance, poly, q)
                == _outcome(nearest_with_distance_reference, poly, q))
        assert ([geom2d._parity_inside(poly, p) for p in q]
                == [parity_inside_reference(verts, p) for p in q])
        for bp in (BoundaryPoint2(0, 0.25), BoundaryPoint2(poly.n - 1, 0.75)):
            a, b = v[bp.edge], w[bp.edge]
            assert eval_boundary(poly, bp).tobytes() == (a + bp.s * (b - a)).tobytes()
        curve = -1.3 * verts + 0.1 * rng.normal(size=2)
        seg = np.arange(len(curve))
        i, t, edge, u = segment_crossings_reference(curve, np.roll(curve, -1, axis=0),
                                                    v, w, poly.eps_geom())
        assert (_outcome(curve_polygon_intersections, curve, poly, seg)
                == _outcome(lambda: (seg[i], t, edge, u)))
        for a in poly.edges:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
