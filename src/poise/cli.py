"""Command-line surface: solve, emit JSON certificates and figures, re-verify.

Exit codes: 0 verified success, 1 infeasible or no result, 2 input error,
3 verification failure. No command draws random numbers, so identical
arguments produce byte-identical JSON.

The polytope modules load SciPy, so they are imported inside the handlers
and checks that use them: planar and mesh commands never load SciPy.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import balance2d as b2
from . import figures
from .errors import (DegenerateSectionError, EnumerationBudgetError,
                     InfeasibleError, InputError, NoCrossingError,
                     NoIntersectionError, NoLoopContainsOriginError,
                     NotFoundError, ParseError, PoiseError,
                     SearchExhaustedError, SubdivisionLimitError)
from .geom2d import antipodal_about, eval_boundary, load_polygon
from .geom3d import Plane3, Polyhedron3, load_off
from .tripodal import (EPS_REL, tripodal_by_face_triples, tripodal_search,
                       verify_tripodal)

# Solver ran correctly but found nothing to certify: exit 1, not 3.
NO_RESULT_ERRORS = (NotFoundError, SearchExhaustedError, InfeasibleError,
                    NoLoopContainsOriginError, DegenerateSectionError,
                    NoCrossingError, NoIntersectionError,
                    SubdivisionLimitError, EnumerationBudgetError)


@dataclass
class CommandResult:
    exit_code: int
    json_path: str | None = None
    figure_path: str | None = None


# --- small parsing and emission helpers --------------------------------------

def _numbers(text, kind=float, count=None):
    """Finite numbers from a space-separated list, exactly `count` if given."""
    try:
        vals = [kind(x) for x in text.split()]
    except ValueError as exc:
        raise ParseError(f"bad {kind.__name__} list {text!r}: {exc}") from exc
    if not vals:
        raise ParseError(f"empty {kind.__name__} list")
    if count is not None and len(vals) != count:
        raise ParseError(f"need {count} numbers, got {len(vals)} in {text!r}")
    if kind is float and not all(map(math.isfinite, vals)):
        raise ParseError(f"non-finite number in {text!r}")
    return vals


def _grid(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ParseError(f"grid must look like 256x256, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad grid {text!r}: {exc}") from exc


def _jsonable(x):
    """json.dumps hook for the NumPy arrays and scalars in a payload."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise InputError(f"cannot serialize {type(x).__name__}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _emit(args, payload, passed, no_result=False, figure=None, cert=None):
    """Write the payload; exit 0 if passed, else 1 (no result) or 3. On exit
    3, each quantity over its bound in `cert` gets one stderr line."""
    payload = dict(payload)
    payload["schema"] = 1
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    json_path = getattr(args, "json", None)
    if json_path:
        _write(json_path, text)
    else:
        sys.stdout.write(text)
    code = 0 if passed else (1 if no_result else 3)
    if code == 3 and cert is not None:
        for line in cert.failures():
            print(f"poise: verification failure: {payload['command']}: {line}",
                  file=sys.stderr)
    return CommandResult(code, json_path, figure)


def _figure(path, render):
    """Write render() to path when a path was given; return the path."""
    if path:
        _write(path, render())
    return path


def _face_dict(face, tight_key="tight"):
    return {tight_key: list(face.tight), "dim": int(face.dim)}


def _placement_payload(sp, cert, tight_key="tight"):
    return {
        "points": sp.points(),
        "hosts": [_face_dict(h, tight_key) for _, h in sp.entries],
        "count": sp.count,
        "target": sp.target,
        "certificate": asdict(cert),
    }


def _load_hrep(path):
    from .polytoped import load_hrep
    return load_hrep(path)


def _hrep_obj(args, H, points):
    """Wireframe OBJ for a 3-dimensional H-polytope with marker points."""
    from .polytoped import edge_segment, faces_of_dim
    if H.d != 3:
        raise InputError("--obj output needs a 3-dimensional polytope")
    loops = [H.vrep.vertices[list(edge_segment(H, f.tight))]
             for f in faces_of_dim(H, 1)]
    labels = tuple(f"edge{i}" for i in range(len(loops)))
    text = figures.obj_overlay(points=points, loops=loops, labels=labels)
    _write(args.obj, text)
    return args.obj


# --- subcommand handlers ------------------------------------------------------

def _cmd_balance2d(args):
    poly = load_polygon(args.polygon)
    weights = _numbers(args.weights)
    target = _numbers(args.target, count=2)
    if args.cmd == "balance2d-fast":
        placement = b2.balance_fast(poly, weights, target)
    else:
        placement = b2.balance_iterative(poly, weights, target,
                                         collect_trace=bool(args.trace))
    order = sorted(placement.assignments, key=lambda t: t[0])
    pts = np.array([eval_boundary(poly, bp) for _, bp in order])
    cert = b2.verify_balance_points(poly, pts, weights, target)
    payload = {
        "command": args.cmd,
        "weights": weights,
        "target": target,
        "points": pts,
        "params": [{"edge": bp.edge, "s": bp.s} for _, bp in order],
        "rounds": placement.rounds,
        "certificate": asdict(cert),
    }
    fig = _figure(args.svg, lambda: figures.svg_scene(
        polygon=poly.vertices, points=pts, point_sizes=weights, target=target,
        trace=placement.trace))
    return _emit(args, payload, cert.passed, figure=fig, cert=cert)


def _cmd_antipodal(args):
    poly = load_polygon(args.polygon)
    center = np.asarray(_numbers(args.target, count=2))
    bp1, bp2 = antipodal_about(poly, center)
    pts = np.array([eval_boundary(poly, bp1), eval_boundary(poly, bp2)])
    cert = b2.verify_antipodal(poly, pts, center)
    payload = {
        "command": "antipodal",
        "center": center,
        "points": pts,
        "params": [{"edge": bp.edge, "s": bp.s} for bp in (bp1, bp2)],
        "midpoint_error": cert.midpoint_error,
        "certificate": {"eps_geom": cert.eps_geom, "passed": cert.passed},
    }
    fig = _figure(args.svg, lambda: figures.svg_scene(
        polygon=poly.vertices, points=pts, target=center))
    return _emit(args, payload, cert.passed, figure=fig, cert=cert)


def _cmd_reduce_partition(args):
    inst = b2.PartitionInstance(tuple(_numbers(args.partition, int)))
    poly, weights = b2.gadget_from_partition(inst)
    payload = {
        "command": "reduce-partition",
        "values": list(inst.values),
        "weights": weights,
        "polygon": poly.vertices,
        "certificate": {"passed": True},
    }
    fig = _figure(args.svg, lambda: figures.svg_scene(polygon=poly.vertices))
    return _emit(args, payload, True, figure=fig)


def _cmd_solve_partition(args):
    weights = _numbers(args.weights)
    three = b2.partition_three(weights)
    cert = b2.verify_partition_three(weights, three.groups)
    payload = {
        "command": "solve-partition",
        "weights": weights,
        "groups": [list(g) for g in three.groups],
        "sums": list(three.sums),
        "within_half": cert.largest_group <= cert.half,
        "certificate": {"passed": cert.passed},
    }
    return _emit(args, payload, cert.passed, no_result=True)


def _cmd_gadget_decide(args):
    inst = b2.PartitionInstance(tuple(_numbers(args.partition, int)))
    placement = b2.gadget_witness(inst)
    decision = placement is not None
    poly, weights = b2.gadget_from_partition(inst)
    payload = {"command": "gadget-decide", "values": list(inst.values),
               "balanceable": decision}
    pts = None
    if decision:
        order = sorted(placement.assignments, key=lambda t: t[0])
        pts = np.array([eval_boundary(poly, bp) for _, bp in order])
    payload["witness"] = {"weights": weights, "points": pts} if decision else None
    cert = b2.verify_gadget_decision(inst, decision, pts)
    payload["certificate"] = dict(asdict(cert.witness) if decision else {},
                                  passed=cert.passed)
    fig = _figure(args.svg, lambda: figures.svg_scene(
        polygon=poly.vertices, points=pts,
        point_sizes=weights if pts is not None else None))
    return _emit(args, payload, cert.passed and decision,
                 no_result=cert.passed and not decision, figure=fig, cert=cert)


def _cmd_tripodal(args):
    poly = load_off(args.off)
    if args.cmd == "tripodal":
        triple = tripodal_search(poly, grid=_grid(args.grid))
    else:
        triple = tripodal_by_face_triples(poly)
    cert = verify_tripodal(poly, triple.points)
    payload = {
        "command": args.cmd,
        "eps_geom": EPS_REL,
        "eps_bal": EPS_REL,
        "points": triple.points,
        "faces": list(triple.faces),
        "radius": triple.radius,
        "t": triple.t,
        "theta": triple.theta,
        "certificate": asdict(cert),
    }
    svg = _figure(args.svg, lambda: figures.svg_scene3(
        poly, points=triple.points, loop=triple.points, target=np.zeros(3)))
    obj = _figure(args.obj, lambda: figures.obj_overlay(
        poly, points=triple.points, loops=[triple.points], labels=("tripod",)))
    return _emit(args, payload, cert.passed, figure=svg or obj, cert=cert)


def _cmd_placement(args):
    """three-on-edges, pow2 and compose: skeleton points on an H-polytope."""
    from .skeleton import verify_skeleton
    from .skeleton_balance import compose_balance, pow2_points, three_on_edges
    H = _load_hrep(args.hrep)
    if args.cmd == "three-on-edges":
        sp, payload = three_on_edges(H, np.asarray(_numbers(args.target, count=3))), {}
    elif args.cmd == "pow2":
        sp, payload = pow2_points(H, args.k), {"k": args.k}
    else:
        sp, payload = compose_balance(H), {}
    cert = verify_skeleton(H, sp.points(), sp.target)
    payload.update(_placement_payload(sp, cert), command=args.cmd)
    fig = _hrep_obj(args, H, sp.points()) if args.obj else None
    return _emit(args, payload, cert.passed, figure=fig, cert=cert)


def _cmd_four_on_edges(args):
    from .skeleton import four_on_edges, verify_skeleton
    poly = load_off(args.off)
    plane = Plane3(tuple(_numbers(args.plane, count=3)), 0.0)
    sp = four_on_edges(poly, plane)
    cert = verify_skeleton(poly, sp.points())
    payload = {"command": "four-on-edges", "plane": list(plane.normal)}
    payload.update(_placement_payload(sp, cert, tight_key="face"))
    svg = _figure(args.svg, lambda: figures.svg_scene3(poly, points=sp.points()))
    obj = _figure(args.obj, lambda: figures.obj_overlay(poly, points=sp.points()))
    return _emit(args, payload, cert.passed, figure=svg or obj, cert=cert)


def _cmd_halving(args):
    from .skeleton_balance import halving_point, verify_halving
    H = _load_hrep(args.hrep)
    wit = halving_point(H)
    cert = verify_halving(H, wit.x)
    payload = {
        "command": "halving",
        "x": wit.x,
        "vertex_type": list(wit.vertex_type),
        "face_P": _face_dict(wit.face_P),
        "face_negP": _face_dict(wit.face_negP),
        "certificate": {"violation": cert.violation,
                        "boundary_distance": cert.boundary_distance,
                        "eps_geom": cert.eps_geom, "passed": cert.passed},
    }
    return _emit(args, payload, cert.passed, cert=cert)


def _cmd_prop9_fixture(args):
    from .polytoped import dump_hrep_text
    from .skeleton_balance import prop9_fixture
    H = prop9_fixture(args.dim)
    payload = {
        "command": "prop9-fixture",
        "dim": args.dim,
        "m": H.m,
        "A": H.A,
        "b": H.b,
        "certificate": {"passed": True},
    }
    if args.out:
        _write(args.out, dump_hrep_text(H))
    return _emit(args, payload, True)


def _cmd_prop9_check(args):
    from .skeleton_balance import prop9_check
    H = _load_hrep(args.hrep)
    empty = prop9_check(H, args.k)
    payload = {
        "command": "prop9-check",
        "k": args.k,
        "empty": empty,
        "certificate": {"passed": empty},
    }
    return _emit(args, payload, empty, no_result=True)


# --- certificate re-verification ----------------------------------------------
#
# `check` makes the verifier call the solver made, on the certificate's
# coordinates and inputs; every verifier has one tolerance rule, so a solve
# exits 0 exactly when `check` of its certificate does. Derived fields
# (hosts, faces, params, sums, residuals and every tolerance) are never read.

def _field(payload, key, kind):
    """payload[key], which must be a kind (a bool is no int here)."""
    val = payload.get(key) if isinstance(payload, dict) else None
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise InputError(f"certificate needs {key!r} of type {kind.__name__}")
    return val


def _array(payload, key, shape):
    """payload[key] as a finite float array of this shape (None: any length)."""
    try:
        a = np.asarray(_field(payload, key, list), dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"certificate field {key!r} is not a numeric array") from exc
    if a.ndim != len(shape) or any(n not in (None, s) for n, s in zip(shape, a.shape)):
        raise InputError(f"certificate field {key!r} has shape {a.shape}, "
                         f"expected {shape}")
    if not np.isfinite(a).all():
        raise InputError(f"certificate field {key!r} is not finite")
    return a


def _instance(payload):
    return b2.PartitionInstance(tuple(_field(payload, "values", list)))


def _same(ok, what):
    return [] if ok else [f"{what} differs from its recomputed value"]


def _check_balance(poly, p):
    w = _array(p, "weights", (None,))
    return b2.verify_balance_points(poly, _array(p, "points", (len(w), 2)), w,
                                    _array(p, "target", (2,))).failures()


def _check_reduce_partition(_, p):
    poly, weights = b2.gadget_from_partition(_instance(p))
    ok = (weights == _field(p, "weights", list)
          and np.allclose(_array(p, "polygon", poly.vertices.shape), poly.vertices))
    return _same(ok, "weights or polygon")


def _check_solve_partition(_, p):
    groups = _field(p, "groups", list)
    if len(groups) != 3 or not all(
            isinstance(g, list) and all(type(i) is int for i in g) for g in groups):
        raise InputError("certificate field 'groups' must be three lists of indices")
    return b2.verify_partition_three(_array(p, "weights", (None,)), groups).failures()


def _check_gadget(_, p):
    inst = _instance(p)
    yes = _field(p, "balanceable", bool)
    pts = (_array(_field(p, "witness", dict), "points", (len(inst.values) + 1, 2))
           if yes else None)
    return b2.verify_gadget_decision(inst, yes, pts).failures()


def _check_tripodal(poly, p):
    return verify_tripodal(poly, _array(p, "points", (3, 3))).failures()


def _check_skeleton(body, p):
    from .skeleton import verify_skeleton
    cmd = p["command"]
    d = 3 if isinstance(body, Polyhedron3) else body.d
    if cmd == "pow2":
        from .skeleton_balance import POW2_MAX_K
        k = _field(p, "k", int)
        if not 0 <= k <= POW2_MAX_K:
            raise InputError(f"certificate field 'k' must lie in 0..{POW2_MAX_K}")
        count = 2 ** k
    else:
        count = {"three-on-edges": 3, "four-on-edges": 4, "compose": d}[cmd]
    target = _array(p, "target", (d,))
    failures = verify_skeleton(body, _array(p, "points", (count, d)), target).failures()
    # only three-on-edges takes a target; the others balance about the origin
    if cmd != "three-on-edges" and target.any():
        failures.insert(0, f"target = {target.tolist()} differs from the origin")
    return failures


def _check_halving(H, p):
    from .skeleton_balance import verify_halving
    return verify_halving(H, _array(p, "x", (H.d,))).failures()


def _check_prop9_fixture(H, p):
    from .skeleton_balance import prop9_fixture
    F = prop9_fixture(H.d)
    A, b = _array(p, "A", (None, None)), _array(p, "b", (None,))
    ok = (_field(p, "dim", int) == F.d and _field(p, "m", int) == F.m
          and all(x.shape == y.shape and np.allclose(x, y)
                  for x, y in ((A, F.A), (b, F.b), (H.A, F.A), (H.b, F.b))))
    return _same(ok, "dim, m, A or b")


def _check_prop9_check(H, p):
    from .skeleton_balance import prop9_check
    return _same(prop9_check(H, _field(p, "k", int)) == _field(p, "empty", bool),
                 "empty")


# command -> (geometry option, check); a check returns its failure lines
CHECKS = {
    "balance2d": ("polygon", _check_balance),
    "balance2d-fast": ("polygon", _check_balance),
    "antipodal": ("polygon", lambda poly, p: b2.verify_antipodal(
        poly, _array(p, "points", (2, 2)), _array(p, "center", (2,))).failures()),
    "reduce-partition": (None, _check_reduce_partition),
    "solve-partition": (None, _check_solve_partition),
    "gadget-decide": (None, _check_gadget),
    "tripodal": ("off", _check_tripodal),
    "tripodal-oracle": ("off", _check_tripodal),
    "three-on-edges": ("hrep", _check_skeleton),
    "pow2": ("hrep", _check_skeleton),
    "compose": ("hrep", _check_skeleton),
    "four-on-edges": ("off", _check_skeleton),
    "halving": ("hrep", _check_halving),
    "prop9-fixture": ("hrep", _check_prop9_fixture),
    "prop9-check": ("hrep", _check_prop9_check),
}
LOADERS = {"polygon": load_polygon, "off": load_off, "hrep": _load_hrep}


def _cmd_check(args):
    with open(args.json, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        raise InputError("not a schema-1 certificate")
    cmd = payload.get("command")
    if not isinstance(cmd, str) or cmd not in CHECKS:
        raise InputError(f"unknown certificate command {cmd!r}")
    geometry, check = CHECKS[cmd]
    if geometry and not getattr(args, geometry):
        raise InputError(f"check needs --{geometry} for this certificate")
    body = LOADERS[geometry](getattr(args, geometry)) if geometry else None
    failures = check(body, payload)
    for line in failures:
        print(f"poise: check failed: {cmd}: {line}", file=sys.stderr)
    return CommandResult(3 if failures else 0, args.json, None)


# --- parser -------------------------------------------------------------------

def _add_common(p, *names):
    for geometry in ("polygon", "off", "hrep"):
        if geometry in names:
            p.add_argument(f"--{geometry}", required=True)
    if "json" in names:
        p.add_argument("--json", help="certificate output path (default stdout)")
    if "svg" in names:
        p.add_argument("--svg", help="SVG figure output path")
    if "obj" in names:
        p.add_argument("--obj", help="OBJ overlay output path")


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="poise",
        description="Balanced placements on boundaries and skeletons, "
                    "with machine-checkable certificates.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, func, help_text, *common):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, *common)
        p.set_defaults(func=func)
        return p

    p = command("balance2d", _cmd_balance2d, "place weights on a polygon boundary",
                "polygon", "svg", "json")
    p.add_argument("--weights", required=True, help='e.g. "3 2 2"')
    p.add_argument("--target", default="0 0")
    p.add_argument("--trace", action="store_true",
                   help="record migration curves in the SVG")

    p = command("balance2d-fast", _cmd_balance2d,
                "three-location variant via weight partitioning",
                "polygon", "svg", "json")
    p.add_argument("--weights", required=True)
    p.add_argument("--target", default="0 0")
    p.set_defaults(trace=False)

    p = command("antipodal", _cmd_antipodal, "boundary pair with a given midpoint",
                "polygon", "svg", "json")
    p.add_argument("--target", default="0 0", help="midpoint (default origin)")

    p = command("reduce-partition", _cmd_reduce_partition,
                "hexagon gadget and weights for a PARTITION instance", "svg", "json")
    p.add_argument("--partition", required=True, help='e.g. "2 3 7"')

    p = command("solve-partition", _cmd_solve_partition,
                "split weights into three half-bounded groups", "json")
    p.add_argument("--weights", required=True)

    p = command("gadget-decide", _cmd_gadget_decide,
                "decide balanceability of the hexagon gadget", "svg", "json")
    p.add_argument("--partition", required=True)

    p = command("tripodal", _cmd_tripodal, "equilateral origin-centered triple",
                "off", "svg", "obj", "json")
    p.add_argument("--grid", default="256x256", help="search grid (default 256x256)")

    command("tripodal-oracle", _cmd_tripodal,
            "independent face-triple sweep for the same triple",
            "off", "svg", "obj", "json")

    p = command("three-on-edges", _cmd_placement,
                "three edge points balancing a target", "hrep", "obj", "json")
    p.add_argument("--target", default="0 0 0")

    p = command("four-on-edges", _cmd_four_on_edges,
                "four edge points from a planar section",
                "off", "svg", "obj", "json")
    p.add_argument("--plane", default="0 0 1", help="section plane normal")

    command("halving", _cmd_halving, "boundary point with x and -x on low faces",
            "hrep", "json")

    p = command("pow2", _cmd_placement, "2^k skeleton points summing to the origin",
                "hrep", "obj", "json")
    p.add_argument("--k", type=int, required=True)

    command("compose", _cmd_placement, "d skeleton points for d = 2^i*3^j, j <= 1",
            "hrep", "obj", "json")

    p = command("prop9-fixture", _cmd_prop9_fixture,
                "triangle-product separation fixture", "json")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", help="write the H-rep text here")

    p = command("prop9-check", _cmd_prop9_check,
                "does the low skeleton avoid the reflected body", "hrep", "json")
    p.add_argument("--k", type=int, required=True)

    p = command("check", _cmd_check, "re-verify a certificate against geometry")
    p.add_argument("--json", required=True)
    p.add_argument("--polygon")
    p.add_argument("--off")
    p.add_argument("--hrep")

    return ap


def run(argv) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0))
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"poise: {exc}", file=sys.stderr)
        return CommandResult(2)
    except NO_RESULT_ERRORS as exc:
        print(f"poise: no result: {exc}", file=sys.stderr)
        return CommandResult(1)
    except PoiseError as exc:
        print(f"poise: verification failure: {exc}", file=sys.stderr)
        return CommandResult(3)


def main():
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
