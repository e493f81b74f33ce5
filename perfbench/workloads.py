"""The three workloads: per-pass instance lists and forged certificates.

A pass solves every instance once, checks each answer independently, and
re-verifies each certificate with `poise check`. Sizes and counts are fixed,
so every pass and every seed runs the same operations; the seed and the pass
index only move the geometry, so a run averages over several geometries.
The mix of sizes puts each workload's median and tail among several
instances of similar cost, so which instance lands there matters little.

Forged certificates come from fixed inputs that do not depend on the seed.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import gen


@dataclass
class Op:
    """One solve, its independent check, and its `poise check` arguments."""

    name: str
    argv: list
    geometry: list
    verify: object
    expect: int = 0


@dataclass
class Forgery:
    """`poise check` on a forged certificate; the right answer is exit 3."""

    name: str
    argv: list


@dataclass
class Workload:
    ops: list
    cold_argv: list
    forgeries: list = field(default_factory=list)


def _write(wd, name, text):
    path = os.path.join(wd, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _need_inside(why):
    if why:
        raise RuntimeError(f"generated input rejected: {why}")


# --- planar ---------------------------------------------------------------------

POLYGON_SIZES = (16, 24, 32, 48, 64, 96, 128, 160, 200, 256)
WEIGHT_COUNTS = (2, 3, 4, 5, 6, 8, 10, 12, 14, 16)
GADGET_SIZES = ((8, True), (16, False), (24, True))
SPLIT_SIZES = (20,)


def planar(seed, pass_index, wd):
    rng = np.random.default_rng([seed, 1, pass_index])
    ops = []
    for i, (n, k) in enumerate(zip(POLYGON_SIZES, WEIGHT_COUNTS)):
        V = gen.star_polygon(rng, n)
        _need_inside(checks.origin_inside_polygon(V))
        path = _write(wd, f"poly{i}.txt", gen.polygon_text(V))
        w = gen.feasible_weights(rng, k)
        ws = gen.numbers(w)
        geom = ["--polygon", path]
        ops.append(Op(f"balance2d-{n}", ["balance2d", "--polygon", path,
                                         "--weights", ws], geom,
                      lambda p, V=V, w=w: checks.balance(V, w, p["points"])))
        if i % 2 == 0:
            ops.append(Op(f"balance2d-fast-{n}",
                          ["balance2d-fast", "--polygon", path, "--weights", ws],
                          geom,
                          lambda p, V=V, w=w: checks.fast_balance(V, w, p["points"])))
        else:
            ops.append(Op(f"antipodal-{n}", ["antipodal", "--polygon", path], geom,
                          lambda p, V=V: checks.antipodal(V, p["points"])))
    for n, yes in GADGET_SIZES:
        vals = gen.partition_values(rng, n, yes)
        ops.append(Op(f"gadget-decide-{n}",
                      ["gadget-decide", "--partition", gen.numbers(vals)], [],
                      lambda p, v=vals: checks.gadget_decision(v, p),
                      expect=0 if checks.equal_split_exists(vals) else 1))
    for n in SPLIT_SIZES:
        w = rng.uniform(0.1, 10.0, size=n).tolist()
        ops.append(Op(f"solve-partition-{n}",
                      ["solve-partition", "--weights", gen.numbers(w)], [],
                      lambda p, w=w: checks.three_groups(w, p)))
        vals = gen.partition_values(rng, n, True)
        ops.append(Op(f"reduce-partition-{n}",
                      ["reduce-partition", "--partition", gen.numbers(vals)], [],
                      lambda p, v=vals: checks.gadget_reduction(v, p)))
    return Workload(ops, ["balance2d", "--polygon", os.path.join(wd, "poly0.txt"),
                          "--weights", "1 1"])


# --- surface --------------------------------------------------------------------

MESHES = (("octa", 0), ("ico", 0), ("octa", 1), ("ico", 1), ("octa", 2),
          ("octa", 3))                       # 8, 20, 32, 80, 128, 512 triangles
TRIPODAL_GRID = "64x64"
ORACLE_MESHES = 1                            # the face-triple sweep takes ~1.7 s a mesh


def surface(seed, pass_index, wd):
    rng = np.random.default_rng([seed, 2, pass_index])
    tilted = rng.normal(size=(2, 3))
    planes = ("0 0 1", "1 0 0", "0 1 0") + tuple(
        gen.numbers((n / np.linalg.norm(n)).tolist()) for n in tilted)
    ops = []
    for i, (base, sub) in enumerate(MESHES):
        V, F = gen.star_mesh(rng, base, sub)
        _need_inside(checks.origin_inside_mesh(V, F))
        path = _write(wd, f"mesh{i}.off", gen.off_text(V, F))
        geom = ["--off", path]
        tri = lambda p, V=V, F=F: checks.tripod(V, F, p["points"])
        ops.append(Op(f"tripodal-{len(F)}", ["tripodal", "--off", path, "--grid",
                                             TRIPODAL_GRID], geom, tri))
        if i < ORACLE_MESHES:
            ops.append(Op(f"tripodal-oracle-{len(F)}",
                          ["tripodal-oracle", "--off", path], geom, tri))
        for j, plane in enumerate(planes):
            ops.append(Op(f"four-on-edges-{len(F)}-{j}",
                          ["four-on-edges", "--off", path, "--plane", plane], geom,
                          lambda p, V=V, F=F: checks.four_on_edges(V, F, p["points"])))
    return Workload(ops, ["four-on-edges", "--off", os.path.join(wd, "mesh0.off")])


# --- skeleton -------------------------------------------------------------------

def skeleton(seed, pass_index, wd):
    rng = np.random.default_rng([seed, 3, pass_index])
    ops = []

    def hrep(name, P):
        _need_inside(checks.origin_inside_hrep(*P))
        return _write(wd, name + ".hrep", gen.hrep_text(*P))

    halving_inputs = [(f"rand{d}", gen.random_hull(rng, d, d + 3)) for d in range(2, 7)]
    halving_inputs += [(f"cube{d}", gen.cube(rng, d)) for d in (4, 6)]
    halving_inputs += [(f"cross{d}", gen.cross_polytope(rng, d)) for d in (3, 5)]
    for name, P in halving_inputs:
        path = hrep("halving-" + name, P)
        ops.append(Op(f"halving-{name}", ["halving", "--hrep", path], ["--hrep", path],
                      lambda p, P=P: checks.halving(*P, p["x"])))
    for d, k in ((2, 1), (3, 2), (4, 2)):
        P = gen.random_hull(rng, d, d + 3)
        path = hrep(f"pow2-{d}", P)
        ops.append(Op(f"pow2-{d}", ["pow2", "--hrep", path, "--k", str(k)],
                      ["--hrep", path],
                      lambda p, P=P, n=2 ** k: checks.skeleton(*P, p["points"], n)))
    products = {
        "3x3": gen.product(gen.random_hull(rng, 3, 7), gen.random_hull(rng, 3, 7)),
        "2x2x2": gen.product(gen.product(gen.random_hull(rng, 2, 6),
                                         gen.random_hull(rng, 2, 6)),
                             gen.random_hull(rng, 2, 6)),
    }
    for name, P in products.items():
        path = hrep(f"compose-{name}", P)
        ops.append(Op(f"compose-{name}", ["compose", "--hrep", path], ["--hrep", path],
                      lambda p, P=P: checks.skeleton(*P, p["points"], 6)))
    for n in (8, 16, 24, 32, 40):             # 18 to 114 edges
        P = gen.random_hull(rng, 3, n)
        path = hrep(f"edges-{n}", P)
        ops.append(Op(f"three-on-edges-{n}", ["three-on-edges", "--hrep", path],
                      ["--hrep", path],
                      lambda p, P=P: checks.skeleton(*P, p["points"], 3)))
    for d in (4, 5, 6):
        P = gen.rotated(rng, gen.triangle_power(d))
        path = hrep(f"prop9-{d}", P)
        k = d // 2 - 1                        # the largest k that separates
        ops.append(Op(f"prop9-check-{d}-{k}",
                      ["prop9-check", "--hrep", path, "--k", str(k)],
                      ["--hrep", path],
                      lambda p: checks.separation(p, True)))
        path = hrep(f"prop9-cube-{d}", gen.cube(rng, d))
        ops.append(Op(f"prop9-check-cube-{d}",
                      ["prop9-check", "--hrep", path, "--k", "1"], ["--hrep", path],
                      lambda p: checks.separation(p, False), expect=1))
    return Workload(ops, ["halving", "--hrep", os.path.join(wd, "halving-rand2.hrep")])


# --- forged certificates -------------------------------------------------------------

FAR = 1e6          # how far the forged point is moved
COVER = 1e12       # tolerance written into the forgery, enough to cover FAR


def _solve(run, argv, out):
    code = run(argv + ["--json", out]).exit_code
    if code != 0:
        raise RuntimeError(f"fixture solve {argv[0]} exited {code}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def _forge(run, wd, name, argv, geometry, edit):
    """Solve a fixed input, move one point far off, raise the tolerances."""
    payload = _solve(run, argv, os.path.join(wd, f"fixture-{name}.json"))
    edit(payload)
    path = _write(wd, f"forged-{name}.json", json.dumps(payload))
    return Forgery(name, ["check", "--json", path] + geometry)


def _move_point(key, *eps_keys):
    def edit(payload):
        pts = payload
        for k in key.split("/"):
            pts = pts[k]
        target = pts[0] if isinstance(pts[0], list) else pts
        target[0] += FAR
        for k in eps_keys:
            holder = payload
            *parents, leaf = k.split("/")
            for p in parents:
                holder = holder[p]
            holder[leaf] = COVER
    return edit


def forgeries(name, wd, run):
    """Forged certificates of every kind the workload solves.

    balance2d, antipodal, tripodal, four-on-edges and halving forgeries
    are accepted today because `check` takes its tolerances from the
    certificate. gadget-decide, pow2, three-on-edges and compose forgeries
    are rejected and serve as controls.
    """
    rng = np.random.default_rng(7)
    out = []
    if name == "planar":
        poly = _write(wd, "fixed-poly.txt", gen.polygon_text(gen.star_polygon(rng, 12)))
        geom = ["--polygon", poly]
        out.append(_forge(run, wd, "balance2d",
                          ["balance2d", "--polygon", poly, "--weights", "3 2 2"], geom,
                          _move_point("points", "certificate/eps_geom",
                                      "certificate/eps_bal")))
        out.append(_forge(run, wd, "antipodal", ["antipodal", "--polygon", poly], geom,
                          _move_point("points", "certificate/eps_geom")))
        out.append(_forge(run, wd, "gadget-decide",
                          ["gadget-decide", "--partition", "1 2 3"], [],
                          _move_point("witness/points", "certificate/eps_geom",
                                      "certificate/eps_bal")))
    elif name == "surface":
        V, F = gen.star_mesh(rng, "octa", 0)
        mesh = _write(wd, "fixed-mesh.off", gen.off_text(V, F))
        geom = ["--off", mesh]
        out.append(_forge(run, wd, "tripodal",
                          ["tripodal", "--off", mesh, "--grid", TRIPODAL_GRID], geom,
                          _move_point("points", "eps_geom", "eps_bal")))
        out.append(_forge(run, wd, "four-on-edges", ["four-on-edges", "--off", mesh],
                          geom, _move_point("points", "certificate/eps_geom",
                                            "certificate/eps_bal")))
    else:
        fixed = {d: _write(wd, f"fixed-{d}.hrep",
                           gen.hrep_text(*gen.random_hull(rng, d, d + 4)))
                 for d in (2, 3)}
        out.append(_forge(run, wd, "halving", ["halving", "--hrep", fixed[3]],
                          ["--hrep", fixed[3]], _move_point("x", "certificate/eps_geom")))
        for kind, d, extra in (("pow2", 2, ["--k", "1"]), ("three-on-edges", 3, []),
                               ("compose", 3, [])):
            out.append(_forge(run, wd, kind, [kind, "--hrep", fixed[d]] + extra,
                              ["--hrep", fixed[d]],
                              _move_point("points", "certificate/eps_geom",
                                          "certificate/eps_bal")))
    return out


BUILDERS = {"planar": planar, "surface": surface, "skeleton": skeleton}
