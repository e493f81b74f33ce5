import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cross_hrep, cube_mesh, dump_off, octa_mesh, random_hull_hrep,
                     star_mesh)
import poise.cli
import poise.polytoped
import poise.skeleton
import poise.skeleton_balance
from poise.cli import run
from poise.geom3d import validate_polyhedron
from poise.errors import EmptyInteriorError, UnboundedError, WalkFailedError
from poise.polytoped import cube_hrep, dump_hrep_text, hpolytope, load_hrep, product

SQUARE_TEXT = "-1 -1\n1 -1\n1 1\n-1 1\n"


@pytest.fixture
def square(tmp_path):
    p = tmp_path / "square.txt"
    p.write_text(SQUARE_TEXT)
    return str(p)


@pytest.fixture
def cube_off(tmp_path):
    p = tmp_path / "cube.off"
    p.write_text(dump_off(cube_mesh()))
    return str(p)


@pytest.fixture
def cube_h(tmp_path):
    p = tmp_path / "cube.hrep"
    p.write_text(dump_hrep_text(cube_hrep(3)))
    return str(p)


def test_balance2d_json_and_check(square, tmp_path):
    out = tmp_path / "c.json"
    res = run(["balance2d", "--polygon", square, "--weights", "3 2 2",
               "--json", str(out)])
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["certificate"]["passed"]
    assert payload["certificate"]["residual"] <= payload["certificate"]["eps_bal"]
    assert run(["check", "--json", str(out), "--polygon", square]).exit_code == 0


def test_balance2d_svg_trace(square, tmp_path):
    svg = tmp_path / "fig.svg"
    res = run(["balance2d", "--polygon", square, "--weights", "5 3 2 1",
               "--trace", "--svg", str(svg), "--json", str(tmp_path / "c.json")])
    assert res.exit_code == 0 and res.figure_path == str(svg)
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_gadget_decide_examples(square, tmp_path):
    assert run(["gadget-decide", "--partition", "2 3 7",
                "--json", str(tmp_path / "no.json")]).exit_code == 1
    out = tmp_path / "yes.json"
    assert run(["gadget-decide", "--partition", "1 1",
                "--json", str(out)]).exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["balanceable"] and payload["witness"] is not None
    assert run(["check", "--json", str(out)]).exit_code == 0


def test_partition_round_trips(tmp_path):
    out = tmp_path / "r.json"
    assert run(["reduce-partition", "--partition", "2 3 7",
                "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out)]).exit_code == 0
    out2 = tmp_path / "s.json"
    assert run(["solve-partition", "--weights", "5 4 3 2 1",
                "--json", str(out2)]).exit_code == 0
    assert run(["check", "--json", str(out2)]).exit_code == 0


def test_tripodal_round_trip_and_artifacts(cube_off, tmp_path):
    out = tmp_path / "t.json"
    svg = tmp_path / "t.svg"
    obj = tmp_path / "t.obj"
    res = run(["tripodal", "--off", cube_off, "--grid", "64x64",
               "--json", str(out), "--svg", str(svg), "--obj", str(obj)])
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["passed"]
    assert svg.read_text().startswith("<svg")
    assert "o markers" in obj.read_text()
    assert run(["check", "--json", str(out), "--off", cube_off]).exit_code == 0


def test_three_on_edges_round_trip(cube_h, tmp_path):
    out = tmp_path / "e.json"
    assert run(["three-on-edges", "--hrep", cube_h,
                "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--hrep", cube_h]).exit_code == 0


# three-on-edges on the hull of 160 random unit vectors: 474 edges and
# C(476, 3) = 17.9M edge triples, whose 3x3 systems alone would take 1.3 GB
# if built at once. The child process is capped at 2 GB of address space.
EDGES_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from poise.cli import run
sys.exit(run(["three-on-edges", "--hrep", sys.argv[1], "--json", sys.argv[2]]).exit_code)
"""


def test_three_on_edges_memory_stays_bounded(tmp_path):
    H = random_hull_hrep(np.random.default_rng(160), 3, 160)
    hrep, out = tmp_path / "hull160.hrep", tmp_path / "e.json"
    hrep.write_text(dump_hrep_text(H))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", EDGES_CHILD, str(hrep), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0


def test_four_on_edges_round_trip(tmp_path):
    off = tmp_path / "octa.off"
    off.write_text(dump_off(octa_mesh()))
    out = tmp_path / "f.json"
    assert run(["four-on-edges", "--off", str(off), "--plane", "0 0 1",
                "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--off", str(off)]).exit_code == 0


def _solves_and_checks(off, plane):
    """four-on-edges on the OFF file with the plane exits 0, and so does
    check of its certificate."""
    out = Path(off).with_suffix(".json")
    code = run(["four-on-edges", "--off", str(off), "--plane", plane,
                "--json", str(out)]).exit_code
    return code == 0 and run(["check", "--json", str(out), "--off", str(off)]).exit_code == 0


@pytest.mark.parametrize("plane", ["0 0 1", "0.3 0.1 1"])
@pytest.mark.parametrize("dz", [0.0, 1e-9, 1e-8, 1e-7, 1e-6, 3e-6])
def test_four_on_edges_vertices_near_the_plane(dz, plane, tmp_path):
    """The octahedron +-e_i with (1, 0, 0) raised to z = dz and (0, 1, 0)
    lowered to -0.7 dz. A vertex within 1e3 eps_geom of the plane once became
    a section point as it stood: dz = 1e-8 then had no crossing (exit 1), and
    1e-7 to 3e-6 put a section point outside its face (exit 2)."""
    octa = octa_mesh()
    V = octa.vertices.copy()
    V[0, 2], V[2, 2] = dz, -0.7 * dz
    off = tmp_path / "tipped.off"
    off.write_text(dump_off(validate_polyhedron(V, octa.faces)))
    assert _solves_and_checks(off, plane)


@pytest.mark.parametrize("h", [0.9e-9, 1e-9])
def test_four_on_edges_vertex_on_the_plane_within_eps_geom(h, tmp_path):
    """Vertex (1, 0, 0) raised to h diam is on the plane z = 0, and so is the
    edge to (0, 1, 0); its chord is kept from the upper face. The in-plane
    point of that chord lies below the edge, outside the upper face, and the
    face's antipodal pair found no crossing (exit 1); the section point is
    now taken on the chord in 3D."""
    octa = octa_mesh()
    V = octa.vertices.copy()
    V[0, 2] = h * octa.diam
    off = tmp_path / "raised.off"
    off.write_text(dump_off(validate_polyhedron(V, octa.faces)))
    assert _solves_and_checks(off, "0 0 1")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("plane", ["1e308 1e308 1e308", "1e200 1e200 1e200",
                                   "0 0 1e-200", "0 0 1e-300", "0 0 5e-324"])
def test_four_on_edges_huge_and_tiny_plane_normals(plane, tmp_path):
    """A normal's length once overflowed ("face 0 lies in the cutting
    plane", exit 1) or underflowed ("zero plane normal", exit 2)."""
    off = tmp_path / "octa.off"
    off.write_text(dump_off(octa_mesh()))
    assert _solves_and_checks(off, plane)


def test_four_on_edges_zero_plane_normal_exits_2(tmp_path, capsys):
    off = tmp_path / "octa.off"
    off.write_text(dump_off(octa_mesh()))
    assert run(["four-on-edges", "--off", str(off), "--plane", "0 0 0"]).exit_code == 2
    assert "zero plane normal" in capsys.readouterr().err


def test_four_on_edges_surface_seed4_mesh(tmp_path):
    """The surface benchmark's seed 4, pass 6 mesh5.off (512 triangles): its
    vertex 70 sits 2.6e-6 above z = 0, and its four points once summed to
    8.8e-7 against a bound of 4.2e-8 (exit 3)."""
    off = tmp_path / "mesh5.off"
    off.write_text((Path(__file__).parent / "data" / "surface_seed4_mesh5.off").read_text())
    assert _solves_and_checks(off, "0 0 1")


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(mesh=st.sampled_from(["octa", "star1", "star2"]), pick=st.integers(0, 15),
       h=st.floats(-13.0, -5.0).map(lambda e: 10.0 ** e), up=st.booleans(),
       plane=st.sampled_from(["z", "tilted", "vertex"]), other=st.integers(0, 65))
def test_four_on_edges_with_a_vertex_jittered_off_the_plane(mesh, pick, h, up, plane, other):
    """One equator vertex of the octahedron or of a seeded star mesh, moved
    to height +-h diam: four-on-edges solves and check accepts, cut by z = 0,
    by a tilted plane, or by the vertical plane through a mesh vertex."""
    poly = octa_mesh() if mesh == "octa" else star_mesh(np.random.default_rng(7), int(mesh[-1]))
    V = poly.vertices.copy()
    equator = np.flatnonzero(V[:, 2] == 0.0)
    i = equator[pick % len(equator)]
    V[i, 2] = (h if up else -h) * poly.diam
    normal = {"z": (0.0, 0.0, 1.0), "tilted": (0.3, 0.1, 1.0),
              "vertex": np.cross(V[other % len(V)], (0.0, 0.0, 1.0))}[plane]
    if not np.any(normal):
        normal = (0.0, 0.0, 1.0)    # a pole: every vertical plane holds it
    with tempfile.TemporaryDirectory() as wd:
        off = Path(wd) / "jittered.off"
        off.write_text(dump_off(validate_polyhedron(V, poly.faces)))
        assert _solves_and_checks(off, " ".join(repr(float(x)) for x in normal))


def test_halving_pow2_compose_round_trips(cube_h, tmp_path):
    for argv, geom in (
            (["halving", "--hrep", cube_h], cube_h),
            (["pow2", "--hrep", cube_h, "--k", "2"], cube_h),
            (["compose", "--hrep", cube_h], cube_h)):
        out = tmp_path / (argv[0] + ".json")
        assert run(argv + ["--json", str(out)]).exit_code == 0
        assert run(["check", "--json", str(out),
                    "--hrep", geom]).exit_code == 0


def test_halving_cross_polytope_6(tmp_path):
    """C = P and -P on the 6-cross-polytope is far from simple; no offset
    perturbation made it so, and the lexicographic walk needs none."""
    hrep = tmp_path / "cross6.hrep"
    hrep.write_text(dump_hrep_text(cross_hrep(6)))
    out = tmp_path / "h.json"
    assert run(["halving", "--hrep", str(hrep), "--json", str(out)]).exit_code == 0
    assert json.loads(out.read_text())["vertex_type"] == [3, 3]
    assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("half", [1e-150, 1e-8, 1e8, 1e103, 1e150, 1e200])
def test_hrep_commands_scale_with_the_polytope(half, tmp_path):
    """Past a diameter of about 5e102, 1e-12 scale^3 overflowed, and so did
    each edge triple's determinant: three-on-edges and compose (three points
    on the edges of a 3-polytope) found no triple. Past about 1e154 the
    vertices' diameter overflowed, with the same result."""
    hrep = tmp_path / "cube.hrep"
    hrep.write_text(dump_hrep_text(cube_hrep(3, half=half)))
    for argv in (["halving"], ["pow2", "--k", "2"], ["three-on-edges"], ["compose"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--hrep", str(hrep), "--json", str(out)]).exit_code == 0, argv
        assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0, argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("half", [1e-8, 1e8])
def test_mesh_commands_scale_with_the_mesh(half, tmp_path):
    """Quadrilateral faces need a normal and a planarity test scaled by the
    diameter, and parity rays a distance scaled the same way."""
    off = tmp_path / "cube.off"
    off.write_text(dump_off(cube_mesh(half)))
    for argv in (["tripodal", "--grid", "32x32"], ["tripodal-oracle"],
                 ["four-on-edges"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--off", str(off), "--json", str(out)]).exit_code == 0, argv
        assert run(["check", "--json", str(out), "--off", str(off)]).exit_code == 0, argv


def test_unused_off_vertex_is_input_error(tmp_path, capsys):
    lines = dump_off(cube_mesh()).splitlines()
    lines[1] = "9 6 0"
    lines.insert(10, "5.0 5.0 5.0")
    off = tmp_path / "extra.off"
    off.write_text("\n".join(lines) + "\n")
    for argv in (["tripodal", "--grid", "16x16"], ["four-on-edges"]):
        assert run(argv + ["--off", str(off)]).exit_code == 2, argv
        err = capsys.readouterr().err
        assert "vertex 8 is used by no face" in err and "Traceback" not in err


@pytest.mark.parametrize("faces, cause", [
    (lambda f: f[:-1], "missing"),                      # one face short: open
    (lambda f: f[:-1] + ["4 0 1 1 3"], "bad face loop [0, 1, 1, 3]"),
], ids=["open", "repeated-index"])
def test_broken_off_faces_are_input_errors(faces, cause, tmp_path, capsys):
    lines = dump_off(cube_mesh()).splitlines()
    loops = faces(lines[10:])
    lines[1] = f"8 {len(loops)} 0"
    off = tmp_path / "broken.off"
    off.write_text("\n".join(lines[:10] + loops) + "\n")
    for argv in (["tripodal", "--grid", "16x16"], ["four-on-edges"]):
        assert run(argv + ["--off", str(off)]).exit_code == 2, argv
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err


def test_failed_ray_casting_is_no_result(tmp_path):
    """A star mesh scaled by 2^300: parity ray casting finds no clean ray,
    which is no certificate to fail, so both commands exit 1, not 3."""
    mesh = star_mesh(np.random.default_rng(3), 2)
    off = tmp_path / "huge.off"
    off.write_text(dump_off(SimpleNamespace(vertices=mesh.vertices * 2.0 ** 300,
                                            faces=mesh.faces)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (["tripodal"], ["four-on-edges"]):
        proc = subprocess.run([sys.executable, "-m", "poise.cli"] + argv + ["--off", str(off)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr and "ray casting" in proc.stderr


@pytest.mark.parametrize("argv", [["halving"], ["pow2", "--k", "2"]])
def test_failed_halving_walk_is_no_result(cube_h, monkeypatch, capsys, argv):
    """A halving walk that breaks down leaves no certificate to fail, so
    halving and pow2 exit 1 with one "no result" line, not 3."""
    def broken(H):
        raise WalkFailedError("halving walk exceeded its pivot bound")

    monkeypatch.setattr(poise.skeleton_balance, "halving_point", broken)
    assert run(argv + ["--hrep", cube_h]).exit_code == 1
    assert capsys.readouterr().err == ("poise: no result: "
                                       "halving walk exceeded its pivot bound\n")


def test_compose_with_three_points_on_a_2_face(tmp_path):
    """compose on prop9_fixture(3) x 3-cube puts three points on a 2-face
    (test_compose_reaches_the_2_face_case counts it); check accepts them."""
    hrep = tmp_path / "p3c3.hrep"
    hrep.write_text(dump_hrep_text(product(poise.skeleton_balance.prop9_fixture(3),
                                           cube_hrep(3))))
    out = tmp_path / "k.json"
    assert run(["compose", "--hrep", str(hrep), "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0


def test_prop9_commands(tmp_path):
    hout = tmp_path / "p9.hrep"
    jout = tmp_path / "p9.json"
    assert run(["prop9-fixture", "--dim", "4", "--out", str(hout),
                "--json", str(jout)]).exit_code == 0
    assert run(["check", "--json", str(jout), "--hrep", str(hout)]).exit_code == 0
    assert run(["prop9-check", "--hrep", str(hout), "--k", "1",
                "--json", str(tmp_path / "k1.json")]).exit_code == 0
    assert run(["prop9-check", "--hrep", str(hout), "--k", "2",
                "--json", str(tmp_path / "k2.json")]).exit_code == 1


def test_byte_determinism(cube_h, square, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        j1 = tmp_path / f"h_{tag}.json"
        run(["halving", "--hrep", cube_h, "--json", str(j1)])
        j2 = tmp_path / f"b_{tag}.json"
        run(["balance2d", "--polygon", square, "--weights", "2 1 1",
             "--json", str(j2)])
        pairs.append((j1.read_bytes(), j2.read_bytes()))
    assert pairs[0] == pairs[1]


def test_exit_codes_for_bad_input(square, tmp_path):
    assert run(["balance2d", "--polygon", str(tmp_path / "missing.txt"),
                "--weights", "1 1"]).exit_code == 2
    assert run(["balance2d", "--polygon", square,
                "--weights", "nope"]).exit_code == 2
    assert run(["balance2d", "--polygon", square,
                "--weights", "9 1 1"]).exit_code == 1  # infeasible
    for cmd in ("balance2d", "balance2d-fast"):  # infeasible by a rounding tie
        assert run([cmd, "--polygon", square,
                    "--weights", "0.1 0.2 0.30000000000000004"]).exit_code == 1
    assert run(["tripodal", "--off", square, "--grid", "8x8"]).exit_code == 2
    assert run(["no-such-command"]).exit_code == 2
    assert run([]).exit_code == 2


def test_compose_dimension_rejection(tmp_path):
    H = product(cube_hrep(4), cube_hrep(5))
    p = tmp_path / "d9.hrep"
    p.write_text(dump_hrep_text(H))
    assert run(["compose", "--hrep", str(p)]).exit_code == 2


def _genuine_solves(d):
    """Write the test geometry into d; kind -> (solve argv, check geometry)
    for one solve of each certificate kind."""
    (d / "square.txt").write_text(SQUARE_TEXT)
    (d / "cube.hrep").write_text(dump_hrep_text(cube_hrep(3)))
    (d / "octa.off").write_text(dump_off(octa_mesh()))
    poly = ["--polygon", str(d / "square.txt")]
    hrep = ["--hrep", str(d / "cube.hrep")]
    off = ["--off", str(d / "octa.off")]
    p9 = ["--hrep", str(d / "p9.hrep")]
    return {
        "balance2d": (["balance2d", "--weights", "2 1 1"] + poly, poly),
        "antipodal": (["antipodal"] + poly, poly),
        "reduce-partition": (["reduce-partition", "--partition", "2 3 7"], []),
        "solve-partition": (["solve-partition", "--weights", "5 4 3 2 1"], []),
        "gadget-decide": (["gadget-decide", "--partition", "1 2 3"], []),
        "tripodal": (["tripodal", "--grid", "16x16"] + off, off),
        "four-on-edges": (["four-on-edges"] + off, off),
        "three-on-edges": (["three-on-edges"] + hrep, hrep),
        "pow2": (["pow2", "--k", "2"] + hrep, hrep),
        "compose": (["compose"] + hrep, hrep),
        "halving": (["halving"] + hrep, hrep),
        "prop9-fixture": (["prop9-fixture", "--dim", "4", "--out", p9[1]], p9),
        "prop9-check": (["prop9-check", "--k", "1"] + p9, p9),
    }


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """One genuine certificate per kind: kind -> (payload, check geometry)."""
    d = tmp_path_factory.mktemp("genuine")
    out = {}
    for kind, (argv, geometry) in _genuine_solves(d).items():
        path = d / f"{kind}.json"
        assert run(argv + ["--json", str(path)]).exit_code == 0, kind
        out[kind] = (json.loads(path.read_text()), geometry)
    return out


def test_solve_exit_code_is_the_check_verdict(tmp_path):
    """Every solving command, the diamond's balance2d included, exits 0
    exactly when its certificate says passed and exactly when check of that
    certificate exits 0: the solve and check make one verifier call."""
    solves = _genuine_solves(tmp_path)
    (tmp_path / "diamond.txt").write_text(DIAMOND_TEXT)
    poly, off, hrep = (solves["balance2d"][1], solves["tripodal"][1],
                       solves["halving"][1])
    diamond = ["--polygon", str(tmp_path / "diamond.txt")]
    solves.update({
        "balance2d-diamond": (["balance2d", "--weights", "3 2 2"] + diamond,
                              diamond),
        "balance2d-fast": (["balance2d-fast", "--weights", "5 3 2 1"] + poly, poly),
        "tripodal-oracle": (["tripodal-oracle"] + off, off),
    })
    for kind, (argv, geometry) in solves.items():
        path = tmp_path / f"{kind}.json"
        code = run(argv + ["--json", str(path)]).exit_code
        passed = json.loads(path.read_text())["certificate"]["passed"]
        verdict = run(["check", "--json", str(path)] + geometry).exit_code
        assert (code == 0) == passed == (verdict == 0), (kind, code, verdict)


def _far(key, *eps_keys):
    """Move the first point of `key` 1e6 away and raise the named tolerances."""
    def edit(payload):
        pts = payload[key]
        (pts[0] if isinstance(pts[0], list) else pts)[0] += 1e6
        for k in eps_keys:
            *parents, leaf = k.split("/")
            holder = payload
            for name in parents:
                holder = holder[name]
            holder[leaf] = 1e12
    return edit


def _zero_witness(payload):
    """Zero weights balance anything; park every witness point on a corner."""
    wit = payload["witness"]
    wit["weights"] = [0] * len(wit["weights"])
    wit["points"] = [[2.0, 2.0]] * len(wit["points"])


def _nudge(payload):
    payload["points"][0][0] += 0.2


EPS = ("certificate/eps_geom", "certificate/eps_bal")
TAMPERED = [
    ("balance2d-nudged", "balance2d", _nudge, 3),
    ("balance2d-far", "balance2d", _far("points", *EPS), 3),
    ("antipodal-far", "antipodal", _far("points", EPS[0]), 3),
    ("tripodal-far", "tripodal", _far("points", "eps_geom", "eps_bal"), 3),
    ("four-on-edges-far", "four-on-edges", _far("points", *EPS), 3),
    ("three-on-edges-far", "three-on-edges", _far("points", *EPS), 3),
    ("pow2-far", "pow2", _far("points", *EPS), 3),
    ("halving-far", "halving", _far("x", EPS[0]), 3),
    ("halving-facet-point", "halving", lambda p: p.update(x=[1.0, 0.2, 0.3]), 3),
    ("solve-partition-empty-groups", "solve-partition",
     lambda p: p.update(groups=[[], [], []]), 3),
    ("gadget-zeroed-witness", "gadget-decide", _zero_witness, 3),
    ("gadget-flipped-decision", "gadget-decide",
     lambda p: p.update(balanceable=False), 3),
    ("reduce-partition-weights", "reduce-partition",
     lambda p: p["weights"].append(1), 3),
    ("prop9-fixture-offsets", "prop9-fixture",
     lambda p: p["b"].__setitem__(0, 7.0), 3),
    ("prop9-check-flipped", "prop9-check", lambda p: p.update(empty=False), 3),
    ("missing-points", "balance2d", lambda p: p.pop("points"), 2),
    ("points-not-a-list", "balance2d", lambda p: p.update(points=7), 2),
    ("points-wrong-shape", "tripodal", lambda p: p.update(points=[[0.0, 0.0, 0.0]]), 2),
    ("group-index-out-of-range", "solve-partition",
     lambda p: p["groups"][0].append(99), 2),
    ("unknown-command", "pow2", lambda p: p.update(command="pow3"), 2),
    ("pow2-k-above-limit", "pow2", lambda p: p.update(k=17), 2),
    # pow2, compose and four-on-edges balance about the origin: check reads
    # their written target, which must be 3 numbers and the origin
    ("pow2-target-moved", "pow2", lambda p: p.update(target=[5, 5, 5]), 3),
    ("compose-target-moved", "compose", lambda p: p.update(target=[5, 5, 5]), 3),
    ("four-on-edges-target-moved", "four-on-edges",
     lambda p: p.update(target=[5, 5, 5]), 3),
    ("pow2-target-not-numeric", "pow2", lambda p: p.update(target="x"), 2),
    ("compose-target-not-numeric", "compose", lambda p: p.update(target="x"), 2),
    ("four-on-edges-target-not-numeric", "four-on-edges",
     lambda p: p.update(target="x"), 2),
    ("four-on-edges-target-too-short", "four-on-edges",
     lambda p: p.update(target=[0, 0]), 2),
    ("three-on-edges-target-not-numeric", "three-on-edges",
     lambda p: p.update(target="x"), 2),
    # hosts are derived data: check never reads them, so a bad index is harmless
    ("four-on-edges-hosts-ignored", "four-on-edges",
     lambda p: p["hosts"][0].update(members=[999, 1000]), 0),
]


@pytest.mark.parametrize("kind,edit,code", [t[1:] for t in TAMPERED],
                         ids=[t[0] for t in TAMPERED])
def test_check_detects_tampering(genuine, tmp_path, capsys, kind, edit, code):
    payload, geometry = genuine[kind]
    out = tmp_path / "c.json"
    out.write_text(json.dumps(payload))
    assert run(["check", "--json", str(out)] + geometry).exit_code == 0
    payload = json.loads(json.dumps(payload))
    edit(payload)
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["check", "--json", str(out)] + geometry).exit_code == code
    if code == 3:
        assert "check failed" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pow2", "compose", "four-on-edges"])
def test_check_names_a_moved_target(genuine, tmp_path, capsys, kind):
    """A target off the origin fails check by name, whatever the points."""
    payload, geometry = genuine[kind]
    payload = dict(payload, target=[0.0, 0.0, 1e-300])
    out = tmp_path / "c.json"
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["check", "--json", str(out)] + geometry).exit_code == 3
    err = capsys.readouterr().err
    assert f"poise: check failed: {kind}: target = [0.0, 0.0, 1e-300]" in err, err


def _slide_pow2(payload, step):
    """Slide the cube's vertex (-1, -1, 1) and its mirror in opposite
    directions along their facets x = -1 and x = 1: off their edges, with
    the sum kept."""
    pts = payload["points"]
    assert pts[0] == [-1.0, -1.0, 1.0] and pts[2] == [1.0, 1.0, -1.0]
    pts[0] = (np.array(pts[0]) + step).tolist()
    pts[2] = (np.array(pts[2]) - step).tolist()


def _slide_halving(payload, step):
    """Slide x = (-1, -1, 1) along its facet x = -1, off its vertex and
    edges; -x slides along the facet x = 1."""
    assert payload["x"] == [-1.0, -1.0, 1.0]
    payload["x"] = (np.array(payload["x"]) + step).tolist()


@pytest.mark.parametrize("kind,edit,quantity", [
    ("pow2", _slide_pow2, "max_host_dim"),
    ("halving", _slide_halving, "face_P_dim"),
], ids=["pow2-point-off-its-edge", "halving-x-off-its-face"])
def test_check_applies_the_rank_rule(genuine, tmp_path, capsys, kind, edit,
                                     quantity):
    """A point moved 10 eps_geom along a facet of the 3-cube stays on H, but
    the rows within eps_geom of it have rank 1: check exits 3, and the face
    dimension is the one quantity that fails."""
    payload, geometry = genuine[kind]
    payload = json.loads(json.dumps(payload))
    edit(payload, 10 * payload["certificate"]["eps_geom"] * np.array([0.0, 1.0, -1.0]))
    out = tmp_path / "c.json"
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["check", "--json", str(out)] + geometry).exit_code == 3
    failed = [ln for ln in capsys.readouterr().err.splitlines() if "check failed" in ln]
    assert len(failed) == 1 and quantity in failed[0], failed


def test_check_prop9_fixture_needs_the_fixture(cube_h, tmp_path):
    H = cube_hrep(3)
    out = tmp_path / "f.json"
    out.write_text(json.dumps({"schema": 1, "command": "prop9-fixture", "dim": 3,
                               "m": H.m, "A": H.A.tolist(), "b": H.b.tolist()}))
    assert run(["check", "--json", str(out), "--hrep", cube_h]).exit_code == 3


def test_four_on_edges_origin_outside_is_input_error(tmp_path):
    mesh = star_mesh(np.random.default_rng(3))
    off = tmp_path / "shifted.off"
    off.write_text(dump_off(validate_polyhedron(mesh.vertices + (1.5, 0.0, 0.0),
                                                mesh.faces)))
    assert run(["four-on-edges", "--off", str(off)]).exit_code == 2
    assert run(["tripodal", "--off", str(off), "--grid", "8x8"]).exit_code == 2


def test_obj_edges_are_cube_edges(cube_h, tmp_path):
    obj = tmp_path / "e.obj"
    assert run(["three-on-edges", "--hrep", cube_h, "--obj", str(obj),
                "--json", str(tmp_path / "e.json")]).exit_code == 0
    corners = [(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0)
               for z in (-1.0, 1.0)]
    want = {frozenset((p, q)) for p in corners for q in corners
            if sum(a != b for a, b in zip(p, q)) == 1}
    got, edge = set(), None
    for line in obj.read_text().splitlines():
        if line.startswith("o "):
            edge = [] if line.startswith("o edge") else None
        elif line.startswith("v ") and edge is not None:
            edge.append(tuple(float(x) for x in line.split()[1:]))
        elif line.startswith("l ") and edge is not None:
            got.add(frozenset(edge))
    assert got == want and len(got) == 12


def _count_linprog(monkeypatch):
    """Log every linprog call of polytoped and skeleton_balance: whether it
    is a Chebyshev LP (max r over A x + |a| r <= b, r >= 0)."""
    lps = []
    for mod in (poise.polytoped, poise.skeleton_balance):
        def counted(c, real=mod.linprog, **kw):
            lps.append(c[-1] == -1.0 and "A_ub" in kw and "A_eq" not in kw)
            return real(c, **kw)
        monkeypatch.setattr(mod, "linprog", counted)
    return lps


def test_one_enumeration_and_no_lp_per_polytope(cube_h, tmp_path, monkeypatch):
    """Of halving and three-on-edges on the cube, and check of each result,
    only the three-on-edges solve enumerates the cube's vertices, once: its
    answer is edges. The others decide faces from rows. Qhull starts from
    the origin, so none of them solves an LP."""
    enumerated = []
    real_enum = poise.polytoped.enumerate_vertices
    monkeypatch.setattr(poise.polytoped, "enumerate_vertices",
                        lambda H: enumerated.append(H) or real_enum(H))
    lps = _count_linprog(monkeypatch)
    cert = str(tmp_path / "c.json")
    for cmd, solved in (("halving", 0), ("three-on-edges", 1)):
        for argv, count in (([cmd, "--hrep", cube_h, "--json", cert], solved),
                            (["check", "--json", cert, "--hrep", cube_h], 0)):
            enumerated.clear()
            assert run(argv).exit_code == 0, argv
            assert len(enumerated) == count, argv
    assert lps == []


def test_no_lp_where_qhull_starts_from_the_origin(tmp_path, monkeypatch):
    """Loading an H-rep file whose offsets are all positive solves no LP
    (the origin witnesses its interior), and pow2 and compose on a
    6-dimensional product solve none either. pow2 enumerates no vertex,
    since it halves 2-faces as it halves every other face; compose still
    enumerates the vertices of charts of _place (three-on-edges on 3-faces),
    and Qhull starts from each chart's origin. The cone test solves none;
    an empty polytope still needs its LP."""
    rng = np.random.default_rng(61)
    path = tmp_path / "p6.hrep"
    path.write_text(dump_hrep_text(product(random_hull_hrep(rng, 3),
                                           random_hull_hrep(rng, 3))))
    enumerated = []
    real_enum = poise.polytoped.enumerate_vertices
    monkeypatch.setattr(poise.polytoped, "enumerate_vertices",
                        lambda H: enumerated.append(H.d) or real_enum(H))
    lps = _count_linprog(monkeypatch)
    assert (load_hrep(path).b > 0).all()
    for argv, enumerates in ((["pow2", "--k", "3"], False), (["compose"], True)):
        enumerated.clear()
        assert run(argv + ["--hrep", str(path)]).exit_code == 0, argv
        assert bool(enumerated) == enumerates, argv
    assert lps == []
    with pytest.raises(UnboundedError):
        hpolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0])
    assert lps == []
    with pytest.raises(EmptyInteriorError):
        hpolytope([[1.0], [-1.0]], [-1.0, -1.0])
    assert lps == [True]


def test_root_chart_is_the_loaded_polytope(cube_h, tmp_path, monkeypatch):
    """pow2 on the 3-cube and compose on a 6-dimensional product, and check
    of each result, never enumerate the vertices of H's own rows, nor solve
    its Chebyshev LP, since b > 0 and its vertices are never read: the root
    chart is H itself, not a copy built again."""
    rng = np.random.default_rng(61)
    prod = tmp_path / "p6.hrep"
    prod.write_text(dump_hrep_text(product(random_hull_hrep(rng, 3),
                                           random_hull_hrep(rng, 3))))
    calls = []
    for name in ("enumerate_vertices", "chebyshev_center"):
        def wrapper(H, *args, name=name, real=getattr(poise.polytoped, name)):
            calls.append((name, H.A.tobytes(), H.b.tobytes()))
            return real(H, *args)
        monkeypatch.setattr(poise.polytoped, name, wrapper)
    cert = str(tmp_path / "c.json")
    for argv, path in ((["pow2", "--k", "2"], cube_h), (["compose"], str(prod))):
        H = load_hrep(path)
        for run_argv in (argv + ["--hrep", path, "--json", cert],
                         ["check", "--json", cert, "--hrep", path]):
            calls.clear()
            assert run(run_argv).exit_code == 0, run_argv
            own = [name for name, A, b in calls
                   if (A, b) == (H.A.tobytes(), H.b.tobytes())]
            assert own == [], run_argv


def test_check_of_skeleton_certificates_solves_no_lp(cube_h, tmp_path,
                                                      monkeypatch):
    """check of halving, pow2, compose and three-on-edges certificates on the
    3-cube and on a 6-dimensional product reads only rows and points: it
    loads a b > 0 polytope without an LP and enumerates no vertices, so
    neither polytoped nor skeleton_balance calls linprog."""
    rng = np.random.default_rng(61)
    prod = tmp_path / "p6.hrep"
    prod.write_text(dump_hrep_text(product(random_hull_hrep(rng, 3),
                                           random_hull_hrep(rng, 3))))
    cases = [(argv, cube_h) for argv in (["halving"], ["pow2", "--k", "2"],
                                         ["compose"], ["three-on-edges"])]
    cases += [(argv, str(prod)) for argv in (["halving"], ["pow2", "--k", "3"],
                                             ["compose"])]
    lps = []
    for mod in (poise.polytoped, poise.skeleton_balance):
        monkeypatch.setattr(mod, "linprog", lambda *a, real=mod.linprog, **kw:
                            lps.append(a) or real(*a, **kw))
    for i, (argv, path) in enumerate(cases):
        cert = str(tmp_path / f"c{i}.json")
        assert run(argv + ["--hrep", path, "--json", cert]).exit_code == 0, argv
        lps.clear()
        assert run(["check", "--json", cert, "--hrep", path]).exit_code == 0, argv
        assert lps == [], argv


def _fail_halving(real, H, x):
    return dataclasses.replace(real(H, x), violation=1.0)


def _fail_sum(real, H, pts, target):
    return real(H, pts, np.asarray(target) + 1.0)      # a target moved by 1


@pytest.mark.parametrize("argv,verifier,fail,field", [
    (["halving"], "verify_halving", _fail_halving, "violation"),
    (["three-on-edges"], "verify_skeleton", _fail_sum, "sum_residual"),
])
def test_failed_own_certificate_names_the_quantity(argv, verifier, fail, field,
                                                   cube_h, tmp_path, capsys,
                                                   monkeypatch):
    """A solver whose own certificate fails exits 3 and prints one stderr
    line per quantity over its bound, in check's format; the JSON is the
    certificate as computed, with passed false."""
    certs = []
    module = poise.skeleton if verifier == "verify_skeleton" else poise.skeleton_balance
    real = getattr(module, verifier)
    monkeypatch.setattr(module, verifier,
                        lambda *a: certs.append(fail(real, *a)) or certs[-1])
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run(argv + ["--hrep", cube_h, "--json", str(out)]).exit_code == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" = ")[0] for line in certs[0].failures()] == [field]
    assert err == [f"poise: verification failure: {argv[0]}: {line}"
                   for line in certs[0].failures()]
    assert json.loads(out.read_text())["certificate"]["passed"] is False


# A product of two random 3-hulls whose rows within 1e-7 diam of some compose
# points have rank 6, so those rows alone put the points on a vertex 1e-3 away
COMPOSE_NEAR_DEGENERATE = (
    "20 6\n"
    "-0.743329020919235 -0.6508954005035482 -0.15426323042960383 0.0 0.0 0.0 0.38482603788950215\n"
    "0.18275084310577547 -0.9264423531389072 0.32909982627551226 0.0 0.0 0.0 0.3848260378895021\n"
    "0.5800873164930658 0.5547435102098458 -0.5964548123067936 0.0 0.0 0.0 0.45842989367909703\n"
    "-0.4039689086325647 0.5227743354917613 0.7506771043593656 0.0 0.0 0.0 0.4774465116819727\n"
    "-0.10759640264192072 0.5692284013031657 0.8151086070508394 0.0 0.0 0.0 0.3848470328326889\n"
    "-0.44614750662941927 0.4090186082304722 -0.7960252385757375 0.0 0.0 0.0 0.41935621925699473\n"
    "-0.046644499847522905 0.6247688506302406 -0.7794152769327417 0.0 0.0 0.0 0.384826037889502\n"
    "0.18302630616946677 -0.9261715097830155 0.3297085162931192 0.0 0.0 0.0 0.3850130649369343\n"
    "0.6707113515031279 0.5595249275970672 0.4869067039611843 0.0 0.0 0.0 0.5110045827370893\n"
    "-0.10722236768899483 0.5690875892852288 0.8152562048759229 0.0 0.0 0.0 0.384826037889502\n"
    "0.0 0.0 0.0 0.8272133499633704 -0.4815351947865091 0.28955470955295676 0.3815433093916064\n"
    "0.0 0.0 0.0 -0.9458100528070951 0.11822291237421555 0.3024345995397992 0.2978460630673592\n"
    "0.0 0.0 0.0 0.9557712185067105 -0.24135380564169132 0.16807652535815548 0.2978460630673594\n"
    "0.0 0.0 0.0 0.8407118158211176 -0.46007301070845896 0.28554591146856484 0.36805650931010186\n"
    "0.0 0.0 0.0 -0.3964695930763513 0.7723803985419682 0.4962261396924015 0.3378271468579912\n"
    "0.0 0.0 0.0 -0.6647249229389147 0.510789837798789 0.545192184853507 0.3259290022101577\n"
    "0.0 0.0 0.0 0.833723912107831 0.326614902748948 -0.44522706979911836 0.30769357584057055\n"
    "0.0 0.0 0.0 0.129467857071107 0.8939788749492958 -0.42899865399533205 0.2978460630673594\n"
    "0.0 0.0 0.0 -0.8509886010349693 -0.2947976873048914 -0.4346409143974291 0.49123507813541195\n"
    "0.0 0.0 0.0 -0.9707148281314852 -0.036292655680680526 -0.23747750543852475 0.2978460630673592\n")


def test_compose_passes_its_own_check_on_a_near_degenerate_product(tmp_path):
    """compose's points lie within 6e-14 of their host edges at the
    solver's tolerance; the checker measures a point again there when its
    eps_geom rows miss, so the solve and check both exit 0."""
    hrep = tmp_path / "p.hrep"
    hrep.write_text(COMPOSE_NEAR_DEGENERATE)
    out = tmp_path / "c.json"
    assert run(["compose", "--hrep", str(hrep), "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0


@pytest.mark.parametrize("argv,d", [(["halving"], 9), (["pow2", "--k", "4"], 9),
                                    (["compose"], 8)])
def test_cross_polytopes_solve_and_check_from_rows(tmp_path, monkeypatch, argv, d):
    """halving and pow2 --k 4 on the 9-cross-polytope (512 rows; enumerating
    its 18 vertices takes most of a minute), compose on the 8-cross-polytope,
    and check of each: no run enumerates the vertices of a d-polytope. pow2
    and compose (8 = 2^3 points) halve every face and read no vertex."""
    hrep = tmp_path / "cross.hrep"
    hrep.write_text(dump_hrep_text(cross_hrep(d)))
    real = poise.polytoped.enumerate_vertices

    def enumerate_low(H):
        assert H.d < d, "enumerated the vertices of H"
        return real(H)

    monkeypatch.setattr(poise.polytoped, "enumerate_vertices", enumerate_low)
    out = tmp_path / "c.json"
    assert run(argv + ["--hrep", str(hrep), "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0


def test_halving_solves_a_long_thin_polytope(tmp_path):
    """x <= 1, |y| <= 1 and -1e-10 x + y <= 1 is bounded, of length 2e10:
    halving solves it and check accepts the answer. The half-strip without
    the last row is unbounded, an input error."""
    hrep = tmp_path / "long.hrep"
    hrep.write_text("4 2\n1 0 1\n0 1 1\n0 -1 1\n-1e-10 1 1\n")
    out = tmp_path / "h.json"
    assert run(["halving", "--hrep", str(hrep), "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--hrep", str(hrep)]).exit_code == 0
    hrep.write_text("3 2\n1 0 1\n0 1 1\n0 -1 1\n")
    assert run(["halving", "--hrep", str(hrep)]).exit_code == 2


def test_console_entry_point(square, tmp_path):
    out = tmp_path / "c.json"
    proc = subprocess.run(
        [sys.executable, "-m", "poise.cli", "balance2d", "--polygon", square,
         "--weights", "3 2 2", "--json", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["certificate"]["passed"]


def test_stdout_when_no_json_path(square, capsys):
    res = run(["balance2d", "--polygon", square, "--weights", "1 1"])
    assert res.exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1


def test_cached_parser_keeps_no_state_between_runs(square, tmp_path, monkeypatch):
    from poise import cli
    seen = []
    handler = cli._cmd_balance2d

    def spy(args):
        seen.append((args.cmd, args.trace))
        return handler(args)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "_cmd_balance2d", spy)
    try:
        out = str(tmp_path / "c.json")
        solve = ["--polygon", square, "--weights", "3 2 2", "--json", out]
        assert run(["balance2d", "--trace"] + solve).exit_code == 0
        assert run(["balance2d"] + solve).exit_code == 0
        assert run(["balance2d-fast"] + solve).exit_code == 0
        assert run(["balance2d", "--no-such-flag"] + solve).exit_code == 2
        assert run(["balance2d"] + solve).exit_code == 0
        assert cli.build_parser.cache_info().misses == 1
    finally:
        cli.build_parser.cache_clear()    # later tests get the real handler
    assert seen == [("balance2d", True), ("balance2d", False),
                    ("balance2d-fast", False), ("balance2d", False)]


def test_zero_dimensional_hrep_is_input_error(tmp_path):
    p = tmp_path / "d0.hrep"
    p.write_text("2 0\n1\n1\n")
    for argv in (["pow2", "--k", "1"], ["halving"], ["compose"]):
        assert run(argv + ["--hrep", str(p)]).exit_code == 2, argv[0]


HREP_COMMANDS = (["halving"], ["pow2", "--k", "2"], ["compose"],
                 ["three-on-edges"], ["prop9-check", "--k", "1"])
CUBE_ROWS = dump_hrep_text(cube_hrep(3)).splitlines()[1:]
BAD_HREPS = {
    "wedge": ("3 2\n1 0 1\n0 1 1\n1 1 1\n", "unbounded"),
    "strip": ("4 3\n1 0 0 1\n-1 0 0 1\n0 1 0 1\n0 -1 0 1\n", "unbounded"),
    "empty": ("4 2\n1 0 1\n-1 0 -2\n0 1 1\n0 -1 1\n", "infeasible"),
    "flat": ("4 2\n1 0 1\n-1 0 -1\n0 1 1\n0 -1 1\n", "full-dimensional"),
    "cube-with-infeasible-zero-row":
        ("\n".join(["7 3"] + CUBE_ROWS + ["0 0 0 -1"]) + "\n", "infeasible"),
}


@pytest.mark.parametrize("name", list(BAD_HREPS))
def test_bad_hrep_files_exit_2_and_name_the_cause(name, cube_h, tmp_path, capsys):
    text, cause = BAD_HREPS[name]
    path = tmp_path / f"{name}.hrep"
    path.write_text(text)
    cert = tmp_path / "h.json"
    assert run(["halving", "--hrep", cube_h, "--json", str(cert)]).exit_code == 0
    capsys.readouterr()
    for argv in HREP_COMMANDS + (["check", "--json", str(cert)],):
        assert run(argv + ["--hrep", str(path)]).exit_code == 2, argv[0]
        assert cause in capsys.readouterr().err, argv[0]


# a zero-normal row is never tight and never violated, whatever its offset;
# NumPy warnings are errors here, so no residual may divide by its zero norm
@pytest.mark.filterwarnings("error")
def test_vacuous_zero_row_changes_no_byte(cube_h, tmp_path):
    for row in ("0 0 0 1", "0 0 0 0"):
        vac = tmp_path / "vac.hrep"
        vac.write_text("\n".join(["7 3"] + CUBE_ROWS + [row]) + "\n")
        for argv in HREP_COMMANDS:
            outs = []
            for i, geom in enumerate((cube_h, str(vac))):
                out = tmp_path / f"{argv[0]}-{i}.json"
                code = run(argv + ["--hrep", geom, "--json", str(out)]).exit_code
                outs.append((code, out.read_bytes()))
            assert outs[0] == outs[1], (row, argv[0])
            check = run(["check", "--json", str(out), "--hrep", str(vac)])
            assert check.exit_code == 0, (row, argv[0])


def test_seed_option_is_rejected(cube_h):
    for argv in (["halving"], ["pow2", "--k", "2"], ["compose"]):
        assert run(argv + ["--hrep", cube_h, "--seed", "1"]).exit_code == 2, argv[0]


DIAMOND_TEXT = "1 0\n0 1\n-1 0\n0 -1\n"


def test_tolerance_options_are_rejected(square, cube_off, cube_h, tmp_path, capsys):
    """No solve takes a tolerance or a sweep size: each claim has one
    tolerance rule, the one check applies. With --eps-geom 1e9 --eps-bal 1e9
    the diamond's balance2d once exited 0 on points 0.707 off balance."""
    diamond = tmp_path / "diamond.txt"
    diamond.write_text(DIAMOND_TEXT)
    solves = (["balance2d", "--polygon", square, "--weights", "3 2 2"],
              ["balance2d", "--polygon", str(diamond), "--weights", "3 2 2"],
              ["balance2d-fast", "--polygon", square, "--weights", "3 2 2"],
              ["antipodal", "--polygon", square],
              ["tripodal", "--off", cube_off, "--grid", "16x16"],
              ["tripodal-oracle", "--off", cube_off],
              ["four-on-edges", "--off", cube_off],
              ["three-on-edges", "--hrep", cube_h],
              ["halving", "--hrep", cube_h],
              ["pow2", "--hrep", cube_h, "--k", "2"],
              ["compose", "--hrep", cube_h])
    for argv in solves:
        for option in (["--eps-geom", "1e9"], ["--eps-bal", "1e9"],
                       ["--eps-geom", "1e9", "--eps-bal", "1e9"]):
            assert run(argv + option).exit_code == 2, (argv[0], option)
            assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["tripodal-oracle", "--off", cube_off, "--samples", "8"]).exit_code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pow2_k_above_limit_is_input_error(cube_h, capsys):
    from poise.skeleton_balance import POW2_MAX_K
    for k in (POW2_MAX_K + 1, 30):
        assert run(["pow2", "--hrep", cube_h, "--k", str(k)]).exit_code == 2
        assert "limit" in capsys.readouterr().err


def test_planar_and_mesh_commands_load_no_scipy(tmp_path):
    """In a fresh interpreter, every planar and mesh command and check of its
    certificate leave SciPy, polytoped and skeleton_balance unloaded."""
    solves = _genuine_solves(tmp_path)
    poly, off = solves["balance2d"][1], solves["tripodal"][1]
    solves.update({
        "balance2d-fast": (["balance2d-fast", "--weights", "5 3 2 1"] + poly, poly),
        "tripodal-oracle": (["tripodal-oracle"] + off, off),
    })
    runs = []
    for kind in ("balance2d", "balance2d-fast", "antipodal", "gadget-decide",
                 "solve-partition", "reduce-partition", "tripodal",
                 "tripodal-oracle", "four-on-edges"):
        argv, geometry = solves[kind]
        out = str(tmp_path / f"{kind}.json")
        runs += [argv + ["--json", out], ["check", "--json", out] + geometry]
    script = (
        "import sys\n"
        "from poise.cli import run\n"
        f"for argv in {runs!r}:\n"
        "    assert run(argv).exit_code == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m in ('poise.polytoped', 'poise.skeleton_balance')))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_halving_and_hrep_checks_load_no_scipy(tmp_path):
    """In a fresh interpreter, halving on the 3-cube and on a seeded 4-hull,
    and check of halving, pow2, compose and three-on-edges certificates
    made beforehand, leave every scipy module unloaded. Reading
    polytoped.linprog afterwards imports SciPy's linprog and keeps it as
    the module's global, where skeleton_balance reads its own."""
    solves = _genuine_solves(tmp_path)
    hull = ["--hrep", str(tmp_path / "hull4.hrep")]
    (tmp_path / "hull4.hrep").write_text(
        dump_hrep_text(random_hull_hrep(np.random.default_rng(26), 4)))
    solves["hull-halving"] = (["halving"] + hull, hull)
    solves["hull-pow2"] = (["pow2", "--k", "2"] + hull, hull)
    runs = []
    for kind in ("halving", "pow2", "compose", "three-on-edges", "hull-halving",
                 "hull-pow2"):
        argv, geometry = solves[kind]
        out = str(tmp_path / f"{kind}.json")
        assert run(argv + ["--json", out]).exit_code == 0, kind
        if argv[0] == "halving":
            runs.append(argv + ["--json", str(tmp_path / f"{kind}-again.json")])
        runs.append(["check", "--json", out] + geometry)
    script = (
        "import sys\n"
        "from poise.cli import run\n"
        f"for argv in {runs!r}:\n"
        "    assert run(argv).exit_code == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from poise import polytoped, skeleton_balance\n"
        "assert 'linprog' not in vars(polytoped)\n"
        "import scipy.optimize\n"
        "assert polytoped.linprog is scipy.optimize.linprog\n"
        "assert vars(polytoped)['linprog'] is skeleton_balance.linprog\n"
        "assert not hasattr(polytoped, 'nnls')\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_skeleton_commands_on_the_cube_load_no_scipy_optimize(tmp_path):
    """In a fresh interpreter, pow2 --k 2, compose, three-on-edges and
    prop9-check --k 1 on the 3-cube, and check of each certificate, leave
    scipy.optimize unloaded: every b_i > 0 and Qhull starts from the origin,
    so no Chebyshev LP runs. Qhull itself loads scipy.spatial. The cube
    meets its reflection at a vertex, so prop9-check exits 1."""
    solves = _genuine_solves(tmp_path)
    runs = []
    for kind in ("pow2", "compose", "three-on-edges"):
        argv, geometry = solves[kind]
        out = str(tmp_path / f"{kind}.json")
        runs += [(argv + ["--json", out], 0), (["check", "--json", out] + geometry, 0)]
    hrep = solves["three-on-edges"][1]
    out = str(tmp_path / "prop9-check.json")
    runs += [(["prop9-check", "--k", "1"] + hrep + ["--json", out], 1),
             (["check", "--json", out] + hrep, 0)]
    script = (
        "import sys\n"
        "from poise.cli import run\n"
        f"for argv, code in {runs!r}:\n"
        "    assert run(argv).exit_code == code, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        "assert 'scipy.spatial' in sys.modules\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pow2_loads_no_scipy(tmp_path):
    """In a fresh interpreter, pow2 --k 2 on prop9_fixture(4) and --k 3 on a
    6-dimensional product, and check of each certificate, leave every scipy
    module unloaded: pow2 halves its 2-faces as it halves every other face,
    so it enumerates no chart's vertices and Qhull never runs."""
    rng = np.random.default_rng(61)
    inputs = {"p4.hrep": (poise.skeleton_balance.prop9_fixture(4), "2"),
              "p6.hrep": (product(random_hull_hrep(rng, 3),
                                  random_hull_hrep(rng, 3)), "3")}
    runs = []
    for name, (H, k) in inputs.items():
        hrep = ["--hrep", str(tmp_path / name)]
        (tmp_path / name).write_text(dump_hrep_text(H))
        out = str(tmp_path / (name + ".json"))
        runs += [["pow2", "--k", k, "--json", out] + hrep,
                 ["check", "--json", out] + hrep]
    script = (
        "import sys\n"
        "from poise.cli import run\n"
        f"for argv in {runs!r}:\n"
        "    assert run(argv).exit_code == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_of_huge_tripodal_coordinate_exits_3(genuine, tmp_path):
    """Overflow in the mesh queries is a failed check, not a traceback."""
    payload, geometry = genuine["tripodal"]
    payload = json.loads(json.dumps(payload))
    payload["points"][0][0] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "poise.cli", "check", "--json", str(path)]
    proc = subprocess.run(argv + geometry, capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "max_membership_error" in proc.stderr


# bad vector and size arguments: each exits 2 with one "poise:" line
BAD_ARGUMENTS = {
    "plane-too-short": (["four-on-edges", "--off", "CUBE", "--plane", "0 1"], "need 3"),
    "plane-too-long": (["four-on-edges", "--off", "CUBE", "--plane", "0 0 1 1"],
                       "need 3"),
    "plane-nan": (["four-on-edges", "--off", "CUBE", "--plane", "nan 0 1"],
                  "non-finite"),
    "plane-inf": (["four-on-edges", "--off", "CUBE", "--plane", "inf 0 1"],
                  "non-finite"),
    "edge-target-too-short": (["three-on-edges", "--hrep", "HREP", "--target", "0 0"],
                              "need 3"),
    "edge-target-nan": (["three-on-edges", "--hrep", "HREP", "--target", "nan 0 0"],
                        "non-finite"),
    "antipodal-target-too-short": (["antipodal", "--polygon", "SQUARE",
                                    "--target", "0"], "need 2"),
    "balance-target-too-long": (["balance2d", "--polygon", "SQUARE", "--weights",
                                 "1 1", "--target", "0 0 0"], "need 2"),
    "grid-above-limit": (["tripodal", "--off", "CUBE", "--grid", "4096x4096"], "2048"),
    "grid-side-above-limit": (["tripodal", "--off", "CUBE", "--grid", "64x2049"],
                              "2048"),
    # weight totals beyond the float range once died in math.fsum
    "balance-weights-overflow": (["balance2d", "--polygon", "SQUARE", "--weights",
                                  "1e308 1e308"], "overflow"),
    "fast-weights-overflow": (["balance2d-fast", "--polygon", "SQUARE",
                               "--weights", "1e308 1e308"], "overflow"),
    "partition-weights-overflow": (["solve-partition", "--weights",
                                    "1e308 1e308 1e308 1e308 1e308"], "overflow"),
}


@pytest.mark.parametrize("name", list(BAD_ARGUMENTS))
def test_bad_vector_and_size_arguments_exit_2(name, square, cube_off, cube_h, capsys):
    argv, cause = BAD_ARGUMENTS[name]
    paths = {"CUBE": cube_off, "HREP": cube_h, "SQUARE": square}
    assert run([paths.get(a, a) for a in argv]).exit_code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("poise: ") and err.count("\n") == 1 and cause in err


def test_zero_grid_side_exits_2_at_once(cube_off):
    """A zero grid side used to double forever; the timeout catches a hang."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "poise.cli", "tripodal", "--off", cube_off,
         "--grid", "0x0"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "grid" in proc.stderr
