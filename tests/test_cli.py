import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import cube_mesh, octa_mesh, star_mesh
from poise.cli import run
from poise.geom3d import dump_off, validate_polyhedron
from poise.polytoped import (cross_hrep, cube_hrep, dump_hrep_text,
                             enumerate_vertices, skeleton_graph)

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


def test_four_on_edges_round_trip(tmp_path):
    off = tmp_path / "octa.off"
    off.write_text(dump_off(octa_mesh()))
    out = tmp_path / "f.json"
    assert run(["four-on-edges", "--off", str(off), "--plane", "0 0 1",
                "--json", str(out)]).exit_code == 0
    assert run(["check", "--json", str(out), "--off", str(off)]).exit_code == 0


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


@pytest.mark.parametrize("half", [1e-8, 1e8])
def test_hrep_commands_scale_with_the_polytope(half, tmp_path):
    hrep = tmp_path / "cube.hrep"
    hrep.write_text(dump_hrep_text(cube_hrep(3, half=half)))
    for argv in (["halving"], ["pow2", "--k", "2"], ["three-on-edges"]):
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
    assert run(["tripodal", "--off", square, "--grid", "8x8"]).exit_code == 2
    assert run(["no-such-command"]).exit_code == 2
    assert run([]).exit_code == 2


def test_compose_dimension_rejection(tmp_path):
    from poise.polytoped import product
    H = product(cube_hrep(4), cube_hrep(5))
    p = tmp_path / "d9.hrep"
    p.write_text(dump_hrep_text(H))
    assert run(["compose", "--hrep", str(p)]).exit_code == 2


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """One genuine certificate per kind: kind -> (payload, check geometry)."""
    d = tmp_path_factory.mktemp("genuine")
    (d / "square.txt").write_text(SQUARE_TEXT)
    (d / "cube.hrep").write_text(dump_hrep_text(cube_hrep(3)))
    (d / "octa.off").write_text(dump_off(octa_mesh()))
    poly = ["--polygon", str(d / "square.txt")]
    hrep = ["--hrep", str(d / "cube.hrep")]
    off = ["--off", str(d / "octa.off")]
    p9 = ["--hrep", str(d / "p9.hrep")]
    solves = {
        "balance2d": (["balance2d", "--weights", "2 1 1"] + poly, poly),
        "antipodal": (["antipodal"] + poly, poly),
        "reduce-partition": (["reduce-partition", "--partition", "2 3 7"], []),
        "solve-partition": (["solve-partition", "--weights", "5 4 3 2 1"], []),
        "gadget-decide": (["gadget-decide", "--partition", "1 2 3"], []),
        "tripodal": (["tripodal", "--grid", "16x16"] + off, off),
        "four-on-edges": (["four-on-edges"] + off, off),
        "three-on-edges": (["three-on-edges"] + hrep, hrep),
        "pow2": (["pow2", "--k", "2"] + hrep, hrep),
        "halving": (["halving"] + hrep, hrep),
        "prop9-fixture": (["prop9-fixture", "--dim", "4", "--out", p9[1]], p9),
        "prop9-check": (["prop9-check", "--k", "1"] + p9, p9),
    }
    out = {}
    for kind, (argv, geometry) in solves.items():
        path = d / f"{kind}.json"
        assert run(argv + ["--json", str(path)]).exit_code == 0, kind
        out[kind] = (json.loads(path.read_text()), geometry)
    return out


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


def test_check_prop9_fixture_needs_the_fixture(cube_h, tmp_path):
    H = cube_hrep(3)
    out = tmp_path / "f.json"
    out.write_text(json.dumps({"schema": 1, "command": "prop9-fixture", "dim": 3,
                               "m": H.m, "A": H.A.tolist(), "b": H.b.tolist()}))
    assert run(["check", "--json", str(out), "--hrep", cube_h]).exit_code == 3


def test_tripodal_honours_zero_tolerances(cube_off, tmp_path):
    out = tmp_path / "t.json"
    run(["tripodal", "--off", cube_off, "--grid", "16x16", "--eps-geom", "0",
         "--eps-bal", "0", "--json", str(out)])
    payload = json.loads(out.read_text())
    assert payload["eps_geom"] == 0.0 and payload["eps_bal"] == 0.0
    assert payload["certificate"]["eps_geom"] == 0.0


def test_four_on_edges_origin_outside_is_input_error(tmp_path):
    mesh = star_mesh(np.random.default_rng(3))
    off = tmp_path / "shifted.off"
    off.write_text(dump_off(validate_polyhedron(mesh.vertices + (1.5, 0.0, 0.0),
                                                mesh.faces)))
    assert run(["four-on-edges", "--off", str(off)]).exit_code == 2
    assert run(["tripodal", "--off", str(off), "--grid", "8x8"]).exit_code == 2


def test_obj_edges_match_skeleton_graph(cube_h, tmp_path):
    obj = tmp_path / "e.obj"
    assert run(["three-on-edges", "--hrep", cube_h, "--obj", str(obj),
                "--json", str(tmp_path / "e.json")]).exit_code == 0
    H = cube_hrep(3)
    V = enumerate_vertices(H)
    want = {frozenset(map(tuple, V.vertices[list(e)]))
            for e in skeleton_graph(H, V).edges}
    got, edge = set(), None
    for line in obj.read_text().splitlines():
        if line.startswith("o "):
            edge = [] if line.startswith("o edge") else None
        elif line.startswith("v ") and edge is not None:
            edge.append(tuple(float(x) for x in line.split()[1:]))
        elif line.startswith("l ") and edge is not None:
            got.add(frozenset(edge))
    assert got == want and len(got) == 12


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


def test_pow2_k_above_limit_is_input_error(cube_h, capsys):
    from poise.skeleton_balance import POW2_MAX_K
    for k in (POW2_MAX_K + 1, 30):
        assert run(["pow2", "--hrep", cube_h, "--k", str(k)]).exit_code == 2
        assert "limit" in capsys.readouterr().err


def test_planar_commands_do_not_load_scipy(square, tmp_path):
    out = tmp_path / "c.json"
    script = (
        "import sys\n"
        "from poise.cli import run\n"
        f"solve = ['balance2d', '--polygon', {square!r}, '--weights', '3 2 2',"
        f" '--json', {str(out)!r}]\n"
        f"check = ['check', '--json', {str(out)!r}, '--polygon', {square!r}]\n"
        "assert run(solve).exit_code == 0 and run(check).exit_code == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
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
