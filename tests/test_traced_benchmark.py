"""The benchmark's traced run (`perfbench/run.py --trace 1`) against poise.

The tracer wraps poise's public functions from outside and reads fields of
their results, so a field it reads must survive changes inside poise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import dump_off, octa_mesh
from poise.polytoped import cube_hrep, dump_hrep_text

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_counts_one_halving_attempt_per_call(tmp_path):
    """Installs perfbench/spans.Tracer on the poise layers as the traced run
    does (in a child process, since it patches the modules for good), then
    runs the skeleton commands and the surface workload's four-on-edges."""
    hrep = tmp_path / "cube.hrep"
    hrep.write_text(dump_hrep_text(cube_hrep(3)))
    off = tmp_path / "octa.off"
    off.write_text(dump_off(octa_mesh()))
    out = str(tmp_path / "c.json")
    script = (
        "import importlib, json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "from spans import LAYERS, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install({layer: importlib.import_module(f'poise.{layer}')\n"
        "                for layer in LAYERS})\n"
        "from poise.cli import run\n"
        f"for argv in (['halving'], ['pow2', '--k', '2']):\n"
        f"    argv += ['--hrep', {str(hrep)!r}, '--json', {out!r}]\n"
        "    assert run(argv).exit_code == 0, argv\n"
        f"for argv in (['four-on-edges', '--json', {out!r}], ['check', '--json', {out!r}]):\n"
        f"    assert run(argv + ['--off', {str(off)!r}]).exit_code == 0, argv\n"
        "print(json.dumps(tracer.snapshot()))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode == 0, proc.stderr
    snap = json.loads(proc.stdout.splitlines()[-1])
    calls = snap["skeleton_balance.halving_point.calls"]
    assert calls >= 2     # the halving command, then pow2's recursion
    assert snap["skeleton_balance.halving_point.attempts"] == calls
    assert snap["geom3d.cross_section.calls"] == 1
