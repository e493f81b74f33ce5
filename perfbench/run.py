"""poise benchmark: one process per run, driving `poise.cli.run` in-process.

    python3 perfbench/run.py --workload planar --seed 1 --seconds 18 --trace 0

Workloads: planar, surface, skeleton (see workloads.py and README.md), or
`all` to run the three one after another. With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run. Run it from the root of a checkout: poise is
imported from ./src, never from site-packages.
"""

import os

# One BLAS/OpenMP thread, set before NumPy loads: with the library defaults
# on two cores the process burns more CPU time than wall time.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from probe import LAUNCH_REF_S, PROBE_REF_S, Probe, launch_seconds  # noqa: E402

# Percentile for solve_ms_tail: a round one that keeps at least ten samples
# beyond it at the workload's minimum number of passes (100, 74, 50 samples)
# and falls among instances of similar cost (surface: the 512-triangle
# four-on-edges calls, not the step up to the next tripodal search).
TAIL_PERCENTILE = {"planar": 90, "surface": 75, "skeleton": 80}
MIN_PASSES = {"planar": 4, "surface": 2, "skeleton": 2}
SETUP_RUNS = 3
COLD_LAUNCHES = 5
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"certs_per_s": "1/s", "solve_ms_p50": "ms", "solve_ms_tail": "ms",
                    "check_ms_p50": "ms", "cold_cli_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

PER_LAYER = (
    "cli.run.calls", "cli.run.ms",
    "cli.self_ms", "geom2d.self_ms", "balance2d.self_ms", "geom3d.self_ms",
    "tripodal.self_ms", "polytoped.self_ms", "skeleton_balance.self_ms",
    "scipy.self_ms",
    "geom2d.validate_polygon.calls", "geom2d.validate_polygon.ms",
    "geom2d.validate_polygon.edge_pairs",
    "geom2d.curve_polygon_intersections.calls",
    "geom2d.curve_polygon_intersections.ms", "geom2d.antipodal_about.ms",
    "balance2d.balance_iterative.calls", "balance2d.balance_iterative.ms",
    "balance2d.balance_iterative.rounds", "balance2d.verify_balance_points.ms",
    "geom3d.closest_points.calls", "geom3d.closest_points.ms",
    "geom3d.closest_points.point_tris", "geom3d.contains.ms",
    "geom3d.contains.point_tris", "geom3d.validate_polyhedron.ms",
    "geom3d.cross_section.ms",
    "tripodal.tripodal_search.ms", "tripodal.tripodal_by_face_triples.ms",
    "tripodal.verify_tripodal.calls", "tripodal.verify_tripodal.ms",
    "polytoped.enumerate_vertices.calls", "polytoped.enumerate_vertices.ms",
    "polytoped.linprog.calls", "polytoped.linprog.ms",
    "polytoped.halfspace_intersection.calls",
    "polytoped.faces_of_dim.calls", "polytoped.faces_of_dim.ms",
    "skeleton_balance.linprog.calls", "skeleton_balance.linprog.ms",
    "skeleton_balance.halving_point.calls", "skeleton_balance.halving_point.ms",
    "skeleton_balance.halving_point.attempts", "skeleton_balance.verify_skeleton.ms",
    "skeleton_balance.prop9_check.ms", "skeleton_balance.three_on_edges.ms",
)
COUNT_SUFFIXES = (".calls", ".edge_pairs", ".point_tris", ".rounds", ".attempts")


class BenchError(Exception):
    pass


def load_poise():
    """poise.cli from this checkout's src/, or BenchError."""
    try:
        import poise.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import poise from {SRC}: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"poise was imported from {cli.__file__}, not {SRC}")
    return cli


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup(name, seed, wd, cli):
    """Inputs of the first pass, then the forged-certificate solves as warm-up."""
    os.makedirs(wd, exist_ok=True)
    work = workloads.BUILDERS[name](seed, 0, wd)
    work.forgeries = workloads.forgeries(name, wd, cli.run)
    return work


def quantile(values, pct):
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics.

    Smoother than one order statistic, so the estimate does not jump when a
    different instance lands on the percentile's rank.
    """
    from scipy.special import betainc
    x = np.sort(values)
    n = len(x)
    p = pct / 100
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


class Tally:
    """Timed poise calls and operation counts of a run.

    With a probe, every timed call sits between two probe samples; the
    mean of the two is the host speed the call ran at.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.last = probe.measure() if probe else None
        self.solve, self.check = [], []    # (seconds, probe before, probe after)
        self.attempted = self.failed = 0
        self.wrong = []           # genuine operations that went wrong
        self.forged_accepted = set()

    def timed(self, samples, cli, argv):
        t0 = time.perf_counter()
        code = cli.run(argv).exit_code
        elapsed = time.perf_counter() - t0
        after = self.probe.measure() if self.probe else None
        samples.append((elapsed, self.last, after))
        self.last = after
        return code

    def run_pass(self, work, cli, wd):
        out = os.path.join(wd, "cert.json")
        for op in work.ops:
            self.attempted += 2
            code = self.timed(self.solve, cli, op.argv + ["--json", out])
            why = f"exit {code}, expected {op.expect}" if code != op.expect else None
            if why is None:
                with open(out, encoding="utf-8") as f:
                    why = op.verify(json.load(f))
            code = self.timed(self.check, cli, ["check", "--json", out] + op.geometry)
            if why is None and code != 0:
                why = f"check exit {code} on a genuine certificate"
            if why:
                self.failed += 2
                self.wrong.append(f"{op.name}: {why}")
        for forged in work.forgeries:
            self.attempted += 1
            if cli.run(forged.argv).exit_code != 3:
                self.failed += 1
                self.forged_accepted.add(forged.name)


def _child(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def setup_seconds(name, seed, wd):
    """Process start to end of warm-up in a fresh process, one sample."""
    start = time.monotonic()
    out = _child([sys.executable, os.path.abspath(__file__), "--workload", name,
                  "--seed", str(seed), "--setup-only", wd])
    return float(out.split()[-1]) - start


def cold_cli_seconds(argv):
    t0 = time.perf_counter()
    _child([sys.executable, "-m", "poise.cli"] + argv)
    return time.perf_counter() - t0


def run_passes(name, seed, seconds, work, cli, wd, tally, tracer=None):
    """Whole passes, as many as best fit the window; poise seconds per pass."""
    pass_s, first_counts = [], None
    start = time.perf_counter()
    while (len(pass_s) < MIN_PASSES[name]
           or (time.perf_counter() - start) * (1 + 0.5 / len(pass_s)) < seconds):
        if pass_s:
            forged = work.forgeries
            work = workloads.BUILDERS[name](seed, len(pass_s), wd)
            work.forgeries = forged
        if tracer:
            tracer.keep = not pass_s
        n = len(tally.solve)
        tally.run_pass(work, cli, wd)
        pass_s.append(math.fsum(t for t, _, _ in tally.solve[n:] + tally.check[n:]))
        if tracer and first_counts is None:
            first_counts = tracer.snapshot()
    return work, pass_s, first_counts


def traced(name, seed, seconds, wd, cli, result):
    import importlib
    from spans import LAYERS, Tracer
    work = setup(name, seed, wd, cli)
    tracer = Tracer()
    tracer.install({layer: importlib.import_module(f"poise.{layer}") for layer in LAYERS})
    tally = Tally()
    _, pass_s, first = run_passes(name, seed, seconds, work, cli, wd, tally,
                                  tracer=tracer)
    totals = tracer.snapshot()
    with open(os.path.join(OUT, f"trace-{name}-{seed}.json"), "w") as f:
        json.dump(tracer.span_records(), f)
    # work counts of the first pass (fixed by the seed), times per pass
    metrics = {key: (first.get(key, 0), "count") if key.endswith(COUNT_SUFFIXES)
               else (totals.get(key, 0.0) / len(pass_s), "ms") for key in PER_LAYER}
    return tally, pass_s, metrics


def untraced(name, seed, seconds, wd, cli, result):
    work = setup(name, seed, wd, cli)
    launch, setups, cold = [], [], []
    for i in range(SETUP_RUNS):
        launch.append(launch_seconds(child_env(), ROOT))
        setups.append(setup_seconds(name, seed, os.path.join(wd, f"setup{i}")))
    tally = Tally(Probe(name))
    work, pass_s, _ = run_passes(name, seed, seconds, work, cli, wd, tally)
    for _ in range(COLD_LAUNCHES):
        launch.append(launch_seconds(child_env(), ROOT))
        cold.append(cold_cli_seconds(work.cold_argv + ["--json",
                                                       os.path.join(wd, "cold.json")]))
    # Host speed drifts within seconds, so each time is scaled by the probe
    # taken next to it: in-process calls by the workload's CPU probe, fresh
    # processes by the interpreter launch just before them.
    ref = PROBE_REF_S[name]
    solve = [t * 2 * ref / (a + b) for t, a, b in tally.solve]
    check = [t * 2 * ref / (a + b) for t, a, b in tally.check]
    raw = {
        "certs_per_s": len(work.ops) * len(pass_s) / math.fsum(pass_s),
        "solve_ms_p50": 1e3 * quantile([t for t, _, _ in tally.solve], 50),
        "check_ms_p50": 1e3 * quantile([t for t, _, _ in tally.check], 50),
        "cold_cli_s": min(cold),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "certs_per_s": len(solve) / math.fsum(solve + check),
        "solve_ms_p50": 1e3 * quantile(solve, 50),
        "solve_ms_tail": 1e3 * quantile(solve, TAIL_PERCENTILE[name]),
        "check_ms_p50": 1e3 * quantile(check, 50),
        "cold_cli_s": LAUNCH_REF_S * statistics.median(
            c / l for c, l in zip(cold, launch[SETUP_RUNS:])),
        "setup_s": LAUNCH_REF_S * statistics.median(
            s / l for s, l in zip(setups, launch[:SETUP_RUNS])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(raw=raw, solve=tally.solve, check=tally.check, launch_s=launch,
                  setup_s=setups, cold_s=cold)
    return tally, pass_s, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_all(args):
    """Each workload in its own process; one summary line per workload."""
    summaries, code = {}, 0
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        summaries[name] = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workload": name, **summaries[name]}))
    print(json.dumps(summaries))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="set up in DIR, print the monotonic clock, exit")
    args = ap.parse_args(argv)
    args.seed %= 2 ** 32      # NumPy seeds must be non-negative
    if args.workload == "all":
        return run_all(args)
    try:
        cli = load_poise()
        if args.setup_only:
            setup(args.workload, args.seed, args.setup_only, cli)
            print(repr(time.monotonic()))
            return 0
        os.makedirs(OUT, exist_ok=True)
        wd = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        try:
            tally, pass_s, metrics = (traced if args.trace else untraced)(
                args.workload, args.seed, args.seconds, wd, cli, result)
        finally:
            shutil.rmtree(wd, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in tally.wrong[:20]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    summary = {"correct": not tally.wrong, "attempted": tally.attempted,
               "failed": tally.failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    result.update(summary, passes=len(pass_s), pass_s=pass_s,
                  samples=len(tally.solve),
                  forged_accepted=sorted(tally.forged_accepted))
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
