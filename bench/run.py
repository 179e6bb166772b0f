#!/usr/bin/env python3
"""lorentzgeo benchmark: one CLI command at a time, end to end and by layer.

    python3 bench/run.py --workload {certify,axioms,split} --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout root is the parent of this directory and
lorentzgeo is imported from its `src/`.  Set-up writes the workload's
fixtures with `lorentzgeo gen` into `.bench_work/<workload>/`.  A pass then
runs the workload's commands as in-process `lorentzgeo.cli.main(argv)`
calls in one single-threaded process (BLAS pinned to one thread) and checks
every exit code and verdict.  Passes repeat for about `--seconds`.

`--trace 0` prints the end-to-end metrics: `wall_s` (median pass), `setup_s`
(median of several fresh-interpreter set-ups: `import lorentzgeo` plus the
`gen` commands), `peak_rss_mb` (this process only, so set-up cannot mask
it).  `--trace 1` runs untraced passes for half the time, then wraps the
layer functions listed in `TRACED` for the other half, and prints the
per-layer metrics of `PER_LAYER`.  The last line of standard output is
the JSON result; the full record (pass times, digests, failures, machine
facts) goes to `.bench_work/<workload>/result_seed<N>_trace<T>.json`.
See bench/README.md for why each workload and metric exists.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer, accounting_gap, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so report paths and digests match across checkouts
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
GRID_CAP = 20_000  # `curvature --cap` default, which the grid command relies on
TRACE_TOLERANCE_S = 0.005  # allowed accounting gap per traced pass, on top of 1 % of it


# ---------------------------------------------------------------------------
# Verdicts.  Each returns a list of problems; an empty list means the verdict
# holds.  Keys a later version adds to a check are ignored.
# ---------------------------------------------------------------------------


def _curvature_check(report, direction):
    return next(c for c in report["checks"] if c["name"].startswith(f"curvature-{direction}"))


def verdict_fails_below(report):
    c = _curvature_check(report, "below")
    problems = [] if c["status"] == "FAIL" else [f"status {c['status']}, expected FAIL"]
    w = c.get("witness")
    if not w or not w["margin"] < 0:
        problems.append(f"witness {w!r} lacks a negative margin")
    return problems


def verdict_passes_above(report):
    c = _curvature_check(report, "above")
    problems = [] if c["status"] == "PASS" else [f"status {c['status']}, expected PASS"]
    if not c["max_slack"] <= 1e-9:
        problems.append(f"max_slack {c['max_slack']} > 1e-9")
    if c["n_triangles"] != GRID_CAP:
        problems.append(f"n_triangles {c['n_triangles']} != {GRID_CAP}")
    return problems


def verdict_axioms_clean(report):
    c = next(c for c in report["checks"] if c["name"] == "axioms")
    problems = [] if c["status"] == "PASS" else [f"status {c['status']}, expected PASS"]
    nonzero = {k: v for k, v in c["counts"].items() if v}
    if nonzero:
        problems.append(f"axiom violations {nonzero}")
    return problems


def verdict_all_pass(report):
    statuses = [c["status"] for c in report["checks"]]
    if not statuses or any(s != "PASS" for s in statuses):
        return [f"statuses {statuses}, expected all PASS"]
    return []


def verdict_roundtrip(report):
    problems = verdict_all_pass(report)
    c = next(c for c in report["checks"] if c["name"] == "roundtrip")
    if not c["deviation"] <= c["step"]:
        problems.append(f"deviation {c['deviation']} > step {c['step']}")
    return problems


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass
class Command:
    label: str
    argv: list  # subcommand and arguments; the fixture name is relative to the work dir
    expect_rc: int
    verdict: object
    seeded: bool = False  # pass the workload seed as --seed


@dataclass
class Workload:
    fixtures: dict  # file name -> `lorentzgeo gen` arguments
    commands: list


# Why these three: see bench/README.md.  Each stresses different layers and
# bypasses the others' hot code, so a gain on one must predict no change on
# the rest.
WORKLOADS = {
    "certify": Workload(
        fixtures={
            "tripod.json": ["product", "--base", "tripod", "--step", "0.5", "--window", "8"],
            "grid21.json": ["minkowski-grid", "--nt", "21", "--nx", "21"],
        },
        commands=[
            Command("curvature-below-tripod", ["curvature", "tripod.json", "--direction", "below"], 1, verdict_fails_below, seeded=True),
            Command("curvature-above-grid21", ["curvature", "grid21.json", "--direction", "above"], 0, verdict_passes_above, seeded=True),
        ],
    ),
    "axioms": Workload(
        fixtures={"grid31.json": ["minkowski-grid", "--nt", "31", "--nx", "31"]},
        commands=[Command("axioms-grid31", ["axioms", "grid31.json"], 0, verdict_axioms_clean)],
    ),
    "split": Workload(
        fixtures={"egrid.json": ["product", "--base", "euclid-grid", "--m", "5", "--step", "0.25", "--window", "8"]},
        commands=[
            Command("lines-egrid", ["lines", "egrid.json"], 0, verdict_all_pass),
            Command("split-egrid", ["split", "egrid.json"], 0, verdict_all_pass),
            Command("roundtrip-egrid", ["roundtrip", "egrid.json"], 0, verdict_roundtrip),
        ],
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Traced layers and the per-layer metrics derived from them.
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _broadcast_size(*arrays):
    import numpy as np  # not at module level: numpy must load after SINGLE_THREAD_ENV is set

    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return int(np.prod(shape, dtype=np.int64))


TRACED = {
    "cli.main": {},
    "io.load_fixture": {"bytes": lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path"))},
    "io.file_digest": {},
    "io.save_report": {"bytes": lambda a, kw, r: os.path.getsize(r)},
    "io.save_fixture": {"bytes": lambda a, kw, r: os.path.getsize(r)},
    "fixtures.minkowski_grid": {},
    "fixtures.product_fixture": {},
    "sampled.validate_axioms": {"n": lambda a, kw, r: _arg(a, kw, 0, "space").n},
    "sampled.sample_triangles": {"triangles": lambda a, kw, r: len(r)},
    "sampled.geodesic_between": {"points": lambda a, kw, r: len(r)},
    "sampled.certify_curvature_bound": {
        "triangles": lambda a, kw, r: r.n_triangles,
        "skipped": lambda a, kw, r: len(r.skipped),
        "pairs": lambda a, kw, r: r.n_pairs,
    },
    "modelspace.hinge_tau_arr": {
        "elements": lambda a, kw, r: _broadcast_size(
            _arg(a, kw, 1, "r1"), _arg(a, kw, 2, "r2"), _arg(a, kw, 3, "cosh_theta")
        )
    },
    "modelspace.angle_from_sides": {},
    "modelspace.angle_from_sides_arr": {},
    "parallels.is_line": {},
    "parallels.weakly_parallel_offset": {},
    "parallels.sync_parallel_fit": {},
    "splitting.extract_line_classes": {},
    "splitting.compute_dS": {},
    "splitting.verify_embedding": {"pairs": lambda a, kw, r: r.pairs_checked + r.pairs_trimmed},
}

# Layers that run during set-up (`gen`); every other layer is taken from the passes.
SETUP_LAYERS = ("fixtures.minkowski_grid", "fixtures.product_fixture", "io.save_fixture")

# name -> unit; the value is the layer total of the same name unless derived below.
PER_LAYER = {
    "modelspace.hinge_tau_arr.calls": "count",
    "modelspace.hinge_tau_arr.s": "s",
    "modelspace.hinge_tau_arr.elements": "count",
    "modelspace.angle_from_sides.calls": "count",
    "modelspace.angle_from_sides.s": "s",
    "modelspace.angle_from_sides_arr.calls": "count",
    "modelspace.angle_from_sides_arr.s": "s",
    "sampled.certify_curvature_bound.calls": "count",
    "sampled.certify_curvature_bound.s": "s",
    "sampled.certify_curvature_bound.self_s": "s",
    "sampled.certify_curvature_bound.triangles": "count",
    "sampled.certify_curvature_bound.skipped": "count",
    "sampled.certify_curvature_bound.pairs": "count",
    "sampled.sample_triangles.s": "s",
    "sampled.sample_triangles.self_s": "s",
    "sampled.sample_triangles.triangles": "count",
    "sampled.geodesic_between.calls": "count",
    "sampled.geodesic_between.s": "s",
    "sampled.geodesic_between.mean_points": "points",
    "sampled.geodesic_cache.hit_ratio": "ratio",
    "sampled.validate_axioms.s": "s",
    "sampled.validate_axioms.n": "count",
    "io.load_fixture.s": "s",
    "io.load_fixture.bytes": "bytes",
    "io.file_digest.s": "s",
    "io.save_report.s": "s",
    "io.save_report.bytes": "bytes",
    "io.save_fixture.s": "s",
    "io.save_fixture.bytes": "bytes",
    "parallels.is_line.calls": "count",
    "parallels.is_line.s": "s",
    "parallels.weakly_parallel_offset.calls": "count",
    "parallels.weakly_parallel_offset.s": "s",
    "parallels.sync_parallel_fit.calls": "count",
    "parallels.sync_parallel_fit.s": "s",
    "splitting.extract_line_classes.s": "s",
    "splitting.extract_line_classes.self_s": "s",
    "splitting.compute_dS.s": "s",
    "splitting.verify_embedding.s": "s",
    "splitting.verify_embedding.pairs": "count",
    "fixtures.minkowski_grid.s": "s",
    "fixtures.product_fixture.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, phase):
    """Per-layer metrics of one traced unit of work (`setup` or a `pass`)."""
    totals = layer_totals(spans, TRACED)
    geo = totals["sampled.geodesic_between"]
    # geodesic extractions made by the sampler's cache, against 3 sides per triangle
    extractions = sum(
        1 for s in spans if s.name == "sampled.geodesic_between" and s.parent >= 0 and spans[s.parent].name == "sampled.sample_triangles"
    )
    sides = 3 * totals["sampled.sample_triangles"]["triangles"]
    derived = {
        "sampled.geodesic_between.mean_points": geo["points"] / geo["calls"] if geo["calls"] else 0.0,
        "sampled.geodesic_cache.hit_ratio": 1.0 - extractions / sides if sides else 0.0,
    }
    out = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if (layer in SETUP_LAYERS) != (phase == "setup") or layer == "trace":
            continue
        out[name] = derived[name] if name in derived else totals[layer][stat]
    return out


# ---------------------------------------------------------------------------
# Running commands.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    seconds: float
    problems: list
    digest: str | None


def workload_dir(name):
    return WORK / name


def command_argv(cmd, name, seed):
    wdir = workload_dir(name)
    sub, fixture, *rest = cmd.argv
    argv = [sub, str(wdir / fixture), *rest]
    if cmd.seeded:
        argv += ["--seed", str(seed)]
    return argv + ["-o", str(wdir / f"report_{cmd.label}.json")]


def evaluate(cmd, rc, report):
    """Problems with one command's outcome: exit code plus verdict."""
    problems = [] if rc == cmd.expect_rc else [f"exit {rc}, expected {cmd.expect_rc}"]
    try:
        problems += cmd.verdict(report)
    except (KeyError, TypeError, StopIteration) as e:
        problems.append(f"report lacks the verdict fields: {e!r}")
    return problems


def run_command(cli, lgio, cmd, name, seed):
    argv = command_argv(cmd, name, seed)
    out = Path(argv[-1])
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception:  # a raising command counts as failed and the run goes on
        return Outcome(cmd.label, perf_counter() - t0, [traceback.format_exc()], None)
    seconds = perf_counter() - t0
    if not out.exists():
        return Outcome(cmd.label, seconds, [f"exit {rc}, no report written: {sink.getvalue()[-500:]}"], None)
    try:
        report = json.loads(out.read_text())
    except ValueError as e:
        return Outcome(cmd.label, seconds, [f"unreadable report: {e}"], None)
    digest = hashlib.sha256(lgio.deterministic_view(report).encode()).hexdigest()
    return Outcome(cmd.label, seconds, evaluate(cmd, rc, report), digest)


def run_passes(cli, lgio, name, seed, seconds, after_pass=None):
    """Repeat passes of the workload's commands for about `seconds`.

    There is at least one pass, and another only while it brings the
    elapsed time nearer to `seconds`, so a pass longer than the budget is
    not run twice.  `after_pass(outcomes)` runs after each pass.
    """
    passes = []
    t0 = perf_counter()
    while True:
        passes.append([run_command(cli, lgio, cmd, name, seed) for cmd in WORKLOADS[name].commands])
        if after_pass:
            after_pass(passes[-1])
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def gen_argvs(name, seed):
    wdir = workload_dir(name)
    return [["gen", *spec, "--seed", str(seed), "-o", str(wdir / f)] for f, spec in WORKLOADS[name].fixtures.items()]


SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import lorentzgeo.cli
rcs = [lorentzgeo.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"seconds": time.perf_counter() - t0, "rcs": rcs, "module": lorentzgeo.__file__}))
"""


def setup_once(name, seed, env):
    """Set up in a fresh interpreter: import lorentzgeo, write the fixtures."""
    argvs = gen_argvs(name, seed)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, json.dumps(argvs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(res["rcs"]) or not Path(res["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up failed: exit codes {res['rcs']}, lorentzgeo from {res['module']}")
    return res["seconds"]


# ---------------------------------------------------------------------------
# Run context (information, not metrics).
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_lines():
    total = code = 0
    for path in sorted((SRC / "lorentzgeo").glob("*.py")):
        for line in path.read_text().splitlines():
            total += 1
            code += bool(line.strip()) and not line.strip().startswith("#")
    return {"total": total, "non_blank_non_comment": code}


def run_context():
    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in SINGLE_THREAD_ENV},
        "src_lines": source_lines(),
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def summarize(passes):
    flat = [o for p in passes for o in p]
    failures = [{"command": o.label, "problems": o.problems} for o in flat if o.problems]
    digests = {}
    for o in flat:
        if o.digest is not None:
            digests.setdefault(o.label, set()).add(o.digest)
    return flat, failures, {k: sorted(v) for k, v in digests.items()}


def measure(cli, lgio, args, env):
    setups = [setup_once(args.workload, args.seed, env) for _ in range(SETUP_REPEATS)]
    passes = run_passes(cli, lgio, args.workload, args.seed, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(o.seconds for o in p) for p in passes]
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
    return metrics, passes, {"pass_s": walls, "setup_s": setups}, True


def measure_traced(cli, lgio, args, env):
    tracer = Tracer("lorentzgeo", TRACED)
    with tracer:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            rcs = [cli.main(argv) for argv in gen_argvs(args.workload, args.seed)]
        if any(rcs):
            raise RuntimeError(f"set-up failed: exit codes {rcs}\n{sink.getvalue()[-2000:]}")
        setup = layer_metrics(tracer.take(), "setup")
    units, gaps = [], []

    def collect(outcomes):
        spans = tracer.take()
        units.append(layer_metrics(spans, "pass"))
        gaps.append(accounting_gap(spans, sum(o.seconds for o in outcomes)))

    plain = run_passes(cli, lgio, args.workload, args.seed, args.seconds / 2)
    with tracer:
        traced = run_passes(cli, lgio, args.workload, args.seed, args.seconds / 2, collect)
    plain_walls = [sum(o.seconds for o in p) for p in plain]
    traced_walls = [sum(o.seconds for o in p) for p in traced]
    metrics = {name: statistics.median(u[name] for u in units) for name in units[0]}
    metrics.update(setup)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics = {name: metrics[name] for name in PER_LAYER}
    accounted = all(g <= 0.01 * w + TRACE_TOLERANCE_S for g, w in zip(gaps, traced_walls))
    samples = {"untraced_pass_s": plain_walls, "traced_pass_s": traced_walls, "accounting_gap_s": gaps}
    return metrics, plain + traced, samples, accounted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lorentzgeo" / "cli.py").is_file():
        print(f"error: no lorentzgeo sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)  # before numpy loads, here and in set-up children
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    workload_dir(args.workload).mkdir(parents=True, exist_ok=True)
    import lorentzgeo.cli as cli
    import lorentzgeo.io as lgio

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: lorentzgeo imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, passes, samples, accounted = measure_fn(cli, lgio, args, env)
    except (RuntimeError, LookupError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    flat, failures, digests = summarize(passes)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures and accounted,
        "attempted": len(flat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "failed_ratio": len(failures) / len(flat),
        "passes": len(passes),
        "samples": samples,
        "command_s": {c.label: [o.seconds for o in flat if o.label == c.label] for c in WORKLOADS[args.workload].commands},
        "trace_accounted": accounted,
        "failures": failures,
        "report_digests": digests,
        "digests_stable": all(len(v) == 1 for v in digests.values()),
        "context": run_context(),
    }
    (workload_dir(args.workload) / f"result_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(f"passes = {len(passes)}, commands = {len(flat)}, failed_ratio = {record['failed_ratio']:.3g}")
    for f in failures[:5]:
        print(f"FAILED {f['command']}: {f['problems'][0].strip().splitlines()[-1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
