"""Batch command-line front end.

Non-interactive verification runs over JSON fixtures: generation,
axiom validation, curvature certification, angle inequalities, first
variation, rigidity and quadrangle checks, line/strip/ray diagnostics,
and the splitting pipeline.  Every fixture command goes through one runner
that loads the fixture, times it, and writes a JSON report; exit code 0
means all checks passed, 1 means violations were found, 2 means the input
or invocation was malformed.
"""

import argparse
import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fixtures as fx
from .errors import GeodesicDeficit, LorentzGeoError, NotParallel, RigidityViolated, ShapeError, StripInconsistent, WindowExhausted
from .io import (
    emit_plotdata,
    load_fixture,
    load_report,
    make_report,
    report_status,
    save_fixture,
    save_report,
)
from .modelspace import Kappa
from .parallels import asymptotic_ray, flat_strip_reconstruct, is_line, strip_profile
from .rigidity import equality_conditions, quadrangle_rigidity
from .sampled import (
    _geodesics,
    certify_curvature_bound,
    check_angle_inequalities,
    fvf_empirical,
    geodesic_between,
    sample_triangles,
    validate_axioms,
)
from .splitting import compute_dS, extract_line_classes, verify_base_metric_cat0, verify_embedding
from .tolerances import DEFAULT_CERT_TOL, DEFAULT_GEO_TOL, DEFAULT_TOL_ANGLE, DEFAULT_TOL_TAU


# Options that several commands read, as (flag, type, default)
K = ("--k", float, 0.0)
SEED = ("--seed", int, 0)
TOL_TAU = ("--tol-tau", float, DEFAULT_TOL_TAU)
TOL_ANGLE = ("--tol-angle", float, DEFAULT_TOL_ANGLE)
GEO_TOL = ("--geo-tol", float, DEFAULT_GEO_TOL)
TOLERANCES = ("tol_tau", "tol_angle", "geo_tol")  # echoed into the report when the command takes them


def _add_options(p, options):
    for flag, typ, default in options:
        p.add_argument(flag, type=typ, default=default, required=default is None)
    p.add_argument("-o", "--output", type=Path, default=None)


@functools.cache  # one parser per process: building it costs milliseconds, parsing microseconds
def build_parser():
    ap = argparse.ArgumentParser(prog="lorentzgeo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a fixture")
    gsub = g.add_subparsers(dest="kind", required=True)
    mk = gsub.add_parser("minkowski-grid")
    mk.add_argument("--nt", type=int, default=21)
    mk.add_argument("--nx", type=int, default=21)
    mk.add_argument("--step", type=float, default=1.0)
    _add_options(mk, [SEED])
    ds = gsub.add_parser("desitter-sample")
    ds.add_argument("--n-angles", type=int, default=12)
    ds.add_argument("--n-times", type=int, default=25)
    ds.add_argument("--t-max", type=float, default=3.0)
    ds.add_argument("--fan-phi", type=float, default=None)
    ds.add_argument("--fan-horizons", type=str, default=None)
    ds.add_argument("--fan-points", type=int, default=24)
    _add_options(ds, [SEED])
    pr = gsub.add_parser("product")
    pr.add_argument("--base", required=True, choices=sorted(fx._BASES))
    pr.add_argument("--step", type=float, default=0.5)
    pr.add_argument("--window", type=float, default=8.0)
    pr.add_argument("--d", type=float, default=None, help="pair distance")
    pr.add_argument("--edge", type=float, default=None, help="tripod edge length")
    pr.add_argument("--subdiv", type=int, default=None, help="tripod leg subdivisions")
    pr.add_argument("--m", type=int, default=None, help="grid side / sample size")
    pr.add_argument("--spacing", type=float, default=None, help="grid spacing")
    _add_options(pr, [SEED])

    for name, (_, options) in FIXTURE_COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("fixture", type=Path)
        _add_options(p, options)

    pd = sub.add_parser("plotdata", help="emit CSV series from a report")
    pd.add_argument("report", type=Path)
    pd.add_argument("-o", "--output", type=Path, default=Path("."))
    return ap


def run_fixture_command(args, command) -> int:
    """Load args.fixture, run command(args, fixture, stage), write and summarise its report.

    The command returns (checks, series).  stage(name) is a context manager
    that records the perf_counter seconds of its block as runtime
    "<name>_s"; the load is stage "load", and "seconds" is the command's
    work after it.  A command that finds nothing to check reports one SKIP
    check.  Returns the report's exit status.
    """
    runtime = {}

    @contextmanager
    def stage(name):
        start = time.perf_counter()
        yield
        runtime[f"{name}_s"] = time.perf_counter() - start

    with stage("load"):
        fixture = load_fixture(args.fixture)
    start = time.perf_counter()
    checks, series = command(args, fixture, stage)
    if not checks:
        checks = [{"name": args.command, "status": "SKIP", "reason": "nothing to check in this fixture"}]
    runtime.update(seconds=time.perf_counter() - start, timestamp=time.time())
    report = make_report(
        args.command,
        {"fixture": str(args.fixture), "sha256": fixture.sha256},
        {key: value for key, value in vars(args).items() if key in TOLERANCES},
        checks,
        series,
        runtime,
    )
    name = f"curvature_{args.direction}" if args.command == "curvature" else args.command
    out = args.output or args.fixture.with_name(f"{args.fixture.stem}_{name}.json")
    save_report(out, report)
    for c in report["checks"]:
        bits = [f"{c['name']}: {c['status']}"]
        for key in ("margin", "max_violation", "max_slack", "deviation", "value"):
            if key in c:
                bits.append(f"{key}={c[key]:.4g}")
        print("  ".join(bits))
    print(f"report -> {out}")
    return report_status(report)


def _index(flag, value, count, what):
    """value, checked as an index into the fixture's count points or lines."""
    if not 0 <= value < count:
        raise ValueError(f"{flag} {value} is out of range: the fixture has {count} {what}")
    return value


def _vertices(text, count):
    """--vertices: four comma-separated point indices, each checked against count."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 4:
        raise ValueError(f"--vertices needs four comma-separated point indices, got {text!r}")
    return [_index("--vertices", v, count, "points") for v in values]


def _numbers(flag, text):
    """A comma-separated list of numbers given to flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_gen(args):
    lines, base, meta = [], None, {}
    if args.kind == "minkowski-grid":
        space = fx.minkowski_grid(args.nt, args.nx, args.step)
        lines = [fx.grid_vertical_line(args.nt, args.nx, args.step, ix) for ix in range(args.nx)]
    elif args.kind == "desitter-sample":
        fan = None
        if args.fan_phi is not None:
            horizons = _numbers("--fan-horizons", args.fan_horizons or "3.0,-3.0")
            fan = {"phi": args.fan_phi, "horizons": horizons, "points": args.fan_points}
        elif args.fan_horizons is not None:
            raise ValueError("--fan-horizons is unused without --fan-phi")
        space, lines, fan_info = fx.desitter_sample(args.n_angles, args.n_times, args.t_max, fan)
        meta["fan"] = fan_info
    else:
        given = {key: getattr(args, key) for key in ("d", "edge", "subdiv", "m", "spacing")}
        kwargs = {key: value for key, value in given.items() if value is not None}
        unused = sorted(kwargs.keys() - inspect.signature(fx._BASES[args.base]).parameters.keys())
        if unused:
            raise ValueError(f"base {args.base!r} does not take --{', --'.join(unused)}")
        if args.base == "hyperbolic-sample":
            kwargs["seed"] = args.seed
        space, lines, base = fx.product_fixture(args.base, step=args.step, window=args.window, **kwargs)
    out = args.output or Path(f"{args.kind}.json")
    save_fixture(out, space, lines, base, meta)
    print(f"fixture ({space.n} points, {len(lines)} lines) -> {out}")
    return 0


def cmd_axioms(args, fixture, stage):
    space = fixture.space
    with stage("scan"):
        rep = validate_axioms(space)
    checks = [
        {
            "name": "axioms",
            "status": "PASS" if rep.ok else "FAIL",
            "counts": rep.counts,
            "witnesses": rep.violations[:20],
            "n_points": space.n,
            "triples_checked": rep.triples_checked,
        }
    ]
    return checks, None


def cmd_curvature(args, fixture, stage):
    kappa = Kappa(args.k)
    space = fixture.space
    with stage("sample"):
        triangles = sample_triangles(space, cap=args.cap, seed=args.seed, kappa=kappa, geo_tol=args.geo_tol)
    with stage("certify"):
        cert = certify_curvature_bound(space, triangles, kappa, args.direction)
    if cert.n_triangles == 0:
        status = "SKIP"  # nothing was compared, so nothing is certified
    else:
        status = "PASS" if cert.passed else "FAIL"
    checks = [
        {
            "name": f"curvature-{args.direction}-by-{args.k:g}",
            "status": status,
            "n_triangles": cert.n_triangles,
            "n_pairs": cert.n_pairs,
            "max_violation": cert.max_violation,
            "max_slack": cert.max_slack,
            "side_step": cert.side_step,
            "chronology_mismatches": cert.chronology_mismatches,
            "witness": cert.witness,
            "skipped": len(cert.skipped),
            "skipped_by_reason": dict(Counter(reason for _, reason in cert.skipped)),
            "geodesic_pairs": len(triangles.chains),
            "flagged_chains": int(np.count_nonzero(triangles.chains.flagged(args.geo_tol))),
            "cert_tol": DEFAULT_CERT_TOL,
        }
    ]
    return checks, None


def _sample_hinges(space, cap, seed, geo_tol):
    """Draw every hinge's vertex and leg ends, then extract all legs in one walk."""
    rng = np.random.default_rng(seed)
    chron = space.tau > 0
    vertices, legs = [], []  # legs: three (start, end) pairs per hinge
    candidates = np.flatnonzero(chron.sum(axis=1) >= 3)
    attempts = 0
    while len(vertices) < cap and attempts < 50 * max(cap, 1):
        attempts += 1
        if not candidates.size:
            break
        x = int(rng.choice(candidates))
        fut = np.flatnonzero(chron[x])
        past = np.flatnonzero(chron[:, x])
        if fut.size >= 3:
            a, b, c = (int(v) for v in rng.choice(fut, 3, replace=False))
            vertices.append(x)
            legs += [(x, a), (x, b), (x, c)]
        if past.size and fut.size >= 2 and len(vertices) < cap:
            a, b = (int(v) for v in rng.choice(fut, 2, replace=False))
            g = int(rng.choice(past))
            vertices.append(x)
            legs += [(x, a), (x, b), (g, x)]
    starts, ends = np.array(legs, dtype=np.int64).reshape(-1, 2).T
    chains = list(_geodesics(space, starts, ends, geo_tol))
    return [(*chains[3 * h : 3 * h + 3], x) for h, x in enumerate(vertices)]


def cmd_angles(args, fixture, stage):
    space = fixture.space
    hinges = _sample_hinges(space, args.cap, args.seed, args.geo_tol)
    reports = check_angle_inequalities(space, hinges, Kappa(args.k), args.geo_tol)
    checks = []
    for k, rep in enumerate(reports):
        worst = min(rep.margins.values(), default=0.0)
        status = "PASS" if worst >= -args.tol_angle else "FAIL"
        if not rep.margins:
            status = "SKIP"
        checks.append(
            {
                "name": f"hinge[{k}]@{rep.vertex}",
                "status": status,
                "margin": worst,
                "margins": rep.margins,
                "orientations": list(rep.orientations),
                "skipped": rep.skipped,
            }
        )
    return checks, None


def cmd_fvf(args, fixture, stage):
    space = fixture.space
    point = _index("--point", args.point, space.n, "points")
    vertex = _index("--vertex", args.vertex, space.n, "points")
    target = _index("--target", args.target, space.n, "points")
    gamma = geodesic_between(space, vertex, target, args.geo_tol)
    try:
        rep = fvf_empirical(space, gamma, point, Kappa(args.k), args.geo_tol)
    except GeodesicDeficit as e:  # the space's geodesic [p, a] falls short of tau: a finding
        return [{"name": "fvf-empirical", "status": "FAIL", "reason": str(e)}], None
    decreasing = bool(np.all(np.diff(rep.errors[::-1]) <= args.tol_angle))
    check = {"name": "fvf-empirical", "status": "PASS" if decreasing else "FAIL"}
    if len(rep.errors) < 2:
        # one quotient cannot show whether the error decreases
        check.update(status="SKIP", reason="fewer than two difference quotients")
    checks = [
        {
            **check,
            "value": rep.limit,
            "sigma": rep.sigma,
            "final_error": float(rep.errors[0]),
            "error_decreasing": decreasing,
        }
    ]
    series = {
        "fvf": {
            "columns": ["t", "quotient", "limit"],
            "rows": [[float(t), float(q), rep.limit] for t, q in zip(rep.ts, rep.quotients)],
        },
        "fvf_error": {
            "columns": ["t", "error"],
            "rows": [[float(t), float(e)] for t, e in zip(rep.ts, rep.errors)],
        },
    }
    return checks, series


def cmd_rigidity(args, fixture, stage):
    space = fixture.space
    kappa = Kappa(args.k)
    triangles = sample_triangles(space, cap=args.cap, seed=args.seed, kappa=kappa, geo_tol=args.geo_tol)
    checks = []
    for k, tri in enumerate(triangles):
        try:
            rep = equality_conditions(space, tri, kappa, args.tol_angle, args.tol_tau)
        except LorentzGeoError as e:
            checks.append({"name": f"triangle[{k}]", "status": "SKIP", "reason": str(e)})
            continue
        name = f"triangle[{k}]({tri.x},{tri.y},{tri.z})"
        check = {"name": name, "status": "PASS" if rep.implications_hold() else "FAIL"}
        if rep.cond_iii is None:
            # neither (i) => (iii) nor (iii) => (iv) is tested
            check.update(status="SKIP", reason="the long side [x, z] has no interior sample point")
        checks.append(
            {
                **check,
                "cond_i": rep.cond_i,
                "cond_ii": rep.cond_ii,
                "cond_iii": rep.cond_iii,
                "cond_iv": rep.cond_iv,
                "angle_gaps": rep.angle_gaps,
                "tau_gap_max": rep.tau_gap_max if np.isfinite(rep.tau_gap_max) else None,
            }
        )
    return checks, None


def cmd_quadrangle(args, fixture, stage):
    space = fixture.space
    p1, p2, p3, p4 = _vertices(args.vertices, space.n)
    name = f"quadrangle({p1},{p2},{p3},{p4})"
    try:
        rep = quadrangle_rigidity(space, p1, p2, p3, p4, kappa=Kappa(args.k), tol=args.tol_angle)
    except RigidityViolated as e:  # the angle sum claims a flat fill-in that the sample refutes
        rep = e.report
        check = {"status": "FAIL", "reason": str(e), "fill_in_error": e.tau_error}
    else:
        check = {
            "status": "PASS" if rep.fill_in else "SKIP",
            "fill_in_error": rep.fill_in.max_tau_error if rep.fill_in else None,
            "causal_mismatches": rep.fill_in.causal_mismatches if rep.fill_in else None,
        }
        if not rep.fill_in:
            check["reason"] = "angle sum below the flat case; the criterion claims nothing"
    return [{"name": name, **check, "value": rep.lhs_minus_rhs, "flat": rep.flat, "angles": rep.angles}], None


def cmd_lines(args, fixture, stage):
    checks = []
    for k, ln in enumerate(fixture.lines):
        name = f"line[{k}]{('=' + ln.label) if ln.label else ''}"
        if len(ln) < 2:  # no pair to compare, so nothing is certified
            checks.append({"name": name, "status": "SKIP", "reason": "fewer than two points"})
            continue
        ok, worst = is_line(fixture.space, ln, args.geo_tol)
        checks.append(
            {
                "name": name,
                "status": "PASS" if ok else "FAIL",
                "deviation": abs(worst["deficit"]),
                "worst": worst,
            }
        )
    return checks, None


def cmd_strip(args, fixture, stage):
    space, lines = fixture.space, fixture.lines
    alpha = lines[_index("--alpha", args.alpha, len(lines), "lines")]
    beta = lines[_index("--beta", args.beta, len(lines), "lines")]
    profile = strip_profile(space, alpha, beta)
    checks = [
        {
            "name": "profile-constancy",
            "status": "PASS" if profile.max_dev.max() <= args.tol_tau * 10 else "FAIL",
            "deviation": float(profile.max_dev.max()),
        }
    ]
    series = {
        "strip": {
            "columns": ["c", "F", "Fp"],
            "rows": [
                [float(c), float(f), float(fp) if np.isfinite(fp) else ""]
                for c, f, fp in zip(profile.offsets, profile.F, profile.Fp)
            ],
        }
    }
    try:
        strip = flat_strip_reconstruct(space, alpha, beta, args.tol_tau)
        checks.append(
            {
                "name": "flat-strip",
                "status": "PASS",
                "width": strip.width,
                "c0": strip.c0,
                "shift": strip.shift,
                "max_tau_error": strip.max_tau_error,
                "causal_mismatches": strip.causal_mismatches,
            }
        )
    except StripInconsistent as e:
        checks.append({"name": "flat-strip", "status": "FAIL", "reason": str(e)})
    return checks, series


def cmd_ray(args, fixture, stage):
    space, lines = fixture.space, fixture.lines
    line = lines[_index("--line", args.line, len(lines), "lines")]
    point = _index("--point", args.point, space.n, "points")
    horizons = _numbers("--horizons", args.horizons)
    rep = asymptotic_ray(space, line, point, horizons, args.geo_tol)
    check = {"name": "asymptotic-ray", "status": "PASS" if rep.stabilized else "FAIL"}
    if np.isfinite(rep.drifts).sum() < 2:
        # one finite drift cannot show whether the approximants stabilize
        check.update(status="SKIP", reason="fewer than two finite drifts")
    checks = [
        {
            **check,
            "drifts": rep.drifts,
            "ratios": rep.ratios,
            "prefix": rep.prefix,
            "chain_points": len(rep.chain),
        }
    ]
    series = {
        "ray_drift": {
            "columns": ["t_n", "drift"],
            "rows": [[float(t), float(d)] for t, d in zip(horizons[1:], rep.drifts)],
        }
    }
    return checks, series


def _recovered_base(args, fixture, reference, stage):
    """The line classes around the reference line (stage "classes") and the base metric
    they give (stage "base").  ShapeError if a fixture base has not one point per class."""
    with stage("classes"):
        classes = extract_line_classes(fixture.space, fixture.lines, reference, args.tol_tau, args.geo_tol)
    base = fixture.base
    if base is not None and base.m != len(classes):
        raise ShapeError(f"fixture base has {base.m} points, but its lines give {len(classes)} line classes")
    with stage("base"):
        return classes, compute_dS(fixture.space, classes, args.tol_tau)


def _unrecovered(name, error):
    """The one check of a split or roundtrip whose base could not be recovered: a
    FAIL for NotParallel, a finding; a SKIP for WindowExhausted, which the sample cannot decide."""
    status = "FAIL" if isinstance(error, NotParallel) else "SKIP"
    return [{"name": name, "status": status, "reason": str(error)}], None


def _windowless(name, recovered):
    """A SKIP check of the recovered base when some class pair has no causal window
    in the sample (dS = +inf), which the sample cannot decide; else None."""
    if not recovered.infinite_pairs:
        return None
    pairs = ", ".join(f"({a}, {b})" for a, b, _ in recovered.infinite_pairs)
    reason = f"no causal window in the sample for class pairs {pairs}, so their base distance is not recovered"
    return {"name": name, "status": "SKIP", "reason": reason}


def cmd_split(args, fixture, stage):
    space, lines, base = fixture.space, fixture.lines, fixture.base
    reference = lines[_index("--reference", args.reference, len(lines), "lines")]
    try:
        classes, recovered = _recovered_base(args, fixture, reference, stage)
    except (NotParallel, WindowExhausted) as e:
        return _unrecovered("classes", e)
    checks = [
        {
            "name": "classes",
            "status": "PASS",
            "count": len(classes),
            "infinite_pairs": len(recovered.infinite_pairs),
        }
    ]
    embedding = _windowless("embedding", recovered)
    if embedding is None:
        with stage("embedding"):
            emb = verify_embedding(space, classes, recovered)
        step = recovered.step
        embedding = {
            "name": "embedding",
            "status": "PASS" if emb.causal_agreement == 1.0 and emb.max_tau_error <= step + args.tol_tau else "FAIL",
            "max_tau_error": emb.max_tau_error,
            "step": step,
            "causal_agreement": emb.causal_agreement,
            "pairs_trimmed": emb.pairs_trimmed,
        }
    checks.append(embedding)
    if base is not None and not base.midpoints:
        checks.append({"name": "base-cat0", "status": "SKIP", "reason": "base has no midpoints"})
    elif base is not None:
        cat0 = verify_base_metric_cat0(base.dist, base.midpoints)
        checks.append(
            {
                "name": "base-cat0",
                "status": "PASS" if cat0.ok else "FAIL",
                "min_margin": cat0.min_margin,
                "checked": cat0.checked,
                "skipped": cat0.skipped_no_midpoint,
            }
        )
    series = {
        "dS": {
            "columns": ["i", "j", "dS"],
            "rows": [[i, j, float(recovered.dS[i, j])] for i, j in np.argwhere(np.isfinite(recovered.dS)).tolist()],
        }
    }
    return checks, series


def cmd_roundtrip(args, fixture, stage):
    lines, base = fixture.lines, fixture.base
    if base is None:
        raise LorentzGeoError("fixture carries no base metric; roundtrip needs a product fixture")
    reference = lines[_index("reference line", 0, len(lines), "lines")]
    try:
        _, recovered = _recovered_base(args, fixture, reference, stage)
    except (NotParallel, WindowExhausted) as e:
        return _unrecovered("roundtrip", e)
    windowless = _windowless("roundtrip", recovered)
    if windowless is not None:
        return [windowless], None
    dev = float(np.abs(recovered.dS - base.dist).max())
    step = recovered.step
    checks = [
        {
            "name": "roundtrip",
            "status": "PASS" if dev <= step + args.tol_tau else "FAIL",
            "deviation": dev,
            "step": step,
            "cross_check": float(np.abs(recovered.dS - recovered.dS_alt).max()),
        }
    ]
    return checks, None


def cmd_plotdata(args):
    report = load_report(args.report)
    written = emit_plotdata(report, args.output, stem=args.report.stem)
    for p in written:
        print(f"csv -> {p}")
    return 0


# Each fixture command: its function and the (flag, type, default) options it
# reads, besides -o; a None default makes the flag required.
FIXTURE_COMMANDS = {
    "axioms": (cmd_axioms, []),
    "curvature": (cmd_curvature, [K, ("--direction", str, "above"), ("--cap", int, 20_000), SEED, GEO_TOL]),
    "angles": (cmd_angles, [K, ("--cap", int, 60), SEED, TOL_ANGLE, GEO_TOL]),
    "fvf": (cmd_fvf, [("--point", int, None), ("--vertex", int, None), ("--target", int, None), K, TOL_ANGLE, GEO_TOL]),
    "rigidity": (cmd_rigidity, [K, ("--cap", int, 100), SEED, TOL_TAU, TOL_ANGLE, GEO_TOL]),
    "quadrangle": (cmd_quadrangle, [("--vertices", str, None), K, TOL_ANGLE]),
    "lines": (cmd_lines, [GEO_TOL]),
    "strip": (cmd_strip, [("--alpha", int, 0), ("--beta", int, 1), TOL_TAU]),
    "ray": (cmd_ray, [("--line", int, 0), ("--point", int, None), ("--horizons", str, None), GEO_TOL]),
    "split": (cmd_split, [("--reference", int, 0), TOL_TAU, GEO_TOL]),
    "roundtrip": (cmd_roundtrip, [TOL_TAU, GEO_TOL]),
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "plotdata":
            return cmd_plotdata(args)
        return run_fixture_command(args, FIXTURE_COMMANDS[args.command][0])
    except (LorentzGeoError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
