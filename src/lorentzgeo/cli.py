"""Batch command-line front end.

Non-interactive verification runs over JSON fixtures: generation,
axiom validation, curvature certification, angle inequalities, first
variation, rigidity and quadrangle checks, line/strip/ray diagnostics,
and the splitting pipeline.  Every command writes a JSON report; exit
code 0 means all checks passed, 1 means violations were found, 2 means
the input or invocation was malformed.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import fixtures as fx
from .errors import LorentzGeoError, StripInconsistent
from .io import (
    emit_plotdata,
    file_digest,
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
    certify_curvature_bound,
    check_angle_inequalities,
    fvf_empirical,
    geodesic_between,
    sample_triangles,
    validate_axioms,
)
from .splitting import compute_dS, extract_line_classes, verify_base_metric_cat0, verify_embedding
from .tolerances import DEFAULT_GEO_TOL, DEFAULT_TOL_ANGLE, DEFAULT_TOL_TAU


def _add_common(p):
    p.add_argument("--tol-tau", type=float, default=DEFAULT_TOL_TAU)
    p.add_argument("--tol-angle", type=float, default=DEFAULT_TOL_ANGLE)
    p.add_argument("--geo-tol", type=float, default=DEFAULT_GEO_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", type=Path, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="lorentzgeo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a fixture")
    gsub = g.add_subparsers(dest="kind", required=True)
    mk = gsub.add_parser("minkowski-grid")
    mk.add_argument("--nt", type=int, default=21)
    mk.add_argument("--nx", type=int, default=21)
    mk.add_argument("--step", type=float, default=1.0)
    _add_common(mk)
    ds = gsub.add_parser("desitter-sample")
    ds.add_argument("--n-angles", type=int, default=12)
    ds.add_argument("--n-times", type=int, default=25)
    ds.add_argument("--t-max", type=float, default=3.0)
    ds.add_argument("--fan-phi", type=float, default=None)
    ds.add_argument("--fan-horizons", type=str, default=None)
    ds.add_argument("--fan-points", type=int, default=24)
    _add_common(ds)
    pr = gsub.add_parser("product")
    pr.add_argument("--base", required=True, choices=sorted(fx._BASES))
    pr.add_argument("--step", type=float, default=0.5)
    pr.add_argument("--window", type=float, default=8.0)
    pr.add_argument("--d", type=float, default=None, help="pair distance")
    pr.add_argument("--edge", type=float, default=None, help="tripod edge length")
    pr.add_argument("--subdiv", type=int, default=None, help="tripod leg subdivisions")
    pr.add_argument("--m", type=int, default=None, help="grid side / sample size")
    pr.add_argument("--spacing", type=float, default=None, help="grid spacing")
    _add_common(pr)

    for name, extra in {
        "axioms": [],
        "curvature": [("--k", float, 0.0), ("--direction", str, "above"), ("--cap", int, 20_000)],
        "angles": [("--k", float, 0.0), ("--cap", int, 60)],
        "fvf": [("--point", int, None), ("--vertex", int, None), ("--target", int, None), ("--k", float, 0.0)],
        "rigidity": [("--k", float, 0.0), ("--cap", int, 100)],
        "quadrangle": [("--vertices", str, None), ("--k", float, 0.0)],
        "lines": [],
        "strip": [("--alpha", int, 0), ("--beta", int, 1)],
        "ray": [("--line", int, 0), ("--point", int, None), ("--horizons", str, None)],
        "split": [("--reference", int, 0)],
        "roundtrip": [],
    }.items():
        p = sub.add_parser(name)
        p.add_argument("fixture", type=Path)
        for flag, typ, default in extra:
            kwargs = {"type": typ, "default": default}
            if default is None:
                kwargs["required"] = True
            p.add_argument(flag, **kwargs)
        _add_common(p)

    pd = sub.add_parser("plotdata", help="emit CSV series from a report")
    pd.add_argument("report", type=Path)
    pd.add_argument("-o", "--output", type=Path, default=Path("."))
    return ap


def _tolerances(args):
    return {"tol_tau": args.tol_tau, "tol_angle": args.tol_angle, "geo_tol": args.geo_tol}


def _finish(args, report, default_name):
    out = args.output or args.fixture.with_name(args.fixture.stem + f"_{default_name}.json")
    save_report(out, report)
    for c in report["checks"]:
        bits = [f"{c['name']}: {c['status']}"]
        for key in ("margin", "max_violation", "max_slack", "deviation", "value"):
            if key in c:
                bits.append(f"{key}={c[key]:.4g}")
        print("  ".join(bits))
    print(f"report -> {out}")
    return report_status(report)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_gen(args):
    lines, chains, base, meta = [], [], None, {}
    if args.kind == "minkowski-grid":
        space = fx.minkowski_grid(args.nt, args.nx, args.step)
        lines = [fx.grid_vertical_line(args.nt, args.nx, args.step, ix) for ix in range(args.nx)]
    elif args.kind == "desitter-sample":
        fan = None
        if args.fan_phi is not None:
            horizons = [float(v) for v in (args.fan_horizons or "3.0,-3.0").split(",")]
            fan = {"phi": args.fan_phi, "horizons": horizons, "points": args.fan_points}
        space, lines, fan_info = fx.desitter_sample(args.n_angles, args.n_times, args.t_max, fan)
        meta["fan"] = fan_info
    else:
        kwargs = {}
        if args.d is not None:
            kwargs["d"] = args.d
        if args.edge is not None:
            kwargs["edge"] = args.edge
        if args.subdiv is not None:
            kwargs["subdiv"] = args.subdiv
        if args.m is not None:
            kwargs["m"] = args.m
        if args.spacing is not None:
            kwargs["spacing"] = args.spacing
        if args.base == "hyperbolic-sample":
            kwargs["seed"] = args.seed
        space, lines, base = fx.product_fixture(args.base, step=args.step, window=args.window, **kwargs)
    out = args.output or Path(f"{args.kind}.json")
    save_fixture(out, space, lines, chains, base, meta)
    print(f"fixture ({space.n} points, {len(lines)} lines) -> {out}")
    return 0


def cmd_axioms(args):
    space, *_ = load_fixture(args.fixture)
    t0 = time.time()
    rep = validate_axioms(space)
    checks = [
        {
            "name": "axioms",
            "status": "PASS" if rep.ok else "FAIL",
            "counts": rep.counts,
            "witnesses": rep.violations[:20],
        }
    ]
    report = make_report(
        "axioms",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "axioms")


def cmd_curvature(args):
    space, *_ = load_fixture(args.fixture)
    t0 = time.time()
    kappa = Kappa(args.k)
    triangles = sample_triangles(space, cap=args.cap, seed=args.seed, kappa=kappa)
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
        }
    ]
    report = make_report(
        "curvature",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, f"curvature_{args.direction}")


def _sample_hinges(space, cap, seed, geo_tol):
    rng = np.random.default_rng(seed)
    chron = space.tau > 0
    hinges = []
    candidates = np.flatnonzero(chron.sum(axis=1) >= 3)
    attempts = 0
    while len(hinges) < cap and attempts < 50 * max(cap, 1):
        attempts += 1
        if not candidates.size:
            break
        x = int(rng.choice(candidates))
        fut = np.flatnonzero(chron[x])
        past = np.flatnonzero(chron[:, x])
        if fut.size >= 3:
            a, b, c = (int(v) for v in rng.choice(fut, 3, replace=False))
            hinges.append(
                (
                    geodesic_between(space, x, a, geo_tol),
                    geodesic_between(space, x, b, geo_tol),
                    geodesic_between(space, x, c, geo_tol),
                    x,
                )
            )
        if past.size and fut.size >= 2 and len(hinges) < cap:
            a, b = (int(v) for v in rng.choice(fut, 2, replace=False))
            g = int(rng.choice(past))
            hinges.append(
                (
                    geodesic_between(space, x, a, geo_tol),
                    geodesic_between(space, x, b, geo_tol),
                    geodesic_between(space, g, x, geo_tol),
                    x,
                )
            )
    return hinges


def cmd_angles(args):
    space, *_ = load_fixture(args.fixture)
    t0 = time.time()
    hinges = _sample_hinges(space, args.cap, args.seed, args.geo_tol)
    reports = check_angle_inequalities(space, hinges, Kappa(args.k), args.tol_angle, args.geo_tol)
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
    report = make_report(
        "angles",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "angles")


def cmd_fvf(args):
    space, *_ = load_fixture(args.fixture)
    t0 = time.time()
    gamma = geodesic_between(space, args.vertex, args.target, args.geo_tol)
    rep = fvf_empirical(space, gamma, args.point, Kappa(args.k), args.geo_tol)
    decreasing = bool(np.all(np.diff(rep.errors[::-1]) <= args.tol_angle))
    checks = [
        {
            "name": "fvf-empirical",
            "status": "PASS" if decreasing else "FAIL",
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
    report = make_report(
        "fvf",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        series,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "fvf")


def cmd_rigidity(args):
    space, *_ = load_fixture(args.fixture)
    t0 = time.time()
    kappa = Kappa(args.k)
    triangles = sample_triangles(space, cap=args.cap, seed=args.seed, kappa=kappa)
    checks = []
    for k, tri in enumerate(triangles):
        try:
            rep = equality_conditions(space, tri, kappa, args.tol_angle, args.tol_tau)
        except LorentzGeoError as e:
            checks.append({"name": f"triangle[{k}]", "status": "SKIP", "reason": str(e)})
            continue
        implication_ok = rep.implications_hold()
        checks.append(
            {
                "name": f"triangle[{k}]({tri.x},{tri.y},{tri.z})",
                "status": "PASS" if implication_ok else "FAIL",
                "cond_i": rep.cond_i,
                "cond_ii": rep.cond_ii,
                "cond_iii": rep.cond_iii,
                "cond_iv": rep.cond_iv,
                "angle_gaps": rep.angle_gaps,
                "tau_gap_max": rep.tau_gap_max if np.isfinite(rep.tau_gap_max) else None,
            }
        )
    report = make_report(
        "rigidity",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "rigidity")


def cmd_quadrangle(args):
    space, *_ = load_fixture(args.fixture)
    t0 = time.time()
    p1, p2, p3, p4 = (int(v) for v in args.vertices.split(","))
    rep = quadrangle_rigidity(space, p1, p2, p3, p4, kappa=Kappa(args.k), tol=args.tol_angle)
    checks = [
        {
            "name": f"quadrangle({p1},{p2},{p3},{p4})",
            "status": "PASS",
            "value": rep.lhs_minus_rhs,
            "flat": rep.flat,
            "angles": rep.angles,
            "fill_in_error": rep.fill_in.max_tau_error if rep.fill_in else None,
            "causal_mismatches": rep.fill_in.causal_mismatches if rep.fill_in else None,
        }
    ]
    report = make_report(
        "quadrangle",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "quadrangle")


def cmd_lines(args):
    space, lines, *_ = load_fixture(args.fixture)
    t0 = time.time()
    checks = []
    for k, ln in enumerate(lines):
        ok, worst = is_line(space, ln, args.geo_tol)
        checks.append(
            {
                "name": f"line[{k}]{('=' + ln.label) if ln.label else ''}",
                "status": "PASS" if ok else "FAIL",
                "deviation": abs(worst["deficit"]),
                "worst": worst,
            }
        )
    report = make_report(
        "lines",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "lines")


def cmd_strip(args):
    space, lines, *_ = load_fixture(args.fixture)
    t0 = time.time()
    alpha, beta = lines[args.alpha], lines[args.beta]
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
    report = make_report(
        "strip",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        series,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "strip")


def cmd_ray(args):
    space, lines, *_ = load_fixture(args.fixture)
    t0 = time.time()
    horizons = [float(v) for v in args.horizons.split(",")]
    rep = asymptotic_ray(space, lines[args.line], args.point, horizons, args.geo_tol)
    checks = [
        {
            "name": "asymptotic-ray",
            "status": "PASS" if rep.stabilized else "FAIL",
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
    report = make_report(
        "ray",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        series,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "ray")


def cmd_split(args):
    space, lines, chains, base, meta = load_fixture(args.fixture)
    t0 = time.time()
    classes = extract_line_classes(space, lines, lines[args.reference], args.tol_tau, args.geo_tol)
    recovered = compute_dS(space, classes, args.tol_tau)
    emb = verify_embedding(space, classes, recovered)
    checks = [
        {
            "name": "classes",
            "status": "PASS",
            "count": len(classes),
            "infinite_pairs": len(recovered.infinite_pairs),
        },
        {
            "name": "embedding",
            "status": "PASS" if emb.causal_agreement == 1.0 else "FAIL",
            "max_tau_error": emb.max_tau_error,
            "causal_agreement": emb.causal_agreement,
            "pairs_trimmed": emb.pairs_trimmed,
        },
    ]
    if base is not None and base.midpoints:
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
    finite = recovered.dS[np.isfinite(recovered.dS)]
    report = make_report(
        "split",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        {
            "dS": {
                "columns": ["i", "j", "dS"],
                "rows": [
                    [int(i), int(j), float(recovered.dS[i, j])]
                    for i in range(recovered.m)
                    for j in range(recovered.m)
                    if np.isfinite(recovered.dS[i, j])
                ],
            }
        },
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "split")


def cmd_roundtrip(args):
    space, lines, chains, base, meta = load_fixture(args.fixture)
    t0 = time.time()
    if base is None:
        raise LorentzGeoError("fixture carries no base metric; roundtrip needs a product fixture")
    classes = extract_line_classes(space, lines, lines[0], args.tol_tau, args.geo_tol)
    recovered = compute_dS(space, classes, args.tol_tau)
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
    report = make_report(
        "roundtrip",
        {"fixture": str(args.fixture), "sha256": file_digest(args.fixture)},
        _tolerances(args),
        checks,
        runtime={"seconds": time.time() - t0, "timestamp": time.time()},
    )
    return _finish(args, report, "roundtrip")


def cmd_plotdata(args):
    report = load_report(args.report)
    written = emit_plotdata(report, args.output, stem=args.report.stem)
    for p in written:
        print(f"csv -> {p}")
    return 0


_COMMANDS = {
    "axioms": cmd_axioms,
    "curvature": cmd_curvature,
    "angles": cmd_angles,
    "fvf": cmd_fvf,
    "rigidity": cmd_rigidity,
    "quadrangle": cmd_quadrangle,
    "lines": cmd_lines,
    "strip": cmd_strip,
    "ray": cmd_ray,
    "split": cmd_split,
    "roundtrip": cmd_roundtrip,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "gen":
            return cmd_gen(args)
        return _COMMANDS[args.command](args)
    except (LorentzGeoError, OSError, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
