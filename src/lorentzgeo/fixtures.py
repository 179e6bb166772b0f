"""Fixture generators: sampled spaces with known ground truth.

Planar point sets (grids, ray fans), de Sitter hyperboloid samples with
meridian lines and optional geodesic fans, and finite metric bases
(point, pair, tripod, Euclidean grid, hyperbolic disk sample, sphere
sample) for the product construction.
"""

import math

import numpy as np

from .errors import ShapeError
from .modelspace import ds_check_point, ds_form, ds_geodesic_point, ds_separations, ds_tangent_toward, plane_separations
from .parallels import LineSample
from .sampled import SampledSpace
from .splitting import MetricSampleIn, build_product


def space_from_plane_points(points, meta=None) -> SampledSpace:
    """Sampled space induced by explicit Minkowski-plane coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError("plane points must be an (n, 2) array of (t, x)")
    tau, causal = plane_separations(pts)
    m = dict(meta or {})
    m.setdefault("generator", "plane-points")
    m["coords"] = pts.tolist()
    return SampledSpace(tau=tau, causal=causal, meta=m)


def minkowski_grid(nt: int = 21, nx: int = 21, step: float = 1.0) -> SampledSpace:
    """Rectangular lattice in the Minkowski plane; index = it * nx + ix."""
    ts = step * np.arange(nt)
    xs = step * np.arange(nx)
    pts = np.array([(t, x) for t in ts for x in xs])
    return space_from_plane_points(
        pts,
        meta={"generator": "minkowski-grid", "nt": nt, "nx": nx, "step": step, "claimed_bound": 0.0},
    )


def grid_vertical_line(nt: int, nx: int, step: float, ix: int) -> LineSample:
    """Canonical vertical line of a minkowski_grid fixture."""
    return LineSample(
        points=np.arange(nt) * nx + ix,
        t0=0.0,
        step=step,
        kind="line",
        label=f"x={ix * step:g}",
    )


def plane_ray_fan(p, line_x, horizons, t_max, fan_spacing=0.25):
    """Planar fixture for asymptotic-ray runs.

    A vertical line at x=line_x sampled at unit steps up to t_max, a base
    point p off the line, and each segment [p, line(T)] for T in horizons
    sampled at roughly fan_spacing arclength steps (equal spacing across
    fans keeps parameter-matched drift comparisons unquantized).
    Returns (space, line, meta).
    """
    p = (float(p[0]), float(p[1]))
    coords = [p]
    n_line = int(round(t_max)) + 1
    line_idx = []
    for k in range(n_line):
        line_idx.append(len(coords))
        coords.append((float(k), line_x))
    for T in horizons:
        end = (T, line_x)
        seg_len = math.sqrt((end[0] - p[0]) ** 2 - (end[1] - p[1]) ** 2)
        m = max(2, int(round(seg_len / fan_spacing)))
        for j in range(1, m):
            f = j / m
            coords.append((p[0] + f * (end[0] - p[0]), p[1] + f * (end[1] - p[1])))
    space = space_from_plane_points(
        coords, meta={"generator": "plane-ray-fan", "horizons": list(horizons)}
    )
    line = LineSample(
        points=np.array(line_idx), t0=0.0, step=1.0, kind="future-ray", label="alpha"
    )
    return space, line, {"p": 0}


# ---------------------------------------------------------------------------
# De Sitter samples.
# ---------------------------------------------------------------------------


def ds_meridian_point(t: float, phi: float):
    """Point of the unit de Sitter quadric on the meridian at angle phi."""
    return np.array([math.sinh(t), math.cosh(t) * math.cos(phi), math.cosh(t) * math.sin(phi)])


def space_from_desitter_points(points, meta=None) -> SampledSpace:
    """Sampled space induced by points on the de Sitter quadric."""
    pts = np.asarray(points, dtype=float)
    for p in pts:
        ds_check_point(p, tol=1e-9)
    tau, causal = ds_separations(pts)
    m = dict(meta or {})
    m.setdefault("generator", "desitter-sample")
    m["coords"] = pts.tolist()
    m.setdefault("claimed_bound", 1.0)
    return SampledSpace(tau=tau, causal=causal, meta=m)


def desitter_sample(
    n_angles: int = 12,
    n_times: int = 25,
    t_max: float = 3.0,
    fan: dict | None = None,
):
    """Meridian grid on the de Sitter quadric, with optional geodesic fans.

    The meridians are timelike geodesic lines parametrized by arclength;
    a fan adds exact sample points along the geodesics from a base point
    p (on meridian fan["phi"], at t=fan["t"]) toward line points of
    meridian 0 at parameters fan["horizons"] (positive and negative).
    Returns (space, meridian lines, fan_info).
    """
    phis = 2.0 * math.pi * np.arange(n_angles) / n_angles
    ts = np.linspace(-t_max, t_max, n_times)
    step = float(ts[1] - ts[0])
    coords = []
    lines = []
    for a, phi in enumerate(phis):
        idx = []
        for t in ts:
            idx.append(len(coords))
            coords.append(ds_meridian_point(t, phi))
        lines.append(
            LineSample(points=np.array(idx), t0=float(ts[0]), step=step, kind="line", label=f"phi={phi:.3f}")
        )
    fan_info = {}
    if fan:
        phi0 = fan["phi"]
        p = ds_meridian_point(fan.get("t", 0.0), phi0)
        p_index = len(coords)
        coords.append(p)
        fan_info = {"p": p_index, "targets": {}, "phi": phi0}
        npts = fan.get("points", 12)
        for T in fan["horizons"]:
            q = ds_meridian_point(T, 0.0)
            w = ds_tangent_toward(p, q)
            total = math.acosh(ds_form(p, q))
            for j in range(1, npts):
                coords.append(ds_geodesic_point(p, w, total * j / npts))
            fan_info["targets"][T] = total
    space = space_from_desitter_points(
        coords,
        meta={
            "generator": "desitter-sample",
            "n_angles": n_angles,
            "n_times": n_times,
            "t_max": t_max,
            "claimed_bound": 1.0,
        },
    )
    return space, lines, fan_info


# ---------------------------------------------------------------------------
# Metric bases for products.
# ---------------------------------------------------------------------------


def base_point() -> MetricSampleIn:
    return MetricSampleIn(dist=np.zeros((1, 1)), labels=["o"], meta={"base": "point"})


def base_pair(d: float = 1.0) -> MetricSampleIn:
    return MetricSampleIn(
        dist=np.array([[0.0, d], [d, 0.0]]), labels=["u", "v"], meta={"base": "pair", "d": d}
    )


def base_tripod(edge: float = 1.0, subdiv: int = 1) -> MetricSampleIn:
    """Three legs of the given edge length glued at a center.

    subdiv > 1 samples each leg at subdiv points; tree distance is along
    the legs through the center.  Midpoints are recorded where sampled.
    """
    pos = [("c", 0, 0.0)]
    for leg in range(3):
        for j in range(1, subdiv + 1):
            pos.append((f"l{leg + 1}" + ("" if j == subdiv else f".{j}"), leg + 1, edge * j / subdiv))
    m = len(pos)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            _, leg_i, r_i = pos[i]
            _, leg_j, r_j = pos[j]
            dist[i, j] = abs(r_i - r_j) if leg_i == leg_j or leg_i == 0 or leg_j == 0 else r_i + r_j
    labels = [p[0] for p in pos]
    mids = {}
    locator = {(leg, round(r, 12)): k for k, (_, leg, r) in enumerate(pos)}
    locator[(0, 0.0)] = 0
    for i in range(m):
        for j in range(i + 1, m):
            _, leg_i, r_i = pos[i]
            _, leg_j, r_j = pos[j]
            if leg_i == leg_j or leg_i == 0 or leg_j == 0:
                leg = max(leg_i, leg_j)
                target = (leg, round((r_i + r_j) / 2, 12))
            else:
                half = (r_i + r_j) / 2
                if half <= r_i:
                    target = (leg_i, round(r_i - half, 12))
                else:
                    target = (leg_j, round(r_j - half, 12)) if half <= r_j else None
                if target is not None and target[1] == 0.0:
                    target = (0, 0.0)
            if target is not None and target in locator:
                mids[(i, j)] = locator[target]
    return MetricSampleIn(dist=dist, labels=labels, midpoints=mids, meta={"base": "tripod", "edge": edge, "subdiv": subdiv})


def base_euclid_grid(m: int = 4, spacing: float = 1.0) -> MetricSampleIn:
    """m x m planar grid with Euclidean distances; midpoints where sampled."""
    coords = [(i * spacing, j * spacing) for i in range(m) for j in range(m)]
    pts = np.asarray(coords)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    index = {c: k for k, c in enumerate(coords)}
    mids = {}
    for i, ci in enumerate(coords):
        for j in range(i + 1, len(coords)):
            cj = coords[j]
            mid = ((ci[0] + cj[0]) / 2, (ci[1] + cj[1]) / 2)
            if mid in index:
                mids[(i, j)] = index[mid]
    labels = [f"({c[0]:g},{c[1]:g})" for c in coords]
    return MetricSampleIn(dist=dist, labels=labels, midpoints=mids, meta={"base": "euclid-grid", "m": m, "spacing": spacing})


def base_hyperbolic_sample(m: int = 6, seed: int = 0) -> MetricSampleIn:
    """Random points in the Poincare disk with hyperbolic distances."""
    radius = 0.7  # Euclidean radius of the disk the points are drawn from
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < m:
        z = rng.uniform(-radius, radius, 2)
        if np.hypot(*z) < radius:
            pts.append(z)
    pts = np.asarray(pts)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            num = 2 * np.sum((pts[i] - pts[j]) ** 2)
            den = (1 - np.sum(pts[i] ** 2)) * (1 - np.sum(pts[j] ** 2))
            dist[i, j] = math.acosh(1 + num / den)
    return MetricSampleIn(dist=dist, meta={"base": "hyperbolic-sample", "m": m, "seed": seed})


def base_sphere_sample() -> MetricSampleIn:
    """Five-point sample of the unit sphere (pole + equatorial cross).

    Great-circle distances; the pole witnesses the midpoint of antipodal
    equatorial pairs.  Positively curved, so the product over it violates
    the nonpositive timelike curvature bound.
    """
    half_pi = math.pi / 2
    dist = np.array(
        [
            [0, half_pi, half_pi, half_pi, half_pi],
            [half_pi, 0, half_pi, math.pi, half_pi],
            [half_pi, half_pi, 0, half_pi, math.pi],
            [half_pi, math.pi, half_pi, 0, half_pi],
            [half_pi, half_pi, math.pi, half_pi, 0],
        ]
    )
    labels = ["pole", "e0", "e90", "e180", "e270"]
    mids = {(1, 3): 0, (2, 4): 0}
    return MetricSampleIn(dist=dist, labels=labels, midpoints=mids, meta={"base": "sphere-sample"})


_BASES = {
    "point": base_point,
    "pair": base_pair,
    "tripod": base_tripod,
    "euclid-grid": base_euclid_grid,
    "hyperbolic-sample": base_hyperbolic_sample,
    "sphere-sample": base_sphere_sample,
}


def make_base(name: str, **kwargs) -> MetricSampleIn:
    if name not in _BASES:
        raise ShapeError(f"unknown base {name!r}; choose from {sorted(_BASES)}")
    return _BASES[name](**kwargs)


def product_fixture(base_name: str, step: float = 0.5, window: float = 8.0, **base_kwargs):
    """Product fixture over a named base on the grid [-window, window]."""
    base = make_base(base_name, **base_kwargs)
    n = int(round(2 * window / step)) + 1
    t_grid = -window + step * np.arange(n)
    space, lines = build_product(base, t_grid)
    space.meta["claimed_bound"] = 0.0 if base_name != "sphere-sample" else None
    return space, lines, base
