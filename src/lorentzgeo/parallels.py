"""Timelike lines and rays on sampled spaces.

Covers the line/geodesic witness on uniform parameter grids, weak and
synchronised parallelism, the constant-separation profile F(c) between
parallel lines with its one-sided derivative, flat-strip reconstruction
with explicit planar coordinates, asymptotic-ray extraction with
convergence diagnostics, and the zero-angle concatenation test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    NotInPast,
    ShapeError,
    StripInconsistent,
    WindowExhausted,
)
from .sampled import (
    Chain,
    SampledSpace,
    _geodesics,
    estimate_angle,
    geodesic_between,
    geodesic_through,
    plane_map_check,
)
from .tolerances import DEFAULT_GEO_TOL, DEFAULT_TOL_TAU, scaled


@dataclass(frozen=True)
class LineSample:
    """A line or ray sampled on a uniform parameter grid t0 + k*step."""

    points: np.ndarray
    t0: float
    step: float
    kind: str = "line"  # line | future-ray | past-ray
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=int))
        if not (math.isfinite(self.t0) and math.isfinite(self.step)):
            raise ShapeError("line t0 and step must be finite")
        if self.step <= 0:
            raise ShapeError("line step must be positive")
        if self.kind not in ("line", "future-ray", "past-ray"):
            raise ShapeError(f"unknown line kind {self.kind!r}")

    @property
    def params(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.points))

    def shifted(self, dt: float) -> "LineSample":
        """Same sampled points, parameters shifted by dt."""
        return LineSample(self.points, self.t0 + dt, self.step, self.kind, self.label)

    def point_at(self, t: float) -> int:
        k = round((t - self.t0) / self.step)
        if not (0 <= k < len(self.points)) or abs(self.t0 + k * self.step - t) > 1e-9 * (
            1 + abs(t)
        ):
            raise ValueError(f"parameter {t} not on the grid of {self.label or 'line'}")
        return int(self.points[k])

    def __len__(self) -> int:
        return len(self.points)


def is_line(space: SampledSpace, line: LineSample, tol: float = DEFAULT_GEO_TOL):
    """Geodesic witness on the whole grid: tau(p_i, p_j) = (j-i)*step.

    Returns (ok, worst) where worst reports the pair with the largest
    deviation between parameter difference and sampled separation.
    """
    pts = line.points
    if len(pts) <= 1:
        return True, {"deficit": 0.0, "pair": None}
    prm = line.params
    target = prm[None, :] - prm[:, None]
    actual = space.tau[np.ix_(pts, pts)]
    upper = np.triu(np.ones_like(actual, dtype=bool), 1)
    dev = np.where(upper, target - actual, 0.0)
    worst_idx = np.unravel_index(int(np.argmax(np.abs(dev))), dev.shape)
    worst = {
        "deficit": float(dev[worst_idx]),
        "pair": (int(pts[worst_idx[0]]), int(pts[worst_idx[1]])),
        "params": (float(prm[worst_idx[0]]), float(prm[worst_idx[1]])),
    }
    ok = bool(np.all(np.abs(dev) <= tol * (1.0 + np.abs(target))))
    return ok, worst


def _squarable(value: float, what: str) -> float:
    """value, raising DomainError when it is too large to square in float64.

    The limit is 2**510: twice it still squares finitely, (2 * 2**510)**2 = 2**1022.
    """
    if not value < 2.0**510:
        raise DomainError(f"{what} {value:.4g} is too large to square in float64")
    return value


def _offsets(first: LineSample, second: LineSample):
    """(d, s) of the grid offsets s >= 0 between two lines, in increasing order.

    At index shift d, first.points[i] and second.points[i + d] sit at
    parameters t and t + s, for every i both lines hold.  The floor of s
    scales with the parameters' magnitude, so the aligned zero offset
    survives the rounding of parameters far from zero.  Raises ShapeError
    when the lines' grid steps differ.
    """
    h = first.step
    if abs(second.step - h) > 1e-12 * (1 + h):
        raise ShapeError("incompatible grid steps")
    na, nb = len(first), len(second)
    d = np.arange(1 - na, nb) if na and nb else np.zeros(0, dtype=int)
    at = second.t0 + d * h
    s = at - first.t0
    keep = s >= -1e-12 * (1 + np.maximum(np.abs(at), abs(first.t0)))
    return d[keep], s[keep]


def _overlaps(first: LineSample, second: LineSample):
    """Yields (s, i, j) for each offset of _offsets, in its order:
    first.points[i] and second.points[j] sit at parameters t and t + s."""
    na, nb = len(first), len(second)
    for d, s in zip(*_offsets(first, second)):
        i = np.arange(max(0, -d), min(na, nb - d))
        yield float(s), i, i + d


def weakly_parallel_offset(space, alpha: LineSample, beta: LineSample):
    """Smallest nonnegative grid offsets realizing mutual causal precedence.

    Returns (s_ab, s_ba) with alpha(t) <= beta(t + s_ab) and
    beta(t) <= alpha(t + s_ba) on every overlapping grid parameter, or
    None when no offset the lines overlap at works.  Each direction
    gathers the lines' causal block once: offset d is the block's d-th
    diagonal, read as a row of a strided view of a True-padded copy.
    """
    def scan(first: LineSample, second: LineSample):
        d, s = _offsets(first, second)
        if not d.size:
            return None
        na, nb = len(first), len(second)
        padded = np.ones((na, nb + 2 * (na - 1)), dtype=bool)  # True where a diagonal leaves the block
        padded[:, na - 1 : na - 1 + nb] = space.causal[np.ix_(first.points, second.points)]
        rows, cols = padded.strides
        # diagonals[d + na - 1, i] is padded[i, i + d + na - 1], the block's entry (i, i + d)
        diagonals = np.lib.stride_tricks.as_strided(padded, (na + nb - 1, na), (cols, rows + cols), writeable=False)
        passing = diagonals[d + na - 1].all(axis=1)
        return float(s[np.argmax(passing)]) if passing.any() else None

    s_ab, s_ba = scan(alpha, beta), scan(beta, alpha)
    if s_ab is None or s_ba is None:
        return None
    return s_ab, s_ba


@dataclass
class SyncFit:
    t0: float
    c0: float
    max_tau_error: float
    causal_mismatches: int


def sync_parallel_fit(space, alpha: LineSample, beta: LineSample, tol: float = DEFAULT_TOL_TAU):
    """Fit the synchronised-parallel normal form between two lines.

    Seeks (t0, c0) with tau(alpha(s), beta(t)) = sqrt((t + t0 - s)^2 - c0^2)
    and causality exactly at t + t0 - s >= c0, validated on every sampled
    pair.  Returns a SyncFit or None.
    """
    pa, pb = alpha.points, beta.points
    A, B = alpha.params, beta.params
    tau = space.tau[np.ix_(pa, pb)]
    causal = space.causal[np.ix_(pa, pb)]
    u = B[None, :] - A[:, None]
    chron = tau > 0
    if chron.sum() < 2:
        return None
    top = _squarable(max(float(np.abs(u).max()), float(tau.max())), "parameter difference or separation")

    def solve(unit):
        """(t0, t0^2 - c0^2, rank) from tau^2 - u^2 = 2 u t0 + (t0^2 - c0^2) on chronological
        pairs, solved in a power-of-two unit, which divides exactly."""
        x, y = u[chron] / unit, tau[chron] / unit
        coef, _, rank, _ = np.linalg.lstsq(np.column_stack([2.0 * x, np.ones_like(x)]), y * y - x * x, rcond=None)
        return float(coef[0]) * unit, float(coef[1]) * unit * unit, rank

    t0, offset_sq, rank = solve(1.0)
    if rank < 2:  # the two columns' scales differ too far for lstsq: a large unit of time
        t0, offset_sq, _ = solve(2.0 ** math.frexp(top)[1])
    c0sq = t0 * t0 - offset_sq
    if c0sq < -scaled(tol, top * top):
        return None
    c0 = math.sqrt(max(c0sq, 0.0))

    delta = u + t0
    inside = delta >= c0 - scaled(tol, top)
    pred = np.where(inside, np.sqrt(np.maximum(delta * delta - c0 * c0, 0.0)), 0.0)
    mism = int(np.count_nonzero(causal != inside))
    fit = SyncFit(t0=t0, c0=c0, max_tau_error=float(np.abs(tau - pred).max()), causal_mismatches=mism)
    if fit.max_tau_error > scaled(tol, float(np.max(tau))) or mism:
        return None
    return fit


@dataclass
class StripProfile:
    """Separation profile between weakly parallel lines.

    F[k] is the mean of tau(alpha(t), beta(t + offsets[k])) over the
    overlap, max_dev[k] its worst deviation from the mean (constancy),
    Fp[k] the one-sided derivative estimate.
    """

    offsets: np.ndarray
    F: np.ndarray
    Fp: np.ndarray
    max_dev: np.ndarray
    angle_probe: dict = field(default_factory=dict)


def strip_profile(space, alpha: LineSample, beta: LineSample, angle_probes: int = 0):
    """Per-offset constancy statistics of the separation profile.

    The derivative F'(c+) is taken from a one-sided three-point stencil
    applied to F^2 (a quadratic for synchronised flat strips, hence exact
    there) and divided by 2F.
    """
    cands = list(_overlaps(alpha, beta))
    if len(cands) < 3:
        raise WindowExhausted("need at least three offsets for the profile")
    offs = np.array([s for s, _, _ in cands])
    F = np.empty(len(cands))
    max_dev = np.empty(len(cands))
    for k, (s, i, j) in enumerate(cands):
        vals = space.tau[alpha.points[i], beta.points[j]]
        F[k] = vals.mean()
        max_dev[k] = np.abs(vals - F[k]).max() if len(vals) > 1 else 0.0

    Fp = np.full(len(F), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        Fp[:-2] = np.where(F[:-2] > 0, _f2_slope(offs, F) / (2.0 * F[:-2]), np.nan)

    probe = {}
    if angle_probes > 0:
        probe = _angle_constancy_probe(space, alpha, beta, offs, F, angle_probes)
    return StripProfile(offsets=offs, F=F, Fp=Fp, max_dev=max_dev, angle_probe=probe)


def _f2_slope(offsets, F):
    """dF^2/dc at every offset but the last two, by a one-sided three-point stencil."""
    _squarable(float(F.max(initial=0.0)), "separation")
    G = F * F
    return (-3.0 * G[:-2] + 4.0 * G[1:-1] - G[2:]) / (2.0 * np.diff(offsets)[:-1])


def _angle_constancy_probe(space, alpha, beta, offs, F, n_probes):
    """Angle of the hinge at beta(t) toward alpha(t - c) and along beta."""
    active = np.flatnonzero(F > 1e-9)
    if not active.size:
        return {}
    c = float(offs[active[0]])
    h = beta.step
    values = []
    A, B = alpha.params, beta.params
    for t in np.linspace(B[1], B[-2], n_probes):
        tb = B[np.argmin(np.abs(B - t))]
        ta = tb - c
        k = np.argmin(np.abs(A - ta))
        if abs(A[k] - ta) > 1e-9 * (1 + abs(ta)):
            continue
        pa = int(alpha.points[k])
        ib = int(round((tb - beta.t0) / h))
        if ib + 1 >= len(beta):
            continue
        pb = int(beta.points[ib])
        if space.tau[pa, pb] <= 0:
            continue
        past = geodesic_between(space, pa, pb)
        ahead = Chain(beta.points[ib : ib + 2], np.array([0.0, h]))
        try:
            est = estimate_angle(space, past, ahead, pb)
            values.append(est.value)
        except DomainError:
            continue
    if not values:
        return {}
    return {
        "offset": c,
        "values": values,
        "deviation": float(max(values) - min(values)),
    }


@dataclass
class FlatStrip:
    shift: float
    c0: float
    width: float
    max_tau_error: float
    causal_mismatches: int


def flat_strip_reconstruct(space, alpha: LineSample, beta: LineSample, tol: float = DEFAULT_TOL_TAU):
    """Planar embedding of the strip spanned by two parallel lines.

    The spatial separation comes from the profile identity
    width^2 = (dF^2/dc / 2)^2 - F^2, which must agree with the
    synchronised spacelike distance; disagreement (curvature along the
    strip) raises StripInconsistent.
    """
    fit = sync_parallel_fit(space, alpha, beta, tol)
    if fit is None:
        raise StripInconsistent("lines do not fit the synchronised normal form")
    profile = strip_profile(space, alpha, beta)
    slope = _f2_slope(profile.offsets, profile.F)
    active = np.flatnonzero(profile.F > scaled(tol, 0.0))
    width = None
    for k in active:
        if k + 2 < len(profile.F) and np.all(profile.F[k : k + 3] > 0):
            wsq = (slope[k] / 2.0) ** 2 - profile.F[k] * profile.F[k]
            if wsq < -scaled(tol, profile.F[k] * profile.F[k]):
                raise StripInconsistent(f"negative squared width {wsq} at offset {profile.offsets[k]}")
            width = math.sqrt(max(wsq, 0.0))
            break
    if width is None:
        width = fit.c0  # degenerate strip: no active offsets (same line)
    if abs(width - fit.c0) > scaled(tol * 10, fit.c0) + 1e-6:
        raise StripInconsistent(
            f"width identity fails: profile width {width} vs spacelike distance {fit.c0}"
        )

    # validate the explicit embedding on all sampled pairs
    coords = {}
    for p, t in zip(alpha.points, alpha.params):
        coords.setdefault(int(p), (t, 0.0))
    for p, t in zip(beta.points, beta.params):
        coords.setdefault(int(p), (t + fit.t0, width))
    err, mism, _ = plane_map_check(space, coords)
    return FlatStrip(
        shift=fit.t0,
        c0=fit.c0,
        width=width,
        max_tau_error=err,
        causal_mismatches=mism,
    )


# ---------------------------------------------------------------------------
# Asymptotic rays.
# ---------------------------------------------------------------------------


@dataclass
class RayReport:
    chain: Chain
    horizons: list
    drifts: list
    ratios: list
    prefix: float
    stabilized: bool


def _comparison_offsets(space, anchor_past, anchor_future, points):
    """Trilaterate points into the plane between two anchors.

    Places anchor_past at the origin and anchor_future on the time axis;
    returns the invariant spatial offsets of the points.
    """
    T = space.tau[anchor_past, anchor_future]
    d1 = space.tau[anchor_past, points]
    d2 = space.tau[points, anchor_future]
    tbar = (T * T + d1 * d1 - d2 * d2) / (2.0 * T)
    return np.sqrt(np.maximum(tbar * tbar - d1 * d1, 0.0))


_PREFIX_FRACTION = 0.5


def asymptotic_ray(
    space,
    alpha: LineSample,
    p: int,
    horizons,
    geo_tol: float = DEFAULT_GEO_TOL,
) -> RayReport:
    """Geodesics from p to ever-later line points, with drift diagnostics.

    The drift between consecutive approximants is the largest change of
    the comparison-plane spatial offset (anchored at p and at the later
    line point) across parameter-matched prefix points; it tends to zero
    exactly when the approximants stabilize toward the parallel ray.  The
    prefix compared is the first _PREFIX_FRACTION of the shortest chain.
    """
    horizons = sorted(horizons)
    if len(horizons) < 2:
        raise ValueError("need at least two horizon parameters")
    targets = []
    for t in horizons:
        idx = alpha.point_at(t)
        if space.tau[p, idx] <= 0:
            raise NotInPast(f"point {p} is not in the past of the line at parameter {t}")
        targets.append(idx)
    chains = list(_geodesics(space, [p] * len(targets), targets, geo_tol))
    prefix = _PREFIX_FRACTION * chains[0].total
    drifts = []
    for a, b, far in zip(chains, chains[1:], targets[1:]):
        pa = a.points[(a.params > 0) & (a.params <= prefix)]
        sa = a.params[(a.params > 0) & (a.params <= prefix)]
        pb = b.points[(b.params > 0)]
        sb = b.params[(b.params > 0)]
        if not len(pa) or not len(pb):
            drifts.append(float("nan"))
            continue
        xa = _comparison_offsets(space, p, far, pa)
        xb_all = _comparison_offsets(space, p, far, pb)
        nearest = np.abs(sb[None, :] - sa[:, None]).argmin(axis=1)
        drifts.append(float(np.abs(xa - xb_all[nearest]).max()))
    ratios = [
        drifts[k + 1] / drifts[k]
        for k in range(len(drifts) - 1)
        if drifts[k] and np.isfinite(drifts[k]) and np.isfinite(drifts[k + 1])
    ]
    finite = [d for d in drifts if np.isfinite(d)]
    stabilized = len(finite) >= 2 and finite[-1] <= finite[0]
    last = chains[-1]
    keep = last.params <= max(prefix, last.params[1] if len(last) > 1 else prefix)
    keep[0] = True
    truncated = Chain(last.points[keep], last.params[keep]) if keep.sum() >= 2 else last
    return RayReport(
        chain=truncated,
        horizons=list(horizons),
        drifts=drifts,
        ratios=ratios,
        prefix=float(prefix),
        stabilized=bool(stabilized),
    )


def concat_angle(space, beta_minus: Chain, beta_plus: Chain, p: int):
    """Angle between a past and a future chain at p, against the flat model, and the line test.

    Returns (angle, is_line, estimate): is_line checks the geodesic
    witness across the concatenation, which the zero-angle criterion
    predicts to hold exactly when the angle vanishes.
    """
    est = estimate_angle(space, beta_minus, beta_plus, p)
    if est.sign < 0:  # both chains leave p toward the same time orientation
        raise DomainError("concatenation needs one past- and one future-directed chain")
    return est.value, geodesic_through(space, beta_minus, beta_plus, p), est
