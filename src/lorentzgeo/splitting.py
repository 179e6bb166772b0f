"""The splitting pipeline.

Builds product spaces (time axis crossed with a metric base) as ground
truth, extracts and classifies parallel-line families, recovers the base
distance between line classes from causal data alone, and checks that
mapping (t, class) to the sampled line point is separation- and
causality-preserving.  The metric axioms and the nonpositive-curvature
midpoint inequality (verify_base_metric_cat0) are checked on a given base
metric with its midpoints: the split command and round_trip pass the
input base of the product, the ground truth, not the recovered distance.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotParallel, ShapeError, WindowExhausted
from .parallels import LineSample, _squarable, is_line, sync_parallel_fit, weakly_parallel_offset
from .sampled import SampledSpace
from .tolerances import DEFAULT_GEO_TOL, DEFAULT_TOL_TAU, scaled


@dataclass
class MetricSampleIn:
    """Finite metric space: symmetric distance matrix plus optional midpoints."""

    dist: np.ndarray
    labels: list | None = None
    midpoints: dict = field(default_factory=dict)  # (i, j) -> midpoint index
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        m = self.dist.shape[0] if self.dist.ndim else 0
        if self.dist.shape != (m, m):
            raise ShapeError(f"distance matrix must be square, got {self.dist.shape}")
        if not np.isfinite(self.dist).all():
            raise ShapeError("distances must be finite")
        if not np.allclose(self.dist, self.dist.T, atol=1e-12):
            raise ShapeError("distance matrix must be symmetric")
        if np.any(np.abs(np.diag(self.dist)) > 0):
            raise ShapeError("distance matrix must have zero diagonal")
        if np.any(self.dist < 0):
            raise ShapeError("distances must be nonnegative")
        if self.labels is not None and len(self.labels) != m:
            raise ShapeError(f"{len(self.labels)} labels for {m} points")

    @property
    def m(self) -> int:
        return self.dist.shape[0]

    def check_triangle_inequality(self, tol: float = 1e-12):
        d = self.dist
        for j in range(self.m):
            lhs = d[:, j][:, None] + d[j, :][None, :]
            if np.any(d > lhs + tol * (1.0 + lhs)):
                i, k = np.argwhere(d > lhs + tol * (1.0 + lhs))[0]
                return (int(i), j, int(k))
        return None


def build_product(base: MetricSampleIn, t_grid):
    """Product space over a metric base: point (k, x) has index x*T + k.

    tau((s,x),(t,y)) = sqrt((t-s)^2 - d(x,y)^2) when t - s >= d(x,y);
    causality is exactly t - s >= d(x,y).  Returns the space and the
    canonical vertical lines, one per base point.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2:
        raise ShapeError("t_grid needs at least two values")
    steps = np.diff(t_grid)
    if np.any(np.abs(steps - steps[0]) > 1e-12 * (1 + steps[0])):
        raise ShapeError("t_grid must be uniform")
    T = len(t_grid)
    m = base.m
    dt = t_grid[None, :] - t_grid[:, None]  # (T, T)
    d = base.dist  # (m, m)
    dt4 = dt[None, :, None, :]
    d4 = d[:, None, :, None]
    causal4 = dt4 >= d4 - 1e-15 * (1.0 + d4)
    q2 = dt4 * dt4 - d4 * d4
    tau4 = np.where(causal4 & (q2 > 0), np.sqrt(np.maximum(q2, 0.0)), 0.0)
    n = m * T
    tau = tau4.reshape(n, n)
    causal = causal4.reshape(n, n)
    labels = None
    if base.labels is not None:
        labels = [f"{x}@t={t:g}" for x in base.labels for t in t_grid]
    space = SampledSpace(
        tau=tau,
        causal=causal,
        labels=labels,
        meta={
            "generator": "product",
            "t0": float(t_grid[0]),
            "step": float(steps[0]),
            "n_times": T,
            "base_points": m,
            **base.meta,
        },
    )
    lines = [
        LineSample(
            points=np.arange(x * T, (x + 1) * T),
            t0=float(t_grid[0]),
            step=float(steps[0]),
            kind="line",
            label=f"base[{x}]",
        )
        for x in range(m)
    ]
    return space, lines


def same_class(l1: LineSample, l2: LineSample) -> bool:
    """Whether some shift makes the lines agree on more than half the shorter one.

    Only shifts d that align a shared point, l1.points[i] == l2.points[i + d], are tried.
    """
    p1, p2 = l1.points, l2.points
    i, j = np.nonzero(p1[:, None] == p2[None, :])
    for d in set((j - i).tolist()):
        lo = max(0, -d)
        hi = min(len(p1), len(p2) - d)
        if hi - lo < min(len(p1), len(p2)) // 2 + 1:
            continue
        if np.array_equal(p1[lo:hi], p2[lo + d : hi + d]):
            return True
    return False


def _sharing_earlier(lines):
    """For each line, the increasing indices of the earlier lines that share a point with it."""
    m = len(lines)
    points = np.concatenate([ln.points for ln in lines] + [np.zeros(0, dtype=int)])
    owner = np.repeat(np.arange(m), [len(ln) for ln in lines])
    order = np.argsort(points, kind="stable")  # by point; each point's lines stay in increasing order
    points, owner = points[order], owner[order]
    shares = np.zeros((m, m), dtype=bool)  # shares[k, j]: lines k >= j hold a common point
    for gap in range(1, len(points)):  # lines gap apart among one point's lines
        same = points[gap:] == points[:-gap]
        if not same.any():  # no point is held more than gap times
            break
        shares[owner[gap:][same], owner[:-gap][same]] = True
    return [np.flatnonzero(row[:k]).tolist() for k, row in enumerate(shares)]


def _grouped(lines):
    """The lines in same_class groups, each led by its first line, in order of their heads."""
    groups = {}  # head's index -> the group's lines
    for k, sharing in enumerate(_sharing_earlier(lines)):
        head = next((j for j in sharing if j in groups and same_class(lines[j], lines[k])), k)
        groups.setdefault(head, []).append(lines[k])
    return list(groups.values())


def extract_line_classes(space, lines, reference: LineSample, tol: float = DEFAULT_TOL_TAU, geo_tol: float = DEFAULT_GEO_TOL):
    """Group lines by shift equivalence and synchronise them to a reference.

    Returns one LineSample per class: its group's head, shifted onto the
    reference's parameters.  Each line joins the first earlier group whose
    head it is same_class with, or heads a group of its own.  same_class
    only holds for lines that share a point, so it is tried only on the
    (head, line) pairs that share one, which one sort of all the lines'
    points finds.

    Raises NotParallel when a line fails the geodesic witness, is not
    weakly parallel to the reference within the sampled windows, or fails
    the synchronised fit, and WindowExhausted when a class shares fewer
    than two chronological pairs with the reference, too few to fit.
    """
    all_lines = list(lines)
    for ln in all_lines + [reference]:
        ok, worst = is_line(space, ln, geo_tol)
        if not ok:
            raise NotParallel(f"{ln.label or 'line'} fails the line witness: {worst}")
    for ln in all_lines:
        if weakly_parallel_offset(space, reference, ln) is None:
            raise NotParallel(f"{ln.label or 'line'} is not weakly parallel to the reference")

    classes = []
    for g in _grouped(all_lines):
        fit = sync_parallel_fit(space, reference, g[0], tol)
        label = g[0].label or "line"
        if fit is None and np.count_nonzero(space.tau[np.ix_(reference.points, g[0].points)]) < 2:
            # the fit has two unknowns (shift and distance), so the sample cannot decide
            raise WindowExhausted(f"{label} has fewer than two chronological pairs with the reference to synchronise it")
        if fit is None:
            raise NotParallel(f"{label} cannot be synchronised to the reference")
        classes.append(g[0].shifted(fit.t0))
    return classes


def _stacked(reps):
    """(points, params, starts, lengths) of the representatives laid end to end."""
    lengths = np.array([len(r) for r in reps], dtype=np.intp)
    if np.any(lengths == 0):  # an empty segment has no reduceat value
        raise ShapeError("a line class representative has no points")
    points = np.concatenate([r.points for r in reps] + [np.zeros(0, dtype=int)])
    params = np.concatenate([r.params for r in reps] + [np.zeros(0)])
    return points, params, np.cumsum(lengths) - lengths, lengths


@dataclass
class BaseMetric:
    """Recovered distance matrix over synchronised line classes, and the
    (a, b) class pairs with no causal window in the sample (dS = +inf)."""

    dS: np.ndarray
    dS_alt: np.ndarray
    infinite_pairs: list
    step: float

    @property
    def m(self) -> int:
        return self.dS.shape[0]


def compute_dS(space, reps, tol: float = DEFAULT_TOL_TAU) -> BaseMetric:
    """Base distance between the classes' synchronised representatives from the causal data.

    Primary formula: half the infimal causal window (s, t) with
    beta(s) <= alpha(0) <= beta(t); cross-checked against the infimum of
    t - s over alpha(s) <= beta(t).  The two must agree to one grid step.
    Pairs with no causal connection inside the window are flagged +inf.
    """
    m = len(reps)
    step = reps[0].step if reps else 0.0
    points, params, starts, _ = _stacked(reps)
    dS = np.zeros((m, m))
    dS_alt = np.zeros((m, m))
    infinite = []
    for a, alpha in enumerate(reps):
        a0 = int(alpha.points[np.argmin(np.abs(alpha.params))])
        # per class: last parameter before a0, alpha's point nearest parameter 0, first one after it
        s_star = np.maximum.reduceat(np.where(space.causal[points, a0], params, -np.inf), starts)
        t_star = np.minimum.reduceat(np.where(space.causal[a0, points], params, np.inf), starts)
        window = np.isfinite(s_star) & np.isfinite(t_star)
        dS[a] = np.where(window, 0.5 * (t_star - s_star), np.inf)
        # fl(t - s) never grows with s and params increase, so each column's
        # least t - s over its causal rows is t minus its last causal row's param
        causal = space.causal[alpha.points][:, points]
        last = len(alpha) - 1 - np.argmax(causal[::-1], axis=0)
        du = np.where(causal.any(axis=0), params - alpha.params[last], np.inf)
        dS_alt[a] = np.minimum.reduceat(du, starts)
        dS[a, a] = dS_alt[a, a] = 0.0
        infinite += [(a, b) for b in np.flatnonzero(~window).tolist() if b != a]
    cross = np.abs(np.subtract(dS, dS_alt, out=np.zeros((m, m)), where=np.isfinite(dS)))  # no inf - inf
    if np.any(cross > step + scaled(tol, step)):
        i, j = np.argwhere(cross > step + scaled(tol, step))[0]
        raise WindowExhausted(
            f"dS cross-check failed for classes ({i},{j}): {dS[i,j]} vs {dS_alt[i,j]}"
        )
    return BaseMetric(dS=dS, dS_alt=dS_alt, infinite_pairs=infinite, step=step)


@dataclass
class Cat0Report:
    triangle_violation: tuple | None
    margins: np.ndarray  # float, one per row of triples
    triples: np.ndarray  # int (checked, 3): x, y, z with y < z, pair-major, then x
    min_margin: float
    checked: int
    skipped_no_midpoint: int

    @property
    def ok(self) -> bool:
        return self.triangle_violation is None and self.min_margin >= -1e-9


def verify_base_metric_cat0(dist, midpoints) -> Cat0Report:
    """Metric axioms plus the nonpositive-curvature midpoint inequality.

    For each triple (x; y, z) whose midpoint m of (y, z) is available:
    d(x,m)^2 <= d(x,y)^2/2 + d(x,z)^2/2 - d(y,z)^2/4.  Margins are the
    slack of that inequality, pairs y < z row-major, then x; pairs
    without a midpoint are counted and skipped, and a pair keyed both ways
    takes its later key's midpoint.  Distances are squared by Python's
    float power, as scalar code squares them: numpy's array square can
    differ in the last bit.
    """
    d = np.asarray(dist, dtype=float)
    m = d.shape[0]
    tri = MetricSampleIn(dist=0.5 * (d + d.T)).check_triangle_inequality(1e-9)
    mid = {(min(i, j), max(i, j)): k for (i, j), k in midpoints.items()}
    pairs = sorted((y, z, k) for (y, z), k in mid.items() if 0 <= y < z < m)
    y, z, mp = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
    cols = np.arange(m)
    at, x = np.nonzero((cols != y[:, None]) & (cols != z[:, None]))
    y, z, mp = y[at], z[at], mp[at]
    sq = np.array([v**2 for v in d.ravel().tolist()]).reshape(d.shape)
    margins = 0.5 * sq[x, y] + 0.5 * sq[x, z] - 0.25 * sq[y, z] - sq[x, mp]
    return Cat0Report(
        triangle_violation=tri,
        margins=margins,
        triples=np.stack([x, y, z], axis=1),
        min_margin=float(margins.min()) if margins.size else 0.0,
        checked=margins.size,
        skipped_no_midpoint=m * (m - 1) // 2 - len(pairs),
    )


@dataclass
class EmbeddingReport:
    max_tau_error: float
    causal_agreement: float
    worst: dict | None
    pairs_checked: int
    pairs_trimmed: int


_TRIM_STEPS = 3  # half-width, in grid steps, of the model-cone band verify_embedding trims
_COLUMNS = 512  # columns of a class row verify_embedding compares at a time


def verify_embedding(space, reps, base: BaseMetric) -> EmbeddingReport:
    """Compare sampled separations against the recovered product model.

    For synchronised representatives alpha, beta the model predicts
    tau = sqrt(max(0, (t-s)^2 - dS^2)) and causality at t - s >= dS.
    Pairs within _TRIM_STEPS grid steps of the model cone are excluded
    from the stats (the inf-formula quantizes dS up by at most one step,
    which distorts exactly that band) but counted.  Each class row is
    compared _COLUMNS columns at a time, in buffers allocated once per
    call, and reads runs of consecutive points as views, not copies; only
    the block of the class that holds a new largest error is compared
    again, to find that pair.
    """
    points, params, starts, lengths = _stacked(reps)
    _squarable(float(np.abs(params).max(initial=0.0)), "line parameter")  # bounds |du| and dS, which _compared squares
    owner = np.repeat(np.arange(len(reps)), lengths)  # the class of each column
    trim = _TRIM_STEPS * base.step
    rows = lengths.max(initial=0)
    size = rows * max(_COLUMNS, rows)  # pairs of a block: _COLUMNS columns, or a whole class
    scratch = [np.empty(size) for _ in range(3)] + [np.empty(size, dtype=bool) for _ in range(3)]
    max_err = 0.0
    worst = None
    agree = 0
    kept = 0
    trimmed = 0
    for a, alpha in enumerate(reps):
        # columns: all classes end to end; no model cone where dS is not finite
        own = slice(starts[a], starts[a] + len(alpha))
        ds = base.dS[a][owner]
        ds[own] = 0.0
        finite = np.isfinite(ds)
        ds[~finite] = 0.0
        cone = np.where(finite, ds - 1e-12 * (1 + ds), np.inf)
        finite = None if finite.all() else finite

        row_params = alpha.params
        at = _run(alpha.points)
        tau_rows, causal_rows = space.tau[at], space.causal[at]

        def compared(cols):
            at = _run(points[cols])
            own_cols = slice(max(own.start - cols.start, 0), max(own.stop - cols.start, 0))
            return _compared(
                row_params, tau_rows[:, at], causal_rows[:, at], params[cols], ds[cols], cone[cols],
                None if finite is None else finite[cols], own_cols, trim, scratch,
            )

        column_max = np.empty(len(points))
        for lo in range(0, len(points), _COLUMNS):
            cols = slice(lo, lo + _COLUMNS)
            err, _, n_band, n_agree = compared(cols)
            trimmed += n_band
            kept += err.size - n_band
            agree += n_agree
            column_max[cols] = err.max(axis=0)
        class_max = np.maximum.reduceat(column_max, starts)
        b = int(np.argmax(class_max))  # first class of the row to reach its maximum
        if class_max[b] > max_err:
            max_err = float(class_max[b])
            beta = reps[b]
            err, model_tau, _, _ = compared(slice(starts[b], starts[b] + len(beta)))
            i, j = np.unravel_index(int(np.argmax(err)), err.shape)
            pair = (int(alpha.points[i]), int(beta.points[j]))
            worst = {"classes": (a, b), "pair": pair, "tau": float(space.tau[pair]), "model": float(model_tau[i, j])}
        del tau_rows, causal_rows  # before the next row's are gathered
    agreement = agree / kept if kept else 1.0
    return EmbeddingReport(
        max_tau_error=max_err,
        causal_agreement=float(agreement),
        worst=worst,
        pairs_checked=kept,
        pairs_trimmed=trimmed,
    )


def _run(index):
    """A slice for an index array of consecutive integers, which reads a view; else index."""
    if len(index) and index[-1] - index[0] == len(index) - 1 and (np.diff(index) == 1).all():
        return slice(index[0], index[-1] + 1)
    return index


def _compared(row_params, tau, causal, params, ds, cone, finite, own, trim, scratch):
    """(err, model_tau, trimmed, agreeing) of a block of sampled tau and
    causal against the model, in scratch's three float and three bool buffers.

    err is |tau - model|, -1 on the trimmed band; finite is None when every
    column's dS is finite, and own slices the row's own class's columns.
    """
    du, model_tau, err, model_causal, band, equal = (buf[: tau.size].reshape(tau.shape) for buf in scratch)
    np.subtract(params, row_params[:, None], out=du)
    np.multiply(du, du, out=model_tau)
    np.subtract(model_tau, ds * ds, out=model_tau)
    np.maximum(model_tau, 0.0, out=model_tau)
    np.sqrt(model_tau, out=model_tau)
    np.greater_equal(du, cone, out=model_causal)
    np.multiply(model_tau, model_causal, out=model_tau)
    np.less(np.abs(np.subtract(du, ds, out=err), out=err), trim, out=band)
    if finite is not None:
        band &= finite
    if own.start < own.stop:  # only future-directed self pairs are informative
        band[:, own] |= du[:, own] <= 0
    np.abs(np.subtract(tau, model_tau, out=err), out=err)
    agreeing = np.count_nonzero(np.equal(causal, model_causal, out=equal))
    agreeing -= np.count_nonzero(np.logical_and(equal, band, out=equal))
    np.putmask(err, band, -1.0)  # kept pairs only from here on
    return err, model_tau, int(np.count_nonzero(band)), int(agreeing)


@dataclass
class RoundTripReport:
    max_deviation: float
    symmetry_dev: float
    cross_check_dev: float
    base: BaseMetric
    embedding: EmbeddingReport
    cat0: Cat0Report | None

    def summary(self) -> str:
        return (
            f"round trip: max |dS - d| = {self.max_deviation:.4g}, symmetry "
            f"{self.symmetry_dev:.2e}, formulas within {self.cross_check_dev:.4g}, "
            f"embedding error {self.embedding.max_tau_error:.4g}, causal agreement "
            f"{self.embedding.causal_agreement:.4f}"
        )


def round_trip(base: MetricSampleIn, t_grid) -> RoundTripReport:
    """Full pipeline check: product -> lines -> classes -> dS -> compare.

    The recovered dS must match the generator's distances to one grid
    step entrywise.
    """
    space, lines = build_product(base, t_grid)
    classes = extract_line_classes(space, lines, reference=lines[0])
    recovered = compute_dS(space, classes)
    # canonical lines arrive one per base point, in order
    dev = float(np.abs(recovered.dS - base.dist).max())
    finite = np.isfinite(recovered.dS)
    sym = float(np.abs(recovered.dS - recovered.dS.T)[finite & finite.T].max())
    cross = float(np.abs(recovered.dS - recovered.dS_alt)[finite].max())
    embedding = verify_embedding(space, classes, recovered)
    cat0 = None
    if base.midpoints:
        cat0 = verify_base_metric_cat0(base.dist, base.midpoints)
    return RoundTripReport(
        max_deviation=dev,
        symmetry_dev=sym,
        cross_check_dev=cross,
        base=recovered,
        embedding=embedding,
        cat0=cat0,
    )
