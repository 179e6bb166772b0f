"""Finite sampled Lorentzian spaces.

A SampledSpace is a point set with a time-separation matrix tau and a
causal matrix; chains of indices stand in for geodesics.  This module
validates the order axioms, extracts tau-maximizing chains over the
chronological DAG, estimates hinge angles from sampled ladders, and
certifies timelike curvature bounds by comparing sampled separations
against their model-triangle counterparts.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GeodesicDeficit,
    NotChronological,
    ShapeError,
)
from .modelspace import (
    Kappa,
    angle_from_sides,
    angle_from_sides_arr,
    hinge_angle_arr,
    hinge_tau_arr,
    unrealizable_sides,
)
from .tolerances import (
    DEFAULT_CERT_TOL,
    DEFAULT_GEO_TOL,
    DEFAULT_TOL_ANGLE,
    scaled,
)


@dataclass
class SampledSpace:
    """Finite point set with time-separation and causal matrices."""

    tau: np.ndarray
    causal: np.ndarray
    labels: list | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.causal = np.asarray(self.causal, dtype=bool)
        n = self.tau.shape[0]
        if self.tau.shape != (n, n) or self.causal.shape != (n, n):
            raise ShapeError(
                f"matrix shapes inconsistent: tau {self.tau.shape}, causal {self.causal.shape}"
            )
        if self.labels is not None and len(self.labels) != n:
            raise ShapeError(f"{len(self.labels)} labels for {n} points")
        if not np.isfinite(self.tau).all():
            raise ShapeError("tau contains non-finite entries")
        self.tau.flags.writeable = False
        self.causal.flags.writeable = False

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def chron(self) -> np.ndarray:
        return self.tau > 0.0

    def tau_s(self, i, j):
        """Order-independent time separation max(tau(i,j), tau(j,i))."""
        return np.maximum(self.tau[i, j], self.tau[j, i])


@dataclass(frozen=True)
class Chain:
    """Indices along a causal chain with their tau-arclength parameters.

    params[k] is the accumulated time separation from points[0]; deficit
    records how far the chain total falls short of tau(start, end).
    """

    points: np.ndarray
    params: np.ndarray
    deficit: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=int))
        object.__setattr__(self, "params", np.asarray(self.params, dtype=float))
        if self.points.shape != self.params.shape:
            raise ShapeError("points and params must have equal length")
        if np.any(np.diff(self.params) <= 0):
            raise ShapeError("chain parameters must be strictly increasing")

    @property
    def total(self) -> float:
        return float(self.params[-1] - self.params[0])

    @property
    def start(self) -> int:
        return int(self.points[0])

    @property
    def end(self) -> int:
        return int(self.points[-1])

    def flagged(self, geo_tol: float = DEFAULT_GEO_TOL) -> bool:
        return abs(self.deficit) > scaled(geo_tol, self.total)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SampledTriangle:
    """Time-ordered vertex triple with its three side chains."""

    x: int
    y: int
    z: int
    side_xy: Chain
    side_yz: Chain
    side_xz: Chain

    @property
    def sides(self):
        return {"ab": self.side_xy, "bc": self.side_yz, "ac": self.side_xz}


# ---------------------------------------------------------------------------
# Axioms.
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    violations: list
    counts: dict

    @property
    def ok(self) -> bool:
        return not self.violations and all(v == 0 for v in self.counts.values())

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        parts = [f"{k}: {v}" for k, v in self.counts.items() if v]
        return "violations: " + ", ".join(parts)


_WITNESS_CAP = 20


def validate_axioms(space: SampledSpace, tol: float = 1e-9) -> AxiomReport:
    """Check the order axioms of a sampled space.

    Verifies: zero diagonal, chronology implies causality, reflexivity,
    transitivity, antisymmetry of chronology, the reverse triangle
    inequality along causal chains, and push-up.  The report lists up to a
    few witnesses per kind plus full counts.
    """
    tau, causal = space.tau, space.causal
    n = space.n
    violations = []
    counts = {}

    def record(kind, idx_arrays, count):
        counts[kind] = counts.get(kind, 0) + int(count)
        for w in list(zip(*idx_arrays))[:_WITNESS_CAP]:
            violations.append({"kind": kind, "witness": tuple(int(i) for i in w)})

    bad = np.flatnonzero(np.abs(np.diag(tau)) > 0)
    if bad.size:
        record("nonzero-diagonal", (bad,), bad.size)

    neg = np.argwhere(tau < 0)
    if neg.size:
        record("negative-tau", tuple(neg.T), len(neg))

    chron = tau > 0
    m = chron & ~causal
    if m.any():
        record("chronological-not-causal", np.nonzero(m), m.sum())

    refl = ~np.diag(causal)
    if refl.any():
        record("causal-not-reflexive", (np.flatnonzero(refl),), refl.sum())

    anti = chron & chron.T
    if anti.any():
        record("chronology-not-antisymmetric", np.nonzero(anti), anti.sum() // 2)

    reach = (causal.astype(np.float32) @ causal.astype(np.float32)) > 0
    m = reach & ~causal
    if m.any():
        record("causal-not-transitive", np.nonzero(m), m.sum())

    # O(n^3) scans, vectorized over the middle index
    rti_count = 0
    push_count = 0
    rti_witness = None
    push_witness = None
    for j in range(n):
        cj_in = causal[:, j][:, None]
        cj_out = causal[j, :][None, :]
        both = cj_in & cj_out
        if both.any():
            lhs = tau[:, j][:, None] + tau[j, :][None, :]
            viol = both & (tau < lhs - tol * (1.0 + lhs))
            c = int(viol.sum())
            if c and rti_witness is None:
                i, k = np.argwhere(viol)[0]
                rti_witness = (int(i), j, int(k))
            rti_count += c
        up1 = cj_in & (tau[j, :][None, :] > 0) & (tau <= 0)
        up2 = (tau[:, j][:, None] > 0) & cj_out & (tau <= 0)
        viol = up1 | up2
        c = int(viol.sum())
        if c and push_witness is None:
            i, k = np.argwhere(viol)[0]
            push_witness = (int(i), j, int(k))
        push_count += c
    if rti_count:
        counts["reverse-triangle"] = rti_count
        violations.append({"kind": "reverse-triangle", "witness": rti_witness})
    if push_count:
        counts["push-up"] = push_count
        violations.append({"kind": "push-up", "witness": push_witness})

    return AxiomReport(violations=violations, counts=counts)


# ---------------------------------------------------------------------------
# Geodesic extraction: tau-maximizing chains over the chronological DAG.
# ---------------------------------------------------------------------------


def geodesic_between(space: SampledSpace, x: int, y: int, geo_tol: float = DEFAULT_GEO_TOL) -> Chain:
    """Maximal chain from x to y over the chronological relation.

    On a space satisfying the reverse triangle inequality the direct pair
    already realizes tau(x, y), so the returned chain always attains the
    maximum; among maximizing chains, the walk greedily takes the earliest
    on-geodesic point (ties broken by index), which picks up every sampled
    point lying on the geodesic.  The deficit field records any shortfall.
    """
    tau = space.tau
    target = float(tau[x, y])
    if target <= 0.0:
        raise NotChronological(f"tau({x},{y}) = {target}; no future-directed geodesic")
    # points exactly on a maximizing chain: tau(x,v) + tau(v,y) == tau(x,y)
    through = tau[x, :] + tau[:, y]
    on_geo = (tau[x, :] > 0) & (tau[:, y] > 0) & (
        through >= target - scaled(geo_tol, target)
    )
    pts = [int(x)]
    params = [0.0]
    cur = int(x)
    acc = 0.0
    candidates = np.flatnonzero(on_geo)
    # earliest-first: walk candidates in order of distance from the start
    candidates = candidates[np.lexsort((candidates, tau[x, candidates]))]
    while cur != y:
        step_tau = tau[cur, candidates]
        ok = (step_tau > 0) & (tau[x, candidates] > tau[x, cur]) & (
            tau[x, cur] + step_tau >= tau[x, candidates] - scaled(geo_tol, target)
        )
        nxt = candidates[ok]
        if nxt.size:
            v = int(nxt[0])
        else:
            v = int(y)
        acc += float(tau[cur, v])
        pts.append(v)
        params.append(acc)
        if v == y:
            break
        cur = v
    return Chain(np.array(pts), np.array(params), deficit=target - acc)


class _GeodesicCache:
    def __init__(self, space, geo_tol=DEFAULT_GEO_TOL):
        self.space = space
        self.geo_tol = geo_tol
        self._cache = {}

    def get(self, x, y) -> Chain:
        key = (x, y)
        if key not in self._cache:
            self._cache[key] = geodesic_between(self.space, x, y, self.geo_tol)
        return self._cache[key]


def triangle_between(space, x, y, z, cache=None, geo_tol=DEFAULT_GEO_TOL) -> SampledTriangle:
    """Build the time-ordered sampled triangle with geodesic side chains."""
    if not (space.tau[x, y] > 0 and space.tau[y, z] > 0 and space.tau[x, z] > 0):
        raise NotChronological(f"({x},{y},{z}) is not a chronological chain")
    get = cache.get if cache is not None else (
        lambda a, b: geodesic_between(space, a, b, geo_tol)
    )
    return SampledTriangle(x, y, z, get(x, y), get(y, z), get(x, z))


def sample_triangles(space, cap=20_000, seed=0, kappa=Kappa(0.0), cache=None):
    """Deterministic triangle enumeration, stratified random beyond the cap.

    Returns a list of SampledTriangle whose longest side respects the size
    bounds for the given curvature; triples violating them are skipped.
    """
    kappa = Kappa.of(kappa)
    tau = space.tau
    n = space.n
    chron = tau > 0
    futures = [np.flatnonzero(chron[i]) for i in range(n)]
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        fi = futures[i]
        if fi.size:
            counts[i] = int(chron[np.ix_(fi, fi)].sum())
    total = int(counts.sum())
    cache = cache or _GeodesicCache(space)
    triangles = []

    def admit(x, y, z):
        if tau[x, z] >= kappa.dk:
            return None
        return triangle_between(space, x, y, z, cache=cache)

    if total <= cap:
        for x in range(n):
            for y in futures[x]:
                zs = futures[x][chron[y, futures[x]]]
                for z in zs:
                    t = admit(x, int(y), int(z))
                    if t is not None:
                        triangles.append(t)
        return triangles

    rng = np.random.default_rng(seed)
    seen = set()
    xs = np.flatnonzero(counts > 0)
    attempts = 0
    max_attempts = 50 * cap
    while len(triangles) < cap and attempts < max_attempts:
        attempts += 1
        x = int(xs[attempts % xs.size]) if attempts % 2 else int(rng.choice(xs))
        fx = futures[x]
        y = int(fx[rng.integers(fx.size)])
        zs = fx[chron[y, fx]]
        if not zs.size:
            continue
        z = int(zs[rng.integers(zs.size)])
        key = (x, y, z)
        if key in seen:
            continue
        seen.add(key)
        t = admit(x, y, z)
        if t is not None:
            triangles.append(t)
    return triangles


# ---------------------------------------------------------------------------
# Angle estimation from sampled hinges.
# ---------------------------------------------------------------------------


@dataclass
class AngleEstimate:
    """Comparison-angle estimate at a hinge vertex.

    value is the extrapolated nonnegative hyperbolic angle, sign the
    signed-angle convention (-1 when the two chains share a time
    orientation).  table rows are (s, t, theta) for the defined ladder
    entries; monotone/converged are ladder diagnostics.
    """

    value: float
    sign: int
    table: np.ndarray
    monotone: bool
    converged: bool
    last_delta: float

    @property
    def signed_value(self) -> float:
        return self.sign * self.value


def _chain_from_vertex(chain: Chain, vertex: int):
    """Points/params of a chain measured away from one of its endpoints.

    Returns (points, params, orientation) with orientation +1 when the
    chain leaves the vertex toward the future.
    """
    if chain.start == vertex:
        return (
            chain.points[1:],
            chain.params[1:] - chain.params[0],
            +1,
        )
    if chain.end == vertex:
        return (
            chain.points[:-1][::-1],
            (chain.params[-1] - chain.params[:-1])[::-1],
            -1,
        )
    raise DomainError(f"chain does not start or end at vertex {vertex}")


def estimate_angle(
    space,
    alpha: Chain,
    beta: Chain,
    vertex: int,
    kappa=Kappa(0.0),
    max_rungs: int = 12,
    tol_angle: float = DEFAULT_TOL_ANGLE,
    claimed: str = "above",
) -> AngleEstimate:
    """Hinge angle at a vertex from two sampled chains.

    Builds the ladder of comparison angles theta(s, t) over pairs of chain
    parameters near the vertex (entries where the comparison triangle is
    not realizable are skipped), then extrapolates the smallest scales
    linearly to zero.  The monotone flag checks the signed ladder against
    the direction expected for the claimed curvature bound.
    """
    kappa = Kappa.of(kappa)
    pts_a, s_a, o_a = _chain_from_vertex(alpha, vertex)
    pts_b, s_b, o_b = _chain_from_vertex(beta, vertex)
    pts_a, s_a = pts_a[:max_rungs], s_a[:max_rungs]
    pts_b, s_b = pts_b[:max_rungs], s_b[:max_rungs]
    if not len(pts_a) or not len(pts_b):
        raise DomainError("chains have no points besides the vertex")
    sign = +1 if o_a != o_b else -1
    sigma = +1.0 if o_a != o_b else -1.0

    S = s_a[:, None]
    T = s_b[None, :]
    Z = np.maximum(space.tau[np.ix_(pts_a, pts_b)], space.tau[np.ix_(pts_b, pts_a)].T)
    theta, ok = hinge_angle_arr(kappa, S, T, Z, sigma)
    ok &= Z > 0
    ok &= pts_a[:, None] != pts_b[None, :]
    if not ok.any():
        raise DomainError("comparison angle undefined everywhere on the sample")

    ii, jj = np.nonzero(ok)
    svals, tvals, th = s_a[ii], s_b[jj], theta[ii, jj]
    table = np.column_stack([svals, tvals, th])

    # one representative per scale, smallest scales first
    h = np.maximum(svals, tvals)
    order = np.lexsort((svals + tvals, h))
    hs, seq = [], []
    for idx in order:
        if not hs or h[idx] > hs[-1] * (1 + 1e-12):
            hs.append(h[idx])
            seq.append(th[idx])
    hs = np.array(hs)
    seq = np.array(seq)
    if len(seq) >= 3:
        A = np.column_stack([np.ones(3), hs[:3]])
        coef, *_ = np.linalg.lstsq(A, seq[:3], rcond=None)
        value = float(coef[0])
        last_delta = abs(float(seq[1] - seq[0]))
    elif len(seq) == 2:
        value = float(seq[0] - hs[0] * (seq[1] - seq[0]) / (hs[1] - hs[0]))
        last_delta = abs(float(seq[1] - seq[0]))
    else:
        value = float(seq[0])
        last_delta = float("inf")
    value = max(value, 0.0)
    converged = last_delta <= scaled(tol_angle, value)

    # signed ladder must fall (claimed above) / rise (below) in each argument
    signed = sigma * theta
    monotone = True
    want = -1.0 if claimed == "above" else +1.0
    for axis in (0, 1):
        d = np.diff(signed, axis=axis)
        dok = ok[:-1, :] & ok[1:, :] if axis == 0 else ok[:, :-1] & ok[:, 1:]
        if dok.any() and np.any(want * d[dok] < -tol_angle):
            monotone = False
    return AngleEstimate(
        value=value,
        sign=sign,
        table=table,
        monotone=monotone,
        converged=converged,
        last_delta=last_delta,
    )


# ---------------------------------------------------------------------------
# Curvature-bound certification by triangle comparison.
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    direction: str
    kappa: float
    passed: bool
    n_triangles: int
    n_pairs: int
    max_violation: float
    max_slack: float
    witness: dict | None
    skipped: list
    side_step: float
    chronology_mismatches: int

    def summary(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{word} {self.direction}-by-{self.kappa}: {self.n_triangles} triangles, "
            f"{self.n_pairs} pairs, worst margin {self.max_violation:.3e}, "
            f"max slack {self.max_slack:.3e}"
        )


_PAST_SIDE_END = "side parameters exceed the side length"
_PAST_MODEL_DOMAIN = "comparison points exceed the model-space domain"

# Side-point pairs compared in one batch of triangles.  A batch's arrays
# peak at about 57 bytes per pair (0.9 MB at 2**14, 3.6 MB at 2**16);
# much smaller batches pay numpy's per-call overhead instead (20k
# tripod-product triangles take 2.6 times as long at 2**12 as at 2**14).
_BATCH_PAIRS = 1 << 14


def _signed_comparison_matrix(kappa, lengths, params):
    """Signed model separations between all sampled side points.

    lengths: dict side -> side length; params: dict side -> parameter array
    (arclength from the side's past endpoint).  Entry [i, j] is +tau of the
    comparison points when i precedes j, -tau when j precedes i, 0 when
    they are spacelike or equal.  This is the one-triangle reference that
    the tests hold _batch_comparison to.
    """
    kappa = Kappa.of(kappa)
    l_ab, l_bc, l_ac = lengths["ab"], lengths["bc"], lengths["ac"]
    u_a = angle_from_sides(kappa, l_ab, l_ac, l_bc, -1)
    u_b = angle_from_sides(kappa, l_ab, l_bc, l_ac, +1)
    u_c = angle_from_sides(kappa, l_ac, l_bc, l_ab, -1)

    sides = ("ab", "bc", "ac")
    sizes = [len(params[s]) for s in sides]
    offs = np.cumsum([0] + sizes)
    n = offs[-1]
    out = np.zeros((n, n))

    def block(si, sj, value):
        out[offs[si] : offs[si + 1], offs[sj] : offs[sj + 1]] = value

    for i, s in enumerate(sides):
        p = params[s]
        block(i, i, p[None, :] - p[:, None])

    def radius(length, p):
        r = length - p
        if np.any(r < -1e-9 * (1.0 + length)):
            raise DomainError(_PAST_SIDE_END)
        return np.maximum(r, 0.0)

    def hinge_block(r1, r2, u, opposite, future_mask):
        tau, timelike, _, ok = hinge_tau_arr(kappa, r1[:, None], r2[None, :], u, opposite)
        if not ok.all():
            raise DomainError(_PAST_MODEL_DOMAIN)
        sgn = np.where(future_mask, 1.0, -1.0)
        return np.where(timelike, sgn * tau, 0.0)

    # ab x bc share b: past leg against future leg, always ordered
    r1 = radius(l_ab, params["ab"])
    r2 = params["bc"]
    m = hinge_block(r1, r2, u_b, True, np.ones((len(r1), len(r2)), dtype=bool))
    block(0, 1, m)
    # ab x ac share a: both future legs, the farther point is later
    r1 = params["ab"]
    r2 = params["ac"]
    m = hinge_block(r1, r2, u_a, False, r2[None, :] > r1[:, None])
    block(0, 2, m)
    # bc x ac share c: both past legs, the farther point is earlier
    r1 = radius(l_bc, params["bc"])
    r2 = radius(l_ac, params["ac"])
    m = hinge_block(r1, r2, u_c, False, r1[:, None] > r2[None, :])
    block(1, 2, m)

    lower = np.tril_indices(n, -1)
    outT = -out.T
    full = out.copy()
    full[lower] = outT[lower]
    return full


class _Batch(NamedTuple):
    tri: np.ndarray  # per pair: its triangle's position in the batch
    p: np.ndarray  # per pair: sampled point of the row
    q: np.ndarray  # per pair: sampled point of the column
    model: np.ndarray  # per pair: signed model separation
    undefined: dict  # triangle position -> why its comparison is undefined
    side_step: np.ndarray  # per triangle: largest parameter step along a side


def _batch_comparison(kappa, tau, triangles) -> _Batch:
    """Signed model separations of all side-point pairs of several triangles.

    Each triangle's side points are ordered ab, bc, ac, and its n x n pair
    matrix is laid out row-major after the previous triangle's: the model
    entries are _signed_comparison_matrix's, flattened and concatenated.
    Each unordered cross-side pair is evaluated once and its mirror filled
    by antisymmetry.  A triangle whose comparison is undefined is listed
    with the DomainError message _signed_comparison_matrix raises for it;
    its entries are then meaningless.
    """
    chains = [c for t in triangles for c in (t.side_xy, t.side_yz, t.side_xz)]
    counts = np.array([len(c) for c in chains]).reshape(-1, 3)
    pts = np.concatenate([c.points for c in chains])
    par = np.concatenate([c.params for c in chains])
    n_tri = len(triangles)
    n = counts.sum(axis=1)
    owner = np.repeat(np.arange(n_tri), n)
    side = np.repeat(np.tile(np.arange(3, dtype=np.int8), n_tri), counts.ravel())

    x, y, z = np.array([(t.x, t.y, t.z) for t in triangles]).T
    lengths = np.stack([tau[x, y], tau[y, z], tau[x, z]], axis=1)
    l_ab, l_bc, l_ac = lengths.T
    u_a, ok_a = angle_from_sides_arr(kappa, l_ab, l_ac, l_bc, -1)
    u_b, ok_b = angle_from_sides_arr(kappa, l_ab, l_bc, l_ac, +1)
    u_c, ok_c = angle_from_sides_arr(kappa, l_ac, l_bc, l_ab, -1)

    # distance from each side point to the side's future endpoint
    length = lengths[owner, side]
    reach = length - par
    radius = np.maximum(reach, 0.0)
    overshoot = np.zeros((n_tri, 3), dtype=bool)
    beyond = reach < -1e-9 * (1.0 + length)
    overshoot[owner[beyond], side[beyond]] = True

    same_chain = side[1:] == side[:-1]
    side_step = np.zeros(n_tri)
    np.maximum.at(side_step, owner[1:][same_chain], np.diff(par)[same_chain])

    # pair -> its triangle and the positions of its two points in pts/par
    n_sq = n * n
    tri = np.repeat(np.arange(n_tri), n_sq)
    i, j = np.divmod(np.arange(n_sq.sum()) - (np.cumsum(n_sq) - n_sq)[tri], n[tri])
    first = np.cumsum(n) - n
    i += first[tri]
    j += first[tri]
    s_i, s_j = side[i], side[j]
    model = np.empty(len(tri))
    within = s_i == s_j
    model[within] = par[j[within]] - par[i[within]]

    def hinge_block(s1, s2, r1, r2, u, opposite, future):
        """Fill the (s1, s2) block and its mirror; flag triangles off the domain."""
        e = np.flatnonzero((s_i == s1) & (s_j == s2))
        a, b, t = i[e], j[e], tri[e]
        tau_m, timelike, _, ok = hinge_tau_arr(kappa, r1[a], r2[b], u[t], opposite)
        value = np.where(timelike, np.where(future(r1[a], r2[b]), 1.0, -1.0) * tau_m, 0.0)
        model[e] = value
        model[e + (b - a) * (n[t] - 1)] = -value  # (row, col) -> (col, row)
        bad = np.zeros(n_tri, dtype=bool)
        bad[t[~ok]] = True
        return bad

    # ab x bc share b: past leg against future leg, always ordered
    bad_ab_bc = hinge_block(0, 1, radius, par, u_b, True, lambda r1, r2: True)
    # ab x ac share a: both future legs, the farther point is later
    bad_ab_ac = hinge_block(0, 2, par, par, u_a, False, lambda r1, r2: r2 > r1)
    # bc x ac share c: both past legs, the farther point is earlier
    bad_bc_ac = hinge_block(1, 2, radius, radius, u_c, False, lambda r1, r2: r1 > r2)

    # the first failure in _signed_comparison_matrix's order names the reason
    undefined = {}
    failing = ~(ok_a & ok_b & ok_c) | overshoot.any(axis=1) | bad_ab_bc | bad_ab_ac | bad_bc_ac
    for t in np.flatnonzero(failing):
        ab, bc, ac = (float(v) for v in lengths[t])
        if not ok_a[t]:
            reason = str(unrealizable_sides(kappa, ab, ac, bc, -1))
        elif not ok_b[t]:
            reason = str(unrealizable_sides(kappa, ab, bc, ac, +1))
        elif not ok_c[t]:
            reason = str(unrealizable_sides(kappa, ac, bc, ab, -1))
        elif overshoot[t, 0]:
            reason = _PAST_SIDE_END
        elif bad_ab_bc[t] or bad_ab_ac[t]:
            reason = _PAST_MODEL_DOMAIN
        elif overshoot[t, 1] or overshoot[t, 2]:
            reason = _PAST_SIDE_END
        else:
            reason = _PAST_MODEL_DOMAIN
        undefined[int(t)] = reason
    return _Batch(tri, pts[i], pts[j], model, undefined, side_step)


def _batches(triangles, indices):
    """Split triangle indices into runs of about _BATCH_PAIRS side-point pairs."""
    batch, pairs = [], 0
    for t in indices:
        tri = triangles[t]
        size = (len(tri.side_xy) + len(tri.side_yz) + len(tri.side_xz)) ** 2
        if batch and pairs + size > _BATCH_PAIRS:
            yield batch
            batch, pairs = [], 0
        batch.append(t)
        pairs += size
    if batch:
        yield batch


class _BatchResult(NamedTuple):
    undefined: dict  # triangle position -> why its comparison is undefined
    side_step: float
    n_pairs: int
    chron_miss: int
    max_slack: float
    worst: float  # smallest margin; inf when no pair was compared
    witness: dict  # the pair attaining it


def _certify_batch(kappa, tau, triangles, direction, tol) -> _BatchResult:
    """Compare one batch of triangles and reduce it to counts and its worst pair.

    The worst pair is the first smallest margin in the batch's layout, so
    ties go to the earliest triangle, then row-major within it.  Returning
    only these scalars frees the batch's arrays before the next batch is
    built, which keeps peak memory at one batch.
    """
    cmp = _batch_comparison(kappa, tau, triangles)
    admitted = np.ones(len(triangles), dtype=bool)
    admitted[list(cmp.undefined)] = False
    keep = admitted[cmp.tri] & (cmp.p != cmp.q)
    model_plus = np.maximum(cmp.model, 0.0, out=cmp.model)
    actual = tau[cmp.p, cmp.q]
    chron_miss = 0
    if direction == "above":
        margin = actual - model_plus
        chron_bad = keep & (model_plus > scaled(tol, 0.0)) & (actual <= 0.0)
        chron_miss = int(chron_bad.sum())
    else:
        margin = model_plus - actual
    # |margin| is the slack in either direction
    slack = np.max(np.abs(margin), where=keep, initial=0.0)
    margin[~keep] = np.inf
    k = int(np.argmin(margin))
    tri = triangles[cmp.tri[k]]
    witness = {
        "triangle": (tri.x, tri.y, tri.z),
        "p": int(cmp.p[k]),
        "q": int(cmp.q[k]),
        "tau": float(actual[k]),
        "tau_model": float(model_plus[k]),
        "margin": float(margin[k]),
    }
    return _BatchResult(
        undefined=cmp.undefined,
        side_step=float(cmp.side_step[admitted].max(initial=0.0)),
        n_pairs=int(keep.sum()),
        chron_miss=chron_miss,
        max_slack=float(slack),
        worst=float(margin[k]),
        witness=witness,
    )


def certify_curvature_bound(
    space,
    triangles,
    kappa=Kappa(0.0),
    direction: str = "above",
    tol: float = DEFAULT_CERT_TOL,
) -> Certificate:
    """Triangle-comparison certification of a timelike curvature bound.

    direction="above" checks tau(p, q) >= tau(comparison) for all sampled
    side-point pairs (and that model chronology implies sampled
    chronology); direction="below" checks tau(p, q) <= tau(comparison).
    Returns a certificate with the worst margin and a witness on failure:
    the first triangle attaining it, then the first pair in row-major
    order of that triangle's side points (ab, bc, ac).  Triangles are
    compared in batches, so memory stays bounded for any triangle count.
    """
    if direction not in ("above", "below"):
        raise ValueError("direction must be 'above' or 'below'")
    kappa = Kappa.of(kappa)
    tau = space.tau
    worst = np.inf
    witness = None
    max_slack = 0.0
    n_pairs = 0
    side_step = 0.0
    chron_miss = 0
    skipped = []
    sized = []
    for t_idx, tri in enumerate(triangles):
        if tau[tri.x, tri.z] >= kappa.dk:
            skipped.append((t_idx, "size bounds"))
        else:
            sized.append(t_idx)
    for batch in _batches(triangles, sized):
        res = _certify_batch(kappa, tau, [triangles[t] for t in batch], direction, tol)
        skipped += [(batch[t], reason) for t, reason in res.undefined.items()]
        side_step = max(side_step, res.side_step)
        n_pairs += res.n_pairs
        chron_miss += res.chron_miss
        max_slack = max(max_slack, res.max_slack)
        if res.worst < worst:
            worst, witness = res.worst, res.witness
    skipped.sort()
    if not np.isfinite(worst):
        worst = 0.0
        witness = None
    tol_here = scaled(tol, witness["tau_model"]) if witness else tol
    passed = worst >= -tol_here and chron_miss == 0
    return Certificate(
        direction=direction,
        kappa=kappa.k,
        passed=bool(passed),
        n_triangles=len(triangles) - len(skipped),
        n_pairs=n_pairs,
        max_violation=float(min(worst, 0.0)),
        max_slack=max_slack,
        witness=None if passed else witness,
        skipped=skipped,
        side_step=side_step,
        chronology_mismatches=chron_miss,
    )


# ---------------------------------------------------------------------------
# Angle triangle inequalities and the empirical first variation.
# ---------------------------------------------------------------------------


@dataclass
class HingeReport:
    vertex: int
    orientations: tuple
    margins: dict
    skipped: dict


def check_angle_inequalities(space, hinges, kappa=Kappa(0.0), tol_angle=DEFAULT_TOL_ANGLE, geo_tol=DEFAULT_GEO_TOL):
    """Evaluate the angle triangle inequalities on hinge triples.

    Each hinge is (alpha, beta, gamma, vertex).  Reports the margin of
    angle(alpha,gamma) <= angle(alpha,beta) + angle(beta,gamma) whenever
    it applies, and of angle(alpha,gamma) <= angle(alpha,beta) when the
    concatenation of gamma and beta is itself a geodesic through the
    vertex.  Hinges with undefined angles are skipped with a reason.
    """
    kappa = Kappa.of(kappa)
    reports = []
    for alpha, beta, gamma, x in hinges:
        orient = tuple(_chain_from_vertex(c, x)[2] for c in (alpha, beta, gamma))
        margins = {}
        skipped = {}
        angles = {}
        for name, (c1, c2) in {
            "ab": (alpha, beta),
            "bg": (beta, gamma),
            "ag": (alpha, gamma),
        }.items():
            try:
                angles[name] = estimate_angle(space, c1, c2, x, kappa).value
            except DomainError as e:
                skipped[name] = str(e)
        o_a, o_b, o_g = orient
        tri_applies = (o_a == o_b == o_g) or (o_a == o_b != o_g)
        if tri_applies and all(k in angles for k in ("ab", "bg", "ag")):
            margins["triangle"] = angles["ab"] + angles["bg"] - angles["ag"]
        if o_b != o_g and all(k in angles for k in ("ab", "ag")):
            pts_g, s_g, _ = _chain_from_vertex(gamma, x)
            pts_b, s_b, _ = _chain_from_vertex(beta, x)
            through = np.maximum(
                space.tau[np.ix_(pts_g, pts_b)], space.tau[np.ix_(pts_b, pts_g)].T
            )
            want = s_g[:, None] + s_b[None, :]
            if np.all(np.abs(through - want) <= geo_tol * (1.0 + want)):
                margins["along-geodesic"] = angles["ab"] - angles["ag"]
        reports.append(HingeReport(vertex=x, orientations=orient, margins=margins, skipped=skipped))
    return reports


@dataclass
class FvfEmpirical:
    ts: np.ndarray
    quotients: np.ndarray
    limit: float
    errors: np.ndarray
    angle: AngleEstimate
    sigma: int


def fvf_empirical(space, gamma: Chain, p: int, kappa=Kappa(0.0), geo_tol=DEFAULT_GEO_TOL) -> FvfEmpirical:
    """Difference quotients of t -> tau_s(p, gamma(t)) against the angle limit.

    gamma must be future-directed from its first point a; p must be
    chronologically related to a.  The limit is sigma * cosh of the angle
    between the geodesic [p, a] and gamma at a.
    """
    kappa = Kappa.of(kappa)
    a = gamma.start
    if space.tau[p, a] > 0:
        sigma = +1
        beta = geodesic_between(space, p, a, geo_tol)
    elif space.tau[a, p] > 0:
        sigma = -1
        beta = geodesic_between(space, a, p, geo_tol)
    else:
        raise NotChronological(f"point {p} is not chronologically related to {a}")
    if beta.flagged(geo_tol):
        raise GeodesicDeficit(f"geodesic for [p, a] has deficit {beta.deficit}")
    ts = gamma.params[1:] - gamma.params[0]
    pts = gamma.points[1:]
    l0 = float(space.tau_s(p, a))
    lt = np.maximum(space.tau[p, pts], space.tau[pts, p])
    quotients = (lt - l0) / ts
    est = estimate_angle(space, beta, gamma, a, kappa)
    limit = sigma * np.cosh(est.value)
    errors = np.abs(quotients - limit)
    return FvfEmpirical(ts=ts, quotients=quotients, limit=float(limit), errors=errors, angle=est, sigma=sigma)
