"""Finite sampled Lorentzian spaces.

A SampledSpace is a point set with a time-separation matrix tau and a
causal matrix; chains of indices stand in for geodesics.  This module
validates the order axioms, extracts tau-maximizing chains over the
chronological DAG, estimates hinge angles from sampled ladders, and
certifies timelike curvature bounds by comparing sampled separations
against their model-triangle counterparts.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    GeodesicDeficit,
    NotChronological,
    ShapeError,
)
from .modelspace import (
    Kappa,
    angle_from_sides,  # noqa: F401 (bench/test_bench.py traces it through this module)
    angle_from_sides_arr,
    hinge_angle_arr,
    hinge_tau_arr,
    plane_separations,
    unrealizable_sides,
    vertex_hinges,
)
from .tolerances import (
    DEFAULT_AXIOM_TOL,
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
        self._check(scan=True)

    @classmethod
    def _scanned(cls, tau: np.ndarray, causal: np.ndarray, labels: list | None, meta: dict) -> "SampledSpace":
        """The space of a float tau and a bool causal whose tau entries the
        caller has checked finite and nonnegative: no n x n rescan."""
        space = object.__new__(cls)
        space.tau, space.causal, space.labels, space.meta = tau, causal, labels, meta
        space._check(scan=False)
        return space

    def _check(self, scan: bool):
        """Check the shapes, the labels, tau's entries (when scan) and its
        diagonal, then make tau and causal read-only."""
        n = self.tau.shape[0]
        if self.tau.shape != (n, n) or self.causal.shape != (n, n):
            raise ShapeError(
                f"matrix shapes inconsistent: tau {self.tau.shape}, causal {self.causal.shape}"
            )
        if self.labels is not None and len(self.labels) != n:
            raise ShapeError(f"{len(self.labels)} labels for {n} points")
        if scan:  # no n x n temporaries: NaN reaches both ends, +inf the max, -inf the min
            low, high = self.tau.min(initial=0.0), self.tau.max(initial=0.0)
            if not (np.isfinite(low) and np.isfinite(high)):
                raise ShapeError("tau contains non-finite entries")
            if low < 0:
                raise ShapeError("tau contains negative entries")
        if np.diag(self.tau).any():
            raise ShapeError("tau has a nonzero diagonal")
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


def plane_map_check(space: SampledSpace, coords: dict):
    """Compare a space with a map of some of its points into the Minkowski plane.

    coords maps point indices to planar (t, x).  Returns (error,
    mismatches, witness): the largest |tau - planar tau| over the mapped
    points, the number of off-diagonal causal entries that disagree, and a
    pair attaining the error.
    """
    pts = list(coords)
    plane_tau, plane_causal = plane_separations([coords[p] for p in pts])
    err = np.abs(space.tau[np.ix_(pts, pts)] - plane_tau)
    idx = np.unravel_index(int(np.argmax(err)), err.shape)
    mism = space.causal[np.ix_(pts, pts)] != plane_causal
    np.fill_diagonal(mism, False)
    return float(err[idx]), int(np.count_nonzero(mism)), (int(pts[idx[0]]), int(pts[idx[1]]))


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
        if self.points.size == 0:
            raise ShapeError("a chain has at least one point")
        if not (np.isfinite(self.params).all() and (np.diff(self.params) > 0).all()):
            raise ShapeError("chain parameters must be finite and strictly increasing")

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
        return bool(_deficit_flagged(self.deficit, self.total, geo_tol))

    def __len__(self) -> int:
        return len(self.points)


def _deficit_flagged(deficit, total, geo_tol):
    """Whether a chain's deficit exceeds geo_tol, absolutely and scaled by its total."""
    d = np.abs(deficit)
    return (d > geo_tol) & (d > scaled(geo_tol, total))


@dataclass(frozen=True, eq=False)
class ChainStore(Sequence):
    """Chains in one CSR layout, read as a sequence of Chain views.

    Chain c is points[offsets[c]:offsets[c + 1]] with the params of the
    same slice and deficits[c]; its views share the store's arrays.
    """

    points: np.ndarray  # int64, every chain's points, chain after chain
    params: np.ndarray  # float64, their parameters
    offsets: np.ndarray  # int64, len(self) + 1 chain boundaries
    deficits: np.ndarray  # float64, one per chain

    def __len__(self) -> int:
        return len(self.deficits)

    def __getitem__(self, c) -> Chain:
        c = range(len(self))[c]
        a, b = self.offsets[c], self.offsets[c + 1]
        chain = object.__new__(Chain)  # the store's arrays are checked already
        object.__setattr__(chain, "points", self.points[a:b])
        object.__setattr__(chain, "params", self.params[a:b])
        object.__setattr__(chain, "deficit", float(self.deficits[c]))
        return chain

    def flagged(self, geo_tol: float = DEFAULT_GEO_TOL) -> np.ndarray:
        """Chain.flagged of every chain."""
        total = self.params[self.offsets[1:] - 1] - self.params[self.offsets[:-1]]
        return _deficit_flagged(self.deficits, total, geo_tol)


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


@dataclass(frozen=True, eq=False)
class TriangleSet(Sequence):
    """Sampled triangles as arrays, read as a sequence of SampledTriangle views.

    Triangle t has vertices x[t] << y[t] << z[t] and the side chains
    chains[sides[t, 0]] (ab), chains[sides[t, 1]] (bc) and
    chains[sides[t, 2]] (ac).  Iterating hands triangles that share a
    chain index the same Chain.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sides: np.ndarray  # (len(self), 3) int64 chain indices
    chains: ChainStore

    @classmethod
    def of(cls, triangles) -> "TriangleSet":
        """A TriangleSet as is; any other sequence of SampledTriangle with a chain per side."""
        if isinstance(triangles, cls):
            return triangles
        x, y, z = np.array([(t.x, t.y, t.z) for t in triangles], dtype=np.int64).reshape(-1, 3).T
        chains = [c for t in triangles for c in (t.side_xy, t.side_yz, t.side_xz)]
        store = ChainStore(
            np.concatenate([np.zeros(0, dtype=np.int64)] + [c.points for c in chains]),
            np.concatenate([np.zeros(0)] + [c.params for c in chains]),
            np.cumsum([0] + [len(c) for c in chains]),
            np.array([c.deficit for c in chains], dtype=float),
        )
        return cls(x, y, z, np.arange(3 * len(x)).reshape(-1, 3), store)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, t) -> SampledTriangle:
        t = range(len(self))[t]
        return SampledTriangle(int(self.x[t]), int(self.y[t]), int(self.z[t]), *(self.chains[c] for c in self.sides[t]))

    def __iter__(self):
        chains = list(self.chains)
        for x, y, z, (ab, bc, ac) in zip(self.x.tolist(), self.y.tolist(), self.z.tolist(), self.sides.tolist()):
            yield SampledTriangle(x, y, z, chains[ab], chains[bc], chains[ac])


# ---------------------------------------------------------------------------
# Axioms.
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    violations: list
    counts: dict
    triples_checked: int = 0  # sum over middle points j of |past(j)| * |future(j)|
    exact_tests: int = 0  # triples that pass the reverse-triangle screen and take the exact test

    @property
    def ok(self) -> bool:
        return not self.violations and all(v == 0 for v in self.counts.values())

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        parts = [f"{k}: {v}" for k, v in self.counts.items() if v]
        return "violations: " + ", ".join(parts)


_WITNESS_CAP = 20

# Rows (and columns) of the blocks in which _products runs the 0/1
# products; each row panel is reduced before the next one is computed.
_PANEL = 128


def _occupied(a):
    """Which _PANEL x _PANEL blocks of the bool matrix a hold a true entry."""
    starts = np.arange(0, a.shape[0], _PANEL)
    return np.logical_or.reduceat(np.logical_or.reduceat(a, starts, axis=0), starts, axis=1)


def _products(n, a, b):
    """Row panels of the 0/1 product a @ b, one at a time.

    a and b are bool n x n.  Yields (lo, panel), panel being rows
    lo:lo + len(panel) of the product in float32.  Only the current blocks
    are turned into float32, and a block of a that is all false, or a
    block row of b that is, is skipped; each block of a meets b only from
    the first to the last occupied column block of b's block row.  On a
    time-sorted space every block below the diagonal is skipped.  Every
    partial sum, in whatever order BLAS and the blocks add them, is an
    integer <= n, so float32 holds it exactly while n < 2**24 and the
    product is the same in any summation order.
    """
    a_occ, b_occ = _occupied(a), _occupied(b)
    for p, lo in enumerate(range(0, n, _PANEL)):
        panel = np.zeros((min(_PANEL, n - lo), n), dtype=np.float32)
        for q in np.flatnonzero(a_occ[p]).tolist():
            cols = np.flatnonzero(b_occ[q])
            if not cols.size:
                continue
            inner = slice(q * _PANEL, (q + 1) * _PANEL)
            c0, c1 = int(cols[0]) * _PANEL, (int(cols[-1]) + 1) * _PANEL
            panel[:, c0:c1] += a[lo : lo + _PANEL, inner].astype(np.float32) @ b[inner, c0:c1].astype(np.float32)
        yield lo, panel


def validate_axioms(space: SampledSpace, tol: float = DEFAULT_AXIOM_TOL) -> AxiomReport:
    """Check the order axioms of a sampled space.

    Verifies: chronology implies causality, reflexivity, transitivity,
    antisymmetry of chronology, the reverse triangle inequality along
    causal chains, and push-up.  (A zero diagonal and tau >= 0 are
    enforced by SampledSpace itself.)  The report lists up to a few
    witnesses per kind plus full counts.

    Transitivity is counted with the 0/1 product C@C, C = causal: it is
    positive at (i, k) exactly where i <= j <= k for some j.  It runs in
    float32, one row panel of _PANEL rows at a time (_products), and each
    panel is reduced to its count and its row-major witnesses before the
    next one is computed.

    The reverse triangle inequality and push-up are checked in one scan
    over triples (i, j, k) (_triple_scan).  For each middle point j the
    rows are the i with i <= j or i << j and the columns the k with
    j <= k or j << k; when every chronological pair is causal, that is
    j's causal past x causal future.  Each block tau[rows, columns] is
    read with one flat gather, and only the entries that pass the screen
    tau(i, k) < lhs, with lhs = tau(i, j) + tau(j, k), are classified:

    - reverse triangle, where i <= j <= k: tau(i, k) violates it when
      tau(i, k) < lhs - tol * (1 + lhs).  The screen misses no violation:
      lhs >= 0 and tol >= 0 make tol * (1 + lhs) >= 0, and subtracting a
      non-negative number, rounded, never gives more than lhs.  (Should
      lhs overflow to inf, the threshold is NaN and the exact test
      fails, as it would on the whole block.)  exact_tests counts these
      screened causal triples;
    - push-up, where tau(i, k) = 0 and i <= j << k or i << j <= k.  The
      screen misses none: one of tau(i, j), tau(j, k) is positive, so
      lhs > 0 = tau(i, k).

    Witnesses are the first violation in j-major, then row-major (i, k)
    order, and triples_checked is the sum over j of |causal past| *
    |causal future|.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    tau, causal = space.tau, space.causal
    n = space.n
    violations = []
    counts = {}

    def record(kind, idx_arrays, count):
        counts[kind] = counts.get(kind, 0) + int(count)
        for w in zip(*(a[:_WITNESS_CAP] for a in idx_arrays)):
            violations.append({"kind": kind, "witness": tuple(int(i) for i in w)})

    chron = tau > 0
    m = chron & ~causal
    # the scan's domain: causal | chron, which is causal when m is empty
    reach = causal | m if m.any() else causal
    if reach is not causal:
        record("chronological-not-causal", np.nonzero(m), m.sum())

    refl = ~np.diag(causal)
    if refl.any():
        record("causal-not-reflexive", (np.flatnonzero(refl),), refl.sum())

    anti = chron & chron.T
    if anti.any():
        record("chronology-not-antisymmetric", np.nonzero(anti), anti.sum() // 2)
    del chron, m, refl, anti

    reached, firsts = 0, []
    for lo, panel in _products(n, causal, causal):
        bad = (panel > 0) & ~causal[lo : lo + len(panel)]
        c = int(np.count_nonzero(bad))
        if c:
            reached += c
            i, k = np.nonzero(bad)
            firsts.append((i[:_WITNESS_CAP] + lo, k[:_WITNESS_CAP]))
    if reached:
        record("causal-not-transitive", [np.concatenate(a) for a in zip(*firsts)], reached)

    found, exact_tests, triples = _triple_scan(tau, causal, reach, tol)
    for kind, (count, witness) in found.items():
        if count:
            counts[kind] = count
            violations.append({"kind": kind, "witness": witness})

    return AxiomReport(violations=violations, counts=counts, triples_checked=triples, exact_tests=exact_tests)


def _triple_scan(tau, causal, reach, tol):
    """The triple scan of validate_axioms over rows reach[:, j] and columns
    reach[j, :] of each middle point j, reach being causal | chron.

    Returns {kind: (count, first witness)} for "reverse-triangle" and
    "push-up", the number of exact tests and the number of causal triples
    i <= j <= k.  When reach is causal every row and column is causal, and
    no flag is gathered.  The work buffers are sized once for the largest
    block.
    """
    n = tau.shape[0]
    mixed = reach is not causal
    n_past = reach.sum(axis=0, dtype=np.int64)
    n_future = reach.sum(axis=1, dtype=np.int64)
    sizes = n_past * n_future
    past_at = np.concatenate(([0], np.cumsum(n_past))).tolist()
    future_at = np.concatenate(([0], np.cumsum(n_future))).tolist()
    # pasts, j-major, and futures, i-major: flat indices taken mod n in
    # place, without the (row, col) pair np.nonzero would return
    past_i = np.flatnonzero(reach.T)
    past_i %= n
    future_k = np.flatnonzero(reach)
    future_k %= n
    flat = tau.ravel()
    largest = int(sizes.max(initial=0))
    idx_buf, got_buf, lhs_buf, low_buf = (np.empty(largest, dtype=t) for t in (np.int64, float, float, bool))

    rti_count = push_count = exact_tests = 0
    rti_witness = push_witness = None
    for j in np.flatnonzero(sizes).tolist():
        past = past_i[past_at[j] : past_at[j + 1]]
        future = future_k[future_at[j] : future_at[j + 1]]
        p, f = past.size, future.size
        rows = past * n
        idx = np.add(rows[:, None], future, out=idx_buf[: p * f].reshape(p, f))
        # every index is in range; "clip" lets take write into out unbuffered
        got = np.take(flat, idx, out=got_buf[: p * f].reshape(p, f), mode="clip")
        t_in, t_out = flat.take(rows + j), tau[j].take(future)
        lhs = np.add(t_in[:, None], t_out, out=lhs_buf[: p * f].reshape(p, f))
        sel = np.flatnonzero(np.less(got, lhs, out=low_buf[: p * f].reshape(p, f)))
        if not sel.size:
            continue
        low = got_buf[sel]
        up = low == 0
        if mixed:
            a, b = np.divmod(sel, f)
            c_in, c_out = causal[past[a], j], causal[j, future[b]]
            up &= (c_in & (t_out[b] > 0)) | ((t_in[a] > 0) & c_out)
        c = int(np.count_nonzero(up))
        if c and push_witness is None:
            push_witness = _triple_at(past, j, future, sel[up.argmax()])
        push_count += c
        if mixed:
            keep = c_in & c_out
            sel, low = sel[keep], low[keep]
        exact_tests += sel.size
        near = lhs_buf[sel]
        viol = low < near - tol * (1.0 + near)
        c = int(np.count_nonzero(viol))
        if c and rti_witness is None:
            rti_witness = _triple_at(past, j, future, sel[viol.argmax()])
        rti_count += c
    if mixed:  # triples_checked counts the causal triples only
        sizes = causal.sum(axis=0, dtype=np.int64) * causal.sum(axis=1, dtype=np.int64)
    found = {"reverse-triangle": (rti_count, rti_witness), "push-up": (push_count, push_witness)}
    return found, exact_tests, int(sizes.sum())


def _triple_at(past, j, future, e):
    """(i, j, k) at flat entry e of the block past x future."""
    a, b = divmod(int(e), future.size)
    return (int(past[a]), j, int(future[b]))


# ---------------------------------------------------------------------------
# Geodesic extraction: tau-maximizing chains over the chronological DAG.
# ---------------------------------------------------------------------------

# Pairs whose chronological diamonds _geodesics builds at a time, as
# chunk x n bool rows; tau is read only at the diamonds' entries.  Only the
# sparse candidates outlive a chunk; the walk takes every pair at once.
_GEODESIC_CHUNK = 256


def _geodesics(space: SampledSpace, xs, ys, geo_tol: float = DEFAULT_GEO_TOL) -> ChainStore:
    """Maximal chains from xs[i] to ys[i] over the chronological relation.

    Every pair must be chronological.  On a space satisfying the reverse
    triangle inequality the direct pair already realizes tau(x, y), so each
    chain attains the maximum; among maximizing chains the walk greedily
    takes the earliest on-geodesic point (ties broken by index), which
    picks up every sampled point lying on the geodesic.  A chain's deficit
    records any shortfall.  Chain i of the returned store runs from xs[i]
    to ys[i].

    All pairs walk in one lockstep loop over their on-geodesic candidates,
    sorted by (tau from x, index).  Each step evaluates the one-pair walk's
    test on the candidates ahead of each pair's current point (one at or
    behind it can never pass again) and moves each pair to its first hit,
    or to its end y when there is none.  The result is the same as walking
    each pair on its own.
    """
    tau = space.tau
    n = space.n
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    m = xs.size
    target = tau[xs, ys]
    slack = geo_tol * (1.0 + np.abs(target))  # scaled(geo_tol, target)
    flat = tau.ravel()  # a view unless tau is not C-contiguous
    chron = space.chron
    chron_t = np.ascontiguousarray(chron.T)  # row y: the chronological past of y
    parts = []
    for lo in range(0, max(m, 1), _GEODESIC_CHUNK):  # at least once, so that no pairs give empty arrays
        chunk = slice(lo, lo + _GEODESIC_CHUNK)
        # the diamond x << v << y, then the points on a maximizing chain in it:
        # tau(x,v) + tau(v,y) == tau(x,y), up to the slack
        diamond = chron[xs[chunk]] & chron_t[ys[chunk]]
        f = np.flatnonzero(diamond)  # np.nonzero(diamond), faster; so is // over np.divmod
        pair = f // n
        c = f - pair * n
        d = flat.take(xs[chunk][pair] * n + c)  # faster than tau[x, c]
        keep = d + flat.take(c * n + ys[chunk][pair]) >= (target[chunk] - slack[chunk])[pair]
        pair, c, d = pair[keep], c[keep], d[keep]
        # earliest-first: each pair's candidates in order of distance from its start,
        # ties by index as c ascends within a pair and lexsort is stable
        order = np.lexsort((d, pair))
        parts.append((np.bincount(pair, minlength=len(diamond)), c[order], d[order]))
    size, cand, dist = map(np.concatenate, zip(*parts))
    del parts, flat, chron, chron_t, diamond, keep
    end = np.cumsum(size)
    nxt = end - size  # each pair's first candidate still ahead of its current point

    # chain i fills slots from base[i]: x, then at most every candidate, then y
    base = nxt + 2 * np.arange(m)
    points = np.empty(int(size.sum()) + 2 * m, dtype=np.int64)
    params = np.zeros(points.size)
    points[base] = xs
    slot = base + 1  # each pair's next free slot
    cur = xs.copy()
    cur_dist = np.zeros(m)  # tau(x, cur); the diagonal of tau is zero
    acc = np.zeros(m)
    walking = np.arange(m)
    while walking.size:
        left = end[walking] - nxt[walking]
        own = np.repeat(walking, left)
        pos = np.arange(left.sum()) + np.repeat(nxt[walking] - (np.cumsum(left) - left), left)
        d, here = dist[pos], cur_dist[own]
        step_tau = tau[cur[own], cand[pos]]
        ok = (step_tau > 0) & (d > here) & (here + step_tau >= d - slack[own])
        hit, by = pos[ok], own[ok]
        first = np.flatnonzero(np.diff(by, prepend=-1))  # run starts: each pair's first hit
        hit, hit_pair = hit[first], by[first]
        v = ys[walking]
        found = np.searchsorted(walking, hit_pair)
        v[found] = cand[hit]
        acc[walking] += tau[cur[walking], v]
        at = slot[walking]
        points[at], params[at] = v, acc[walking]
        slot[walking] = at + 1
        cur[hit_pair] = cand[hit]
        cur_dist[hit_pair] = dist[hit]
        nxt[hit_pair] = hit + 1
        walking = hit_pair

    if np.any(slot < base + size + 2):  # some pair skipped a candidate: close the gaps
        keep = np.arange(points.size) < np.repeat(slot, size + 2)
        points, params = points[keep], params[keep]
    offsets = np.concatenate([[0], np.cumsum(slot - base)])
    step = np.diff(params)
    step[offsets[1:-1] - 1] = 1.0  # from one chain into the next is no step
    if np.any(step <= 0):
        raise ShapeError("chain parameters must be strictly increasing")
    return ChainStore(points, params, offsets, target - acc)


def geodesic_between(space: SampledSpace, x: int, y: int, geo_tol: float = DEFAULT_GEO_TOL) -> Chain:
    """Maximal chain from x to y over the chronological relation (see _geodesics)."""
    target = float(space.tau[x, y])
    if target <= 0.0:
        raise NotChronological(f"tau({x},{y}) = {target}; no future-directed geodesic")
    return _geodesics(space, [x], [y], geo_tol)[0]


def triangle_between(space, x, y, z) -> SampledTriangle:
    """Build the time-ordered sampled triangle with geodesic side chains."""
    if not (space.tau[x, y] > 0 and space.tau[y, z] > 0 and space.tau[x, z] > 0):
        raise NotChronological(f"({x},{y},{z}) is not a chronological chain")
    return SampledTriangle(x, y, z, *_geodesics(space, [x, y, x], [y, z, z]))


_WINDOW = 4096  # PCG64 outputs read at a time by _window; each gives two words
_LOW32 = 0xFFFFFFFF


def _window(bit_generator):
    """The 32-bit words of the next _WINDOW PCG64 outputs, as uint64.

    These are the words numpy's bounded draws read: each output gives its
    low half, then its high half, as PCG64's next_uint32 does.
    """
    raw = bit_generator.random_raw(_WINDOW)
    return np.stack([raw & _LOW32, raw >> 32], axis=1).ravel()


def _bounded_arr(words, h):
    """Generator.integers(h)'s rule on arrays: (draw, accepted) for uint64
    words and ranges.

    numpy draws from 1 <= h <= 2**32 values by Lemire's multiply-shift with
    rejection: m = u * h for a word u, and the draw is m >> 32 (as int64)
    unless the low half of m is below (2**32 - h) % h.  Then accepted is
    false, and numpy throws u away and draws again from the next word.  A
    range of one gives 0, accepted; numpy reads no word for it.
    """
    m = words * h
    return (m >> 32).astype(np.int64), (m & _LOW32) >= (_LOW32 + 1 - h) % h


def _futures(chron):
    """The future of every point as CSR (indptr, indices).

    F(x) is indices[indptr[x]:indptr[x + 1]], increasing int32, filled
    one _PANEL of rows at a time.
    """
    n = chron.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(chron.sum(axis=1), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for lo in range(0, n, _PANEL):
        hi = min(lo + _PANEL, n)
        indices[indptr[lo] : indptr[hi]] = np.nonzero(chron[lo:hi])[1]
    return indptr, indices


def _triples(parts):
    """Three int64 arrays x, y, z from a list of (x, y, z) array parts."""
    if not parts:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    return tuple(np.concatenate(p).astype(np.int64) for p in zip(*parts))


class _Draw:
    """The stratified triple draw of _triangle_triples over the futures CSR.

    Entry e of the CSR is a pair x << y = indices[e].  z is drawn from
    F(y), which a transitive chronology makes the common future of x and
    y.  multi[e] says whether that draw reads a word (|F(y)| > 1).
    words[at:] are the words of the seed's PCG64 stream not read yet.
    """

    def __init__(self, indptr, indices, xs, seed):
        self.indptr, self.indices, self.xs = indptr, indices, xs
        self.sizes = np.diff(indptr)
        self.multi = (self.sizes > 1)[indices].view(np.uint8)
        # indptr[x], |F(x)| and whether y's draw reads a word, per x of xs
        self.slots = (indptr[xs].tolist(), self.sizes[xs].tolist(), (self.sizes[xs] > 1).astype(int).tolist())
        self.bit_generator = np.random.default_rng(seed).bit_generator
        self.words = np.zeros(0, dtype=np.uint64)
        self.at = 0

    def refill(self):
        """Drop the read words and append a _window."""
        self.words = np.concatenate([self.words[self.at :], _window(self.bit_generator)])
        self.at = 0

    def even_table(self, words):
        """The words an even attempt (x uniform) reads from each offset below
        len(words) - 2, as bytes, every draw taken as accepted."""
        m = len(words) - 2
        many_x = int(self.xs.size > 1)
        x = self.xs[_bounded_arr(words[:m], self.xs.size)[0]]
        size = self.sizes[x]
        dy = _bounded_arr(words[many_x : many_x + m], size.astype(np.uint64))[0]
        return (many_x + (size > 1) + self.multi[self.indptr[x] + dy]).astype(np.uint8).tobytes()

    def walk(self, table, first, stop):
        """Start offsets of attempts first, first + 1, ... (at most stop),
        from at on, every draw taken as accepted; at is left after the
        last.  It walks attempt pairs (odd, even) while the five words a
        pair reads at most lie in the window."""
        w = memoryview(self.words)
        multi = memoryview(self.multi)
        ptr, size, step = self.slots
        count = len(ptr)
        o, a, end = self.at, first, len(w) - 5
        starts = []
        if a % 2 == 0 and a <= stop:  # the walk restarts at an even attempt after a rejected word
            starts.append(o)
            o += table[o]
            a += 1
        r = a % count
        while o <= end and a < stop:
            starts.append(o)
            o += step[r] + multi[ptr[r] + ((w[o] * size[r]) >> 32)]
            starts.append(o)
            o += table[o]
            a += 2
            r = (r + 2) % count
        self.at = o
        return starts

    def attempts(self, starts, first):
        """(x, y, z, rejected) of attempts first, first + 1, ... whose words
        start at starts.  z is -1 where F(y) is empty.  rejected is the
        offset of the first word an attempt read that its draw rejects, or
        -1; what the attempt drew after that word is meaningless."""
        at = np.array(starts, dtype=np.int64)
        rejected = np.full(len(at), -1)

        def draw(h):
            d, accepted = _bounded_arr(self.words[at], h)
            np.copyto(rejected, at, where=~accepted & (rejected < 0))
            return d

        a = np.arange(first, first + len(at))
        even = a % 2 == 0
        xi = draw(np.where(even, self.xs.size, 1).astype(np.uint64))  # odd attempts read no word for x
        x = self.xs[np.where(even, xi, a % self.xs.size)]
        at += even & (self.xs.size > 1)
        size = self.sizes[x]
        y = self.indices[self.indptr[x] + draw(size.astype(np.uint64))].astype(np.int64)
        at += size > 1
        zn = self.sizes[y]
        dz = draw(np.maximum(zn, 1).astype(np.uint64))
        z = np.full(len(y), -1, dtype=np.int64)
        has = zn > 0
        z[has] = self.indices[self.indptr[y[has]] + dz[has]]
        return x, y, z, rejected

    def triples(self, tau, cap, dk):
        """The first cap distinct triples inside the size bound dk, in attempt
        order, from at most 50 * cap attempts."""
        n = tau.shape[0]
        seen = np.array([-1])  # the keys drawn so far, sorted after a sentinel below every key
        parts, found, first, stop = [], 0, 1, 50 * cap
        table, table_of = None, None
        while found < cap and first <= stop:
            while len(self.words) - self.at < 5:  # one attempt pair
                self.refill()
            if table_of is not self.words:
                table, table_of = self.even_table(self.words), self.words
            starts = self.walk(table, first, stop)
            x, y, z, rejected = self.attempts(starts, first)
            cut = np.flatnonzero(rejected >= 0)
            if cut.size:  # numpy draws again from the next word: drop this one
                taken = int(cut[0])
                self.words = np.delete(self.words, rejected[taken])
                self.at = starts[taken]
                x, y, z = x[:taken], y[:taken], z[:taken]
            first += len(x)
            x, y, z = x[z >= 0], y[z >= 0], z[z >= 0]
            keys, where = np.unique((x * n + y) * n + z, return_index=True)
            at = np.searchsorted(seen, keys, side="right")
            new = seen[at - 1] != keys
            fresh = np.sort(where[new])
            seen = np.insert(seen, at[new], keys[new])
            keep = fresh[tau[x[fresh], z[fresh]] < dk][: cap - found]
            parts.append((x[keep], y[keep], z[keep]))
            found += len(keep)
        return _triples(parts)


def _triangle_triples(tau, cap, seed, kappa):
    """Vertex triples (x, y, z) with x << y << z for sample_triangles, in order.

    Returns three int64 arrays.  Only triples whose longest side tau(x, z)
    is inside the size bound for kappa are taken: every one when there are
    at most cap of them, else a stratified random draw of distinct ones.

    Attempts alternate x between a round-robin over the points with
    triples (odd attempts) and a uniform pick (even ones); y is uniform in
    the future of x and z uniform in the future of y.  An attempt stops
    at an empty F(y); a repeated triple or one outside the size bound is
    not taken (the first occurrence wins), and the draw stops at cap
    triples or 50 * cap attempts.

    The chronology must be transitive, as in a Lorentzian pre-length
    space: then F(y) is the common future of x and y, and the enumeration
    and the draw see the same triples.  When some x << y << z has z
    outside F(x), ShapeError names one such triple.

    The draw gives the triples that calling np.random.default_rng(seed)
    .integers once per choice would give, but reads the PCG64 words
    itself, one _window at a time.  A choice from h > 1 values reads one
    word when it is accepted (_bounded_arr), so an attempt reads at most
    three.  For each window, one array pass tables how many words an even
    attempt starting at each offset reads; a walk over attempt pairs then
    records where each attempt starts, with one multiply-shift and two
    lookups for an odd attempt and one table lookup for an even one.  The
    attempts' triples are rebuilt as arrays from those offsets.  numpy
    throws a rejected word away and draws again from the next one, so at
    the first rejected word the batch is cut before its attempt, the word
    is deleted from the window, and the walk starts again at that
    attempt.  tests/test_sampled.py keeps the loop that calls
    Generator.integers as the oracle the draw is held to.
    """
    n = tau.shape[0]
    chron = tau > 0
    # hh[x, z] counts the y with x << y << z, exact in float32 while n < 2**24;
    # masked in place to the (x, z) inside the size bound, it counts the
    # triples.  It is taken one row panel at a time (_products).  escaped[x]
    # is set when some x << y << z has z outside F(x).
    counts = np.zeros(n, dtype=np.int64)
    escaped = np.zeros(n, dtype=bool)
    for lo, hh in _products(n, chron, chron):
        rows = slice(lo, lo + len(hh))
        escaped[rows] = ((hh > 0) & ~chron[rows]).any(axis=1)
        hh *= chron[rows] & (tau[rows] < kappa.dk)
        counts[rows] = hh.sum(axis=1, dtype=np.float64)
    if escaped.any():
        x = int(np.argmax(escaped))
        fx = np.flatnonzero(chron[x])
        z = int(np.argmax(chron[fx].any(axis=0) & ~chron[x]))
        y = int(fx[np.argmax(chron[fx, z])])
        raise ShapeError(f"chronology is not transitive: {x} << {y} << {z} but not {x} << {z}; run lorentzgeo axioms")
    indptr, indices = _futures(chron)
    xs = np.flatnonzero(counts > 0)
    if int(counts.sum()) > cap:
        return _Draw(indptr, indices, xs, seed).triples(tau, cap, kappa.dk)
    parts = []
    for x in xs.tolist():
        fx = indices[indptr[x] : indptr[x + 1]]
        yy, zz = np.nonzero(chron[np.ix_(fx, fx)])
        keep = tau[x, fx[zz]] < kappa.dk
        parts.append((np.full(int(keep.sum()), x), fx[yy[keep]], fx[zz[keep]]))
    return _triples(parts)


def sample_triangles(space, cap=20_000, seed=0, kappa=Kappa(0.0), geo_tol: float = DEFAULT_GEO_TOL):
    """Deterministic triangle enumeration, stratified random beyond the cap.

    Returns a TriangleSet whose triangles' longest sides respect the size
    bounds for the given curvature; triples violating them are skipped.
    Its chain store holds every distinct side once, extracted in one
    _geodesics call that admits chain points within geo_tol.
    """
    kappa = Kappa.of(kappa)
    x, y, z = _triangle_triples(space.tau, cap, seed, kappa)
    n = space.n
    sides, which = np.unique(np.concatenate([x * n + y, y * n + z, x * n + z]), return_inverse=True)
    return TriangleSet(x, y, z, which.reshape(3, -1).T, _geodesics(space, sides // n, sides % n, geo_tol))


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


def geodesic_through(space, c1: Chain, c2: Chain, vertex: int, geo_tol: float = DEFAULT_GEO_TOL) -> bool:
    """Whether two chains with an end at vertex join there into one geodesic.

    True when tau_s between every point of one chain and every point of the
    other equals the sum of their arclengths from the vertex, within geo_tol.
    """
    pts_1, s_1, _ = _chain_from_vertex(c1, vertex)
    pts_2, s_2, _ = _chain_from_vertex(c2, vertex)
    want = s_1[:, None] + s_2[None, :]
    through = space.tau_s(pts_1[:, None], pts_2[None, :])
    return bool(np.all(np.abs(through - want) <= geo_tol * (1.0 + want)))


_MAX_RUNGS = 12  # ladder points taken from each chain


def estimate_angle(
    space,
    alpha: Chain,
    beta: Chain,
    vertex: int,
    kappa=Kappa(0.0),
    tol_angle: float = DEFAULT_TOL_ANGLE,
    claimed: str = "above",
) -> AngleEstimate:
    """Hinge angle at a vertex from two sampled chains.

    Builds the ladder of comparison angles theta(s, t) over pairs of chain
    parameters near the vertex, the first _MAX_RUNGS points of each chain
    (entries where the comparison triangle is not realizable are skipped),
    then extrapolates the smallest scales linearly to zero.  The monotone
    flag checks the signed ladder against the direction expected for the
    claimed curvature bound, "above" or "below".
    """
    if claimed not in ("above", "below"):
        raise ValueError("claimed must be 'above' or 'below'")
    kappa = Kappa.of(kappa)
    pts_a, s_a, o_a = _chain_from_vertex(alpha, vertex)
    pts_b, s_b, o_b = _chain_from_vertex(beta, vertex)
    pts_a, s_a = pts_a[:_MAX_RUNGS], s_a[:_MAX_RUNGS]
    pts_b, s_b = pts_b[:_MAX_RUNGS], s_b[:_MAX_RUNGS]
    if not len(pts_a) or not len(pts_b):
        raise DomainError("chains have no points besides the vertex")
    sign = +1 if o_a != o_b else -1
    sigma = +1.0 if o_a != o_b else -1.0

    S = s_a[:, None]
    T = s_b[None, :]
    Z = space.tau_s(pts_a[:, None], pts_b[None, :])
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

# Pairs compared in one batch: a hinge-pass batch counts the pairs across
# its triangles' sides, a chain-pass batch the pairs within its chains, and
# either holds at most this many plus one triangle's or chain's.  A batch's
# arrays peak at about 130 bytes per pair (2.0 MB at 2**14); much smaller
# batches pay numpy's per-call overhead instead (20k tripod-product
# triangles took 1.9 times as long at 2**12 as at 2**14).
_BATCH_PAIRS = 1 << 14


def _batches(pairs):
    """(lo, hi) runs of consecutive items holding about _BATCH_PAIRS of these pair counts."""
    cum = np.cumsum(pairs)
    marks = np.arange(_BATCH_PAIRS, cum[-1] if cum.size else 0, _BATCH_PAIRS)
    bounds = np.unique(np.concatenate([[0], np.searchsorted(cum, marks, side="right"), [cum.size]])).tolist()
    return zip(bounds, bounds[1:])


def _runs(rows, cols, count):
    """Pairs (i, j): row rows[r] against the count[r] columns from cols[r] on, in order."""
    return np.repeat(rows, count), _run_cols(cols, count)


def _run_cols(cols, count):
    """The columns j of _runs: cols[r], cols[r] + 1, ..., count[r] of them, run after run."""
    return np.arange(count.sum()) + np.repeat(cols - np.cumsum(count) + count, count)


def _chain_pairs(offsets, cs):
    """Store indices (i, j), i < j, of the point pairs within chains cs, chain after chain, row-major."""
    m = np.diff(offsets)[cs]
    g = np.arange(m.sum()) + np.repeat(offsets[cs] - np.cumsum(m) + m, m)
    return _runs(g, g + 1, np.repeat(offsets[cs] + m, m) - g - 1)


def _margins(tau, p, q, model, direction, tol):
    """(actual, model_plus, margin, chron_bad) of the pairs (p, q) with signed model separations model.

    Row 0 holds orientation (p, q), row 1 (q, p).  chron_bad marks model
    chronology without sampled chronology; it is None below.
    """
    n = tau.shape[0]
    flat = np.empty((2, len(p)), dtype=np.int64)
    np.multiply(p, n, out=flat[0])
    flat[0] += q
    np.multiply(q, n, out=flat[1])
    flat[1] += p
    actual = tau.take(flat)
    del flat
    model_plus = np.empty((2, len(model)))
    np.maximum(model, 0.0, out=model_plus[0])
    np.maximum(np.negative(model, out=model_plus[1]), 0.0, out=model_plus[1])
    if direction == "above":
        return actual, model_plus, actual - model_plus, (model_plus > scaled(tol, 0.0)) & (actual <= 0.0)
    return actual, model_plus, model_plus - actual, None


def _ties(margin, worst, i, j):
    """Every orientation of pairs (i, j) whose margin is worst: (flat index, row, column)."""
    tied = np.flatnonzero(margin == worst)
    swap, e = np.divmod(tied, len(i))
    return tied, np.where(swap, j[e], i[e]), np.where(swap, i[e], j[e])


def _hinge_batch(kappa, tau, chains, sides, size, lengths, u, failing, direction, tol, running):
    """Compare one batch of triangles across their sides; return (bad, n_pairs, chron_miss, top, worst, found).

    Each pair of points on two sides of a triangle (the ab x bc, ab x ac
    and bc x ac hinge blocks) is evaluated once, for both orientations;
    size[t] holds the side chains' point counts and u[t] the cosh of the
    hinge angles at a, b, c.  bad[t, k] marks hinge block k of triangle t
    off the model domain; such triangles and failing ones are left out.
    top and worst are the largest and smallest margins (-inf and inf if
    nothing was compared).  Only when worst beats the running worst is
    found its first tie, (t, key, p, q, tau, tau_model), where key is the
    row-major index in the matrix over t's side points (ab, bc, ac).
    Returning only these frees the batch's arrays early.

    Per pair this does only the law of cosines and the margins.  A block's
    pairs are runs of one row point against its triangle's column side, so
    what belongs to the row point is repeated, not gathered, per pair.
    hinge_tau_arr's precondition r >= 0 is checked once per side point, on
    par as ~(par >= 0) so that NaN fails too (a chain may start below 0).
    The radii max(length - par, 0) are NaN only where par is, and u =
    1 + max(d, 0) only where angle_from_sides_arr's ok already fails the
    triangle.  Every row point of a block meets every column point, so
    block k of triangle t is off the domain when one of its parameters
    fails, or (at K < 0) when one of its pairs does.
    """
    per_side = size.ravel()
    n = size.sum(axis=1)
    first = np.cumsum(n) - n
    start = np.cumsum(per_side) - per_side  # each side's first point in the batch
    # the batch's side points, triangle after triangle; point g is on side
    # seg[g] % 3 of triangle seg[g] // 3
    seg = np.repeat(np.arange(per_side.size), per_side)
    owner = seg // 3
    src = np.arange(seg.size) + np.repeat(chains.offsets[sides].ravel() - start, per_side)
    pt, par = chains.points[src], chains.params[src]
    radius = np.maximum(np.repeat(lengths.ravel(), per_side) - par, 0.0)  # to the side's future end

    # hinge_tau_arr's precondition per side point, on the (side, block) pairs its par enters
    bad = np.zeros((len(size), 3), dtype=bool)
    fails = ~(par >= 0)
    if fails.any():
        hit = np.zeros(per_side.size, dtype=bool)
        hit[seg[fails]] = True
        for on, k in ((0, 1), (1, 0), (2, 1)):
            bad[:, k] |= hit[on::3]

    # the blocks' rows: an ab point takes all of bc, then all of ac (hinges
    # at b and a), and a bc point all of ac (hinge at c)
    side = seg - 3 * owner
    on_ab, on_bc = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    t_ab, t_bc = owner[on_ab], owner[on_bc]
    start = start.reshape(-1, 3)
    rows = np.concatenate([on_ab, on_ab, on_bc])
    cols = [start[t_ab, 1], start[t_ab, 2], start[t_bc, 2]]
    counts = [size[t_ab, 1], size[t_ab, 2], size[t_bc, 2]]
    # a pair p == q counts for nothing, so a run skips its column at a hinge
    # vertex when the row's own point is that vertex: b is the last ab and
    # first bc point, a the first ab and ac point, c the last bc and ac point
    is_b = (on_ab == start[t_ab, 0] + size[t_ab, 0] - 1) & (pt[on_ab] == pt[cols[0]])
    is_a = (on_ab == start[t_ab, 0]) & (pt[on_ab] == pt[cols[1]])
    is_c = (on_bc == start[t_bc, 1] + size[t_bc, 1] - 1) & (pt[on_bc] == pt[cols[2] + counts[2] - 1])
    cols[0], cols[1] = cols[0] + is_b, cols[1] + is_a
    counts = [counts[0] - is_b, counts[1] - is_a, counts[2] - is_c]
    count = np.concatenate(counts)
    j = _run_cols(np.concatenate(cols), count)
    # the blocks of the hinges at b, a and c start at 0, at_a and at_c
    at_a = int(counts[0].sum())
    at_c = at_a + int(counts[1].sum())
    # ab x bc share b: past leg (radius) against future leg (par), always ordered;
    # ab x ac share a: both future legs (par); bc x ac share c: both past legs (radius)
    r1 = np.repeat(np.concatenate([radius[on_ab], par[on_ab], radius[on_bc]]), count)
    r2 = np.empty(len(j))
    par.take(j[:at_c], out=r2[:at_c])
    radius.take(j[at_c:], out=r2[at_c:])
    cosh = np.repeat(np.concatenate([u[t_ab, 1], u[t_ab, 0], u[t_bc, 2]]), count)

    model = np.empty(len(j))
    model[:at_a], _, ok_b = hinge_tau_arr(kappa, r1[:at_a], r2[:at_a], cosh[:at_a], True)
    same = slice(at_a, None)
    tau_m, timelike, ok_ac = hinge_tau_arr(kappa, r1[same], r2[same], cosh[same], False)
    # the later point is the farther one from a and the nearer one to c;
    # tau_m is +0.0 off timelike pairs, so only those take a sign
    later = np.empty(len(tau_m), dtype=bool)
    np.greater(r2[at_a:at_c], r1[at_a:at_c], out=later[: at_c - at_a])
    np.greater(r1[at_c:], r2[at_c:], out=later[at_c - at_a :])
    np.multiply(tau_m, np.where(later < timelike, -1.0, 1.0), out=model[same])
    del r1, r2, cosh, tau_m, timelike, later
    # valid constrains a pair only at K < 0: beyond the timelike diameter
    if kappa.k < 0.0 and not (ok_b.all() and ok_ac.all()):
        e = np.flatnonzero(~np.concatenate([ok_b, ok_ac]))
        bad[owner[np.repeat(rows, count)[e]], np.searchsorted([at_a, at_c], e, side="right")] = True

    p, q = np.repeat(pt[rows], count), pt.take(j)
    failing = failing | bad.any(axis=1)
    drop = np.flatnonzero((p == q) | np.repeat(failing[owner[rows]], count) if failing.any() else p == q)
    actual, model_plus, margin, chron_bad = _margins(tau, p, q, model, direction, tol)
    chron_miss = 0 if chron_bad is None else int(np.count_nonzero(chron_bad) - np.count_nonzero(chron_bad[:, drop]))
    margin[:, drop] = -np.inf
    top = float(margin.max())
    margin[:, drop] = np.inf
    worst = float(margin.min())
    found = None
    if worst < running:
        # the first of the tied minima in row-major order
        tied, row, col = _ties(margin, worst, np.repeat(rows, count), j)
        t = owner[row]
        key = (row - first[t]) * n[t] + col - first[t]
        w = int(np.argmin((np.cumsum(n * n) - n * n)[t] + key))
        found = (int(t[w]), int(key[w]), int(pt[row[w]]), int(pt[col[w]]))
        found += (float(actual.flat[tied[w]]), float(model_plus.flat[tied[w]]))
    return bad, 2 * (len(j) - len(drop)), chron_miss, top, worst, found


def _chain_batch(tau, chains, cs, direction, tol):
    """Compare chains cs over their own point pairs, each pair in both orientations.

    A side point pair's model separation is its parameter difference, so
    its margin depends on the chain alone.  Returns per chain its smallest
    and largest margin (inf and -inf if no pair counts), its pairs of
    distinct points and its chronology misses.
    """
    i, j = _chain_pairs(chains.offsets, cs)
    m = np.diff(chains.offsets)[cs]
    starts = np.cumsum(m * (m - 1) // 2) - m * (m - 1) // 2
    p, q = chains.points[i], chains.points[j]
    _, _, margin, chron_bad = _margins(tau, p, q, chains.params[j] - chains.params[i], direction, tol)
    keep = p != q
    lo = np.minimum.reduceat(np.where(keep, margin.min(axis=0), np.inf), starts)
    hi = np.maximum.reduceat(np.where(keep, margin.max(axis=0), -np.inf), starts)
    kept = np.add.reduceat(keep, starts, dtype=np.int64)
    miss = np.zeros_like(kept) if chron_bad is None else np.add.reduceat((chron_bad & keep).sum(axis=0), starts)
    return lo, hi, kept, miss


def _chain_tie(tau, chains, c, direction, tol, worst):
    """The first pair of chain c in row-major order with margin worst: (row, col, p, q, tau, tau_model)."""
    a, b = chains.offsets[c], chains.offsets[c + 1]
    i, j = _chain_pairs(chains.offsets, [c])
    p, q = chains.points[i], chains.points[j]
    actual, model_plus, margin, _ = _margins(tau, p, q, chains.params[j] - chains.params[i], direction, tol)
    margin[:, p == q] = np.inf
    tied, row, col = _ties(margin, worst, i - a, j - a)
    w = int(np.argmin(row * (b - a) + col))
    r, s, e = int(row[w]), int(col[w]), tied[w]
    return r, s, int(chains.points[a + r]), int(chains.points[a + s]), float(actual.flat[e]), float(model_plus.flat[e])


def certify_curvature_bound(
    space,
    triangles,
    kappa=Kappa(0.0),
    direction: str = "above",
) -> Certificate:
    """Triangle-comparison certification of a timelike curvature bound.

    direction="above" checks tau(p, q) >= tau(comparison) for all sampled
    side-point pairs (and that model chronology implies sampled
    chronology); direction="below" checks tau(p, q) <= tau(comparison).
    triangles is a TriangleSet or any sequence of SampledTriangle.
    Returns a certificate with the worst margin and a witness on failure:
    the first triangle attaining it, then the first pair in row-major
    order of that triangle's side points (ab, bc, ac).  The bound passes
    down to a margin of -DEFAULT_CERT_TOL * (1 + |tau_model|) at the witness.

    Every unordered pair is evaluated once for both orientations, in two
    passes of batches of about _BATCH_PAIRS pairs, so memory stays bounded
    for any triangle count.  The hinge pass compares each triangle's pairs
    across two sides and settles which triangles fail.  A pair within one
    side compares its sampled separation with its parameter difference,
    which does not depend on the triangle, so the chain pass compares each
    distinct side chain once and counts it for every triangle that uses it
    and did not fail.
    """
    if direction not in ("above", "below"):
        raise ValueError("direction must be 'above' or 'below'")
    kappa = Kappa.of(kappa)
    tau = space.tau
    tri = TriangleSet.of(triangles)
    chains = tri.chains
    m = np.diff(chains.offsets)
    # per chain: its largest parameter step (0 for one point) and last parameter
    step = np.diff(chains.params, append=0.0)
    step[chains.offsets[1:] - 1] = 0.0
    step = np.maximum.reduceat(step, chains.offsets[:-1])
    last = chains.params[chains.offsets[1:] - 1]

    lengths = np.stack([tau[tri.x, tri.y], tau[tri.y, tri.z], tau[tri.x, tri.z]], axis=1)
    too_big = lengths[:, 2] >= kappa.dk
    skipped = [(t, "size bounds") for t in np.flatnonzero(too_big).tolist()]
    sized = np.flatnonzero(~too_big)
    sides, lengths = tri.sides[sized], lengths[sized]
    l_ab, l_bc, l_ac = lengths.T
    hinges = list(vertex_hinges(l_ab, l_bc, l_ac).values())  # at a, b and c
    u, ok = (np.stack(v, axis=1) for v in zip(*(angle_from_sides_arr(kappa, *h) for h in hinges)))
    # params increase along a chain, so its last point is the farthest along
    overshoot = lengths - last[sides] < -1e-9 * (1.0 + lengths)
    failing = ~ok.all(axis=1) | overshoot.any(axis=1)
    bad = np.zeros((len(sized), 3), dtype=bool)

    # hinge pass: found is the witness as (triangle in sized, key, p, q, tau, tau_model)
    worst, found, max_slack, n_pairs, chron_miss = np.inf, None, 0.0, 0, 0
    size = m[sides]
    for lo, hi in _batches(size[:, 0] * size[:, 1] + size[:, 2] * (size[:, 0] + size[:, 1])):
        batch = (sides[lo:hi], size[lo:hi], lengths[lo:hi], u[lo:hi], failing[lo:hi])
        bad[lo:hi], pairs, miss, top, batch_worst, batch_found = _hinge_batch(
            kappa, tau, chains, *batch, direction, DEFAULT_CERT_TOL, worst
        )
        n_pairs += pairs
        chron_miss += miss
        max_slack = max(max_slack, top, -batch_worst)
        if batch_found:
            worst, found = batch_worst, (lo + batch_found[0], *batch_found[1:])
    failing |= bad.any(axis=1)

    # chain pass over the chains of the triangles left, each counted per use
    uses = np.bincount(sides[~failing].ravel(), minlength=len(chains))
    live = np.flatnonzero((uses > 0) & (m > 1))
    chain_worst = np.full(len(chains), np.inf)
    for lo, hi in _batches(m[live] * (m[live] - 1) // 2):
        cs = live[lo:hi]
        chain_worst[cs], top, kept, miss = _chain_batch(tau, chains, cs, direction, DEFAULT_CERT_TOL)
        n_pairs += 2 * int(uses[cs] @ kept)
        chron_miss += int(uses[cs] @ miss)
        max_slack = max(max_slack, float(top.max()), -float(chain_worst[cs].min()))
    lowest = float(chain_worst.min(initial=np.inf))
    if lowest < np.inf and lowest <= worst:
        # the first triangle left with a side at the lowest, at its first tie
        at = (chain_worst == lowest)[sides] & ~failing[:, None]
        t = int(np.argmax(at.any(axis=1)))
        start = (np.cumsum(size[t]) - size[t]).tolist()
        n_t = int(size[t].sum())
        for s in np.flatnonzero(at[t]).tolist():
            row, col, *tie = _chain_tie(tau, chains, sides[t, s], direction, DEFAULT_CERT_TOL, lowest)
            key = (start[s] + row) * n_t + start[s] + col
            if lowest < worst or (t, key) < found[:2]:
                worst, found = lowest, (t, key, *tie)

    # the first failure in the one-triangle reference's order names the reason
    order = [*~ok.T, overshoot[:, 0], bad[:, 0] | bad[:, 1], overshoot[:, 1] | overshoot[:, 2], bad[:, 2]]
    for t, k in zip(np.flatnonzero(failing).tolist(), np.argmax(order, axis=0)[failing].tolist()):
        if k < 3:  # the hinge at a, b or c is unrealizable
            reason = str(unrealizable_sides(kappa, *(float(v[t]) for v in hinges[k][:3]), hinges[k][3]))
        else:
            reason = _PAST_SIDE_END if k in (3, 5) else _PAST_MODEL_DOMAIN
        skipped.append((int(sized[t]), reason))
    skipped.sort()
    witness = None
    if found:
        t, _, p, q, actual, model = found
        t = int(sized[t])
        witness = {
            "triangle": (int(tri.x[t]), int(tri.y[t]), int(tri.z[t])),
            "p": p,
            "q": q,
            "tau": actual,
            "tau_model": model,
            "margin": worst,
        }
    else:
        worst = 0.0
    tol_here = scaled(DEFAULT_CERT_TOL, witness["tau_model"]) if witness else DEFAULT_CERT_TOL
    passed = worst >= -tol_here and chron_miss == 0
    return Certificate(
        direction=direction,
        kappa=kappa.k,
        passed=bool(passed),
        n_triangles=len(tri) - len(skipped),
        n_pairs=n_pairs,
        max_violation=float(min(worst, 0.0)),
        max_slack=max_slack,
        witness=None if passed else witness,
        skipped=skipped,
        side_step=float(step[sides[~failing]].max(initial=0.0)),
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


def check_angle_inequalities(space, hinges, kappa=Kappa(0.0), geo_tol=DEFAULT_GEO_TOL):
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
        if o_b != o_g and all(k in angles for k in ("ab", "ag")) and geodesic_through(space, gamma, beta, x, geo_tol):
            margins["along-geodesic"] = angles["ab"] - angles["ag"]
        reports.append(HingeReport(vertex=x, orientations=orient, margins=margins, skipped=skipped))
    return reports


@dataclass
class FvfEmpirical:
    ts: np.ndarray
    quotients: np.ndarray
    limit: float
    errors: np.ndarray
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
    lt = space.tau_s(p, pts)
    quotients = (lt - l0) / ts
    limit = sigma * np.cosh(estimate_angle(space, beta, gamma, a, kappa).value)
    errors = np.abs(quotients - limit)
    return FvfEmpirical(ts=ts, quotients=quotients, limit=float(limit), errors=errors, sigma=sigma)
