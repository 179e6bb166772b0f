import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lorentzgeo import splitting
from lorentzgeo.errors import NotParallel, ShapeError, WindowExhausted
from lorentzgeo.fixtures import (
    base_euclid_grid,
    base_hyperbolic_sample,
    base_pair,
    base_point,
    base_sphere_sample,
    base_tripod,
    product_fixture,
)
from lorentzgeo.parallels import LineSample
from lorentzgeo.sampled import SampledSpace, validate_axioms
from lorentzgeo.splitting import (
    EmbeddingReport,
    MetricSampleIn,
    build_product,
    compute_dS,
    extract_line_classes,
    round_trip,
    same_class,
    verify_base_metric_cat0,
    verify_embedding,
)

GRID = np.arange(-8.0, 8.25, 0.25)


# ---------------------------------------------------------------------------
# Per-pair reference loops: the oracles the array paths must reproduce.
# ---------------------------------------------------------------------------


def oracle_same_class(l1, l2):
    """Tries every shift with an overlap of more than half the shorter line."""
    for dshift in range(-(len(l1) - 1), len(l2)):
        lo = max(0, -dshift)
        hi = min(len(l1), len(l2) - dshift)
        if hi - lo < min(len(l1), len(l2)) // 2 + 1:
            continue
        if np.array_equal(l1.points[lo:hi], l2.points[lo + dshift : hi + dshift]):
            return True
    return False


def oracle_grouped(lines, same=same_class):
    """extract_line_classes' groups from same_class on every (group head, line)
    pair, the first matching group winning."""
    groups = []
    for ln in lines:
        for g in groups:
            if same(g[0], ln):
                g.append(ln)
                break
        else:
            groups.append([ln])
    return groups


def oracle_compute_dS(space, reps):
    """(dS, dS_alt, infinite_pairs), one class pair at a time."""
    m = len(reps)
    dS = np.zeros((m, m))
    dS_alt = np.zeros((m, m))
    infinite = []
    for a in range(m):
        alpha = reps[a]
        a0 = int(alpha.points[np.argmin(np.abs(alpha.params))])
        for b in range(m):
            if a == b:
                continue
            beta = reps[b]
            bp = beta.params
            before = space.causal[beta.points, a0]
            after = space.causal[a0, beta.points]
            du = bp[None, :] - alpha.params[:, None]
            causal_ab = space.causal[np.ix_(alpha.points, beta.points)]
            if not before.any() or not after.any():
                dS[a, b] = np.inf
                infinite.append((a, b))
            else:
                s_star = float(bp[np.flatnonzero(before)].max())
                t_star = float(bp[np.flatnonzero(after)].min())
                dS[a, b] = 0.5 * (t_star - s_star)
            if causal_ab.any():
                dS_alt[a, b] = float(du[causal_ab].min())
            else:
                dS_alt[a, b] = np.inf
    return dS, dS_alt, infinite


def oracle_verify_embedding(space, reps, base, trim_steps=3):
    """EmbeddingReport from one (T_a x T_b) block per class pair, row-major."""
    h = base.step
    max_err = 0.0
    worst = None
    agree = 0
    kept = 0
    trimmed = 0
    for a, alpha in enumerate(reps):
        for b, beta in enumerate(reps):
            ds = base.dS[a, b] if a != b else 0.0
            du = beta.params[None, :] - alpha.params[:, None]
            actual_tau = space.tau[np.ix_(alpha.points, beta.points)]
            actual_causal = space.causal[np.ix_(alpha.points, beta.points)]
            if not np.isfinite(ds):
                model_tau = np.zeros_like(du)
                model_causal = np.zeros_like(du, dtype=bool)
                band = np.zeros_like(du, dtype=bool)
            else:
                q2 = du * du - ds * ds
                model_causal = du >= ds - 1e-12 * (1 + ds)
                model_tau = np.where(model_causal & (q2 > 0), np.sqrt(np.maximum(q2, 0)), 0.0)
                band = np.abs(du - ds) < trim_steps * h
            if a == b:
                band |= du <= 0
            err = np.abs(actual_tau - model_tau)
            keep = ~band
            trimmed += int(band.sum())
            kept += int(keep.sum())
            agree += int((actual_causal == model_causal)[keep].sum())
            if keep.any():
                e = float(err[keep].max())
                if e > max_err:
                    max_err = e
                    i, j = np.unravel_index(int(np.argmax(np.where(keep, err, -1))), err.shape)
                    worst = {
                        "classes": (a, b),
                        "pair": (int(alpha.points[i]), int(beta.points[j])),
                        "tau": float(actual_tau[i, j]),
                        "model": float(model_tau[i, j]),
                    }
    return EmbeddingReport(
        max_tau_error=max_err,
        causal_agreement=float(agree / kept if kept else 1.0),
        worst=worst,
        pairs_checked=kept,
        pairs_trimmed=trimmed,
    )


def fullwidth_dS_alt(space, reps):
    """compute_dS's dS_alt as one rows x n minimum per class row, over every
    causal row, not only each column's last."""
    points, params, starts, _ = splitting._stacked(reps)
    dS_alt = np.zeros((len(reps), len(reps)))
    for a, alpha in enumerate(reps):
        du = params[None, :] - alpha.params[:, None]
        du_causal = np.where(space.causal[alpha.points][:, points], du, np.inf)
        dS_alt[a] = np.minimum.reduceat(du_causal.min(axis=0), starts)
        dS_alt[a, a] = 0.0
    return dS_alt


def fullwidth_verify_embedding(space, reps, base):
    """verify_embedding with each class row compared at its full width at once."""
    h = base.step
    points, params, starts, lengths = splitting._stacked(reps)
    max_err = 0.0
    worst = None
    agree = 0
    kept = 0
    trimmed = 0
    for a, alpha in enumerate(reps):
        own = slice(starts[a], starts[a] + len(alpha))
        ds = np.repeat(base.dS[a], lengths)
        ds[own] = 0.0
        finite = np.isfinite(ds)
        ds[~finite] = 0.0
        cone = np.where(finite, ds - 1e-12 * (1 + ds), np.inf)
        du = params[None, :] - alpha.params[:, None]
        actual_tau = space.tau[alpha.points][:, points]
        actual_causal = space.causal[alpha.points][:, points]
        q2 = du * du - ds * ds
        model_causal = du >= cone
        model_tau = np.zeros_like(q2)
        np.sqrt(q2, out=model_tau, where=model_causal & (q2 > 0))
        band = (np.abs(du - ds) < splitting._TRIM_STEPS * h) & finite
        band[:, own] |= du[:, own] <= 0
        err = np.abs(actual_tau - model_tau)
        n_band = int(np.count_nonzero(band))
        trimmed += n_band
        kept += band.size - n_band
        agree += int(np.count_nonzero((actual_causal == model_causal) & ~band))
        np.copyto(err, -1.0, where=band)
        class_max = np.maximum.reduceat(err.max(axis=0), starts)
        b = int(np.argmax(class_max))
        if class_max[b] > max_err:
            max_err = float(class_max[b])
            beta = reps[b]
            cols = slice(starts[b], starts[b] + len(beta))
            i, j = np.unravel_index(int(np.argmax(err[:, cols])), (len(alpha), len(beta)))
            worst = {
                "classes": (a, b),
                "pair": (int(alpha.points[i]), int(beta.points[j])),
                "tau": float(actual_tau[i, cols][j]),
                "model": float(model_tau[i, cols][j]),
            }
    return EmbeddingReport(
        max_tau_error=max_err,
        causal_agreement=float(agree / kept if kept else 1.0),
        worst=worst,
        pairs_checked=kept,
        pairs_trimmed=trimmed,
    )


def oracle_verify_base_metric_cat0(dist, midpoints):
    """(triangle violation, margins, skipped pairs): a triple loop over y < z,
    then x, with one dict per triple."""
    d = np.asarray(dist, dtype=float)
    m = d.shape[0]
    tri = MetricSampleIn(dist=0.5 * (d + d.T)).check_triangle_inequality(1e-9)
    margins = []
    skipped = 0
    mid = {}
    for (i, j), k in midpoints.items():
        mid[(i, j)] = k
        mid[(j, i)] = k
    for y in range(m):
        for z in range(y + 1, m):
            if (y, z) not in mid:
                skipped += 1
                continue
            mm = mid[(y, z)]
            for x in range(m):
                if x in (y, z):
                    continue
                margin = (
                    0.5 * d[x, y] ** 2
                    + 0.5 * d[x, z] ** 2
                    - 0.25 * d[y, z] ** 2
                    - d[x, mm] ** 2
                )
                margins.append({"triple": (x, y, z), "midpoint": mm, "margin": float(margin)})
    return tri, margins, skipped


def _unequal_lengths():
    """Tripod product whose lines are cut to four different lengths."""
    space, lines = build_product(base_tripod(), GRID)
    cuts = [(0, 0), (3, 0), (0, 7), (5, 11)]
    return space, [
        LineSample(ln.points[lo : len(ln) - hi], ln.t0 + lo * ln.step, ln.step, label=ln.label)
        for ln, (lo, hi) in zip(lines, cuts)
    ]


def _infinite_window():
    """Two base points 3 apart, seen from a 4-unit time window: no causal window."""
    base = MetricSampleIn(dist=[[0, 1.5, 1.5], [1.5, 0, 3], [1.5, 3, 0]])
    return build_product(base, np.arange(-2, 2.001, 0.25))


def _shuffled():
    """Tripod product with its points in a random order, so that no line is a
    run of consecutive indices and every block of verify_embedding is gathered."""
    space, lines = build_product(base_tripod(), GRID)
    order = np.random.default_rng(0).permutation(space.n)  # new point k is old point order[k]
    where = np.argsort(order)  # old point p is new point where[p]
    shuffled = SampledSpace(tau=space.tau[np.ix_(order, order)], causal=space.causal[np.ix_(order, order)])
    return shuffled, [LineSample(where[ln.points], ln.t0, ln.step, label=ln.label) for ln in lines]


PRODUCTS = {
    "tripod": lambda: build_product(base_tripod(), GRID),
    "shuffled-tripod": _shuffled,
    "pair": lambda: build_product(base_pair(1.0), GRID),
    "sqrt2-pair": lambda: build_product(base_pair(math.sqrt(2)), GRID),
    "unequal-lengths": _unequal_lengths,
    "infinite-window": _infinite_window,
    # alpha(0) has a causal future on the other line but no causal past
    "one-sided-window": lambda: build_product(base_pair(1.5), np.arange(-1, 3.001, 0.25)),
}


# bases for the full-width oracles: "infinite-window" has a class pair with no causal window
WIDTH_BASES = {
    "pair": base_pair(1.0),
    "sqrt2-pair": base_pair(math.sqrt(2)),
    "tripod": base_tripod(),
    "euclid": base_euclid_grid(3),
    "infinite-window": MetricSampleIn(dist=[[0, 1.5, 1.5], [1.5, 0, 3], [1.5, 3, 0]]),
}


def traced_peak(f, *args):
    """The tracemalloc peak of f(*args) above what was allocated before it, in bytes."""
    f(*args)  # first-call caches fall outside the traced call
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestBuildProduct:
    def test_labels_must_match_the_base(self):
        with pytest.raises(ShapeError, match="^1 labels for 2 points$"):
            MetricSampleIn(dist=np.zeros((2, 2)), labels=["a"])

    def test_single_point_base_is_chain(self):
        space, lines = build_product(base_point(), [0.0, 1.0, 2.0])
        assert space.tau.tolist() == [[0, 1, 2], [0, 0, 1], [0, 0, 0]]
        assert len(lines) == 1

    def test_pair_formula(self):
        space, _ = build_product(base_pair(1.0), [0.0, 1.0, 2.0])
        assert space.tau[0, 3 + 2] == pytest.approx(math.sqrt(3), abs=1e-12)
        assert not space.causal[0, 3]  # equal times, distance 1 apart

    def test_tripod_leaf_to_leaf(self):
        base = base_tripod()
        space, _ = build_product(base, [0.0, 1.0, 2.0, 3.0])
        l1 = base.labels.index("l1")
        l2 = base.labels.index("l2")
        assert space.tau[l1 * 4 + 0, l2 * 4 + 3] == pytest.approx(math.sqrt(5), abs=1e-12)

    @pytest.mark.parametrize("maker", [base_point, base_pair, base_tripod, base_sphere_sample])
    def test_generator_soundness(self, maker):
        space, _ = build_product(maker(), np.arange(-2.0, 2.5, 0.5))
        assert validate_axioms(space).ok

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ShapeError):
            build_product(base_pair(), [0.0, 1.0, 3.0])


class TestLineClasses:
    def test_canonical_classes(self):
        space, lines = build_product(base_tripod(), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        assert len(classes) == 4
        assert all(abs(rep.t0 - line.t0) <= 1e-9 for rep, line in zip(classes, lines))

    def test_shift_merge(self):
        space, lines = build_product(base_pair(1.0), GRID)
        dup = LineSample(lines[1].points, lines[1].t0 + 0.5, lines[1].step, label="dup")
        classes = extract_line_classes(space, lines + [dup], lines[0])
        assert len(classes) == 2

    def test_kinked_pseudo_line_rejected(self):
        space, lines = build_product(base_tripod(), GRID)
        base = base_tripod()
        T = len(GRID)
        l1 = base.labels.index("l1")
        l2 = base.labels.index("l2")
        # jump from leaf-1's column to leaf-2's column halfway up
        pts = np.concatenate([lines[l1].points[: T // 2], lines[l2].points[T // 2 :]])
        kinked = LineSample(pts, t0=GRID[0], step=0.25, label="kinked")
        with pytest.raises(NotParallel):
            extract_line_classes(space, [kinked], lines[0])


class TestSameClass:
    @staticmethod
    def line(points):
        return LineSample(np.asarray(points, dtype=int), 0.0, 1.0)

    @pytest.mark.parametrize("cut,expect", [(4, True), (5, False)], ids=["at-threshold", "one-below"])
    def test_majority_threshold(self, cut, expect):
        # overlap 10 - cut against the threshold 10 // 2 + 1 = 6
        l1 = self.line(np.arange(10))
        l2 = self.line(np.concatenate([np.arange(cut, 10), np.arange(100, 112)]))
        assert same_class(l1, l2) is expect is oracle_same_class(l1, l2)
        assert same_class(l2, l1) is expect is oracle_same_class(l2, l1)

    def test_disjoint_lines(self):
        assert not same_class(self.line(np.arange(65)), self.line(np.arange(65, 130)))

    @settings(max_examples=300, deadline=None)
    @given(
        p1=st.lists(st.integers(0, 4), max_size=12),
        shift=st.integers(-12, 12),
        length=st.integers(0, 12),
        pad=st.lists(st.integers(0, 4), max_size=6),
        flip=st.one_of(st.none(), st.integers(0, 30)),
    )
    @example(p1=list(range(10)), shift=4, length=6, pad=[7] * 4, flip=None)  # overlap 6 of 10
    @example(p1=list(range(10)), shift=5, length=5, pad=[7] * 5, flip=None)  # overlap 5 of 10
    @example(p1=[1, 1, 1, 1], shift=-3, length=4, pad=[1, 2], flip=None)
    def test_matches_every_shift_oracle(self, p1, shift, length, pad, flip):
        """Shifted copies of a window of p1, padded, repeated points and all."""
        lo = max(0, shift)
        window = p1[lo : lo + length]
        p2 = pad[: max(0, -shift)] + window + pad
        if flip is not None and p2:
            p2[flip % len(p2)] = 9
        l1, l2 = self.line(p1), self.line(p2)
        assert same_class(l1, l2) == oracle_same_class(l1, l2)
        assert same_class(l2, l1) == oracle_same_class(l2, l1)


class TestGrouping:
    @staticmethod
    def counted_same_class(monkeypatch):
        """The (head, line) pairs same_class is called on from here on."""
        calls = []

        def counted(l1, l2):
            calls.append((l1.label, l2.label))
            return same_class(l1, l2)

        monkeypatch.setattr(splitting, "same_class", counted)
        return calls

    def test_egrid_product_tries_no_pair(self, monkeypatch):
        """The bench's egrid product: 25 lines that share no point, which
        the pairwise loop compared 300 times."""
        space, lines, _ = product_fixture("euclid-grid", step=0.25, window=8.0, m=5)
        calls = self.counted_same_class(monkeypatch)
        classes = extract_line_classes(space, lines, lines[0])
        assert len(classes) == 25 and calls == []
        assert len(oracle_grouped(lines, splitting.same_class)) == 25 and len(calls) == 300

    def test_tries_exactly_the_pairs_that_share_a_point(self, monkeypatch):
        def line(label, points):
            return LineSample(np.asarray(points), 0.0, 1.0, label=label)

        lines = [
            line("a", range(10)),
            line("b", range(5, 15)),  # 5 points of a, below the majority of 6
            line("c", range(20, 30)),
            line("d", range(2, 12)),  # a shifted by 2: joins a's group
            line("e", [25, 100, 101]),  # one point of c
            line("f", range(40, 50)),
            line("g", [0, 20, 40, 20]),  # one point each of a, c and f, one twice
            line("h", range(5, 15)),  # b again: joins b's group, a is tried first
            line("i", []),
        ]
        sharing = {
            (h, ln): bool(set(lines[h].points.tolist()) & set(lines[ln].points.tolist()))
            for ln in range(len(lines))
            for h in range(ln)
        }
        expect, heads = [], []
        for ln in range(len(lines)):  # the pairwise loop, over the pairs that share a point
            for h in heads:
                if sharing[h, ln]:
                    expect.append((lines[h].label, lines[ln].label))
                    if same_class(lines[h], lines[ln]):
                        break
            else:
                heads.append(ln)
        calls = self.counted_same_class(monkeypatch)
        groups = splitting._grouped(lines)
        assert calls == expect == [("a", "b"), ("a", "d"), ("c", "e"), ("a", "g"), ("c", "g"), ("f", "g"), ("a", "h"), ("b", "h")]
        assert [[ln.label for ln in g] for g in groups] == [["a", "d"], ["b", "h"], ["c"], ["e"], ["f"], ["g"], ["i"]]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_groups_match_the_pairwise_loop(self, data):
        """Random line sets of shifted copies, partial overlaps, repeated
        points and empty lines, over few points so that many lines share some."""
        lines = []
        for k in range(data.draw(st.integers(0, 9))):
            kind = data.draw(st.sampled_from(["fresh", "copy"] if lines else ["fresh"]))
            if kind == "fresh":
                points = data.draw(st.lists(st.integers(0, 15), max_size=12))
            else:  # a window of an earlier line, padded on either side
                source = data.draw(st.sampled_from(lines)).points.tolist()
                lo = data.draw(st.integers(0, len(source)))
                hi = data.draw(st.integers(lo, len(source)))
                pad = st.lists(st.integers(0, 15), max_size=4)
                points = data.draw(pad) + source[lo:hi] + data.draw(pad)
            lines.append(LineSample(np.asarray(points, dtype=int), 0.0, 1.0, label=str(k)))
        got = [[ln.label for ln in g] for g in splitting._grouped(lines)]
        assert got == [[ln.label for ln in g] for g in oracle_grouped(lines)]


class TestOracles:
    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_compute_dS_and_embedding_match_the_pair_loops(self, name, monkeypatch):
        space, lines = PRODUCTS[name]()
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        dS, dS_alt, infinite = oracle_compute_dS(space, classes)
        assert np.array_equal(rec.dS, dS) and np.array_equal(rec.dS_alt, dS_alt)
        assert rec.infinite_pairs == infinite
        assert verify_embedding(space, classes, rec) == oracle_verify_embedding(space, classes, rec)
        for trim in (0, 1):  # other band widths, through the module constant
            monkeypatch.setattr(splitting, "_TRIM_STEPS", trim)
            assert verify_embedding(space, classes, rec) == oracle_verify_embedding(space, classes, rec, trim)

    def test_unequal_lengths_are_kept(self):
        space, lines = _unequal_lengths()
        classes = extract_line_classes(space, lines, lines[0])
        assert [len(rep) for rep in classes] == [65, 62, 58, 49]

    def test_infinite_window_pinned(self):
        space, lines = _infinite_window()
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        assert rec.infinite_pairs == [(1, 2), (2, 1)]
        assert rec.dS[1, 2] == np.inf and rec.dS[2, 1] == np.inf
        emb = verify_embedding(space, classes, rec)
        assert emb.worst["classes"] == (1, 2) and emb.worst["pair"] == (17, 50)
        assert emb.causal_agreement == pytest.approx(0.98334, abs=1e-5)
        assert (emb.pairs_checked, emb.pairs_trimmed) == (1801, 800)

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.sampled_from(sorted(WIDTH_BASES)),
        cuts=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=9, max_size=9),
        columns=st.integers(1, 70),
    )
    @example(base="infinite-window", cuts=[(0, 0)] * 9, columns=7)
    def test_last_row_and_column_blocks_match_the_full_width_loops(self, base, cuts, columns):
        """dS_alt from each column's last causal row, and the embedding one
        block of columns at a time (blocks that cut classes apart), equal
        the full-width loops bit for bit, on lines that start at different
        t0 and with a class pair that has no causal window."""
        space, lines = build_product(WIDTH_BASES[base], np.arange(-2.0, 2.001, 0.25))
        lines = [
            LineSample(ln.points[lo : len(ln) - hi], ln.t0 + lo * ln.step, ln.step, label=ln.label)
            for ln, (lo, hi) in zip(lines, cuts)
        ]
        try:
            classes = extract_line_classes(space, lines, lines[0])
            rec = compute_dS(space, classes)
        except (NotParallel, WindowExhausted):
            assume(False)
        assert np.array_equal(rec.dS_alt.view(np.uint64), fullwidth_dS_alt(space, classes).view(np.uint64))
        with mock.patch.object(splitting, "_COLUMNS", columns):
            got = verify_embedding(space, classes, rec)
        expect = fullwidth_verify_embedding(space, classes, rec)
        assert got == expect
        assert repr(got) == repr(expect)  # the signs of zeros too

    def test_empty_representative_rejected(self):
        space, lines = build_product(base_pair(1.0), GRID)
        empty = LineSample(np.zeros(0, dtype=int), 0.0, 0.25)
        with pytest.raises(ShapeError):
            compute_dS(space, [lines[0], empty])


class TestComputeDS:
    def test_pair_both_formulas(self):
        space, lines = build_product(base_pair(1.0), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        base = compute_dS(space, classes)
        assert base.dS[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert base.dS_alt[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_tripod_distances(self):
        space, lines = build_product(base_tripod(), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        labels = base_tripod().labels
        c = labels.index("c")
        l1, l2 = labels.index("l1"), labels.index("l2")
        assert rec.dS[l1, l2] == pytest.approx(2.0, abs=1e-12)
        assert rec.dS[l1, c] == pytest.approx(1.0, abs=1e-12)

    def test_off_grid_distance_quantizes_up(self):
        space, lines = build_product(base_pair(math.sqrt(2)), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        assert math.sqrt(2) <= rec.dS[0, 1] <= math.sqrt(2) + 0.25


class TestCat0:
    def test_euclidean_equilateral_equality(self):
        # side 2 with a true midpoint: the median length is sqrt(3) exactly
        d = np.array(
            [
                [0.0, 2.0, 2.0, 1.0],
                [2.0, 0.0, 2.0, 1.0],
                [2.0, 2.0, 0.0, math.sqrt(3)],
                [1.0, 1.0, math.sqrt(3), 0.0],
            ]
        )
        rep = verify_base_metric_cat0(d, {(0, 1): 3})
        margins = rep.margins[rep.triples[:, 0] == 2]
        assert margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_tripod_margin(self):
        base = base_tripod()
        rep = verify_base_metric_cat0(base.dist, base.midpoints)
        labels = base.labels
        l1, l2, l3 = labels.index("l1"), labels.index("l2"), labels.index("l3")
        margins = rep.margins[np.isin(rep.triples, [l1, l2, l3]).all(axis=1)]
        assert margins.size and margins[0] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_triple(self):
        d = np.zeros((2, 2))
        rep = verify_base_metric_cat0(d, {(0, 1): 0})
        assert rep.min_margin >= -1e-12

    def test_sphere_sample_violates(self):
        base = base_sphere_sample()
        rep = verify_base_metric_cat0(base.dist, base.midpoints)
        assert not rep.ok
        assert rep.min_margin < -1.0

    @staticmethod
    def assert_matches_oracle(dist, midpoints):
        rep = verify_base_metric_cat0(dist, midpoints)
        tri, margins, skipped = oracle_verify_base_metric_cat0(dist, midpoints)
        want = np.array([r["margin"] for r in margins])
        assert rep.margins.tobytes() == want.tobytes()
        assert rep.triples.tolist() == [list(r["triple"]) for r in margins]
        assert rep.min_margin == min(want, default=0.0)
        assert (rep.checked, rep.skipped_no_midpoint, rep.triangle_violation) == (len(margins), skipped, tri)
        assert rep.ok == (tri is None and min(want, default=0.0) >= -1e-9)

    @pytest.mark.parametrize(
        "base",
        [base_euclid_grid(), base_euclid_grid(5, 0.25), base_tripod(), base_tripod(subdiv=3), base_sphere_sample(), base_hyperbolic_sample()],
        ids=["euclid-grid", "euclid-grid-5", "tripod", "tripod-3", "sphere", "hyperbolic"],
    )
    def test_fixture_bases_match_the_triple_loop(self, base):
        self.assert_matches_oracle(base.dist, base.midpoints)

    def test_squares_as_the_scalar_formula_does(self):
        """Python's float power, which numpy scalars use, and numpy's correctly
        rounded array square differ in the last bit for about one value in a
        thousand; the margins square as the scalar formula does."""
        values = np.random.default_rng(0).uniform(1.0, 2.0, 10_000).tolist()
        v = next(v for v in values if v**2 != v * v)
        d = np.full((3, 3), v)
        np.fill_diagonal(d, 0.0)
        self.assert_matches_oracle(d, {(0, 1): 2, (1, 2): 1})
        assert verify_base_metric_cat0(d, {(0, 1): 2}).margins.tolist() == [0.5 * v**2 + 0.5 * v**2 - 0.25 * v**2 - 0.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(0, 7))
    def test_random_metrics_match_the_triple_loop(self, data, m):
        """Random symmetric distances, not always a metric, with midpoint
        keys in either order (a pair may be keyed both ways, the later key
        winning), keys with i == j, and midpoints equal to an endpoint."""
        side = st.floats(0.0, 100.0).map(math.sqrt)  # mostly not exact squares
        upper = data.draw(st.lists(side, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
        d = np.zeros((m, m))
        d[np.triu_indices(m, 1)] = upper
        d += d.T
        midpoints = {}
        if m:
            index = st.integers(0, m - 1)
            for i, j, k in data.draw(st.lists(st.tuples(index, index, index), max_size=2 * m)):
                midpoints[(i, j)] = k
        self.assert_matches_oracle(d, midpoints)


class TestEmbedding:
    def test_exact_product(self):
        space, lines = build_product(base_tripod(), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        emb = verify_embedding(space, classes, rec)
        assert emb.max_tau_error <= 1e-12
        assert emb.causal_agreement == 1.0

    def test_quantized_base(self):
        space, lines = build_product(base_pair(math.sqrt(2)), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        emb = verify_embedding(space, classes, rec)
        assert emb.max_tau_error <= 0.25
        assert emb.causal_agreement == 1.0
        assert emb.pairs_trimmed > 0


class TestScratch:
    def test_base_and_embedding_scratch_is_bounded(self):
        """On the 1625-point euclid-grid product compute_dS and
        verify_embedding each peak at most 2 MiB above their inputs (0.4
        and 1.1 MiB; they held rows x n float temporaries, 2.7 and 6.1 MiB)."""
        space, lines = build_product(base_euclid_grid(5), GRID)
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        assert traced_peak(compute_dS, space, classes) <= 2 * 2**20
        assert traced_peak(verify_embedding, space, classes, rec) <= 2 * 2**20


class TestRoundTrip:
    @pytest.mark.parametrize(
        "base,expect",
        [
            (base_pair(1.0), 0.0),
            (base_tripod(), 0.0),
            (base_euclid_grid(4), 0.25),
        ],
        ids=["pair", "tripod", "euclid"],
    )
    def test_acceptance_bases(self, base, expect):
        rep = round_trip(base, GRID)
        assert rep.max_deviation <= expect + 1e-9
        assert rep.symmetry_dev <= 1e-9
        assert rep.cross_check_dev <= 0.25 + 1e-9
        assert rep.embedding.causal_agreement == 1.0
        if rep.cat0 is not None:
            assert rep.cat0.min_margin >= -1e-9

    def test_single_point(self):
        rep = round_trip(base_point(), [0.0, 0.5, 1.0])
        assert rep.base.dS.shape == (1, 1) and rep.base.dS[0, 0] == 0.0

    def test_hyperbolic_sample(self):
        rep = round_trip(base_hyperbolic_sample(m=4, seed=5), GRID)
        assert rep.max_deviation <= 0.25 + 1e-9


def _cut_lines(lines):
    """Lines cut to start at different t0, plus a later copy of line 1 that
    shares its points at other parameters and so joins line 1's class."""
    cut = [
        LineSample(ln.points[(3 * k) % 7 : len(ln) - (5 * k) % 4], ln.t0 + (3 * k) % 7 * ln.step, ln.step, label=ln.label)
        for k, ln in enumerate(lines)
    ]
    return cut + [LineSample(lines[1].points[5:], lines[1].t0 + 7.0, lines[1].step, label="copy")]


# sha256 of the classes (each representative's points and t0) and the
# bits of dS and dS_alt, and the EmbeddingReport repr, of `gen product` fixtures
PINNED_PIPELINE = {
    ("tripod", "whole"): ("8317c63bffd51171d28e4abaf5a6e121601bbc9b8f585cb8ea0363f09f33ba99", 'EmbeddingReport(max_tau_error=0.0, causal_agreement=1.0, worst=None, pairs_checked=13128, pairs_trimmed=4296)'),
    ("tripod", "cut"): ("08bce35fb2f7596d5ecfcc9612b1da3cb482b5015fc039cbfad1e9bc158702bc", 'EmbeddingReport(max_tau_error=0.0, causal_agreement=1.0, worst=None, pairs_checked=9778, pairs_trimmed=3447)'),
    ("euclid-grid", "whole"): ("655fb63d797c5c838709d22a7488189790ee36c02f76cdff2c9dd96debe14d34", "EmbeddingReport(max_tau_error=0.3783947138236625, causal_agreement=1.0, worst={'classes': (0, 11), 'pair': (0, 374), 'tau': 4.153311931459037, 'model': 3.774917217635375}, pairs_checked=233858, pairs_trimmed=44926)"),
    ("euclid-grid", "cut"): ("f3eba1327d589e267b8cf8ec8f3e5540bf995e389fe7d57199df9277322db1d6", "EmbeddingReport(max_tau_error=0.3783947138236625, causal_agreement=1.0, worst={'classes': (0, 11), 'pair': (0, 374), 'tau': 4.153311931459037, 'model': 3.774917217635375}, pairs_checked=172424, pairs_trimmed=38257)"),
    ("hyperbolic-sample", "whole"): ("358d221f629d7d1897323f70c29d87e55c7c8da760724a33c00031d8e758663c", "EmbeddingReport(max_tau_error=0.3419933441747105, causal_agreement=1.0, worst={'classes': (3, 2), 'pair': (122, 98), 'tau': 3.696095310424395, 'model': 3.3541019662496847}, pairs_checked=30751, pairs_trimmed=8453)"),
    ("hyperbolic-sample", "cut"): ("204d11c62d11c94250d8a26b5c0f3df5fcb1edbec4c97c3446638394447a586a", "EmbeddingReport(max_tau_error=0.3419933441747096, causal_agreement=1.0, worst={'classes': (3, 2), 'pair': (101, 77), 'tau': 3.696095310424395, 'model': 3.3541019662496856}, pairs_checked=23327, pairs_trimmed=6949)"),
    ("sphere-sample", "whole"): ("f76225d97ae44d18e57803789ebe5bc460f0b4a6dcd18e7fa2bf2b1fe146b342", "EmbeddingReport(max_tau_error=0.31906670486921973, causal_agreement=1.0, worst={'classes': (1, 3), 'pair': (33, 109), 'tau': 3.889780919140645, 'model': 3.570714214271425}, pairs_checked=21021, pairs_trimmed=6204)"),
    ("sphere-sample", "cut"): ("56cc9043ba404bfd2cd4b5df2dc94767ba2935aec7bb279b38100e5b8f266546", "EmbeddingReport(max_tau_error=0.31906670486921973, causal_agreement=1.0, worst={'classes': (1, 3), 'pair': (36, 112), 'tau': 3.889780919140645, 'model': 3.570714214271425}, pairs_checked=15468, pairs_trimmed=4981)"),
}


class TestPinnedPipeline:
    @pytest.mark.parametrize("name,variant", sorted(PINNED_PIPELINE))
    def test_split_pipeline_bit_for_bit(self, name, variant):
        space, lines, _ = product_fixture(name)
        if variant == "cut":
            lines = _cut_lines(lines)
        classes = extract_line_classes(space, lines, lines[0])
        rec = compute_dS(space, classes)
        digest = hashlib.sha256()
        for rep in classes:
            digest.update(rep.points.astype("<i8").tobytes())
            digest.update(np.array([rep.t0]).view(np.uint64).tobytes())
        digest.update(rec.dS.view(np.uint64).tobytes())
        digest.update(rec.dS_alt.view(np.uint64).tobytes())
        assert (digest.hexdigest(), repr(verify_embedding(space, classes, rec))) == PINNED_PIPELINE[name, variant]
