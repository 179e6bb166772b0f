import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzgeo.errors import ShapeError, StripInconsistent, WindowExhausted
from lorentzgeo.fixtures import (
    base_pair,
    base_point,
    base_tripod,
    desitter_sample,
    plane_ray_fan,
    space_from_plane_points,
)
from lorentzgeo.parallels import (
    LineSample,
    _overlaps,
    asymptotic_ray,
    concat_angle,
    flat_strip_reconstruct,
    is_line,
    strip_profile,
    sync_parallel_fit,
    weakly_parallel_offset,
)
from lorentzgeo.sampled import Chain, SampledSpace, geodesic_between
from lorentzgeo.splitting import build_product


def oracle_weakly_parallel_offset(space, alpha, beta):
    """weakly_parallel_offset as one causal gather per grid offset, in _overlaps' order."""

    def scan(first, second):
        for s, i, j in _overlaps(first, second):
            if space.causal[first.points[i], second.points[j]].all():
                return s
        return None

    s_ab, s_ba = scan(alpha, beta), scan(beta, alpha)
    return None if s_ab is None or s_ba is None else (s_ab, s_ba)


@pytest.fixture(scope="module")
def pair_product():
    space, lines = build_product(base_pair(1.0), np.arange(-8.0, 8.25, 0.25))
    return space, lines


@pytest.fixture(scope="module")
def pair2_product():
    space, lines = build_product(base_pair(2.0), np.arange(-8.0, 8.5, 0.5))
    return space, lines


class TestIsLine:
    def test_product_line(self, pair_product):
        space, lines = pair_product
        ok, worst = is_line(space, lines[0])
        assert ok and worst["deficit"] == 0.0

    def test_broken_line_detected(self):
        # two segments with a rapidity kink at the middle
        pts = [(-2.0 + 0.5 * k, 0.0) for k in range(5)]  # vertical up to (0,0)
        phi = 0.3
        pts += [(0.5 * k * math.cosh(phi), 0.5 * k * math.sinh(phi)) for k in range(1, 5)]
        space = space_from_plane_points(pts)
        kinked = LineSample(points=np.arange(9), t0=-2.0, step=0.5)
        ok, worst = is_line(space, kinked)
        assert not ok
        # across the kink the endpoints' separation exceeds the parameters
        assert worst["deficit"] < 0
        assert worst["pair"] == (0, 8)

    def test_single_point(self, pair_product):
        space, lines = pair_product
        single = LineSample(points=lines[0].points[:1], t0=0.0, step=1.0)
        assert is_line(space, single)[0]


class TestLineSample:
    @pytest.mark.parametrize(
        "t0, step",
        [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)],
    )
    def test_non_finite_grid_rejected(self, t0, step):
        with pytest.raises(ShapeError, match="^line t0 and step must be finite$"):
            LineSample([0, 1], t0, step)


class TestWeaklyParallel:
    def test_product_offsets(self, pair_product):
        space, lines = pair_product
        assert weakly_parallel_offset(space, lines[0], lines[1]) == (1.0, 1.0)

    def test_reflexive(self, pair_product):
        space, lines = pair_product
        assert weakly_parallel_offset(space, lines[0], lines[0]) == (0.0, 0.0)

    def test_empty_line_overlaps_nothing(self, pair_product):
        space, lines = pair_product
        empty = LineSample(points=[], t0=-8.0, step=0.25)
        for alpha, beta in ((empty, lines[0]), (lines[0], empty)):
            assert weakly_parallel_offset(space, alpha, beta) is None
            with pytest.raises(WindowExhausted):
                strip_profile(space, alpha, beta)

    @pytest.mark.parametrize("t0, t1", [(0.1, 0.3), (10000.1, 10000.3)])
    def test_aligned_zero_offset_far_from_zero(self, t0, t1):
        """Lines on one chain, the second from its third point, overlap at
        offset 0, though s rounds to -1.8e-12 at t0 = 10000.1 and 10000.3."""
        space, (chain,) = build_product(base_point(), 0.1 * np.arange(40))
        alpha = LineSample(chain.points, t0, 0.1)
        beta = LineSample(chain.points[2:], t1, 0.1)
        assert weakly_parallel_offset(space, alpha, beta) == pytest.approx((0.0, 0.0), abs=1e-9)
        assert strip_profile(space, alpha, beta).offsets[0] == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 7),
        origin=st.sampled_from([0.0, 0.1, -8.0, 10000.1]),
        steps=st.sampled_from([(0.1, 0.1), (0.25, 0.25), (1.0, 1.0), (0.25, 0.5)]),
    )
    def test_block_scan_matches_the_per_offset_scan(self, data, n, origin, steps):
        """Random causal relations and lines with repeated points, empty
        lines and unequal steps, at grid origins near and far from zero."""
        causal = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
        space = SampledSpace(tau=np.zeros((n, n)), causal=causal)
        alpha, beta = (
            LineSample(data.draw(st.lists(st.integers(0, n - 1), max_size=8)), origin + step * data.draw(st.integers(-4, 4)), step)
            for step in steps
        )
        if steps[0] != steps[1]:
            with pytest.raises(ShapeError, match="^incompatible grid steps$"):
                weakly_parallel_offset(space, alpha, beta)
            return
        got = weakly_parallel_offset(space, alpha, beta)
        assert got == oracle_weakly_parallel_offset(space, alpha, beta)
        assert got is None or all(type(s) is float for s in got)

    def test_desitter_opposite_meridians(self):
        space, lines, _ = desitter_sample(8, 13, 1.5)
        # angles 0 and pi sit behind each other's horizons for good
        assert weakly_parallel_offset(space, lines[0], lines[4]) is None

    def test_offsets_compose_on_line_families(self):
        # equivalence-relation behavior: offsets add along leaf -> center -> leaf
        base = base_tripod()
        space, lines = build_product(base, np.arange(-8.0, 8.5, 0.5))
        labels = base.labels
        l1, l2, c = labels.index("l1"), labels.index("l2"), labels.index("c")
        s_12 = weakly_parallel_offset(space, lines[l1], lines[l2])[0]
        s_1c = weakly_parallel_offset(space, lines[l1], lines[c])[0]
        s_c2 = weakly_parallel_offset(space, lines[c], lines[l2])[0]
        assert s_12 <= s_1c + s_c2 + 1e-12
        # symmetry of the relation on this family
        assert weakly_parallel_offset(space, lines[l2], lines[l1]) == (s_12, s_12)

    def test_sync_fit_implies_offset_at_ceiling(self):
        # after synchronisation the minimal causal offset is c0 rounded up
        # to the grid
        space, lines = build_product(base_pair(math.sqrt(2)), np.arange(-8.0, 8.25, 0.25))
        fit = sync_parallel_fit(space, lines[0], lines[1])
        assert fit is not None and abs(fit.t0) <= 1e-9
        s_ab, s_ba = weakly_parallel_offset(space, lines[0], lines[1])
        expected = math.ceil(fit.c0 / 0.25) * 0.25
        assert s_ab == pytest.approx(expected, abs=1e-9)
        assert s_ba == pytest.approx(expected, abs=1e-9)


class TestSyncFit:
    def test_product_distance_two(self, pair2_product):
        space, lines = pair2_product
        fit = sync_parallel_fit(space, lines[0], lines[1])
        assert fit is not None
        assert fit.t0 == pytest.approx(0.0, abs=1e-9)
        assert fit.c0 == pytest.approx(2.0, abs=1e-9)
        assert fit.causal_mismatches == 0

    def test_shifted_same_line(self, pair_product):
        space, lines = pair_product
        shifted = lines[0].shifted(3.0)
        fit = sync_parallel_fit(space, lines[0], shifted)
        assert fit.c0 == pytest.approx(0.0, abs=1e-9)
        assert fit.t0 == pytest.approx(-3.0, abs=1e-9)

    def test_desitter_fit_fails(self):
        space, lines, _ = desitter_sample(16, 9, 1.0)
        assert sync_parallel_fit(space, lines[0], lines[1]) is None


class TestStripProfile:
    def test_product_profile(self, pair_product):
        space, lines = pair_product
        prof = strip_profile(space, lines[0], lines[1], angle_probes=3)
        k = int(np.argmin(np.abs(prof.offsets - 2.0)))
        assert prof.F[k] == pytest.approx(math.sqrt(3), abs=1e-12)
        assert prof.Fp[k] == pytest.approx(2 / math.sqrt(3), abs=1e-9)
        assert prof.max_dev.max() <= 1e-9
        if prof.angle_probe:
            assert prof.angle_probe["deviation"] <= 1e-6

    def test_self_profile_is_linear(self, pair_product):
        space, lines = pair_product
        prof = strip_profile(space, lines[0], lines[0])
        act = prof.offsets > 0
        assert np.allclose(prof.F[act], prof.offsets[act], atol=1e-12)
        finite = np.isfinite(prof.Fp) & act
        assert np.allclose(prof.Fp[finite], 1.0, atol=1e-9)


class TestFlatStrip:
    def test_width_identity(self, pair_product):
        space, lines = pair_product
        strip = flat_strip_reconstruct(space, lines[0], lines[1])
        assert strip.width == pytest.approx(1.0, abs=1e-6)
        assert strip.max_tau_error <= 1e-9
        assert strip.causal_mismatches == 0

    def test_causal_mismatches_count_off_the_diagonal(self, pair_product):
        """A point's causal bit with itself is not a pair of the strip, as in the fill-in checks."""
        space, lines = pair_product
        causal = space.causal.copy()
        p = int(lines[0].points[3])
        causal[p, p] = False
        doctored = SampledSpace(tau=space.tau, causal=causal)
        assert flat_strip_reconstruct(doctored, lines[0], lines[1]).causal_mismatches == 0

    def test_degenerate(self, pair_product):
        space, lines = pair_product
        strip = flat_strip_reconstruct(space, lines[0], lines[0])
        assert strip.width == pytest.approx(0.0, abs=1e-9)

    def test_desitter_inconsistent(self):
        space, lines, _ = desitter_sample(16, 9, 1.0)
        with pytest.raises(StripInconsistent):
            flat_strip_reconstruct(space, lines[0], lines[1])


@pytest.fixture(scope="module")
def fan():
    return plane_ray_fan(
        p=(0.0, 1.0), line_x=0.0, horizons=[8, 16, 32, 64, 128], t_max=132
    )


class TestAsymptoticRay:
    def test_drift_halves(self, fan):
        space, line, info = fan
        rep = asymptotic_ray(space, line, info["p"], [8, 16, 32, 64, 128])
        assert len(rep.ratios) == 3
        assert all(0.4 <= r <= 0.6 for r in rep.ratios)
        assert rep.stabilized

    def test_point_on_line(self, fan):
        space, line, info = fan
        rep = asymptotic_ray(space, line, int(line.points[0]), [8, 16, 32, 64])
        assert all(d <= 1e-9 for d in rep.drifts)

    def test_tripod_ray_lands_over_start(self):
        # from a point over leaf 1 toward the line over leaf 2, the limit ray
        # is vertical over leaf 1: late approximants hug leaf 1's column
        base = base_tripod(subdiv=4)
        space, lines = build_product(base, np.arange(0.0, 33.0, 0.25))
        labels = base.labels
        l1 = labels.index("l1")
        l2 = labels.index("l2")
        T = len(np.arange(0.0, 33.0, 0.25))
        p = l1 * T  # (0, leaf1)
        alpha = lines[l2]
        rep = asymptotic_ray(space, alpha, p, [8.0, 16.0, 32.0])
        assert rep.drifts[-1] < rep.drifts[0]


class TestConcatAngle:
    def test_product_rays_fit_to_line(self, pair_product):
        space, lines = pair_product
        al = lines[0]
        mid = len(al) // 2
        h = al.step
        minus = Chain(al.points[: mid + 1], h * np.arange(mid + 1))
        plus = Chain(al.points[mid:], h * np.arange(len(al) - mid))
        p = int(al.points[mid])
        angle, fits, _ = concat_angle(space, minus, plus, p)
        assert angle <= 1e-6
        assert fits

    def test_kinked_rays(self):
        phi = 0.3
        pts = [(-0.5 * k, 0.0) for k in range(6)][::-1]  # past ray upward to 0
        vertex = len(pts) - 1
        pts += [(0.5 * k * math.cosh(phi), 0.5 * k * math.sinh(phi)) for k in range(1, 6)]
        space = space_from_plane_points(pts)
        minus = Chain(np.arange(vertex + 1), 0.5 * np.arange(vertex + 1))
        plus = Chain(
            np.concatenate([[vertex], np.arange(vertex + 1, vertex + 6)]),
            0.5 * np.arange(6),
        )
        angle, fits, _ = concat_angle(space, minus, plus, vertex)
        assert angle == pytest.approx(phi, abs=1e-9)
        assert not fits

    def test_desitter_asymptotic_rays(self):
        space, lines, fan = desitter_sample(
            12, 41, 5.0, fan={"phi": 0.5, "t": 0.0, "horizons": [3.0, 4.5, -3.0, -4.5], "points": 24}
        )
        p = fan["p"]
        alpha = lines[0]
        future = asymptotic_ray(space, alpha, p, [3.0, 4.5]).chain
        past = geodesic_between(space, alpha.point_at(-4.5), p)
        angle, fits, _ = concat_angle(space, past, future, p)
        expected = math.acosh((1 + math.sin(0.5) ** 2) / math.cos(0.5) ** 2)
        assert angle >= 0.1
        assert angle == pytest.approx(expected, abs=0.05)
        assert not fits
