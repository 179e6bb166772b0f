import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzgeo.errors import DomainError, OrderViolated
from lorentzgeo.modelspace import (
    BOUNDARY_TOL,
    K_FLAT,
    Kappa,
    ModelTriangle,
    _hinge_null,
    SidePosition,
    angle_from_sides,
    angle_from_sides_arr,
    angle_sum_defect,
    comparison_point_tau,
    ds_geodesic_point,
    ds_realize_triangle,
    ds_tangent_toward,
    ds_tau,
    fvf_model,
    hinge_tau_arr,
    polar_chronology,
    realize_plane,
    second_inequality_margin,
    side_from_hinge,
    side_from_hinge_arr,
    tau_plane,
)
from lorentzgeo.relations import Relation

SQRT3 = math.sqrt(3.0)


class TestTauPlane:
    def test_chronological(self):
        tau, rel = tau_plane((0, 0), (2, 1))
        assert tau == pytest.approx(SQRT3, abs=1e-12)
        assert rel is Relation.CHRONO_FUTURE

    def test_null(self):
        tau, rel = tau_plane((0, 0), (1, 1))
        assert tau == 0.0
        assert rel is Relation.NULL_FUTURE

    def test_spacelike(self):
        tau, rel = tau_plane((0, 0), (1, 2))
        assert tau == 0.0
        assert rel is Relation.SPACELIKE

    def test_identity_and_past(self):
        assert tau_plane((3, 1), (3, 1)) == (0.0, Relation.SAME)
        tau, rel = tau_plane((2, 0), (0, 0))
        assert tau == 2.0
        assert rel is Relation.CHRONO_PAST


class TestLawOfCosines:
    def test_collinear_flat(self):
        assert side_from_hinge(0, 1, 1, 1, +1) == pytest.approx(2.0, abs=1e-14)

    def test_flat_hinge(self):
        assert side_from_hinge(0, 1, 1, 2, +1) == pytest.approx(math.sqrt(6), abs=1e-14)

    def test_collinear_additivity_curved(self):
        assert side_from_hinge(1, 1, 1, 1, +1) == pytest.approx(2.0, abs=1e-12)
        assert side_from_hinge(-0.7, 0.5, 0.5, 1, +1) == pytest.approx(1.0, abs=1e-12)

    def test_collinear_past(self):
        assert side_from_hinge(0, 2, 1, 1, -1) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_minus_needs_valid_order(self):
        # at theta=0 with t > y the configuration has no hinge realization
        with pytest.raises(DomainError):
            side_from_hinge(0, 1, 2, 1, -1)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_curvature_rejected(self, k):
        with pytest.raises(DomainError):
            Kappa(k)
        with pytest.raises(DomainError):
            side_from_hinge(k, 1.0, 1.0, 1.5, +1)

    def test_negative_curvature_overflow(self):
        # sides beyond the timelike diameter pi/sqrt|K|
        with pytest.raises(DomainError):
            side_from_hinge(-1, 2.0, 2.0, 1.5, +1)

    def test_angle_from_sides_examples(self):
        assert angle_from_sides(0, 1, 1, 2, +1) == pytest.approx(1.0, abs=1e-12)
        assert angle_from_sides(0, 1, 1, math.sqrt(6), +1) == pytest.approx(2.0, abs=1e-12)
        assert angle_from_sides(0, SQRT3, 4, math.sqrt(35), +1) == pytest.approx(
            2 / SQRT3, abs=1e-12
        )

    def test_angle_from_sides_rejects_bad_sides(self):
        with pytest.raises(DomainError):
            angle_from_sides(0, 1, 1, 1.5, +1)  # z < y + t

    @given(
        k=st.sampled_from([-1.0, 0.0, 1.0]),
        y=st.floats(0.1, 2.5),
        t=st.floats(0.1, 2.5),
        u=st.floats(1.0, 8.0),
        sigma=st.sampled_from([1, -1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, k, y, t, u, sigma):
        if k == -1.0 and y + t > 2.9:
            return
        try:
            z = side_from_hinge(k, y, t, u, sigma)
        except DomainError:
            return
        if z <= 1e-9 or (k == -1.0 and z > 2.9):
            return
        back = angle_from_sides(k, y, t, z, sigma)
        assert back == pytest.approx(u, rel=1e-9, abs=1e-9)

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(7)
        n = 10_000
        for k in (-1.0, 0.0, 1.0):
            y = rng.uniform(0.1, 2.0, n)
            t = rng.uniform(0.1, 2.0, n)
            u = rng.uniform(1.0, 10.0, n)
            sg = rng.choice([-1.0, 1.0], n)
            if k == -1.0:
                keep = y + t < 2.8
                y, t, u, sg = y[keep], t[keep], u[keep], sg[keep]
            z, ok = side_from_hinge_arr(k, y, t, u, sg)
            ok &= z > 1e-8
            if k == -1.0:
                ok &= z < 3.0
            back, ok2 = angle_from_sides_arr(k, y[ok], t[ok], z[ok], sg[ok])
            assert ok2.all()
            rel = np.abs(back - u[ok]) / u[ok]
            assert rel.max() < 1e-9

    def test_reverse_triangle_inequality_regimes(self):
        rng = np.random.default_rng(11)
        y = rng.uniform(0.1, 1.2, 500)
        t = rng.uniform(0.1, 1.2, 500)
        u = rng.uniform(1.0, 5.0, 500)
        for k in (-1.0, 0.0, 1.0):
            z, ok = side_from_hinge_arr(k, y, t, u, 1.0)
            assert (z[ok] >= (y + t)[ok] - 1e-10).all()
            z2, ok2 = side_from_hinge_arr(k, y, t, u, -1.0)
            assert (z2[ok2] <= np.abs(y - t)[ok2] + 1e-10).all()

    def test_flat_limit(self):
        # curved solvers approach the flat one linearly in K
        y, t, u = 1.3, 0.7, 2.2
        z0 = side_from_hinge(0, y, t, u, +1)
        gaps = []
        for k in (1e-3, 1e-5):
            gap_pos = abs(side_from_hinge(k, y, t, u, +1) - z0)
            gap_neg = abs(side_from_hinge(-k, y, t, u, +1) - z0)
            assert gap_pos < 2.0 * k and gap_neg < 2.0 * k
            gaps.append(max(gap_pos, gap_neg))
        assert gaps[0] > gaps[1]


def reference_gap(k, a, b, su):
    """_hyp_gap at K > 0 and _trig_gap at K < 0, every term written out."""
    r = math.sqrt(abs(k))
    h = 0.5 * r
    f = np.sinh if k > 0 else np.sin
    p = f(h * (a + b)) ** 2
    m = f(h * (a - b)) ** 2
    c = f(r * a) * f(r * b)
    return p + m + su * c, p + m + np.abs(su * c) + 1e-300


def reference_side_from_hinge_arr(kappa, y, t, cosh_theta, sigma):
    """The law of cosines solved for z in its own branch per curvature sign,
    with no null band at K != 0."""
    kappa = Kappa.of(kappa)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    u = np.asarray(cosh_theta, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    y, t, u, sg = np.broadcast_arrays(y, t, u, sg)
    valid = (y > 0) & (t > 0) & (u >= 1.0 - BOUNDARY_TOL) & (np.abs(sg) == 1.0)
    u = np.maximum(u, 1.0)
    k = kappa.k
    with np.errstate(invalid="ignore", over="ignore"):
        if k == 0.0:
            zsq = y * y + t * t + 2.0 * sg * y * t * u
            scale = y * y + t * t + 2.0 * y * t * u
            zsq = np.where(np.abs(zsq) <= BOUNDARY_TOL * scale, 0.0, zsq)
            valid &= zsq >= 0.0
            z = np.sqrt(np.maximum(zsq, 0.0))
        elif k > 0.0:
            r = math.sqrt(k)
            # cosh(rz) = 1 + gap; recover z through arcsinh to keep accuracy
            gap, scale = reference_gap(k, y, t, sg * u)
            valid &= gap >= -BOUNDARY_TOL * scale
            gap = np.maximum(gap, 0.0)
            z = np.arcsinh(np.sqrt(gap * (2.0 + gap))) / r
        else:
            r = math.sqrt(-k)
            valid &= (y + t) < math.pi / r
            # cos(rz) = 1 - gap; z = 2*arcsin(sqrt(gap/2)) is stable on [0, 2]
            gap, scale = reference_gap(k, y, t, sg * u)
            valid &= (gap >= -BOUNDARY_TOL * scale) & (gap <= 2.0 + BOUNDARY_TOL)
            z = 2.0 * np.arcsin(np.sqrt(np.clip(gap, 0.0, 2.0) / 2.0)) / r
        # sigma = -1 describes the time order a << c << b, which forces
        # y >= t + z; a formal root outside that region is not a hinge.
        order_ok = np.where(sg < 0, y + BOUNDARY_TOL * (1.0 + y) >= t + z, True)
        valid &= order_ok
    return z, valid


def null_band(k, y, t, u, sg):
    """Where side_from_hinge_arr reads the legs' far ends as a null pair
    (at y = t = 0 there are no legs, and it rejects the hinge)."""
    null = np.zeros(y.shape, dtype=bool)
    u = np.maximum(u, 1.0)
    for opposite in (True, False):
        side = (sg > 0) == opposite
        null[side] = _hinge_null(k, y[side], t[side], u[side], opposite)
    return null & ((y != 0) | (t != 0))


class TestSideFromHingeOracle:
    """side_from_hinge_arr, a validity wrapper over hinge_tau_arr, against
    the per-regime solver it replaced."""

    curvature = st.sampled_from([-1.0, -0.3, 0.0, 0.3, 1.0])
    side = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-0.5, 6.0)
    cosh = st.sampled_from([1.0, 1.0 - 1e-13, 1.0 - 1e-9]) | st.floats(0.5, 8.0)

    @settings(max_examples=300, deadline=None)
    @given(k=curvature, rows=st.lists(st.tuples(side, side, cosh, st.sampled_from([1.0, -1.0])), min_size=1, max_size=40))
    def test_bit_equal_outside_the_null_band(self, k, rows):
        y, t, u, sg = (np.array(v) for v in zip(*rows))
        z, valid = side_from_hinge_arr(k, y, t, u, sg)
        want_z, want_valid = reference_side_from_hinge_arr(k, y, t, u, sg)
        out = ~null_band(k, y, t, u, sg)
        assert np.array_equal(valid[out], want_valid[out])
        keep = out & valid
        assert np.array_equal(z[keep].view(np.uint64), want_z[keep].view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(
        k=curvature,
        rows=st.lists(st.tuples(st.floats(0.01, 3.0), st.floats(0.0, 1e-8), st.floats(0.0, 1e-13)), min_size=1, max_size=40),
    )
    def test_zero_in_the_null_band(self, k, rows):
        """Equal legs at angle 0 with sigma = -1 meet at a null pair; nearby
        hinges whose far ends are null read z = 0 too, at every K."""
        t, stretch, excess = (np.array(v) for v in zip(*rows))
        y = np.concatenate([t, t * (1.0 + stretch)])
        t = np.concatenate([t, t])
        u = np.concatenate([np.ones(len(rows)), 1.0 + excess])
        sg = -np.ones(len(y))
        null = null_band(k, y, t, u, sg)
        assert null[: len(rows)].all()
        assert (side_from_hinge_arr(k, y, t, u, sg)[0][null] == 0.0).all()

    def test_the_band_is_where_the_solvers_differ(self):
        """Inside the band at K != 0 the old solver read sides up to about
        sqrt(BOUNDARY_TOL * scale) long; the new one reads 0 there, as at K = 0."""
        t = np.full(50, 1.5)
        y = t * (1.0 + np.linspace(0.0, 1e-5, 50))
        u, sg = np.ones(50), -np.ones(50)
        for k in (-1.0, 1.0):
            null = null_band(k, y, t, u, sg)
            assert null.any() and not null.all()
            old, _ = reference_side_from_hinge_arr(k, y, t, u, sg)
            assert 0.0 < old[null].max() < 1e-5
            assert (side_from_hinge_arr(k, y, t, u, sg)[0][null] == 0.0).all()


def reference_flat_hinge_tau(r1, r2, u, opposite):
    """hinge_tau_arr at K = 0 with q2 written as one sign-carrying formula."""
    sg = 1.0 if opposite else -1.0
    valid = (r1 >= 0) & (r2 >= 0) & (u >= 1.0 - BOUNDARY_TOL)
    u = np.maximum(u, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        q2 = r1 * r1 + r2 * r2 + 2.0 * sg * r1 * r2 * u
        scale = r1 * r1 + r2 * r2 + 2.0 * r1 * r2 * u + 1e-300
        null = np.abs(q2) <= BOUNDARY_TOL * scale
        timelike = (q2 > 0) & ~null
        tau = np.where(timelike, np.sqrt(np.maximum(q2, 0.0)), 0.0)
    zero = (r1 == 0) & (r2 == 0)
    return np.where(zero, 0.0, tau), np.where(zero, False, timelike), np.where(zero, False, null), valid


def reference_hinge_tau(kappa, r1, r2, u, opposite):
    """hinge_tau_arr as it was before its domain checks moved to its callers:
    every pair checked for r1, r2 >= 0 and cosh_theta >= 1 - BOUNDARY_TOL,
    cosh_theta clamped to 1 and the null band of zero radii cleared.
    Returns (tau, timelike, null, valid)."""
    k = Kappa.of(kappa).k
    if k == 0.0:
        return reference_flat_hinge_tau(r1, r2, u, opposite)
    sg = 1.0 if opposite else -1.0
    valid = (r1 >= 0) & (r2 >= 0) & (u >= 1.0 - BOUNDARY_TOL)
    u = np.maximum(u, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        if k > 0.0:
            r = math.sqrt(k)
            gap, scale = reference_gap(k, r1, r2, sg * u)
            null = np.abs(gap) <= BOUNDARY_TOL * scale
            timelike = (gap > 0) & ~null
            gp = np.maximum(gap, 0.0)
            tau = np.where(timelike, np.arcsinh(np.sqrt(gp * (2.0 + gp))) / r, 0.0)
        else:
            r = math.sqrt(-k)
            gap, scale = reference_gap(k, r1, r2, sg * u)
            valid &= gap <= 2.0 + BOUNDARY_TOL
            null = np.abs(gap) <= BOUNDARY_TOL * scale
            timelike = (gap > 0) & (gap <= 2.0 + BOUNDARY_TOL) & ~null
            gp = np.clip(gap, 0.0, 2.0)
            tau = np.where(timelike, 2.0 * np.arcsin(np.sqrt(gp / 2.0)) / r, 0.0)
    zero = (r1 == 0) & (r2 == 0)
    return np.where(zero, 0.0, tau), timelike & ~zero, null & ~zero, valid


def assert_hinge_tau_bit_equal(k, r1, r2, u, opposite):
    """hinge_tau_arr and its null band against reference_hinge_tau, bit for bit."""
    tau, timelike, valid = hinge_tau_arr(k, r1, r2, u, opposite)
    want_tau, want_timelike, want_null, want_valid = reference_hinge_tau(k, r1, r2, u, opposite)
    assert np.array_equal(tau.view(np.uint64), want_tau.view(np.uint64))
    assert np.array_equal(timelike, want_timelike)
    assert np.array_equal(valid, want_valid)
    # the reference cleared the band at zero radii, where no caller reads it
    legs = (r1 != 0) | (r2 != 0)
    assert np.array_equal(_hinge_null(k, r1, r2, u, opposite)[legs], want_null[legs])


class TestFlatHingeTau:
    """hinge_tau_arr on its precondition domain: radii >= 0 (0, subnormal,
    up to 1e6) and cosh_theta >= 1."""

    radius = st.sampled_from([0.0, 5e-324, 1e-160, 1.0, 0.5, 3.0, 1e6]) | st.floats(0.0, 1e6, allow_subnormal=True)
    cosh = st.sampled_from([1.0, 1.0 + 1e-13, 2.0]) | st.floats(1.0, 1e6)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(radius, radius, cosh), min_size=1, max_size=50), opposite=st.booleans())
    def test_matches_the_sign_carrying_formula_bit_for_bit(self, rows, opposite):
        r1, r2, u = (np.array(v) for v in zip(*rows))
        assert_hinge_tau_bit_equal(0.0, r1, r2, u, opposite)

    @pytest.mark.parametrize("opposite", [True, False])
    def test_zero_radii_and_unit_cosh(self, opposite):
        r = np.array([0.0, 0.0, 1.0, 2.0, 1.0, 0.0])
        s = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 3.0])
        got = hinge_tau_arr(K_FLAT, r, s, np.ones(6), opposite)
        want = reference_flat_hinge_tau(r, s, np.ones(6), opposite)
        assert all(np.array_equal(g, w) for g, w in zip(got, want[:2] + want[3:]))
        # legs of one line: through the vertex they add, on one side they subtract
        assert got[0].tolist() == ([0.0, 1.0, 1.0, 4.0, 2.0, 3.0] if opposite else [0.0, 1.0, 1.0, 0.0, 0.0, 3.0])

    def test_nan_cosh_is_never_timelike(self):
        for k in (-1.0, 0.0, 1.0):
            tau, timelike, _ = hinge_tau_arr(k, np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.nan, True)
            assert not timelike.any() and tau.tolist() == [0.0, 0.0]


class TestCurvedHingeTau:
    """hinge_tau_arr at K = +-1 on the precondition domain of TestFlatHingeTau."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([-1.0, 1.0]),
        rows=st.lists(st.tuples(TestFlatHingeTau.radius, TestFlatHingeTau.radius, TestFlatHingeTau.cosh), min_size=1, max_size=50),
        opposite=st.booleans(),
    )
    def test_matches_the_per_pair_checked_formulas_bit_for_bit(self, k, rows, opposite):
        r1, r2, u = (np.array(v) for v in zip(*rows))
        assert_hinge_tau_bit_equal(k, r1, r2, u, opposite)


class TestSideFromHingeDomain:
    """The out-of-contract inputs hinge_tau_arr no longer checks per pair,
    which side_from_hinge_arr rejects itself."""

    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("sigma", [1.0, -1.0])
    def test_rejects_negative_or_zero_radii_and_cosh_below_one(self, k, sigma):
        y = np.array([-1.0, 1.0, 0.0, 0.0, 1.0, 1.0, np.nan])
        t = np.array([0.5, -0.5, 0.0, 0.5, 0.5, 0.5, 0.5])
        u = np.array([1.5, 1.5, 1.5, 1.5, 1.0 - 1e-9, 0.5, 1.5])
        _, valid = side_from_hinge_arr(k, y, t, u, sigma)
        assert not valid.any()

    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_cosh_within_the_boundary_slack_reads_as_one(self, k):
        y, t = np.array([1.0, 1.0]), np.array([0.5, 0.5])
        for sigma in (1.0, -1.0):
            z, valid = side_from_hinge_arr(k, y, t, np.array([1.0 - 1e-13, 1.0]), sigma)
            assert valid.all() and z[0] == z[1]


class TestComparisonPoints:
    def test_degenerate_collinear(self):
        tri = ModelTriangle(K_FLAT, 1.0, 1.0, 2.0)
        tau, rel = comparison_point_tau(tri, SidePosition("ac", 0.5), SidePosition("ab", 1.0))
        assert tau == pytest.approx(0.5, abs=1e-12)
        assert rel is Relation.CHRONO_FUTURE

    def test_planar_triangle_spacelike(self):
        # planar realization a=(0,0), b=(2,1), c=(4,0)
        tri = ModelTriangle(K_FLAT, SQRT3, SQRT3, 4.0)
        tau, rel = comparison_point_tau(tri, SidePosition("ac", 2.0), SidePosition("ab", SQRT3))
        assert tau == 0.0
        assert rel is Relation.SPACELIKE

    def test_planar_triangle_chronological(self):
        tri = ModelTriangle(K_FLAT, SQRT3, SQRT3, 4.0)
        tau, rel = comparison_point_tau(tri, SidePosition("ac", 0.5), SidePosition("ab", SQRT3))
        assert tau == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert rel is Relation.CHRONO_FUTURE

    @pytest.mark.parametrize("k", [-1.0, 1.0])
    def test_curved_positions_past_a_side_end_or_nan_exceed_the_domain(self, k):
        # a position within the rounding slack past its side's end passes the
        # length check but puts the point behind the hinge vertex: radius < 0
        tri = ModelTriangle(Kappa(k), 1.0, 1.0, 2.5)
        for p, q in [(SidePosition("ab", 1.0 + 1e-13), SidePosition("bc", 0.5)), (SidePosition("ab", 0.5), SidePosition("ac", math.nan))]:
            with pytest.raises(DomainError, match="exceed the model-space domain"):
                comparison_point_tau(tri, p, q)

    def test_realize_plane_matches_sides(self):
        tri = ModelTriangle(K_FLAT, SQRT3, SQRT3, 4.0)
        c = realize_plane(tri)
        assert c["b"].t == pytest.approx(2.0) and c["b"].x == pytest.approx(1.0)
        assert tau_plane(c["a"], c["b"])[0] == pytest.approx(SQRT3, abs=1e-12)
        assert tau_plane(c["b"], c["c"])[0] == pytest.approx(SQRT3, abs=1e-12)

    @pytest.mark.parametrize("k_eps", [1e-10, -1e-10])
    def test_flat_hinge_path_agrees_with_planar(self, k_eps):
        # same-side vs shared-vertex decomposition agree with coordinates
        rng = np.random.default_rng(3)
        for _ in range(100):
            lab = rng.uniform(0.3, 2.0)
            lbc = rng.uniform(0.3, 2.0)
            lac = lab + lbc + rng.uniform(0.05, 2.0)
            tri = ModelTriangle(K_FLAT, lab, lbc, lac)
            tri_eps = ModelTriangle(Kappa(k_eps), lab, lbc, lac)
            p = SidePosition("ab", rng.uniform(0, 1) * lab)
            q = SidePosition("ac", rng.uniform(0, 1) * lac)
            tau_flat, rel_flat = comparison_point_tau(tri, p, q)
            tau_h, rel_h = comparison_point_tau(tri_eps, p, q)
            assert tau_h == pytest.approx(tau_flat, abs=1e-7)
            if tau_flat > 1e-6:
                assert rel_flat is rel_h

    def test_trig_regime_round_trips_through_hinges(self):
        # K=-1 comparison separations invert consistently through the
        # law-of-cosines solvers for vertex-to-side configurations
        rng = np.random.default_rng(9)
        tri = ModelTriangle(Kappa(-1.0), 0.5, 0.7, 1.5)
        for _ in range(50):
            s = rng.uniform(0.05, 1.45)
            tau, rel = comparison_point_tau(
                tri, SidePosition("ac", s), SidePosition("ab", 0.5)
            )
            if tau <= 1e-9:
                continue
            # reconstruct the hinge angle at a from (s, l_ab, tau) and check
            # it matches the triangle's vertex angle
            u = angle_from_sides(Kappa(-1.0), 0.5, s, tau, -1)
            assert u == pytest.approx(tri.vertex_angle("a"), rel=1e-9)

    def test_comparison_antisymmetric(self):
        tri = ModelTriangle(Kappa(-1.0), 0.5, 0.7, 1.5)
        p = SidePosition("ac", 1.2)
        q = SidePosition("ab", 0.3)
        tau_pq, rel_pq = comparison_point_tau(tri, p, q)
        tau_qp, rel_qp = comparison_point_tau(tri, q, p)
        assert tau_pq == pytest.approx(tau_qp, abs=1e-12)
        assert rel_pq is rel_qp.reversed()

    def test_desitter_oracle_agreement(self):
        # nested law-of-cosines at K=1 against the quadric embedding
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(60):
            lab = rng.uniform(0.2, 1.0)
            lbc = rng.uniform(0.2, 1.0)
            lac = lab + lbc + rng.uniform(0.02, 0.8)
            tri = ModelTriangle(Kappa(1.0), lab, lbc, lac)
            A, B, C = ds_realize_triangle(lab, lbc, lac)
            emb = {
                "ab": (A, ds_tangent_toward(A, B)),
                "bc": (B, ds_tangent_toward(B, C)),
                "ac": (A, ds_tangent_toward(A, C)),
            }

            def at(pos):
                base, w = emb[pos.side]
                return ds_geodesic_point(base, w, pos.s)

            for _ in range(6):
                side_p, side_q = rng.choice(["ab", "bc", "ac"], 2, replace=False)
                p = SidePosition(side_p, rng.uniform(0, 1) * tri.side_length(side_p))
                q = SidePosition(side_q, rng.uniform(0, 1) * tri.side_length(side_q))
                tau_cmp, rel_cmp = comparison_point_tau(tri, p, q)
                tau_ds, rel_ds = ds_tau(at(p), at(q))
                worst = max(worst, abs(tau_cmp - tau_ds))
                if tau_ds > 1e-7 or tau_cmp > 1e-7:
                    assert rel_cmp is rel_ds
        assert worst < 1e-9

    def test_size_bound_violation(self):
        with pytest.raises(DomainError):
            ModelTriangle(Kappa(-1.0), 1.5, 1.8, 3.4)


class TestPolarChronology:
    def test_examples(self):
        assert polar_chronology(1, 3, math.log(2)) is Relation.CHRONO_FUTURE
        assert polar_chronology(1, 2, math.log(2)) is Relation.NULL_FUTURE
        assert polar_chronology(1, 1, 0.0) is Relation.SAME

    def test_agrees_with_plane(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            r1 = rng.uniform(0.1, 3.0)
            r2 = rng.uniform(0.1, 3.0)
            psi = rng.uniform(0.0, 2.0)
            rel = polar_chronology(r1, r2, psi)
            p = (r1, 0.0)
            q = (r2 * math.cosh(psi), r2 * math.sinh(psi))
            tau, rel_plane = tau_plane(p, q)
            if rel in (Relation.NULL_FUTURE, Relation.NULL_PAST, Relation.SAME):
                # boundary cases: the planar tau must vanish to rounding
                assert tau < 1e-6
            else:
                assert rel is rel_plane


class TestAngleSum:
    def test_example_triangle(self):
        assert abs(angle_sum_defect((0, 0), (2, 1), (4, 0))) < 1e-12
        th_a = math.acosh(angle_from_sides(0, SQRT3, 4, SQRT3, -1))
        assert th_a == pytest.approx(0.5 * math.log(3), abs=1e-12)

    def test_collinear(self):
        assert abs(angle_sum_defect((0, 0), (1, 0), (2, 0))) < 1e-12

    def test_skew(self):
        assert abs(angle_sum_defect((0, 0), (3, 1), (6, -1))) < 1e-12

    def test_rejects_unordered(self):
        with pytest.raises(OrderViolated):
            angle_sum_defect((0, 0), (1, 5), (4, 0))

    def test_random_sweep(self):
        rng = np.random.default_rng(17)
        count = 0
        worst = 0.0
        while count < 10_000:
            bt = rng.uniform(0.3, 3.0)
            bx = rng.uniform(-1, 1) * bt * 0.9
            ct = bt + rng.uniform(0.3, 3.0)
            cx = bx + rng.uniform(-1, 1) * (ct - bt) * 0.9
            if ct * ct - cx * cx <= 0.01:
                continue
            worst = max(worst, abs(angle_sum_defect((0, 0), (bt, bx), (ct, cx))))
            count += 1
        assert worst < 1e-12


class TestFirstVariation:
    def test_flat_example(self):
        q, lim = fvf_model(0, 2.0, +1, 2 / SQRT3, 0.1)
        assert q == pytest.approx((math.sqrt(4.01 + 0.8 / SQRT3) - 2.0) / 0.1, abs=1e-12)
        assert lim == pytest.approx(2 / SQRT3, abs=1e-12)

    def test_collinear_shrinking(self):
        for t in (0.5, 0.25, 0.1):
            q, lim = fvf_model(0, 1.0, -1, 1.0, t)
            assert q == pytest.approx(-1.0, abs=1e-12)
            assert lim == -1.0

    def test_curved_small_step(self):
        q, _ = fvf_model(1, 1.0, +1, 1.0, 1e-6)
        assert abs(q - 1.0) <= 1e-5

    def test_quotient_converges_linearly(self):
        y, u = 1.5, 1.8
        errs = []
        for t in (0.1, 0.05, 0.025, 0.0125):
            q, lim = fvf_model(0, y, +1, u, t)
            errs.append(abs(q - lim))
        ratios = [errs[i + 1] / errs[i] for i in range(3)]
        assert all(0.3 < r < 0.7 for r in ratios)
        # monotone in t for sigma=+1
        assert errs == sorted(errs, reverse=True)


class TestSecondInequality:
    def test_collinear_equality(self):
        assert second_inequality_margin(0, 1, 1, 2, +1) == pytest.approx(0.0, abs=1e-12)

    def test_flat_margin(self):
        m = second_inequality_margin(0, 1, 1, math.sqrt(6), +1)
        assert m == pytest.approx(2 - (math.sqrt(6) - 1), abs=1e-12)

    def test_curved_case(self):
        assert second_inequality_margin(1, 1.0, 0.5, 1.7, +1) >= 0.0

    def test_sweep_nonnegative(self):
        # For K=-1 the inequality only holds on a restricted size regime
        # (y + z <= pi for sigma=+1, y <= pi/2 for sigma=-1); the sweep stays
        # inside it, see test_large_negative_curvature_counterexample.
        rng = np.random.default_rng(23)
        for k in (-1.0, 0.0, 1.0):
            n = 10_000
            y = rng.uniform(0.1, 1.2, n)
            t = rng.uniform(0.05, 1.0, n)
            u = rng.uniform(1.0, 6.0, n)
            for sg in (1.0, -1.0):
                z, ok = side_from_hinge_arr(k, y, t, u, sg)
                ok &= z > 1e-6
                if k == -1.0:
                    ok &= (y + z) < math.pi if sg > 0 else y < 0.5 * math.pi
                uu, ok2 = angle_from_sides_arr(k, y[ok], t[ok], z[ok], sg)
                margin = sg * uu[ok2] - (z[ok][ok2] - y[ok][ok2]) / t[ok][ok2]
                assert margin.min() > -1e-12

    def test_large_negative_curvature_counterexample(self):
        # regression: near the timelike diameter the inequality genuinely
        # fails in the trigonometric regime (verified on the quadric model)
        z = side_from_hinge(-1.0, 3.0, 0.1, 140.84, -1)
        assert second_inequality_margin(-1.0, 3.0, 0.1, z, -1) < -100.0


class TestDeSitterOracle:
    def test_meridian(self):
        tau, rel = ds_tau((0, 1, 0), (math.sinh(1), math.cosh(1), 0))
        assert tau == pytest.approx(1.0, abs=1e-12)
        assert rel is Relation.CHRONO_FUTURE

    def test_identity(self):
        assert ds_tau((0, 1, 0), (0, 1, 0)) == (0.0, Relation.SAME)

    def test_spacelike(self):
        tau, rel = ds_tau((0, 1, 0), (0, 0, 1))
        assert tau == 0.0
        assert rel is Relation.SPACELIKE

    def test_off_quadric_rejected(self):
        with pytest.raises(DomainError):
            ds_tau((0, 1.1, 0), (0, 1, 0))

    def test_reverse_triangle_inequality(self):
        a, b, c = ds_realize_triangle(0.8, 0.9, 2.0)
        assert ds_tau(a, c)[0] >= ds_tau(a, b)[0] + ds_tau(b, c)[0] - 1e-12
