import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzgeo import sampled
from lorentzgeo.errors import DomainError, NotChronological, ShapeError
from lorentzgeo.fixtures import (
    base_point,
    base_tripod,
    desitter_sample,
    minkowski_grid,
    product_fixture,
    space_from_plane_points,
)
from lorentzgeo.modelspace import Kappa
from lorentzgeo.sampled import (
    Certificate,
    Chain,
    SampledSpace,
    SampledTriangle,
    _signed_comparison_matrix,
    certify_curvature_bound,
    check_angle_inequalities,
    estimate_angle,
    fvf_empirical,
    geodesic_between,
    sample_triangles,
    triangle_between,
    validate_axioms,
)
from lorentzgeo.splitting import build_product
from lorentzgeo.tolerances import DEFAULT_CERT_TOL, scaled


@pytest.fixture(scope="module")
def chain3():
    space, _ = build_product(base_point(), [0.0, 1.0, 2.0])
    return space


@pytest.fixture(scope="module")
def grid11():
    return minkowski_grid(11, 11, 1.0)


class TestAxioms:
    def test_chain_fixture_clean(self, chain3):
        assert validate_axioms(chain3).ok

    def test_reverse_triangle_violation(self, chain3):
        tau = chain3.tau.copy()
        tau[0, 2] = 1.5
        bad = SampledSpace(tau=tau, causal=chain3.causal.copy())
        rep = validate_axioms(bad)
        assert not rep.ok
        assert rep.counts.get("reverse-triangle") == 1
        witness = [v for v in rep.violations if v["kind"] == "reverse-triangle"][0]
        assert witness["witness"] == (0, 1, 2)

    def test_grid_clean(self, grid11):
        assert validate_axioms(grid11).ok

    def test_push_up_violation(self, chain3):
        tau = chain3.tau.copy()
        tau[0, 2] = 0.0  # causal stays, chronology dropped
        bad = SampledSpace(tau=tau, causal=chain3.causal.copy())
        rep = validate_axioms(bad)
        assert rep.counts.get("push-up", 0) > 0

    def test_non_finite_tau_rejected(self, chain3):
        tau = chain3.tau.copy()
        tau[0, 2] = np.nan
        with pytest.raises(ShapeError):
            SampledSpace(tau=tau, causal=chain3.causal.copy())

    def test_antisymmetry_violation(self, chain3):
        tau = chain3.tau.copy()
        tau[1, 0] = 0.5
        causal = chain3.causal.copy()
        causal[1, 0] = True
        bad = SampledSpace(tau=tau, causal=causal)
        rep = validate_axioms(bad)
        assert rep.counts.get("chronology-not-antisymmetric", 0) >= 1


class TestGeodesics:
    def test_unique_chain(self, chain3):
        ch = geodesic_between(chain3, 0, 2)
        assert ch.points.tolist() == [0, 1, 2]
        assert ch.params.tolist() == [0.0, 1.0, 2.0]
        assert ch.deficit == 0.0

    def test_grid_vertical(self, grid11):
        ch = geodesic_between(grid11, 0, 4 * 11)
        assert ch.points.tolist() == [0, 11, 22, 33, 44]
        assert ch.total == pytest.approx(4.0)

    def test_grid_diagonal_refined(self, grid11):
        # (0,0) -> (4,2): lattice points at (2,1) lie on the segment
        ch = geodesic_between(grid11, 0, 4 * 11 + 2)
        assert 2 * 11 + 1 in ch.points.tolist()
        assert ch.total == pytest.approx(math.sqrt(12), abs=1e-12)

    def test_not_chronological(self, grid11):
        with pytest.raises(NotChronological):
            geodesic_between(grid11, 0, 1)  # spacelike neighbors

    def test_chain_validation(self):
        with pytest.raises(Exception):
            Chain([0, 1], [0.0, 0.0])  # params not increasing


class TestEstimateAngle:
    def test_planar_rays(self):
        h = 0.25
        pts = [(0.0, 0.0)]
        ray1, ray2 = [0], [0]
        for k in range(1, 9):
            ray1.append(len(pts))
            pts.append((k * h * math.cosh(1), k * h * math.sinh(1)))
        for k in range(1, 9):
            ray2.append(len(pts))
            pts.append((k * h, 0.0))
        space = space_from_plane_points(pts)
        c1 = Chain(ray1, h * np.arange(9))
        c2 = Chain(ray2, h * np.arange(9))
        est = estimate_angle(space, c1, c2, 0)
        assert est.value == pytest.approx(1.0, abs=1e-6)
        assert est.sign == -1
        assert est.monotone
        # flat ladders are constant in both arguments
        assert np.ptp(est.table[:, 2]) <= 1e-9

    def test_same_chain(self, grid11):
        ch = geodesic_between(grid11, 0, 44)
        est = estimate_angle(grid11, ch, ch, 0)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_line_through_vertex(self, grid11):
        past = geodesic_between(grid11, 0, 55)  # ends at (5,0)
        future = geodesic_between(grid11, 55, 110)
        est = estimate_angle(grid11, past, future, 55)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.sign == +1

    def test_monotone_direction_tracks_the_bound(self):
        # the tripod product satisfies the upper bound: a branch hinge's
        # signed ladder is nonincreasing in each argument, so the diagnostic
        # holds for "above" and trips for "below"
        space, _, _ = product_fixture("tripod", step=0.5, window=8.0)
        T = 33
        x = 1 * T + 0  # (-8, leaf1)
        alpha = geodesic_between(space, x, 2 * T + 8)   # to (-4, leaf2)
        beta = geodesic_between(space, x, 3 * T + 16)   # to (0, leaf3)
        above = estimate_angle(space, alpha, beta, x, claimed="above")
        below = estimate_angle(space, alpha, beta, x, claimed="below")
        assert above.monotone and not below.monotone

    def test_undefined_when_all_spacelike(self):
        # two near-parallel 1-rung chains: the only pair is spacelike
        pts = [(0.0, 0.0), (1.0, 0.5), (1.0, -0.5)]
        space = space_from_plane_points(pts)
        c1 = Chain([0, 1], [0.0, math.sqrt(0.75)])
        c2 = Chain([0, 2], [0.0, math.sqrt(0.75)])
        with pytest.raises(DomainError):
            estimate_angle(space, c1, c2, 0)


class TestCertification:
    def test_flat_grid_equality_both_directions(self, grid11):
        tris = sample_triangles(grid11, cap=1500, seed=1)
        for direction in ("above", "below"):
            cert = certify_curvature_bound(grid11, tris, Kappa(0.0), direction)
            assert cert.passed
            assert cert.max_slack <= 1e-9

    def test_tripod_above_passes_below_fails(self):
        space, _ = build_product(base_tripod(), np.arange(-5.0, 5.5, 0.5))
        tris = sample_triangles(space, cap=4000, seed=2)
        above = certify_curvature_bound(space, tris, Kappa(0.0), "above")
        below = certify_curvature_bound(space, tris, Kappa(0.0), "below")
        assert above.passed
        assert not below.passed
        w = below.witness
        assert w is not None
        assert w["tau"] > w["tau_model"]

    def test_desitter_is_above_zero_but_not_below(self):
        space, _, _ = desitter_sample(10, 17, 2.0)
        tris = sample_triangles(space, cap=3000, seed=3)
        assert certify_curvature_bound(space, tris, Kappa(0.0), "above").passed
        below = certify_curvature_bound(space, tris, Kappa(0.0), "below")
        assert not below.passed and below.witness is not None

    def test_desitter_self_comparison_is_equality(self):
        space, _, _ = desitter_sample(10, 17, 2.0)
        tris = sample_triangles(space, cap=1000, seed=4)
        for direction in ("above", "below"):
            cert = certify_curvature_bound(space, tris, Kappa(1.0), direction)
            assert cert.passed, cert.summary()
            assert cert.max_slack <= 1e-9

    def test_desitter_against_trig_regime_bound(self):
        # monotonicity across comparison curvatures: a +1 space satisfies
        # every weaker (lower-K) upper bound and no lower bound below +1;
        # exercises the K<0 comparison path end to end
        space, _, _ = desitter_sample(10, 13, 1.2)
        tris = sample_triangles(space, cap=2000, seed=7, kappa=Kappa(-1.0))
        above = certify_curvature_bound(space, tris, Kappa(-1.0), "above")
        below = certify_curvature_bound(space, tris, Kappa(-1.0), "below")
        assert above.passed
        assert not below.passed and below.witness is not None

    def test_size_bound_skip(self):
        space, _ = build_product(base_point(), np.arange(0.0, 5.0))
        tris = [triangle_between(space, 0, 1, 4)]
        cert = certify_curvature_bound(space, tris, Kappa(-1.0), "above")
        assert cert.skipped and cert.n_triangles == 0


def reference_certificate(space, triangles, kappa, direction, tol=DEFAULT_CERT_TOL):
    """certify_curvature_bound one triangle at a time, over _signed_comparison_matrix."""
    tau = space.tau
    worst, witness = np.inf, None
    max_slack, n_pairs, side_step, chron_miss, skipped = 0.0, 0, 0.0, 0, []
    for t_idx, tri in enumerate(triangles):
        lengths = {
            "ab": float(tau[tri.x, tri.y]),
            "bc": float(tau[tri.y, tri.z]),
            "ac": float(tau[tri.x, tri.z]),
        }
        if lengths["ac"] >= kappa.dk:
            skipped.append((t_idx, "size bounds"))
            continue
        params = {s: c.params for s, c in tri.sides.items()}
        try:
            model_plus = np.maximum(_signed_comparison_matrix(kappa, lengths, params), 0.0)
        except DomainError as e:
            skipped.append((t_idx, str(e)))
            continue
        side_step = max([side_step] + [np.diff(p).max() for p in params.values() if len(p) > 1])
        idx = np.concatenate([c.points for c in tri.sides.values()])
        actual = tau[np.ix_(idx, idx)]
        distinct = idx[:, None] != idx[None, :]
        if direction == "above":
            margin = actual - model_plus
            chron_miss += int((distinct & (model_plus > scaled(tol, 0.0)) & (actual <= 0.0)).sum())
        else:
            margin = model_plus - actual
        margin = np.where(distinct, margin, np.inf)
        max_slack = max(max_slack, float(np.abs(np.where(distinct, actual - model_plus, 0.0)).max()))
        n_pairs += int(distinct.sum())
        if margin.min() < worst:
            worst = float(margin.min())
            i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
            witness = {
                "triangle": (tri.x, tri.y, tri.z),
                "p": int(idx[i]),
                "q": int(idx[j]),
                "tau": float(actual[i, j]),
                "tau_model": float(model_plus[i, j]),
                "margin": worst,
            }
    if not np.isfinite(worst):
        worst, witness = 0.0, None
    passed = worst >= -(scaled(tol, witness["tau_model"]) if witness else tol) and chron_miss == 0
    return Certificate(
        direction=direction,
        kappa=kappa.k,
        passed=bool(passed),
        n_triangles=len(triangles) - len(skipped),
        n_pairs=n_pairs,
        max_violation=min(worst, 0.0),
        max_slack=max_slack,
        witness=None if passed else witness,
        skipped=skipped,
        side_step=side_step,
        chronology_mismatches=chron_miss,
    )


def assert_matches_reference(cert, ref, exact):
    """Counts, skips, verdict and witness indices exactly; floats exactly or to 1e-12."""
    for name in ("direction", "kappa", "passed", "n_triangles", "n_pairs", "skipped", "chronology_mismatches"):
        assert getattr(cert, name) == getattr(ref, name), name
    assert (cert.witness is None) == (ref.witness is None)
    floats = [(name, getattr(cert, name), getattr(ref, name)) for name in ("max_violation", "max_slack", "side_step")]
    if ref.witness is not None:
        for key in ("triangle", "p", "q"):
            assert cert.witness[key] == ref.witness[key], key
        floats += [(key, cert.witness[key], ref.witness[key]) for key in ("tau", "tau_model", "margin")]
    for name, got, want in floats:
        if exact:
            assert got == want, name
        else:
            assert math.isclose(got, want, rel_tol=1e-12), name


@functools.cache
def small_space(name):
    if name == "grid":
        return minkowski_grid(7, 7, 1.0)
    if name == "desitter":
        return desitter_sample(6, 9, 1.5)[0]
    return product_fixture("tripod", step=0.5, window=3.0)[0]


@functools.cache
def broken_grid():
    """6x6 grid with a sixth of its chronological tau entries shrunk by 20 %.

    The shrunk entries break the reverse triangle inequality, so the
    triangles through them interleave every domain-skip reason with valid
    triangles: unrealizable sides, side parameters past the side length,
    and (at K = -1) comparison points past the model-space domain.
    """
    grid = minkowski_grid(6, 6, 1.0)
    tau = grid.tau.copy()
    ii, jj = np.nonzero(tau > 0)
    pick = np.random.default_rng(0).choice(len(ii), len(ii) // 6, replace=False)
    tau[ii[pick], jj[pick]] *= 0.8
    return SampledSpace(tau=tau, causal=grid.causal.copy())


class TestBatchedCertification:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["grid", "desitter", "tripod"]),
        cap=st.integers(1, 400),
        seed=st.integers(0, 2**16),
        k=st.sampled_from([-1.0, 0.0, 1.0]),
        direction=st.sampled_from(["above", "below"]),
    )
    def test_matches_per_triangle_reference(self, name, cap, seed, k, direction):
        space = small_space(name)
        tris = sample_triangles(space, cap=cap, seed=seed)
        kappa = Kappa(k)
        cert = certify_curvature_bound(space, tris, kappa, direction)
        assert_matches_reference(cert, reference_certificate(space, tris, kappa, direction), exact=k == 0.0)

    @pytest.mark.parametrize("batch_pairs", [300, 5000])
    @pytest.mark.parametrize("k", [-1.0, 0.0])
    def test_domain_skips_do_not_poison_their_batch(self, monkeypatch, batch_pairs, k):
        monkeypatch.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
        space = broken_grid()
        tris = sample_triangles(space, cap=10_000)
        # undefined (its ac side overshoots), with a longer step than any admitted side
        long_step = SampledTriangle(
            0, 6, 30, geodesic_between(space, 0, 6), geodesic_between(space, 6, 30), Chain([0, 30], [0.0, 7.5])
        )
        tris.insert(len(tris) // 2, long_step)
        for direction in ("above", "below"):
            cert = certify_curvature_bound(space, tris, Kappa(k), direction)
            ref = reference_certificate(space, tris, Kappa(k), direction)
            domain = [t for t, reason in ref.skipped if reason != "size bounds"]
            assert domain and ref.n_triangles > 0
            assert_matches_reference(cert, ref, exact=k == 0.0)


class TestAngleInequalities:
    def test_planar_ray_additivity(self):
        h = 0.5
        pts = [(0.0, 0.0)]
        rays = []
        for phi in (0.0, 0.5, 1.2):
            idx = [0]
            for k in range(1, 7):
                idx.append(len(pts))
                pts.append((k * h * math.cosh(phi), k * h * math.sinh(phi)))
            rays.append(idx)
        space = space_from_plane_points(pts)
        chains = [Chain(r, h * np.arange(7)) for r in rays]
        reports = check_angle_inequalities(space, [(chains[0], chains[1], chains[2], 0)])
        margin = reports[0].margins["triangle"]
        assert margin == pytest.approx(0.0, abs=1e-9)

    def test_along_geodesic_case(self, grid11):
        # gamma past + beta future along the same vertical line, alpha tilted
        x = 55  # (5, 0)
        gamma = geodesic_between(grid11, 0, x)
        beta = geodesic_between(grid11, x, 110)
        alpha = geodesic_between(grid11, x, 9 * 11 + 2)
        reports = check_angle_inequalities(grid11, [(alpha, beta, gamma, x)])
        m = reports[0].margins
        assert "along-geodesic" in m
        assert m["along-geodesic"] >= -1e-9

    def test_identical_chains(self, grid11):
        ch = geodesic_between(grid11, 0, 44)
        reports = check_angle_inequalities(grid11, [(ch, ch, ch, 0)])
        assert reports[0].margins["triangle"] == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def hinge_fixture():
    # p below a, gamma leaving a at rapidity phi = arccosh(2/sqrt(3))
    phi = math.acosh(2 / math.sqrt(3))
    pts = [(0.0, 0.0), (2.0, 0.0)]
    gamma_idx = [1]
    ts = [1.6 / 2**k for k in range(9)]
    for t in sorted(ts):
        gamma_idx.append(len(pts))
        pts.append((2.0 + t * math.cosh(phi), t * math.sinh(phi)))
    gamma_idx = [1] + gamma_idx[1:][::-1]
    for j in range(1, 8):  # interior of [p, a]
        pts.append((2.0 * j / 8, 0.0))
    space = space_from_plane_points(pts)
    params = [0.0] + sorted(ts)
    gamma = Chain(sorted(gamma_idx, key=lambda i: pts[i][0]), np.array(params))
    return space, gamma


class TestFvfEmpirical:
    def test_limit_and_quotients(self, hinge_fixture):
        space, gamma = hinge_fixture
        rep = fvf_empirical(space, gamma, 0)
        assert rep.sigma == +1
        assert rep.limit == pytest.approx(2 / math.sqrt(3), abs=1e-9)
        # errors decrease roughly linearly as t shrinks (ts come smallest-first)
        assert rep.errors[0] < rep.errors[-1]
        ratios = rep.errors[:-1] / rep.errors[1:]  # halving the step halves the error
        assert np.all(ratios[:-2] > 0.3) and np.all(ratios[:-2] < 0.7)

    def test_collinear_quotients(self, grid11):
        gamma = geodesic_between(grid11, 55, 110)
        rep = fvf_empirical(grid11, gamma, 0)
        assert np.allclose(rep.quotients, 1.0)
        assert rep.limit == pytest.approx(1.0)
        rep2 = fvf_empirical(grid11, gamma, 110 - 11 + 0)  # p in the far future
        assert rep2.sigma == -1

    def test_not_chronological(self, grid11):
        gamma = geodesic_between(grid11, 55, 110)
        with pytest.raises(NotChronological):
            fvf_empirical(grid11, gamma, 56)  # spacelike to gamma(0)


class TestComparisonMatrix:
    @staticmethod
    def _signed(tau, rel):
        if rel is rel.CHRONO_FUTURE:
            return tau
        if rel is rel.CHRONO_PAST:
            return -tau
        return 0.0

    def test_matches_planar_and_quadric_oracles(self):
        from lorentzgeo.modelspace import (
            K_FLAT,
            ModelTriangle,
            SidePosition,
            ds_geodesic_point,
            ds_realize_triangle,
            ds_tangent_toward,
            ds_tau,
            plane_side_point,
            realize_plane,
            tau_plane,
        )

        rng = np.random.default_rng(21)
        worst_flat = worst_ds = 0.0
        for _ in range(20):
            lab = rng.uniform(0.3, 1.2)
            lbc = rng.uniform(0.3, 1.2)
            lac = lab + lbc + rng.uniform(0.05, 1.0)
            lengths = {"ab": lab, "bc": lbc, "ac": lac}
            params = {
                s: np.sort(
                    np.concatenate([[0.0], rng.uniform(0, 1, 4) * lengths[s], [lengths[s]]])
                )
                for s in ("ab", "bc", "ac")
            }
            tri = ModelTriangle(K_FLAT, lab, lbc, lac)
            coords = realize_plane(tri)
            pts = [
                plane_side_point(tri, coords, SidePosition(s, float(v)))
                for s in ("ab", "bc", "ac")
                for v in params[s]
            ]
            M = _signed_comparison_matrix(K_FLAT, lengths, params)
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    worst_flat = max(worst_flat, abs(M[i, j] - self._signed(*tau_plane(p, q))))

            A, B, C = ds_realize_triangle(lab, lbc, lac)
            emb = {
                "ab": (A, ds_tangent_toward(A, B)),
                "bc": (B, ds_tangent_toward(B, C)),
                "ac": (A, ds_tangent_toward(A, C)),
            }
            qpts = [
                ds_geodesic_point(emb[s][0], emb[s][1], float(v))
                for s in ("ab", "bc", "ac")
                for v in params[s]
            ]
            M1 = _signed_comparison_matrix(Kappa(1.0), lengths, params)
            for i, p in enumerate(qpts):
                for j, q in enumerate(qpts):
                    worst_ds = max(worst_ds, abs(M1[i, j] - self._signed(*ds_tau(p, q))))
        assert worst_flat <= 1e-12
        assert worst_ds <= 1e-9


class TestTriangleSampling:
    def test_exhaustive_below_cap(self, chain3):
        tris = sample_triangles(chain3, cap=100)
        assert len(tris) == 1
        assert (tris[0].x, tris[0].y, tris[0].z) == (0, 1, 2)

    def test_deterministic(self, grid11):
        a = sample_triangles(grid11, cap=200, seed=9)
        b = sample_triangles(grid11, cap=200, seed=9)
        assert [(t.x, t.y, t.z) for t in a] == [(t.x, t.y, t.z) for t in b]
