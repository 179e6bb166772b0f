import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzgeo.fixtures import (
    base_euclid_grid,
    base_hyperbolic_sample,
    base_sphere_sample,
    base_tripod,
    desitter_sample,
    make_base,
    minkowski_grid,
    plane_ray_fan,
    product_fixture,
    space_from_desitter_points,
    space_from_plane_points,
)
from lorentzgeo.errors import ShapeError
from lorentzgeo.modelspace import ds_separations, ds_tau, plane_separations, tau_plane
from lorentzgeo.relations import Relation
from lorentzgeo.parallels import is_line
from lorentzgeo.sampled import validate_axioms


class TestPlaneFixtures:
    def test_grid_indexing(self):
        grid = minkowski_grid(5, 5, 0.5)
        # index = it * nx + ix
        tau, rel = tau_plane((0.0, 0.0), (1.0, 0.5))
        assert grid.tau[0, 2 * 5 + 1] == pytest.approx(tau)

    @settings(max_examples=60, deadline=None)
    @given(
        lattice=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=25),
        step=st.sampled_from([1.0, 0.5, 0.1, 0.3, 1e-3, 7.25]),
        loose=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=8),
    )
    @example(lattice=[(0, 0), (1, 1), (3, -3), (2, 0), (0, 2), (0, 0)], step=0.1, loose=[])
    @example(lattice=[(0, 0)], step=1.0, loose=[(0.0, 5.922143548468158e-218)])  # dx * dx underflows to 0
    def test_matches_tau_plane_pointwise(self, lattice, step, loose):
        """plane_separations is tau_plane entry by entry and bit for bit,
        lattice pairs on a light cone and repeated points included."""
        pts = [(i * step, j * step) for i, j in lattice] + loose
        tau, causal = plane_separations(pts)
        space = space_from_plane_points(pts)
        assert np.array_equal(space.tau, tau) and np.array_equal(space.causal, causal)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                t, rel = tau_plane(p, q)
                assert tau[i, j] == (t if rel.future_directed else 0.0)
                assert causal[i, j] == (rel is Relation.SAME or rel.future_directed)

    def test_axioms(self):
        assert validate_axioms(minkowski_grid(9, 9, 1.0)).ok

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            space_from_plane_points([[0, 0, 0]])

    def test_ray_fan_chains_recoverable(self):
        space, line, info = plane_ray_fan((0.0, 1.0), 0.0, [8, 16], 20, fan_spacing=0.5)
        assert validate_axioms(space).ok
        assert is_line(space, line)[0]


class TestDeSitterFixtures:
    def test_meridians_are_lines(self):
        space, lines, _ = desitter_sample(8, 11, 2.0)
        for ln in lines:
            ok, worst = is_line(space, ln)
            assert ok, worst

    def test_axioms(self):
        space, _, _ = desitter_sample(8, 11, 2.0)
        assert validate_axioms(space).ok

    def test_matches_oracle(self):
        space, lines, _ = desitter_sample(6, 7, 1.5)
        coords = np.asarray(space.meta["coords"])
        rng = np.random.default_rng(3)
        for _ in range(200):
            i, j = rng.integers(0, space.n, 2)
            if i == j:
                continue
            tau, rel = ds_tau(coords[i], coords[j])
            forward = tau if rel is rel.CHRONO_FUTURE else 0.0
            assert space.tau[i, j] == pytest.approx(forward, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        lattice=st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 11)), min_size=1, max_size=20),
        step=st.sampled_from([0.25, 0.5, 1.0, 0.3]),
        light=st.booleans(),
    )
    @example(lattice=[(0, 0), (2, 2), (0, 0), (-1, 6)], step=0.5, light=True)
    def test_separations_match_ds_tau_pointwise(self, lattice, step, light):
        """ds_separations is ds_tau entry by entry: repeated points, and with
        light=True a pair exactly on a light cone ((0, 1, 0) to (sqrt 3, 1, sqrt 3))."""
        pts = [
            (math.sinh(k * step), math.cosh(k * step) * math.cos(j * math.pi / 6),
             math.cosh(k * step) * math.sin(j * math.pi / 6))
            for k, j in lattice
        ]
        if light:
            pts += [(0.0, 1.0, 0.0), (math.sqrt(3), 1.0, math.sqrt(3))]
        tau, causal = ds_separations(pts)
        space = space_from_desitter_points(pts)
        assert np.array_equal(space.tau, tau) and np.array_equal(space.causal, causal)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                t, rel = ds_tau(p, q)
                assert tau[i, j] == pytest.approx(t if rel.future_directed else 0.0, rel=1e-12, abs=0)
                assert causal[i, j] == (rel is Relation.SAME or rel.future_directed)

    def test_fan_points_on_quadric(self):
        space, _, fan = desitter_sample(6, 9, 2.0, fan={"phi": 0.4, "horizons": [1.5], "points": 8})
        assert fan["p"] is not None
        coords = np.asarray(space.meta["coords"])
        q = -coords[:, 0] ** 2 + coords[:, 1] ** 2 + coords[:, 2] ** 2
        assert np.abs(q - 1).max() < 1e-9


class TestBases:
    @pytest.mark.parametrize(
        "name", ["point", "pair", "tripod", "euclid-grid", "hyperbolic-sample", "sphere-sample"]
    )
    def test_metric_axioms(self, name):
        base = make_base(name)
        assert base.check_triangle_inequality() is None

    def test_tripod_distances_and_midpoints(self):
        base = base_tripod()
        labels = base.labels
        l1, l2, c = labels.index("l1"), labels.index("l2"), labels.index("c")
        assert base.dist[l1, l2] == 2.0
        assert base.dist[l1, c] == 1.0
        key = (min(l1, l2), max(l1, l2))
        assert base.midpoints[key] == c

    def test_tripod_subdiv_midpoints(self):
        base = base_tripod(subdiv=2)
        labels = base.labels
        l1, l2 = labels.index("l1"), labels.index("l2")
        mid = base.midpoints[(min(l1, l2), max(l1, l2))]
        assert labels[mid] == "c"
        # half-leg points witness midpoints along one leg
        h1 = labels.index("l1.1")
        assert base.midpoints.get((min(labels.index("c"), l1), max(labels.index("c"), l1))) == h1

    def test_euclid_grid_midpoints(self):
        base = base_euclid_grid(3, 1.0)
        # (0,0) and (0,2) have the sampled midpoint (0,1)
        assert base.midpoints[(0, 2)] == 1

    def test_sphere_pole_midpoint(self):
        base = base_sphere_sample()
        assert base.midpoints[(1, 3)] == 0
        assert base.dist[1, 3] == pytest.approx(math.pi)

    def test_hyperbolic_deterministic(self):
        a = base_hyperbolic_sample(m=5, seed=7)
        b = base_hyperbolic_sample(m=5, seed=7)
        assert np.array_equal(a.dist, b.dist)


class TestProductFixture:
    @pytest.mark.parametrize("name", ["point", "pair", "tripod", "euclid-grid", "sphere-sample"])
    def test_soundness(self, name):
        space, lines, base = product_fixture(name, step=0.5, window=3.0)
        assert validate_axioms(space).ok
        assert len(lines) == base.m
        for ln in lines:
            assert is_line(space, ln)[0]
