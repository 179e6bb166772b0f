import math

import numpy as np
import pytest

from lorentzgeo import rigidity
from lorentzgeo.errors import MissingChains, OrderViolated, RigidityViolated
from lorentzgeo.fixtures import base_pair, product_fixture, space_from_plane_points
from lorentzgeo.rigidity import (
    equality_conditions,
    fill_in_reconstruct,
    quadrangle_rigidity,
)
from lorentzgeo.sampled import geodesic_between, triangle_between
from lorentzgeo.splitting import build_product

SQRT3 = math.sqrt(3.0)


def planar_triangle_space(subdiv=6, with_interior=True):
    """Triangle a=(0,0), b=(2,1), c=(4,0) with side and interior samples."""
    tri = [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]
    coords = list(tri)
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        for j in range(1, subdiv):
            f = j / subdiv
            coords.append(
                (tri[a][0] + f * (tri[b][0] - tri[a][0]), tri[a][1] + f * (tri[b][1] - tri[a][1]))
            )
    if with_interior:
        for fq in [j / subdiv for j in range(1, subdiv)]:
            q = (2 + 2 * fq, 1 - fq)  # on [b, c]
            for j in range(1, subdiv):
                f = j / subdiv
                coords.append((f * q[0], f * q[1]))
    return space_from_plane_points(coords)


class TestEqualityConditions:
    def test_planar_triangle_all_true(self):
        space = planar_triangle_space()
        tri = triangle_between(space, 0, 1, 2)
        rep = equality_conditions(space, tri)
        assert rep.cond_i and rep.cond_ii and rep.cond_iii and rep.cond_iv
        assert all(abs(g) <= 1e-9 for g in rep.angle_gaps.values())
        assert rep.tau_gap_max <= 1e-9
        assert rep.implications_hold()

    def test_degenerate_collinear(self):
        pts = [(float(t), 0.0) for t in range(5)]
        space = space_from_plane_points(pts)
        tri = triangle_between(space, 0, 2, 4)
        rep = equality_conditions(space, tri)
        assert rep.cond_i and rep.cond_iii and rep.cond_iv

    def test_tripod_branch_angle_gap(self):
        # triangle over three legs: at the middle (apex) vertex the sampled
        # angle strictly exceeds its comparison value, so equality fails;
        # two-leg triangles live inside one flat strip and stay rigid
        space, lines, base = product_fixture("tripod", step=0.5, window=8.0, subdiv=2)
        T = 33
        labels = base.labels
        def idx(label, t):
            return labels.index(label) * T + int(round((t + 8) / 0.5))
        a, b, c = idx("l1", 0.0), idx("l2", 4.0), idx("l3", 8.0)
        tri = triangle_between(space, a, b, c)
        rep = equality_conditions(space, tri)
        assert rep.cond_ii is False and rep.cond_iii is False
        assert rep.cond_iv is False
        assert rep.angle_gaps["b"] > 1e-3
        assert rep.implications_hold()
        flat_tri = triangle_between(space, idx("l1", 0.0), idx("l2", 4.0), idx("l1", 8.0))
        flat_rep = equality_conditions(space, flat_tri)
        assert flat_rep.cond_i and flat_rep.cond_iii


class TestFillIn:
    def test_planar_fill_in(self):
        space = planar_triangle_space()
        tri = triangle_between(space, 0, 1, 2)
        chains = [
            geodesic_between(space, 0, int(tri.side_yz.points[k]))
            for k in range(1, len(tri.side_yz) - 1)
        ]
        fill = fill_in_reconstruct(space, tri, chains)
        assert fill.max_tau_error <= 1e-9
        assert fill.causal_mismatches == 0
        n = len(fill.grid_map)  # every pair of mapped points is checked
        assert n * (n - 1) // 2 > 100

    def test_product_strip_triangle(self):
        # a triangle inside one flat strip of a tripod product fills in exactly
        space, lines, base = product_fixture("tripod", step=0.5, window=8.0, subdiv=2)
        T = 33
        labels = base.labels
        def idx(label, t):
            return labels.index(label) * T + int(round((t + 8) / 0.5))
        a, b, c = idx("l1", 0.0), idx("l2", 4.0), idx("l1", 8.0)
        tri = triangle_between(space, a, b, c)
        assert len(tri.side_yz) >= 4  # interior points over the base path
        chains = [
            geodesic_between(space, a, int(tri.side_yz.points[k]))
            for k in range(1, len(tri.side_yz) - 1)
        ]
        fill = fill_in_reconstruct(space, tri, chains)
        assert fill.max_tau_error <= 10 * 0.5**2  # frozen regression bound
        assert fill.causal_mismatches == 0

    def test_missing_chains(self):
        space = planar_triangle_space()
        tri = triangle_between(space, 0, 1, 2)
        with pytest.raises(MissingChains):
            fill_in_reconstruct(space, tri, [])

    def test_tripod_violation(self):
        # three-leg triangle: no flat fill-in exists
        space, lines, _ = product_fixture("tripod", step=0.5, window=6.0)
        T = 25
        def idx(x, t):
            return x * T + int(round((t + 6) / 0.5))
        a, b, c = idx(1, 0.0), idx(2, 3.0), idx(3, 6.0)
        tri = triangle_between(space, a, b, c)
        chains = [
            geodesic_between(space, a, int(tri.side_yz.points[k]))
            for k in range(1, len(tri.side_yz) - 1)
        ]
        with pytest.raises(RigidityViolated):
            fill_in_reconstruct(space, tri, chains)


@pytest.fixture(scope="module")
def planar_quad():
    pts = [(0.0, 0.0), (2.0, 1.0), (6.0, 1.0), (4.0, 0.0)]
    segs = [(0, 1), (0, 3), (1, 3), (1, 2), (3, 2), (0, 2)]
    coords = list(pts)
    for a, b in segs:
        for j in range(1, 8):
            f = j / 8
            coords.append(
                (pts[a][0] + f * (pts[b][0] - pts[a][0]), pts[a][1] + f * (pts[b][1] - pts[a][1]))
            )
    return space_from_plane_points(coords)


class TestQuadrangle:
    def test_planar_parallelogram(self, planar_quad):
        rep = quadrangle_rigidity(planar_quad, 0, 1, 2, 3)
        assert abs(rep.lhs_minus_rhs) <= 1e-9
        assert rep.flat
        expected = math.acosh(2 / SQRT3)
        for v in rep.angles.values():
            assert v == pytest.approx(expected, abs=1e-9)
        assert rep.fill_in.max_tau_error <= 1e-9
        assert rep.fill_in.causal_mismatches == 0

    def test_product_strip_quadrangle_width(self):
        # quadrangle between the two lines of a pair product: the recovered
        # planar width must be the base distance
        space, lines = build_product(base_pair(1.0), np.arange(-8.0, 8.5, 0.5))
        T = len(np.arange(-8.0, 8.5, 0.5))
        al, be = lines[0].points, lines[1].points
        p1, p2, p4, p3 = int(al[4]), int(be[12]), int(al[24]), int(be[30])
        rep = quadrangle_rigidity(space, p1, p2, p3, p4)
        assert rep.flat
        xs = [rep.fill_in.grid_map[p][1] for p in (p1, p2, p3, p4)]
        width = max(xs) - min(xs)
        assert width == pytest.approx(1.0, abs=1e-9)

    def test_tripod_branch_quadrangle(self):
        space, lines, _ = product_fixture("tripod", step=0.5, window=10.0)
        T = 41
        def idx(x, t):
            return x * T + int(round((t + 10) / 0.5))
        p1, p2, p4, p3 = idx(1, 0.0), idx(2, 3.0), idx(3, 6.0), idx(1, 9.0)
        rep = quadrangle_rigidity(space, p1, p2, p3, p4)
        assert rep.lhs_minus_rhs <= -0.05
        assert not rep.flat

    def test_one_walk_chains_match_pairwise_geodesics(self, planar_quad, monkeypatch):
        """The six chains of the one _geodesics call equal geodesic_between's, bit for bit."""
        walks = []

        def spy(space, xs, ys, *args):
            walks.append((list(xs), list(ys), geodesics(space, xs, ys, *args)))
            return walks[-1][2]

        geodesics = rigidity._geodesics
        monkeypatch.setattr(rigidity, "_geodesics", spy)
        tripod, _, _ = product_fixture("tripod", step=0.5, window=10.0)
        T = 41

        def idx(x, t):
            return x * T + int(round((t + 10) / 0.5))

        cases = [
            (planar_quad, (0, 1, 2, 3)),
            (tripod, (idx(1, 0.0), idx(2, 3.0), idx(1, 9.0), idx(3, 6.0))),  # criterion 07's branch quadrangle
            (tripod, (idx(1, 0.0), idx(2, 3.0), idx(1, 9.0), idx(2, 6.0))),  # flat: inside one leaf-pair strip
        ]
        for space, (p1, p2, p3, p4) in cases:
            quadrangle_rigidity(space, p1, p2, p3, p4)
            xs, ys, store = walks.pop()
            assert sorted(zip(xs, ys)) == sorted([(p1, p2), (p1, p4), (p2, p3), (p4, p3), (p2, p4), (p1, p3)])
            for x, y, chain in zip(xs, ys, store):
                alone = geodesic_between(space, x, y)
                assert np.array_equal(chain.points, alone.points)
                assert np.array_equal(chain.params.view(np.uint64), alone.params.view(np.uint64))
                assert np.float64(chain.deficit).view(np.uint64) == np.float64(alone.deficit).view(np.uint64)

    def test_order_violation(self, planar_quad):
        with pytest.raises(OrderViolated):
            quadrangle_rigidity(planar_quad, 1, 0, 2, 3)

    def test_flat_sweep_never_positive(self):
        # on a flat fixture the angle balance is identically zero, so no
        # sampled quadrangle may come out positive beyond tolerance
        from lorentzgeo.fixtures import minkowski_grid

        grid = minkowski_grid(9, 9, 1.0)
        rng = np.random.default_rng(11)
        tau = grid.tau
        found = 0
        worst = -np.inf
        while found < 25:
            p1, p2, p4, p3 = rng.integers(0, grid.n, 4)
            if not (
                tau[p1, p2] > 0 and tau[p2, p4] > 0 and tau[p4, p3] > 0
                and tau[p1, p4] > 0 and tau[p2, p3] > 0 and tau[p1, p3] > 0
            ):
                continue
            rep = quadrangle_rigidity(grid, int(p1), int(p2), int(p3), int(p4))
            worst = max(worst, rep.lhs_minus_rhs)
            found += 1
        assert worst <= 1e-9
