"""Equality cases of the upper curvature bound and flat fill-ins.

When a sampled triangle attains equality in the triangle comparison, the
region it bounds is isometric to the model fill-in.  This module detects
the equality conditions (vertex angles matching comparison angles, side
separations matching comparison separations), reconstructs the planar
fill-in from sampled interior geodesics, and runs the quadrangle
criterion: a nonnegative signed angle sum forces a flat parallelogram.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MissingChains, OrderViolated, RigidityViolated
from .modelspace import (
    K_FLAT,
    Kappa,
    ModelTriangle,
    SidePosition,
    comparison_point_tau,
    plane_side_point,
    realize_plane,
    vertex_hinges,
)
from .sampled import SampledTriangle, _geodesics, estimate_angle, plane_map_check
from .tolerances import DEFAULT_TOL_ANGLE, DEFAULT_TOL_TAU, scaled


@dataclass
class EqualityReport:
    """Per-condition equality flags with their margins.

    cond_i: vertex angle at the past vertex equals the comparison angle;
    cond_ii: same at all three vertices (derived from the per-vertex
    gaps); cond_iii: tau from the middle vertex to every sampled point of
    the long side matches the comparison value; cond_iv: some interior
    point matches with strictly positive separation.
    """

    cond_i: bool | None
    cond_ii: bool | None
    cond_iii: bool | None
    cond_iv: bool | None
    angle_gaps: dict
    tau_gap_max: float
    checked_points: int
    skipped: dict = field(default_factory=dict)

    def implications_hold(self) -> bool:
        """(i) => (iii) => (iv), counting undecidable conditions as vacuous."""
        if self.cond_i and self.cond_iii is False:
            return False
        if self.cond_iii and self.cond_iv is False:
            return False
        return True


@dataclass
class FlatFillIn:
    """Planar realization of a filled-in triangle or quadrangle."""

    planar_vertices: list
    grid_map: dict           # point index -> (t, x)
    max_tau_error: float
    causal_mismatches: int
    checked_pairs: int


def _triangle_lengths(space, tri: SampledTriangle):
    return {
        "ab": float(space.tau[tri.x, tri.y]),
        "bc": float(space.tau[tri.y, tri.z]),
        "ac": float(space.tau[tri.x, tri.z]),
    }


def equality_conditions(
    space,
    tri: SampledTriangle,
    kappa=K_FLAT,
    tol_angle: float = DEFAULT_TOL_ANGLE,
    tol_tau: float = DEFAULT_TOL_TAU,
) -> EqualityReport:
    """Evaluate the equality conditions of the upper-bound rigidity case.

    The probe vertex is the middle vertex y; the probed side is the long
    side [x, z].  Interior points whose separation from y stays below a
    positivity floor are excluded from cond_iv.
    """
    kappa = Kappa.of(kappa)
    lengths = _triangle_lengths(space, tri)
    model = ModelTriangle(kappa, lengths["ab"], lengths["bc"], lengths["ac"])
    angle_gaps = {}
    skipped = {}
    vertices = {"a": tri.x, "b": tri.y, "c": tri.z}
    for name, (c1, c2, _, _) in vertex_hinges(tri.side_xy, tri.side_yz, tri.side_xz).items():
        try:
            est = estimate_angle(space, c1, c2, vertices[name], kappa, tol_angle=tol_angle)
            comparison = math.acosh(model.vertex_angle(name))
            angle_gaps[name] = est.value - comparison
        except DomainError as e:
            skipped[name] = str(e)
    cond_i = abs(angle_gaps["a"]) <= tol_angle if "a" in angle_gaps else None
    cond_ii = (
        all(abs(g) <= tol_angle for g in angle_gaps.values())
        if len(angle_gaps) == 3
        else None
    )

    # interior points of [x, z] against the comparison side
    side = tri.side_xz
    floor = 10.0 * scaled(tol_tau, 0.0)
    gaps = []
    best = math.inf
    for k in range(1, len(side) - 1):
        s = float(side.params[k])
        pt = int(side.points[k])
        actual = float(space.tau_s(tri.y, pt))
        model_tau, _ = comparison_point_tau(
            model, SidePosition("ac", s), SidePosition("ab", lengths["ab"])
        )
        gap = abs(actual - model_tau)
        gaps.append(gap)
        if actual > floor and model_tau > floor:
            best = min(best, gap)
    tau_gap_max = max(gaps, default=math.inf)
    cond_iii = all(g <= scaled(tol_tau, lengths["ac"]) for g in gaps) if gaps else None
    cond_iv = best <= scaled(tol_tau, lengths["ac"]) if math.isfinite(best) else None
    return EqualityReport(
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        cond_iv=cond_iv,
        angle_gaps=angle_gaps,
        tau_gap_max=tau_gap_max,
        checked_points=len(gaps),
        skipped=skipped,
    )


def _checked_fill_in(space, plane: dict, corners, limit: float, what: str) -> FlatFillIn:
    """The fill-in of a planar map, raising RigidityViolated when its tau error exceeds limit."""
    err, mism, witness, n_pts = plane_map_check(space, plane)
    if err > limit:
        raise RigidityViolated(f"{what} tau error {err} at pair {witness} exceeds tolerance", err)
    return FlatFillIn(
        planar_vertices=[plane[p] for p in corners],
        grid_map=plane,
        max_tau_error=err,
        causal_mismatches=mism,
        checked_pairs=n_pts * (n_pts - 1) // 2,
    )


def fill_in_reconstruct(
    space,
    tri: SampledTriangle,
    interior_chains,
) -> FlatFillIn:
    """Map the sampled triangle interior onto the flat filled-in triangle.

    interior_chains are geodesics from the past vertex x to sampled points
    of the far side [y, z]; each chain point lands at planar coordinates
    via its arclength along the planar segment from the realized past
    vertex to the matching far-side comparison point.  Raises
    RigidityViolated when any checked pair deviates beyond tolerance.
    """
    if not interior_chains:
        raise MissingChains("no interior chains from the past vertex supplied")
    lengths = _triangle_lengths(space, tri)
    model = ModelTriangle(K_FLAT, lengths["ab"], lengths["bc"], lengths["ac"])
    coords3 = realize_plane(model)
    plane = {
        tri.x: (coords3["a"].t, coords3["a"].x),
        tri.y: (coords3["b"].t, coords3["b"].x),
        tri.z: (coords3["c"].t, coords3["c"].x),
    }
    far = tri.side_yz
    far_lookup = {int(p): float(s) for p, s in zip(far.points, far.params)}
    for chain in interior_chains:
        if chain.start != tri.x:
            raise MissingChains(f"chain does not start at the past vertex {tri.x}")
        target = chain.end
        if target not in far_lookup:
            raise MissingChains(f"chain endpoint {target} is not on the far side")
        s = far_lookup[target]
        end = plane_side_point(model, coords3, SidePosition("bc", s))
        start = coords3["a"]
        total = chain.total
        for p, t_arc in zip(chain.points, chain.params):
            f = t_arc / total if total else 0.0
            plane[int(p)] = (
                start.t + f * (end.t - start.t),
                start.x + f * (end.x - start.x),
            )
    # side samples land on the realized sides as well
    for side_name, chain, lo, hi in (
        ("ab", tri.side_xy, "a", "b"),
        ("bc", tri.side_yz, "b", "c"),
        ("ac", tri.side_xz, "a", "c"),
    ):
        for p, s in zip(chain.points, chain.params):
            pt = plane_side_point(model, coords3, SidePosition(side_name, float(s)))
            plane.setdefault(int(p), (pt.t, pt.x))

    return _checked_fill_in(space, plane, (tri.x, tri.y, tri.z), scaled(DEFAULT_TOL_TAU, lengths["ac"]), "fill-in")


@dataclass
class QuadrangleReport:
    lhs_minus_rhs: float
    flat: bool
    angles: dict
    fill_in: FlatFillIn | None


def quadrangle_rigidity(
    space,
    p1: int,
    p2: int,
    p3: int,
    p4: int,
    kappa=K_FLAT,
    tol: float = DEFAULT_TOL_ANGLE,
) -> QuadrangleReport:
    """Signed angle sum criterion for the quadrangle p1 << p2 << p4 << p3.

    Computes (angle at p1 + angle at p3) - (angle at p2 + angle at p4); by
    the rigidity statement a value >= -tol forces equality and a flat
    convex fill-in, which is then reconstructed in the plane and validated
    on all sampled side/diagonal points.  A fill-in that fails validation
    raises RigidityViolated, whose report is this report without fill_in.
    """
    kappa = Kappa.of(kappa)
    tau = space.tau
    order = [(p1, p2), (p2, p4), (p4, p3), (p1, p4), (p2, p3), (p1, p3)]
    for a, b in order:
        if tau[a, b] <= 0:
            raise OrderViolated(f"expected {a} << {b}; tau = {tau[a, b]}")

    # the four sides, then the two diagonals: all chronological by the checks above
    chains = _geodesics(space, [p1, p1, p2, p4, p2, p1], [p2, p4, p3, p3, p4, p3])
    sides = dict(zip(("12", "14", "23", "43"), chains))
    diagonals = {"24": chains[4], "13": chains[5]}
    angles = {
        "p1": estimate_angle(space, sides["12"], sides["14"], p1, kappa).value,
        "p3": estimate_angle(space, sides["23"], sides["43"], p3, kappa).value,
        "p2": estimate_angle(space, sides["12"], sides["23"], p2, kappa).value,
        "p4": estimate_angle(space, sides["14"], sides["43"], p4, kappa).value,
    }
    lhs_minus_rhs = angles["p1"] + angles["p3"] - angles["p2"] - angles["p4"]
    rep = QuadrangleReport(
        lhs_minus_rhs=float(lhs_minus_rhs), flat=bool(lhs_minus_rhs >= -tol), angles=angles, fill_in=None
    )
    if rep.flat:
        try:
            rep.fill_in = _quadrangle_fill_in(space, (p1, p2, p3, p4), sides, diagonals)
        except RigidityViolated as e:
            e.report = rep
            raise
    return rep


def _quadrangle_fill_in(space, corners, sides, diagonals):
    """Planar quadrangle with the sampled side lengths, then tau-validated."""
    p1, p2, p3, p4 = corners
    tau = space.tau
    t14 = float(tau[p1, p4])
    t12 = float(tau[p1, p2])
    t24 = float(tau[p2, p4])
    t23 = float(tau[p2, p3])
    t43 = float(tau[p4, p3])
    b1 = np.array([0.0, 0.0])
    b4 = np.array([t14, 0.0])
    tb = (t14 * t14 + t12 * t12 - t24 * t24) / (2.0 * t14)
    xb = math.sqrt(max(tb * tb - t12 * t12, 0.0))
    b2 = np.array([tb, xb])
    # p3 from separations to p2 and p4, on the opposite side of [p2, p4]
    b3 = _two_hyperbola_point(b2, t23, b4, t43, opposite_of=b1)
    plane = {p1: tuple(b1), p2: tuple(b2), p4: tuple(b4), p3: tuple(b3)}

    segments = {
        "12": (b1, b2),
        "14": (b1, b4),
        "23": (b2, b3),
        "43": (b4, b3),
        "24": (b2, b4),
        "13": (b1, b3),
    }
    for key, chain in {**sides, **diagonals}.items():
        a_pt, b_pt = segments[key]
        total = chain.total
        for p, s in zip(chain.points, chain.params):
            f = s / total if total else 0.0
            plane.setdefault(int(p), tuple(a_pt + f * (np.asarray(b_pt) - a_pt)))
    return _checked_fill_in(space, plane, corners, scaled(DEFAULT_TOL_TAU, t14 + t43), "quadrangle fill-in")


def _two_hyperbola_point(c1, r1, c2, r2, opposite_of):
    """Planar point with given time separations from two base points.

    Solves (t-c_i)^2 - (x-x_i)^2 = r_i^2 and picks the solution on the
    other side of the line c1-c2 from the reference point.
    """
    c1 = np.asarray(c1, float)
    c2 = np.asarray(c2, float)
    # subtracting the two quadrics leaves a line: alpha*t - beta*x = gamma
    alpha = 2.0 * (c2[0] - c1[0])
    beta = 2.0 * (c2[1] - c1[1])
    gamma = (r1 * r1 - r2 * r2) + (c2[0] ** 2 - c1[0] ** 2) - (c2[1] ** 2 - c1[1] ** 2)
    sols = []
    if abs(alpha) >= abs(beta):
        # t = (gamma + beta*x) / alpha, substitute into the first quadric
        A = (beta / alpha) ** 2 - 1.0
        t0 = gamma / alpha
        B = 2.0 * (beta / alpha) * (t0 - c1[0]) + 2.0 * c1[1]
        C = (t0 - c1[0]) ** 2 - c1[1] ** 2 - r1 * r1
        for x in np.roots([A, B, C]):
            if abs(x.imag) < 1e-9:
                xr = float(x.real)
                sols.append(np.array([t0 + beta / alpha * xr, xr]))
    else:
        A = (alpha / beta) ** 2 - 1.0
        x0 = -gamma / beta
        B = -2.0 * (alpha / beta) * (x0 - c1[1]) - 2.0 * c1[0]
        C = -((x0 - c1[1]) ** 2) + c1[0] ** 2 - r1 * r1
        for t in np.roots([A, B, C]):
            if abs(t.imag) < 1e-9:
                tr = float(t.real)
                sols.append(np.array([tr, x0 + alpha / beta * tr]))
    if not sols:
        raise DomainError("quadrangle vertices admit no planar realization")

    def side(p):
        d = c2 - c1
        v = np.asarray(p) - c1
        return np.sign(d[0] * v[1] - d[1] * v[0])

    ref = side(opposite_of)
    for s in sols:
        if side(s) == -ref or ref == 0:
            return s
    return sols[0]
