"""Exact geometry of the two-dimensional Lorentzian model spaces.

Everything here is closed-form: time separation in the Minkowski plane,
the constant-curvature law-of-cosines solvers (hyperbolic regime for
positive curvature, trigonometric regime for negative curvature, the
quadratic regime at zero), comparison-point separations inside a model
triangle, the first-variation difference quotient, and an independent
de Sitter hyperboloid oracle for curvature +1.

Angles between timelike directions are hyperbolic angles and are carried
around as cosh(theta) >= 1; theta itself is recovered with arccosh only
on demand, which avoids precision loss near theta = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderViolated
from .relations import Relation

# Boundary slack for arccos/arccosh arguments: values this close to the
# boundary are clamped, anything further out is a DomainError.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Kappa:
    """Curvature parameter of the model space, with its timelike diameter."""

    k: float

    @property
    def dk(self) -> float:
        """Timelike diameter: pi/sqrt(|k|) in the trigonometric regime, else inf."""
        if self.k < 0.0:
            return math.pi / math.sqrt(-self.k)
        return math.inf

    @staticmethod
    def of(k) -> "Kappa":
        return k if isinstance(k, Kappa) else Kappa(float(k))


K_FLAT = Kappa(0.0)


@dataclass(frozen=True)
class PlanePoint:
    """Point (t, x) of the Minkowski plane."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise DomainError(f"non-finite plane point ({self.t}, {self.x})")

    def __iter__(self):
        yield self.t
        yield self.x


def _as_tx(p):
    t, x = p
    return float(t), float(x)


def tau_plane(p, q):
    """Time separation and causal relation of two Minkowski-plane points.

    Returns (tau, Relation) where tau = sqrt(dt^2 - dx^2) for causal pairs
    and 0 otherwise.
    """
    pt, px = _as_tx(p)
    qt, qx = _as_tx(q)
    dt = qt - pt
    dx = qx - px
    if dt == 0.0 and dx == 0.0:
        return 0.0, Relation.SAME
    q2 = dt * dt - dx * dx
    scale = dt * dt + dx * dx
    if abs(q2) <= BOUNDARY_TOL * scale:
        return 0.0, Relation.NULL_FUTURE if dt > 0 else Relation.NULL_PAST
    if q2 < 0.0:
        return 0.0, Relation.SPACELIKE
    tau = math.sqrt(q2)
    return tau, Relation.CHRONO_FUTURE if dt > 0 else Relation.CHRONO_PAST


# ---------------------------------------------------------------------------
# Law of cosines, all curvature regimes.
#
# Hinge convention: the hinge sits at a vertex with two geodesic sides of
# lengths y and t and hyperbolic angle theta between them.  sigma = +1 when
# the sides point into opposite time orientations (one past, one future),
# sigma = -1 when they share an orientation.  z is the side opposite the
# hinge vertex.
# ---------------------------------------------------------------------------


def _hyp_gap(r, a, b, su):
    """cosh(ra)cosh(rb) + su*sinh(ra)sinh(rb) - 1, cancellation-free.

    Returns (gap, scale); scale is the natural magnitude of the terms so
    that |gap| <= tol*scale detects the null boundary at any curvature.
    """
    h = 0.5 * r
    p = np.sinh(h * (a + b)) ** 2
    m = np.sinh(h * (a - b)) ** 2
    c = np.sinh(r * a) * np.sinh(r * b)
    return p + m + su * c, p + m + np.abs(su * c) + 1e-300


def _trig_gap(r, a, b, su):
    """1 - cos(ra)cos(rb) + su*sin(ra)sin(rb), cancellation-free.

    Returns (gap, scale) as in _hyp_gap.
    """
    h = 0.5 * r
    p = np.sin(h * (a + b)) ** 2
    m = np.sin(h * (a - b)) ** 2
    c = np.sin(r * a) * np.sin(r * b)
    return p + m + su * c, p + m + np.abs(su * c) + 1e-300


def side_from_hinge_arr(kappa, y, t, cosh_theta, sigma):
    """Vectorized hinge -> opposite side. Returns (z, valid mask)."""
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
            gap, scale = _hyp_gap(r, y, t, sg * u)
            valid &= gap >= -BOUNDARY_TOL * scale
            gap = np.maximum(gap, 0.0)
            z = np.arcsinh(np.sqrt(gap * (2.0 + gap))) / r
        else:
            r = math.sqrt(-k)
            valid &= (y + t) < math.pi / r
            # cos(rz) = 1 - gap; z = 2*arcsin(sqrt(gap/2)) is stable on [0, 2]
            gap, scale = _trig_gap(r, y, t, sg * u)
            valid &= (gap >= -BOUNDARY_TOL * scale) & (gap <= 2.0 + BOUNDARY_TOL)
            z = 2.0 * np.arcsin(np.sqrt(np.clip(gap, 0.0, 2.0) / 2.0)) / r
        # sigma = -1 describes the time order a << c << b, which forces
        # y >= t + z; a formal root outside that region is not a hinge.
        order_ok = np.where(sg < 0, y + BOUNDARY_TOL * (1.0 + y) >= t + z, True)
        valid &= order_ok
    return z, valid


def side_from_hinge(kappa, y, t, cosh_theta, sigma):
    """Solve the law of cosines for the side opposite a hinge.

    Raises DomainError when the configuration is not realizable as a
    timelike triangle with the designated time order.
    """
    z, ok = side_from_hinge_arr(kappa, y, t, cosh_theta, sigma)
    if not bool(ok):
        raise DomainError(
            f"hinge not realizable: K={Kappa.of(kappa).k}, y={y}, t={t}, "
            f"cosh_theta={cosh_theta}, sigma={sigma}"
        )
    return float(z)


def _hinge_excess_arr(kappa, y, t, z, sigma):
    """cosh(theta) - 1 for the hinge determined by three sides, vectorized.

    Product forms keep the excess accurate near collinearity, where the
    plain law-of-cosines quotient would cancel catastrophically:
      sigma=+1: excess ~ (z - y - t), sigma=-1: excess ~ (y - t - z).
    Returns (excess, valid mask).
    """
    kappa = Kappa.of(kappa)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    y, t, z, sg = np.broadcast_arrays(y, t, z, sg)
    valid = (y > 0) & (t > 0) & (z >= 0)
    k = kappa.k
    plus = sg > 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if k == 0.0:
            d = np.where(
                plus,
                (z - y - t) * (z + y + t),
                (y - t - z) * (y - t + z),
            ) / (2.0 * y * t)
        elif k > 0.0:
            r = math.sqrt(k)
            h = 0.5 * r
            num = np.where(
                plus,
                np.sinh(h * (z + y + t)) * np.sinh(h * (z - y - t)),
                np.sinh(h * (y - t + z)) * np.sinh(h * (y - t - z)),
            )
            d = 2.0 * num / (np.sinh(r * y) * np.sinh(r * t))
        else:
            r = math.sqrt(-k)
            dk = math.pi / r
            valid &= (y < dk) & (t < dk) & (z < dk)
            h = 0.5 * r
            num = np.where(
                plus,
                np.sin(h * (y + t + z)) * np.sin(h * (z - y - t)),
                np.sin(h * (z + y - t)) * np.sin(h * (y - t - z)),
            )
            d = 2.0 * num / (np.sin(r * y) * np.sin(r * t))
        valid &= d >= -BOUNDARY_TOL * (1.0 + np.abs(d))
        d = np.maximum(d, 0.0)
    return d, valid


def angle_from_sides_arr(kappa, y, t, z, sigma):
    """Vectorized sides -> cosh(angle) at the hinge. Returns (u, valid mask)."""
    d, valid = _hinge_excess_arr(kappa, y, t, z, sigma)
    return 1.0 + d, valid


def angle_from_sides(kappa, y, t, z, sigma):
    """cosh of the hinge angle determined by three side lengths.

    Inverse of side_from_hinge in its realizable range; DomainError when the
    sides would require cosh(theta) < 1.
    """
    u, ok = angle_from_sides_arr(kappa, y, t, z, sigma)
    if not bool(ok):
        raise unrealizable_sides(kappa, y, t, z, sigma)
    return float(u)


def unrealizable_sides(kappa, y, t, z, sigma) -> DomainError:
    """The error for three sides that determine no hinge."""
    return DomainError(
        f"sides not realizable as a hinge: K={Kappa.of(kappa).k}, "
        f"y={y}, t={t}, z={z}, sigma={sigma}"
    )


def hinge_angle_arr(kappa, y, t, z, sigma):
    """Vectorized hinge angle theta itself, stable down to theta = 0."""
    d, valid = _hinge_excess_arr(kappa, y, t, z, sigma)
    with np.errstate(invalid="ignore"):
        theta = np.log1p(d + np.sqrt(d * (2.0 + d)))
    return theta, valid


def hinge_angle(kappa, y, t, z, sigma) -> float:
    """Hinge angle theta = arccosh(angle_from_sides(...)), computed stably."""
    theta, ok = hinge_angle_arr(kappa, y, t, z, sigma)
    if not bool(ok):
        raise unrealizable_sides(kappa, y, t, z, sigma)
    return float(theta)


def hinge_tau_arr(kappa, r1, r2, cosh_theta, opposite):
    """Time separation of two points on the legs of a hinge, vectorized.

    r1, r2 are distances from the hinge vertex along the two legs and
    cosh_theta the full hinge angle.  ``opposite`` states whether the legs
    have opposite time orientations.  Unlike side_from_hinge this keeps
    spacelike outcomes: returns (tau, timelike, null, valid).  Zero radii
    are allowed and mean the point sits at the vertex.
    """
    kappa = Kappa.of(kappa)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    u = np.asarray(cosh_theta, dtype=float)
    r1, r2, u = np.broadcast_arrays(r1, r2, u)
    k = kappa.k
    sg = 1.0 if opposite else -1.0
    valid = (r1 >= 0) & (r2 >= 0) & (u >= 1.0 - BOUNDARY_TOL)
    u = np.maximum(u, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        if k == 0.0:
            q2 = r1 * r1 + r2 * r2 + 2.0 * sg * r1 * r2 * u
            scale = r1 * r1 + r2 * r2 + 2.0 * r1 * r2 * u + 1e-300
            null = np.abs(q2) <= BOUNDARY_TOL * scale
            timelike = (q2 > 0) & ~null
            tau = np.where(timelike, np.sqrt(np.maximum(q2, 0.0)), 0.0)
        elif k > 0.0:
            r = math.sqrt(k)
            gap, scale = _hyp_gap(r, r1, r2, sg * u)  # cosh(r*tau) - 1 when timelike
            null = np.abs(gap) <= BOUNDARY_TOL * scale
            timelike = (gap > 0) & ~null
            gp = np.maximum(gap, 0.0)
            tau = np.where(timelike, np.arcsinh(np.sqrt(gp * (2.0 + gp))) / r, 0.0)
        else:
            r = math.sqrt(-k)
            gap, scale = _trig_gap(r, r1, r2, sg * u)  # 1 - cos(r*tau) when timelike
            # gap > 2 would put the points beyond the timelike diameter
            valid &= gap <= 2.0 + BOUNDARY_TOL
            null = np.abs(gap) <= BOUNDARY_TOL * scale
            timelike = (gap > 0) & (gap <= 2.0 + BOUNDARY_TOL) & ~null
            gp = np.clip(gap, 0.0, 2.0)
            tau = np.where(timelike, 2.0 * np.arcsin(np.sqrt(gp / 2.0)) / r, 0.0)
        zero = (r1 == 0) & (r2 == 0)
        tau = np.where(zero, 0.0, tau)
        timelike = np.where(zero, False, timelike)
        null = np.where(zero, False, null)
    return tau, timelike, null, valid


# ---------------------------------------------------------------------------
# Model triangles and comparison points.
# ---------------------------------------------------------------------------

_SIDES = ("ab", "bc", "ac")
# past endpoint, future endpoint of each side
_ENDS = {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")}


@dataclass(frozen=True)
class ModelTriangle:
    """Comparison triangle: curvature plus the three side lengths.

    Vertices are labelled a << b << c; l_ab, l_bc, l_ac are the time
    separations tau(a,b), tau(b,c), tau(a,c).
    """

    kappa: Kappa
    l_ab: float
    l_bc: float
    l_ac: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", Kappa.of(self.kappa))
        if min(self.l_ab, self.l_bc, self.l_ac) <= 0:
            raise DomainError("triangle sides must be positive")
        slack = BOUNDARY_TOL * (1.0 + self.l_ac)
        if self.l_ac + slack < self.l_ab + self.l_bc:
            raise DomainError(
                f"reverse triangle inequality violated: {self.l_ac} < "
                f"{self.l_ab} + {self.l_bc}"
            )
        if self.l_ac >= self.kappa.dk:
            raise DomainError(
                f"size bounds violated: longest side {self.l_ac} >= D_K={self.kappa.dk}"
            )

    def side_length(self, side: str) -> float:
        return {"ab": self.l_ab, "bc": self.l_bc, "ac": self.l_ac}[side]

    def vertex_angle(self, vertex: str) -> float:
        """cosh of the comparison angle at a vertex, from the side lengths."""
        k = self.kappa
        if vertex == "a":
            return angle_from_sides(k, self.l_ab, self.l_ac, self.l_bc, -1)
        if vertex == "b":
            return angle_from_sides(k, self.l_ab, self.l_bc, self.l_ac, +1)
        if vertex == "c":
            return angle_from_sides(k, self.l_ac, self.l_bc, self.l_ab, -1)
        raise ValueError(f"unknown vertex {vertex!r}")


@dataclass(frozen=True)
class SidePosition:
    """A point on a triangle side, by arclength from the side's past endpoint."""

    side: str
    s: float

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        if self.s < 0:
            raise DomainError(f"negative side position {self.s}")


def realize_plane(tri: ModelTriangle):
    """Planar coordinates of a flat comparison triangle.

    a at the origin, c vertically above it, b to the right.
    """
    tb = (tri.l_ac**2 + tri.l_ab**2 - tri.l_bc**2) / (2.0 * tri.l_ac)
    xb = math.sqrt(max(0.0, tb * tb - tri.l_ab**2))
    return {
        "a": PlanePoint(0.0, 0.0),
        "b": PlanePoint(tb, xb),
        "c": PlanePoint(tri.l_ac, 0.0),
    }


def plane_side_point(tri: ModelTriangle, coords, pos: SidePosition) -> PlanePoint:
    length = tri.side_length(pos.side)
    if pos.s > length + BOUNDARY_TOL * (1 + length):
        raise DomainError(f"position {pos.s} beyond side {pos.side} of length {length}")
    lo, hi = _ENDS[pos.side]
    f = pos.s / length
    p0, p1 = coords[lo], coords[hi]
    return PlanePoint(p0.t + f * (p1.t - p0.t), p0.x + f * (p1.x - p0.x))


def _shared_vertex(side1: str, side2: str) -> str:
    common = set(_ENDS[side1]) & set(_ENDS[side2])
    return common.pop()


def _radius_orientation(tri: ModelTriangle, pos: SidePosition, vertex: str):
    """Distance of a side point from a vertex of its side, and whether the
    side leaves that vertex toward the future (+1) or the past (-1)."""
    lo, hi = _ENDS[pos.side]
    if vertex == lo:
        return pos.s, +1
    if vertex == hi:
        return tri.side_length(pos.side) - pos.s, -1
    raise ValueError(f"vertex {vertex} not on side {pos.side}")


def comparison_point_tau(tri: ModelTriangle, p: SidePosition, q: SidePosition):
    """Time separation and relation of two comparison points on a triangle.

    Flat triangles go through the explicit planar realization; curved ones
    reduce to a hinge at the vertex the two sides share, whose angle equals
    the full comparison angle there.
    """
    lp = tri.side_length(p.side)
    lq = tri.side_length(q.side)
    for pos, length in ((p, lp), (q, lq)):
        if pos.s > length + BOUNDARY_TOL * (1 + length):
            raise DomainError(f"position {pos.s} beyond side {pos.side} (length {length})")

    if tri.kappa.k == 0.0:
        coords = realize_plane(tri)
        return tau_plane(
            plane_side_point(tri, coords, p), plane_side_point(tri, coords, q)
        )

    if p.side == q.side:
        d = q.s - p.s
        if d == 0.0:
            return 0.0, Relation.SAME
        return abs(d), Relation.CHRONO_FUTURE if d > 0 else Relation.CHRONO_PAST

    v = _shared_vertex(p.side, q.side)
    r1, o1 = _radius_orientation(tri, p, v)
    r2, o2 = _radius_orientation(tri, q, v)
    if r1 == 0.0 and r2 == 0.0:
        return 0.0, Relation.SAME
    if r1 == 0.0:  # p sits at the shared vertex
        return r2, Relation.CHRONO_FUTURE if o2 > 0 else Relation.CHRONO_PAST
    if r2 == 0.0:
        return r1, Relation.CHRONO_PAST if o1 > 0 else Relation.CHRONO_FUTURE
    opposite = o1 != o2
    u = tri.vertex_angle(v)
    tau, timelike, null, ok = hinge_tau_arr(tri.kappa, r1, r2, u, opposite)
    if not bool(ok):
        raise DomainError(f"comparison points exceed the model-space domain at {v}")
    if opposite:
        future = o2 > 0  # the future-leg point is later
    else:
        future = (r2 > r1) if o1 > 0 else (r2 < r1)
    if bool(timelike):
        return float(tau), Relation.CHRONO_FUTURE if future else Relation.CHRONO_PAST
    if bool(null):
        return 0.0, Relation.NULL_FUTURE if future else Relation.NULL_PAST
    return 0.0, Relation.SPACELIKE


# ---------------------------------------------------------------------------
# Plane probes.
# ---------------------------------------------------------------------------


def polar_chronology(r1: float, r2: float, psi: float) -> Relation:
    """Relation of two points given in polar form around a common vertex.

    Both points sit on future-directed radial geodesics at radii r1, r2
    with hyperbolic angle psi between the directions.  The chronology
    criterion factorizes as (r2 - r1 e^psi)(r2 - r1 e^-psi).
    """
    if r1 <= 0 or r2 <= 0 or psi < 0:
        raise DomainError("polar radii must be positive and psi nonnegative")
    if psi == 0.0 and r1 == r2:
        return Relation.SAME
    hi = r1 * math.exp(psi)
    lo = r1 * math.exp(-psi)
    tol = BOUNDARY_TOL * (r1 + r2)
    if abs(r2 - hi) <= tol or abs(r2 - lo) <= tol:
        return Relation.NULL_FUTURE if r2 >= r1 else Relation.NULL_PAST
    if r2 > hi:
        return Relation.CHRONO_FUTURE
    if r2 < lo:
        return Relation.CHRONO_PAST
    return Relation.SPACELIKE


def angle_sum_defect(a, b, c) -> float:
    """Hinge-angle sum probe for an ordered planar triple a << b << c.

    Returns angle(a) + angle(c) - angle(b); identically zero in the plane.
    """
    t_ab, rel_ab = tau_plane(a, b)
    t_bc, rel_bc = tau_plane(b, c)
    t_ac, rel_ac = tau_plane(a, c)
    if not (
        rel_ab is Relation.CHRONO_FUTURE
        and rel_bc is Relation.CHRONO_FUTURE
        and rel_ac is Relation.CHRONO_FUTURE
    ):
        raise OrderViolated("points are not pairwise chronologically ordered")
    th_a = hinge_angle(K_FLAT, t_ab, t_ac, t_bc, -1)
    th_b = hinge_angle(K_FLAT, t_ab, t_bc, t_ac, +1)
    th_c = hinge_angle(K_FLAT, t_ac, t_bc, t_ab, -1)
    return th_a + th_c - th_b


def fvf_model(kappa, y: float, sigma: int, cosh_theta: float, t: float):
    """Difference quotient of the hinge side against its first-variation limit.

    Returns (quotient, limit) with quotient = (z(t) - y)/t and
    limit = sigma * cosh_theta; the two agree to O(t) as t -> 0.
    """
    if t <= 0:
        raise DomainError("step t must be positive")
    z = side_from_hinge(kappa, y, t, cosh_theta, sigma)
    return (z - y) / t, sigma * cosh_theta


def second_inequality_margin(kappa, y: float, t: float, z: float, sigma: int) -> float:
    """Margin sigma*cosh(theta) - (z - y)/t; nonnegative for realizable hinges."""
    u = angle_from_sides(kappa, y, t, z, sigma)
    return sigma * u - (z - y) / t


# ---------------------------------------------------------------------------
# De Sitter hyperboloid oracle (curvature +1).
#
# The model is the quadric <x,x> = 1 in R^{1,2} with the bilinear form
# <p,q> = -T_p T_q + X_p X_q + Y_p Y_q.  Chronologically related points
# satisfy <p,q> > 1 and tau = arccosh(<p,q>); the ambient T coordinate is a
# time function, so the sign of the T difference orients the relation.
# ---------------------------------------------------------------------------

DS_QUADRIC_TOL = 1e-12


def ds_form(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(-p[0] * q[0] + p[1] * q[1] + p[2] * q[2])


def ds_check_point(p, tol: float = DS_QUADRIC_TOL):
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError("de Sitter points are triples (T, X, Y)")
    err = abs(ds_form(p, p) - 1.0)
    if err > tol * (1.0 + float(np.dot(p, p))):
        raise DomainError(f"point off the unit quadric by {err}")
    return p


def ds_tau(p, q, tol: float = DS_QUADRIC_TOL):
    """Time separation and relation of two points of the de Sitter quadric."""
    p = ds_check_point(p, tol)
    q = ds_check_point(q, tol)
    if np.array_equal(p, q):
        return 0.0, Relation.SAME
    g = ds_form(p, q)
    scale = max(1.0, abs(g))
    future = q[0] > p[0]
    if abs(g - 1.0) <= BOUNDARY_TOL * scale:
        return 0.0, Relation.NULL_FUTURE if future else Relation.NULL_PAST
    if g > 1.0:
        tau = math.acosh(g)
        return tau, Relation.CHRONO_FUTURE if future else Relation.CHRONO_PAST
    return 0.0, Relation.SPACELIKE


def ds_tangent(psi: float):
    """Unit future timelike tangent at the base point (0, 1, 0)."""
    return np.array([math.cosh(psi), 0.0, math.sinh(psi)])


def ds_geodesic_point(p, w, s: float):
    """Point at arclength s along the geodesic from p with unit tangent w."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    return math.cosh(s) * p + math.sinh(s) * w


def ds_tangent_toward(p, q):
    """Unit tangent at p of the timelike geodesic from p to q."""
    tau, rel = ds_tau(p, q)
    if not rel.chronological:
        raise DomainError("no timelike geodesic between the given points")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return (q - math.cosh(tau) * p) / math.sinh(tau)


def ds_realize_triangle(l_ab: float, l_bc: float, l_ac: float):
    """Embed a timelike triangle with the given side lengths in the quadric.

    Returns quadric points (A, B, C) with A << B << C and pairwise
    separations equal to the inputs.
    """
    tri = ModelTriangle(Kappa(1.0), l_ab, l_bc, l_ac)  # validates the sides
    a = np.array([0.0, 1.0, 0.0])
    cosh_psi = tri.vertex_angle("a")
    psi = math.acosh(cosh_psi)
    b = ds_geodesic_point(a, ds_tangent(0.0), l_ab)
    c = ds_geodesic_point(a, ds_tangent(psi), l_ac)
    return a, b, c
