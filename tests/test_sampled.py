import collections
import functools
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from lorentzgeo.modelspace import Kappa, angle_from_sides, hinge_tau_arr
from lorentzgeo.sampled import (
    AxiomReport,
    Certificate,
    Chain,
    ChainStore,
    SampledSpace,
    SampledTriangle,
    TriangleSet,
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
from lorentzgeo.tolerances import DEFAULT_CERT_TOL, DEFAULT_GEO_TOL, scaled


@pytest.fixture(scope="module")
def chain3():
    space, _ = build_product(base_point(), [0.0, 1.0, 2.0])
    return space


@pytest.fixture(scope="module")
def grid11():
    return minkowski_grid(11, 11, 1.0)


def reference_axioms(space, tol=1e-9):
    """validate_axioms with its O(n^3) scans as one loop over the middle index.

    exact_tests counts the causal triples with tau(i, k) < tau(i, j) + tau(j, k).
    """
    tau, causal = space.tau, space.causal
    n = space.n
    violations = []
    counts = {}

    def record(kind, idx_arrays, count):
        counts[kind] = counts.get(kind, 0) + int(count)
        for w in list(zip(*idx_arrays))[: sampled._WITNESS_CAP]:
            violations.append({"kind": kind, "witness": tuple(int(i) for i in w)})

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

    rti_count = push_count = screened = 0
    rti_witness = push_witness = None
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
            screened += int(np.count_nonzero(both & (tau < lhs)))
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
    triples = int(np.dot(causal.sum(axis=0, dtype=np.int64), causal.sum(axis=1, dtype=np.int64)))
    return AxiomReport(violations=violations, counts=counts, triples_checked=triples, exact_tests=screened)


def reference_reverse_triangle(space, tol=1e-9):
    """The reverse-triangle scan as a per-middle-point np.ix_ loop.

    Returns the violation count, the first witness (j-major, then
    row-major) and the number of triples with tau(i, k) < tau(i, j) + tau(j, k).
    """
    tau, causal = space.tau, space.causal
    pasts = [np.flatnonzero(col) for col in causal.T]
    futures = [np.flatnonzero(row) for row in causal]
    count = screened = 0
    witness = None
    for j in range(space.n):
        past, future = pasts[j], futures[j]
        if not (past.size and future.size):
            continue
        lhs = tau[past, j][:, None] + tau[j, future][None, :]
        got = tau[np.ix_(past, future)]
        viol = got < lhs - tol * (1.0 + lhs)
        c = int(np.count_nonzero(viol))
        if c and witness is None:
            a, b = np.argwhere(viol)[0]
            witness = (int(past[a]), j, int(future[b]))
        count += c
        screened += int(np.count_nonzero(got < lhs))
    return count, witness, screened


def assert_reverse_triangle_matches(space, tol=1e-9):
    rep = validate_axioms(space, tol)
    count, witness, screened = reference_reverse_triangle(space, tol)
    assert rep.counts.get("reverse-triangle", 0) == count
    assert [v["witness"] for v in rep.violations if v["kind"] == "reverse-triangle"] == ([witness] if count else [])
    assert rep.exact_tests == screened
    return rep


def push_up_witness(chron, causal, bad_rows, bad_cols):
    """First push-up violation (i, j, k), j-major then row-major.

    Every violating pair (i, k) lies in bad_rows x bad_cols, so each
    middle point j is scanned on that submatrix only.
    """
    rows, cols = np.flatnonzero(bad_rows), np.flatnonzero(bad_cols)
    open_ik = ~chron[np.ix_(rows, cols)]
    for j in range(chron.shape[0]):
        viol = (
            (causal[rows, j][:, None] & chron[j, cols][None, :])
            | (chron[rows, j][:, None] & causal[j, cols][None, :])
        ) & open_ik
        if viol.any():
            a, b = np.argwhere(viol)[0]
            return (int(rows[a]), j, int(cols[b]))
    raise AssertionError("push-up count without a witness")


def reference_axiom_products(space, tol=1e-9):
    """validate_axioms with transitivity and push-up as whole n x n float32
    0/1 products, and the reverse-triangle scan of reference_reverse_triangle.

    validate_axioms takes C@C one row panel at a time and skips empty
    blocks, and counts push-up in its triple scan; this is the
    whole-matrix form it is held to.  The number of middle points j with
    i <= j << k or i << j <= k is (C@H - (C&H)@(C&H) + H@C)[i, k], with
    C = causal and H = chronological, summed where i << k fails.
    """
    tau, causal = space.tau, space.causal
    violations = []
    counts = {}

    def record(kind, idx_arrays, count):
        counts[kind] = counts.get(kind, 0) + int(count)
        for w in zip(*(a[: sampled._WITNESS_CAP] for a in idx_arrays)):
            violations.append({"kind": kind, "witness": tuple(int(i) for i in w)})

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
    c32 = causal.astype(np.float32)
    m = ((c32 @ c32) > 0) & ~causal
    if m.any():
        record("causal-not-transitive", np.nonzero(m), m.sum())

    rti_count, rti_witness, screened = reference_reverse_triangle(space, tol)
    if rti_count:
        counts["reverse-triangle"] = rti_count
        violations.append({"kind": "reverse-triangle", "witness": rti_witness})

    h32 = chron.astype(np.float32)
    ch32 = (causal & chron).astype(np.float32)
    up = c32 @ h32 - ch32 @ ch32 + h32 @ c32
    up[chron] = 0.0
    push_count = int(up.sum(dtype=np.float64))
    if push_count:
        counts["push-up"] = push_count
        hit = up > 0
        witness = push_up_witness(chron, causal, hit.any(axis=1), hit.any(axis=0))
        violations.append({"kind": "push-up", "witness": witness})

    triples = int(np.dot(causal.sum(axis=0, dtype=np.int64), causal.sum(axis=1, dtype=np.int64)))
    return AxiomReport(violations=violations, counts=counts, triples_checked=triples, exact_tests=screened)


def assert_axiom_products_match(space, tol=1e-9):
    rep = validate_axioms(space, tol)
    want = reference_axiom_products(space, tol)
    assert rep == want
    assert list(rep.counts.items()) == list(want.counts.items())  # the report keeps this order
    return rep


AXIOM_KINDS = {
    "chronological-not-causal",
    "causal-not-reflexive",
    "chronology-not-antisymmetric",
    "causal-not-transitive",
    "reverse-triangle",
    "push-up",
}


def with_violations(space, seed):
    """A copy of space with violations of every kind planted at random:
    causal entries flipped and dropped from the diagonal, chronological
    tau entries shrunk by 10 % or zeroed, and a few chronological pairs
    made chronological both ways."""
    rng = np.random.default_rng(seed)
    tau, causal = space.tau.copy(), space.causal.copy()
    n = space.n
    edits = max(1, n // 8)
    i, k = rng.integers(n, size=(2, edits))
    causal[i, k] = ~causal[i, k]
    d = rng.integers(n, size=max(1, edits // 8))
    causal[d, d] = False
    ii, kk = np.nonzero(tau > 0)
    if ii.size:
        pick = rng.choice(ii.size, min(ii.size, 2 * edits), replace=False)
        tau[ii[pick], kk[pick]] *= rng.choice([0.0, 0.9], size=pick.size)
        back = pick[: max(1, edits // 4)]
        tau[kk[back], ii[back]] = 1.0
    return SampledSpace(tau=tau, causal=causal)


@functools.cache
def permuted_grid():
    """The 17x17 grid with violations planted, its points in random order."""
    space = with_violations(minkowski_grid(17, 17, 1.0), 11)
    p = np.random.default_rng(12).permutation(space.n)
    return SampledSpace(tau=space.tau[np.ix_(p, p)], causal=space.causal[np.ix_(p, p)])


def plane_space(n, seed):
    """n random points of the Minkowski plane, indexed in time order."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([np.sort(rng.uniform(0.0, 10.0, n)), rng.uniform(0.0, 4.0, n)])
    return space_from_plane_points(pts)


@functools.cache
def shrunk_grid15():
    """15x15 grid with a random 5 % of its chronological tau entries shrunk by 10 %."""
    grid = minkowski_grid(15, 15, 1.0)
    tau = grid.tau.copy()
    ii, kk = np.nonzero(tau > 0)
    pick = np.random.default_rng(5).choice(len(ii), len(ii) // 20, replace=False)
    tau[ii[pick], kk[pick]] *= 0.9
    return SampledSpace(tau=tau, causal=grid.causal.copy())


@st.composite
def broken_spaces(draw):
    """A small grid, de Sitter or tripod space with tau entries scaled,
    zeroed or set, and causal entries flipped (diagonal included)."""
    space = small_space(draw(st.sampled_from(["grid", "desitter", "tripod"])))
    tau, causal = space.tau.copy(), space.causal.copy()
    n = space.n
    for _ in range(draw(st.integers(0, 12))):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["scale", "zero", "set", "flip"]))
        if edit == "flip":
            causal[i, k] = not causal[i, k]
        elif i == k:
            continue
        elif edit == "zero":
            tau[i, k] = 0.0
        elif edit == "set":
            tau[i, k] = draw(st.floats(0.0, 3.0))
        else:
            tau[i, k] *= draw(st.floats(0.0, 2.0))
    return SampledSpace(tau=tau, causal=causal)


@st.composite
def planted_spaces(draw):
    """A broken_spaces draw with at least one chronological pair made
    non-causal and at least one point dropped from the causal diagonal."""
    space = draw(broken_spaces())
    tau, causal = space.tau.copy(), space.causal.copy()
    n = space.n
    ii, kk = np.nonzero(tau > 0)
    if ii.size:
        e = draw(st.integers(0, ii.size - 1))
        i, k = int(ii[e]), int(kk[e])
    else:
        i, k = 0, n - 1
        tau[i, k] = 1.0
    causal[i, k] = False
    d = draw(st.integers(0, n - 1))
    causal[d, d] = False
    return SampledSpace(tau=tau, causal=causal)


class TestSampledSpace:
    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 1): np.nan}, "tau contains non-finite entries"),
            ({(0, 1): np.inf}, "tau contains non-finite entries"),
            ({(0, 1): -np.inf}, "tau contains non-finite entries"),
            ({(0, 1): -1.0}, "tau contains negative entries"),
            # a non-finite entry is named before a negative one or the diagonal
            ({(0, 1): -1.0, (1, 0): np.nan}, "tau contains non-finite entries"),
            ({(0, 1): -1.0, (2, 2): 1.0}, "tau contains negative entries"),
            ({(2, 2): 1.0}, "tau has a nonzero diagonal"),
        ],
        ids=["nan", "inf", "minus-inf", "negative", "nan-and-negative", "negative-and-diagonal", "diagonal"],
    )
    def test_bad_tau_rejected(self, entries, message):
        tau = np.zeros((3, 3))
        for entry, value in entries.items():
            tau[entry] = value
        with pytest.raises(ShapeError, match=f"^{message}$"):
            SampledSpace(tau=tau, causal=np.eye(3, dtype=bool))

    def test_empty_space(self):
        space = SampledSpace(tau=np.zeros((0, 0)), causal=np.zeros((0, 0), dtype=bool))
        assert space.n == 0 and not space.tau.flags.writeable


class TestAxioms:
    def test_chain_fixture_clean(self, chain3):
        assert validate_axioms(chain3).ok

    @settings(max_examples=100, deadline=None)
    @given(
        space=st.one_of(broken_spaces(), planted_spaces()),
        tol=st.sampled_from([0.0, 1e-9, 0.05]),
        panel=st.sampled_from([1, 5, 128]),
    )
    def test_matches_per_j_reference(self, space, tol, panel):
        # planted_spaces puts non-causal pairs among the triple scan's rows and columns
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampled, "_PANEL", panel)
            rep = validate_axioms(space, tol)
        ref = reference_axioms(space, tol)
        assert rep == ref
        assert list(rep.counts.items()) == list(ref.counts.items())

    def test_one_product_pass(self, monkeypatch):
        # transitivity is the only 0/1 product; push-up rides the triple scan
        calls = []
        products = sampled._products

        def counted(*args):
            calls.append(args)
            return products(*args)

        monkeypatch.setattr(sampled, "_products", counted)
        assert validate_axioms(permuted_grid()).counts["push-up"]
        assert len(calls) == 1

    def test_diagnostics(self, chain3):
        rep = validate_axioms(chain3)
        # pasts of 0 < 1 < 2 have sizes 1, 2, 3 and futures 3, 2, 1
        assert rep.triples_checked == 10

    @pytest.mark.parametrize(
        "drop, counts, witnesses",
        [
            # (0,0) -> (2,0) and (0,1) -> (2,1) are chronological
            (
                [(0, 8), (1, 9)],
                {"chronological-not-causal": 2, "causal-not-transitive": 2},
                [
                    ("chronological-not-causal", (0, 8)),
                    ("chronological-not-causal", (1, 9)),
                    ("causal-not-transitive", (0, 8)),
                    ("causal-not-transitive", (1, 9)),
                ],
            ),
            ([(5, 5), (10, 10)], {"causal-not-reflexive": 2}, [("causal-not-reflexive", (5,)), ("causal-not-reflexive", (10,))]),
            # (0,0) -> (2,2) is null, reached through (1,1)
            ([(0, 10)], {"causal-not-transitive": 1}, [("causal-not-transitive", (0, 10))]),
        ],
    )
    def test_causal_order_violations(self, drop, counts, witnesses):
        grid = minkowski_grid(4, 4, 1.0)
        causal = grid.causal.copy()
        for i, k in drop:
            causal[i, k] = False
        rep = validate_axioms(SampledSpace(tau=grid.tau.copy(), causal=causal))
        assert rep.counts == counts
        assert [(v["kind"], v["witness"]) for v in rep.violations] == witnesses

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

    def test_push_up_witness_is_row_major(self):
        # (1,0) is the first middle point for both unchronological pairs
        # (0,0) -> (3,1) and (0,1) -> (3,0); row-major order picks the former
        grid = minkowski_grid(4, 4, 1.0)
        tau = grid.tau.copy()
        tau[0, 13] = tau[1, 12] = 0.0
        rep = validate_axioms(SampledSpace(tau=tau, causal=grid.causal.copy()))
        assert rep.counts == {"reverse-triangle": 8, "push-up": 8}
        assert [(v["kind"], v["witness"]) for v in rep.violations] == [
            ("reverse-triangle", (0, 4, 13)),
            ("push-up", (0, 4, 13)),
        ]

    def test_non_finite_tau_rejected(self, chain3):
        tau = chain3.tau.copy()
        tau[0, 2] = np.nan
        with pytest.raises(ShapeError):
            SampledSpace(tau=tau, causal=chain3.causal.copy())

    @pytest.mark.parametrize("entry, value", [((0, 2), -0.5), ((1, 1), 0.25)])
    def test_negative_tau_or_nonzero_diagonal_rejected(self, chain3, entry, value):
        tau = chain3.tau.copy()
        tau[entry] = value
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


class TestReverseTriangleScan:
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_shrunk_grid_matches_ix_reference(self, tol):
        rep = assert_reverse_triangle_matches(shrunk_grid15(), tol)
        assert rep.counts["reverse-triangle"] > 1000

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    @pytest.mark.parametrize("side, count", [(0.0, 0), (-np.inf, 1), (np.inf, 0)])
    def test_boundary_of_the_exact_rule(self, chain3, tol, side, count):
        # chain 0 < 1 < 2: through j = 1, lhs = tau[0, 1] + tau[1, 2] = 2
        lhs = chain3.tau[0, 1] + chain3.tau[1, 2]
        tau = chain3.tau.copy()
        tau[0, 2] = lhs - tol * (1.0 + lhs)
        if side:
            tau[0, 2] = np.nextafter(tau[0, 2], side)
        rep = assert_reverse_triangle_matches(SampledSpace(tau=tau, causal=chain3.causal.copy()), tol)
        assert rep.counts.get("reverse-triangle", 0) == count
        assert rep.exact_tests == (tau[0, 2] < lhs)

    def test_fortran_ordered_tau_gives_the_same_report(self):
        space = shrunk_grid15()
        fortran = SampledSpace(tau=np.asfortranarray(space.tau), causal=np.asfortranarray(space.causal))
        assert not fortran.tau.flags.c_contiguous
        assert validate_axioms(fortran) == validate_axioms(space)

    @pytest.mark.parametrize("tol", [-1e-9, -np.inf, np.nan])
    def test_negative_or_nan_tol_rejected(self, chain3, tol):
        with pytest.raises(ValueError, match="tol"):
            validate_axioms(chain3, tol)

    def test_witnesses_are_the_first_in_row_major_order(self):
        # only the diagonal stays causal, so every chronological pair is a violation
        grid = minkowski_grid(5, 5, 1.0)
        rep = validate_axioms(SampledSpace(tau=grid.tau.copy(), causal=np.eye(grid.n, dtype=bool)))
        chron = np.argwhere(grid.tau > 0)
        assert len(chron) > sampled._WITNESS_CAP
        assert rep.counts == {"chronological-not-causal": len(chron)}
        assert [v["witness"] for v in rep.violations] == [tuple(w) for w in chron[: sampled._WITNESS_CAP].tolist()]


class TestAxiomProducts:
    """validate_axioms against reference_axiom_products: its row-panel C@C
    and its triple scan's push-up against whole-matrix products."""

    def test_permuted_grid_skips_no_block(self):
        space = permuted_grid()
        assert sampled._occupied(space.causal).all() and sampled._occupied(space.tau > 0).all()
        assert not sampled._occupied(minkowski_grid(17, 17, 1.0).causal).all()  # time order skips blocks
        rep = assert_axiom_products_match(space)
        assert set(rep.counts) == AXIOM_KINDS and all(rep.counts.values())
        assert len(rep.violations) > len(AXIOM_KINDS)

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
    def test_sizes_around_the_panel_edge(self, n, planted):
        space = plane_space(n, n)
        if planted:
            space = with_violations(space, n)
        rep = assert_axiom_products_match(space)
        assert rep.ok != planted

    def test_chronology_outside_causality(self):
        grid = minkowski_grid(15, 15, 1.0)
        causal = grid.causal.copy()
        ii, kk = np.nonzero(grid.tau > 0)
        pick = np.random.default_rng(8).choice(ii.size, 40, replace=False)
        causal[ii[pick], kk[pick]] = False
        space = SampledSpace(tau=grid.tau.copy(), causal=causal)
        assert not np.array_equal(space.causal & space.chron, space.chron)
        rep = assert_axiom_products_match(space)
        assert rep.counts["chronological-not-causal"] == 40
        assert rep.counts["causal-not-transitive"] > 0

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_shrunk_grid(self, tol):
        assert_axiom_products_match(shrunk_grid15(), tol)

    @settings(max_examples=60, deadline=None)
    @given(space=broken_spaces(), tol=st.sampled_from([0.0, 1e-9, 0.05]), panel=st.sampled_from([1, 5, 128]))
    def test_broken_spaces(self, space, tol, panel):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampled, "_PANEL", panel)
            assert_axiom_products_match(space, tol)

    def test_grid31_memory(self):
        # tracemalloc peak of a repeated call on the bench's 31x31 grid,
        # above its 7.4 MB tau and 0.9 MB causal: the products run in row
        # panels, so no n x n float32 matrix is held
        space = minkowski_grid(31, 31, 1.0)
        validate_axioms(space)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert validate_axioms(space).ok
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


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

    @pytest.mark.parametrize(
        "points, params",
        [([0, 1, 2], [0.0, math.nan, 2.0]), ([0, 1], [0.0, math.inf]), ([0], [math.nan]), ([0, 1], [-math.inf, 0.0]), ([0, 1], [1.0, 0.5])],
    )
    def test_chain_params_must_be_finite_and_strictly_increasing(self, points, params):
        with pytest.raises(ShapeError, match="finite and strictly increasing"):
            Chain(points, params)

    def test_chain_may_start_below_zero(self):
        assert Chain([0, 1], [-0.5, 0.5]).total == 1.0

    def test_empty_chain_rejected(self):
        # an empty side would be certified without a single comparison
        with pytest.raises(ShapeError, match="at least one point"):
            Chain([], [])


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
        with pytest.raises(ValueError, match="claimed"):
            estimate_angle(space, alpha, beta, x, claimed="upper")

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


def reference_comparison_matrix(kappa, lengths, params):
    """Signed model separations between all sampled side points.

    lengths: dict side -> side length; params: dict side -> parameter array
    (arclength from the side's past endpoint).  Entry [i, j] is +tau of the
    comparison points when i precedes j, -tau when j precedes i, 0 when
    they are spacelike or equal.  This is the one-triangle reference that
    sampled._batch_comparison is held to, down to its DomainError messages.
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
            raise DomainError(sampled._PAST_SIDE_END)
        return np.maximum(r, 0.0)

    def hinge_block(r1, r2, u, opposite, future_mask):
        tau, timelike, ok = hinge_tau_arr(kappa, r1[:, None], r2[None, :], u, opposite)
        # with hinge_tau_arr's precondition r >= 0, pair by pair: a chain may start below 0
        if not (ok & (r1[:, None] >= 0) & (r2[None, :] >= 0)).all():
            raise DomainError(sampled._PAST_MODEL_DOMAIN)
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


def reference_certificate(space, triangles, kappa, direction, tol=DEFAULT_CERT_TOL):
    """certify_curvature_bound one triangle at a time, over reference_comparison_matrix."""
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
            model_plus = np.maximum(reference_comparison_matrix(kappa, lengths, params), 0.0)
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


@st.composite
def integer_spaces(draw):
    """(closure, space): a small space whose tau is the longest-path closure
    of integer weights on a random order of its points, and a copy with some
    entries made two-way: both orientations of a pair can then be
    chronological, and margins tie exactly across triangles that share a
    side.  The copy's chronology need not be transitive, so triangles are
    drawn on the closure."""
    n = draw(st.integers(4, 9))
    upper = np.triu_indices(n, 1)
    tau = np.zeros((n, n))
    tau[upper] = draw(st.lists(st.integers(0, 3), min_size=len(upper[0]), max_size=len(upper[0])))
    for k in range(n):
        through = (tau[:, k] > 0)[:, None] & (tau[k, :] > 0)[None, :]
        tau = np.where(through, np.maximum(tau, tau[:, k][:, None] + tau[k, :][None, :]), tau)
    closure = tau.copy()
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if i > j:
            tau[i, j] = draw(st.integers(1, 3))
    order = np.array(draw(st.permutations(range(n))))
    closure, tau = (t[np.ix_(order, order)] for t in (closure, tau))
    return tuple(SampledSpace(tau=t, causal=(t > 0) | np.eye(n, dtype=bool)) for t in (closure, tau))


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

    @settings(max_examples=60, deadline=None)
    @given(
        spaces=integer_spaces(),
        cap=st.integers(1, 300),
        seed=st.integers(0, 2**16),
        batch_pairs=st.integers(1, 500),
        direction=st.sampled_from(["above", "below"]),
    )
    def test_two_way_tau_and_exact_ties_match_reference(self, spaces, cap, seed, batch_pairs, direction):
        # tau[q, p] > 0 beside tau[p, q] > 0 exercises the mirrored orientation,
        # integer margins tie across orientations and batch boundaries
        closure, space = spaces
        tris = sample_triangles(closure, cap=cap, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
            cert = certify_curvature_bound(space, tris, Kappa(0.0), direction)
        assert_matches_reference(cert, reference_certificate(space, tris, Kappa(0.0), direction), exact=True)

    @pytest.mark.parametrize("batch_pairs", [1, 1 << 14])
    def test_tied_minima_go_to_the_first_in_row_major_order(self, monkeypatch, batch_pairs):
        # points 0..4 on one line, except that tau(0, 4) = 10 skips them; the
        # two-way tau(3, 1) = 100 makes every (3, 1) pair a -100 margin below.
        # (0, 2, 4) has one, across ab x bc; (1, 3, 4) has several, the
        # first within ab, others across ab x ac and bc x ac
        monkeypatch.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
        tau = np.zeros((5, 5))
        for i, j in zip(*np.triu_indices(5, 1)):
            tau[i, j] = j - i
        tau[0, 4], tau[3, 1] = 10.0, 100.0
        space = SampledSpace(tau=tau, causal=(tau > 0) | np.eye(5, dtype=bool))
        wide = SampledTriangle(0, 2, 4, Chain([0, 1, 2], [0, 1, 2]), Chain([2, 3, 4], [0, 1, 2]), Chain([0, 4], [0, 10]))
        line = SampledTriangle(1, 3, 4, Chain([1, 2, 3], [0, 1, 2]), Chain([3, 4], [0, 1]), Chain([1, 2, 3, 4], [0, 1, 2, 3]))
        for tris in ([wide, line], [line, wide]):
            cert = certify_curvature_bound(space, tris, Kappa(0.0), "below")
            assert cert.witness["triangle"] == (tris[0].x, tris[0].y, tris[0].z)
            assert (cert.witness["p"], cert.witness["q"], cert.witness["margin"]) == (3, 1, -100.0)
            assert_matches_reference(cert, reference_certificate(space, tris, Kappa(0.0), "below"), exact=True)

    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", ["grid", "desitter", "tripod", "broken"])
    def test_sequence_of_triangles_matches_triangle_set(self, name, k):
        space = broken_grid() if name == "broken" else small_space(name)
        tris = sample_triangles(space, cap=600, seed=3)
        for direction in ("above", "below"):
            cert = certify_curvature_bound(space, tris, Kappa(k), direction)
            assert certify_curvature_bound(space, list(tris), Kappa(k), direction) == cert

    @pytest.mark.parametrize("batch_pairs", [300, 5000])
    @pytest.mark.parametrize("k", [-1.0, 0.0])
    def test_domain_skips_do_not_poison_their_batch(self, monkeypatch, batch_pairs, k):
        monkeypatch.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
        space = broken_grid()
        tris = list(sample_triangles(space, cap=10_000))
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

    @pytest.mark.parametrize("batch_pairs", [40, 1 << 14])
    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_chains_starting_below_zero_keep_their_skip_reason(self, monkeypatch, batch_pairs, k):
        # a user-built chain may start below 0; the kernel checks each side
        # point's parameter once, and the triangles using such a chain on ab,
        # bc or ac skip with the model-domain reason, as pair by pair
        monkeypatch.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
        space, kappa = small_space("grid"), Kappa(k)
        tris = list(sample_triangles(space, cap=80, seed=5))
        shifted = tris.copy()
        for t in range(0, len(tris), 2):
            tri = tris[t]
            s = t // 2 % 3
            chains = [tri.side_xy, tri.side_yz, tri.side_xz]
            chains[s] = Chain(chains[s].points, chains[s].params - 0.25)
            shifted[t] = SampledTriangle(tri.x, tri.y, tri.z, *chains)
        for direction in ("above", "below"):
            before = dict(certify_curvature_bound(space, tris, kappa, direction).skipped)
            cert = certify_curvature_bound(space, shifted, kappa, direction)
            assert_matches_reference(cert, reference_certificate(space, shifted, kappa, direction), exact=k == 0.0)
            reasons = dict(cert.skipped)
            moved = [t for t in range(0, len(tris), 2) if t not in before]
            assert moved and all(reasons[t] == sampled._PAST_MODEL_DOMAIN for t in moved)
            assert {t: r for t, r in reasons.items() if t % 2} == {t: r for t, r in before.items() if t % 2}

    def test_hinge_pass_leaves_out_the_vertex_pairs(self, monkeypatch):
        # the last ab and first bc point are b, the first ab and ac point a,
        # the last bc and ac point c: the kernel never sees these three p == q
        # pairs of a sampled triangle, and the pair count is unchanged
        space = small_space("tripod")
        tris = sample_triangles(space, cap=300, seed=2)
        seen = []
        kernel = sampled.hinge_tau_arr
        monkeypatch.setattr(sampled, "hinge_tau_arr", lambda kappa, r1, *rest: seen.append(len(r1)) or kernel(kappa, r1, *rest))
        cert = certify_curvature_bound(space, tris, Kappa(0.0), "above")
        size = np.diff(tris.chains.offsets)[tris.sides]
        assert sum(seen) == int((size[:, 0] * size[:, 1] + size[:, 2] * (size[:, 0] + size[:, 1])).sum()) - 3 * len(tris)
        assert_matches_reference(cert, reference_certificate(space, tris, Kappa(0.0), "above"), exact=True)

    @pytest.mark.parametrize("cut", ["first", "last"])
    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_sides_not_ending_at_their_vertices_match_reference(self, cut, k):
        # a user-built side may leave out its vertex; then no run of the
        # hinge pass begins or ends at the row's own point and every pair is
        # compared, as pair by pair
        space, kappa = small_space("grid"), Kappa(k)
        tris = list(sample_triangles(space, cap=80, seed=7))
        keep = slice(1, None) if cut == "first" else slice(None, -1)
        cut_tris = []
        for t, tri in enumerate(tris):
            chains = [tri.side_xy, tri.side_yz, tri.side_xz]
            c = chains[t % 3]
            if len(c) > 2:
                chains[t % 3] = Chain(c.points[keep], c.params[keep])
            cut_tris.append(SampledTriangle(tri.x, tri.y, tri.z, *chains))
        assert any(len(a.side_xy) < len(b.side_xy) for a, b in zip(cut_tris, tris))
        for direction in ("above", "below"):
            cert = certify_curvature_bound(space, cut_tris, kappa, direction)
            assert_matches_reference(cert, reference_certificate(space, cut_tris, kappa, direction), exact=k == 0.0)

    @pytest.mark.parametrize("side", [0, 1, 2], ids=["ab", "bc", "ac"])
    @pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
    def test_nan_chain_parameter_skips_every_triangle_using_it(self, side, k):
        # a ChainStore is not validated, so a chain may carry a NaN parameter;
        # the kernel's parameter check skips every triangle using that chain
        # on any side with the model-domain reason, and the NaN reaches no
        # number of the certificate
        space, kappa = small_space("grid"), Kappa(k)
        tris = sample_triangles(space, cap=50)
        store = tris.chains
        c = int(tris.sides[0, side])
        params = store.params.copy()
        params[store.offsets[c] + (store.offsets[c + 1] - store.offsets[c]) // 2] = np.nan
        broken = TriangleSet(tris.x, tris.y, tris.z, tris.sides, ChainStore(store.points, params, store.offsets, store.deficits))
        users = np.flatnonzero((tris.sides == c).any(axis=1)).tolist()
        for direction in ("above", "below"):
            before = dict(certify_curvature_bound(space, tris, kappa, direction).skipped)
            cert = certify_curvature_bound(space, broken, kappa, direction)
            reasons = dict(cert.skipped)
            assert users and all(reasons[t] == sampled._PAST_MODEL_DOMAIN for t in users if t not in before)
            assert {t: r for t, r in reasons.items() if t not in users} == {t: r for t, r in before.items() if t not in users}
            numbers = [cert.max_violation, cert.max_slack, cert.side_step]
            numbers += [cert.witness[key] for key in ("tau", "tau_model", "margin")] if cert.witness else []
            assert np.isfinite(numbers).all()
            assert_matches_reference(cert, reference_certificate(space, broken, kappa, direction), exact=k == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        cap=st.integers(10, 200),
        seed=st.integers(0, 2**16),
        batch_pairs=st.sampled_from([1, 40, 1 << 14]),
        direction=st.sampled_from(["above", "below"]),
    )
    def test_chains_shared_by_failing_and_live_triangles_match_reference(self, cap, seed, batch_pairs, direction):
        # at K = -1 the broken grid's triangles fail for every reason, the
        # model-domain one only in the hinge pass, and share chains with live ones
        space, kappa = broken_grid(), Kappa(-1.0)
        tris = sample_triangles(space, cap=cap, seed=seed, kappa=kappa)
        ref = reference_certificate(space, tris, kappa, direction)
        failing = np.zeros(len(tris), dtype=bool)
        failing[[t for t, reason in ref.skipped if reason != "size bounds"]] = True
        live = np.ones(len(tris), dtype=bool)
        live[[t for t, _ in ref.skipped]] = False
        assume(np.intersect1d(tris.sides[failing], tris.sides[live]).size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
            cert = certify_curvature_bound(space, tris, kappa, direction)
        assert_matches_reference(cert, ref, exact=False)

    @pytest.mark.parametrize("batch_pairs", [1, 1 << 14])
    def test_worst_chain_of_a_failing_first_user_names_the_next_triangle(self, monkeypatch, batch_pairs):
        # points 0..7 on one line; tau(1, 2) = 11 puts the worst margin, -10
        # below, inside the chain 0-1-2-3 alone.  Its first user (0, 3, 6)
        # fails, its ac side overshooting; (0, 3, 7) is the next user
        monkeypatch.setattr(sampled, "_BATCH_PAIRS", batch_pairs)
        i, j = np.triu_indices(8, 1)
        tau = np.zeros((8, 8))
        tau[i, j] = j - i
        tau[1, 2] = 11.0
        space = SampledSpace(tau=tau, causal=(tau > 0) | np.eye(8, dtype=bool))
        line = Chain([0, 1, 2, 3], [0, 1, 2, 3])
        failing = SampledTriangle(0, 3, 6, line, Chain([3, 4, 5, 6], [0, 1, 2, 3]), Chain([0, 6], [0, 7]))
        live = SampledTriangle(0, 3, 7, line, Chain([3, 7], [0, 4]), Chain([0, 7], [0, 7]))
        tris = TriangleSet.of([failing, live])
        # one store entry for the shared chain, as sample_triangles builds it
        tris = TriangleSet(tris.x, tris.y, tris.z, np.where(tris.sides == 3, 0, tris.sides), tris.chains)
        cert = certify_curvature_bound(space, tris, Kappa(0.0), "below")
        assert cert.skipped == [(0, sampled._PAST_SIDE_END)]
        assert cert.witness == {"triangle": (0, 3, 7), "p": 1, "q": 2, "tau": 11.0, "tau_model": 1.0, "margin": -10.0}
        assert cert.n_pairs == 2 * (6 + 1 + 1 + (4 * 2 - 1) + (4 * 2 - 1) + (2 * 2 - 1))  # less the shared vertices
        assert_matches_reference(cert, reference_certificate(space, list(tris), Kappa(0.0), "below"), exact=True)

    @pytest.mark.parametrize("t0, t1", [(21, 26), (63, 66)])
    def test_first_user_failing_in_the_hinge_pass_names_the_next_triangle(self, t0, t1):
        # on the broken grid at K = -1, triangle t0 fails only in the hinge
        # pass (model domain) and shares its ac chain with t1, the chain's
        # only other user; a two-way tau between that chain's ends puts the
        # worst margin on every pair of them
        space, kappa = broken_grid(), Kappa(-1.0)
        tris = sample_triangles(space, cap=10_000, kappa=kappa)
        c = tris.sides[t0, 2]
        assert np.flatnonzero((tris.sides == c).any(axis=1)).tolist() == [t0, t1]
        p, q = tris.chains[c].points[[0, -1]]
        tau, causal = space.tau.copy(), space.causal.copy()
        tau[q, p], causal[q, p] = 10.0, True
        space = SampledSpace(tau=tau, causal=causal)
        cert = certify_curvature_bound(space, tris, kappa, "below")
        assert (t0, sampled._PAST_MODEL_DOMAIN) in cert.skipped
        assert cert.witness["triangle"] == (tris.x[t1], tris.y[t1], tris.z[t1])
        assert (cert.witness["p"], cert.witness["q"], cert.witness["margin"]) == (q, p, -10.0)
        assert_matches_reference(cert, reference_certificate(space, tris, kappa, "below"), exact=False)

    @pytest.mark.parametrize("within, hinge, first", [((1, 2), (2, 4), "within"), ((4, 5), (2, 4), "hinge")])
    def test_within_side_and_hinge_ties_in_one_triangle_go_by_row_major_order(self, within, hinge, first):
        # points 0..6 on one line, triangle (0, 3, 6) with sides 0-1-2-3,
        # 3-4-5-6 and 0-6 (side points 0 1 2 3 | 3 4 5 6 | 0 6).  Raising
        # tau by 10 on one within-side pair and on one ab x bc pair ties
        # their margins at -10 below; the earlier row of the pair matrix wins
        i, j = np.triu_indices(7, 1)
        tau = np.zeros((7, 7))
        tau[i, j] = j - i
        for p, q in (within, hinge):
            tau[p, q] += 10.0
        space = SampledSpace(tau=tau, causal=(tau > 0) | np.eye(7, dtype=bool))
        tri = SampledTriangle(0, 3, 6, Chain([0, 1, 2, 3], [0, 1, 2, 3]), Chain([3, 4, 5, 6], [0, 1, 2, 3]), Chain([0, 6], [0, 6]))
        cert = certify_curvature_bound(space, [tri], Kappa(0.0), "below")
        p, q = within if first == "within" else hinge
        assert cert.witness == {"triangle": (0, 3, 6), "p": p, "q": q, "tau": tau[p, q], "tau_model": q - p, "margin": -10.0}
        assert_matches_reference(cert, reference_certificate(space, [tri], Kappa(0.0), "below"), exact=True)

    def test_bench_tripod_memory(self):
        # tracemalloc peak of a repeated call on the bench-sized tripod
        # product: the batches bound it, whatever the triangle count
        space = bench_space("tripod")
        tris = sample_triangles(space, cap=20_000, seed=1)
        certify_curvature_bound(space, tris, Kappa(0.0), "below")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            certify_curvature_bound(space, tris, Kappa(0.0), "below")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5.5e6


def certificate_pin(cert):
    """A Certificate as exact plain data: floats by float.hex(), every
    skip by index and reason category plus a digest of the reasons' text."""
    floats = ("max_violation", "max_slack", "side_step")
    pin = {"passed": cert.passed, "n_triangles": cert.n_triangles, "n_pairs": cert.n_pairs}
    pin |= {name: float.hex(getattr(cert, name)) for name in floats}
    pin["chronology_mismatches"] = cert.chronology_mismatches
    w = cert.witness
    pin["witness"] = w and {k: float.hex(v) if isinstance(v, float) else v for k, v in w.items()}
    pin["skipped"] = {
        "model domain": [t for t, r in cert.skipped if r == sampled._PAST_MODEL_DOMAIN],
        "side end": [t for t, r in cert.skipped if r == sampled._PAST_SIDE_END],
        "size bounds": [t for t, r in cert.skipped if r == "size bounds"],
        "unrealizable": [t for t, r in cert.skipped if r.startswith("sides not realizable")],
        "sha256": hashlib.sha256(repr(cert.skipped).encode()).hexdigest()[:16],
    }
    return pin


def pinned_runs():
    """The certification runs that PINNED_EXACT holds, by name."""
    runs = {}
    fan = {"phi": 0.5, "horizons": [3.0, -3.0], "points": 24}  # `gen desitter-sample --fan-phi 0.5`
    space = desitter_sample(12, 25, 3.0, fan)[0]
    tris = sample_triangles(space, cap=20_000, seed=0, kappa=Kappa(1.0))
    for direction in ("above", "below"):
        runs[f"desitter-fan-{direction}-k+1"] = certify_curvature_bound(space, tris, Kappa(1.0), direction)
    space = broken_grid()
    tris = sample_triangles(space, cap=10_000, seed=0, kappa=Kappa(-1.0))
    for direction in ("above", "below"):
        runs[f"broken-{direction}-k-1"] = certify_curvature_bound(space, tris, Kappa(-1.0), direction)
    space = bench_space("tripod")
    tris = sample_triangles(space, cap=20_000, seed=1)
    runs["tripod-below-k0"] = certify_curvature_bound(space, tris, Kappa(0.0), "below")
    return runs


# Whole certificates, bit for bit (see certificate_pin and the test below).
_NO_SKIPS = {"model domain": [], "side end": [], "size bounds": [], "unrealizable": [], "sha256": "4f53cda18c2baa0c"}
_BROKEN_SKIPS = {
    "model domain": [4, 21, 63, 79],
    "side end": [6, 112],
    "size bounds": [],
    "unrealizable": [
        0, 1, 3, 5, 8, 9, 10, 11, 14, 17, 20, 23, 24, 25, 28, 33, 34, 36, 38, 39, 41, 42,
        43, 68, 70, 71, 73, 74, 82, 84, 85, 88, 91, 94, 96, 97, 98, 100, 101, 107, 124, 127, 131, 134,
    ],
    "sha256": "e8562a950f2768c9",
}
PINNED_EXACT = {
    "desitter-fan-above-k+1": {
        "passed": False, "n_triangles": 20000, "n_pairs": 3176728,
        "max_violation": "-0x1.44183a9bb8f20p-9", "max_slack": "0x1.44183a9bb8f20p-9", "side_step": "0x1.7b8a24ca1bd66p+2",
        "chronology_mismatches": 0,
        "witness": {
            "triangle": (345, 304, 18), "p": 13, "q": 304,
            "tau": "0x1.1eb5e99255f6ep-4", "tau_model": "0x1.28d6ab6733be7p-4", "margin": "-0x1.44183a9bb8f20p-9",
        },
        "skipped": _NO_SKIPS,
    },
    "desitter-fan-below-k+1": {
        "passed": False, "n_triangles": 20000, "n_pairs": 3176728,
        "max_violation": "-0x1.4a1bbab26c480p-10", "max_slack": "0x1.44183a9bb8f20p-9", "side_step": "0x1.7b8a24ca1bd66p+2",
        "chronology_mismatches": 0,
        "witness": {
            "triangle": (253, 306, 320), "p": 287, "q": 306,
            "tau": "0x1.d4a9719659de4p-3", "tau_model": "0x1.d2153a20f505bp-3", "margin": "-0x1.4a1bbab26c480p-10",
        },
        "skipped": _NO_SKIPS,
    },
    "broken-above-k-1": {
        "passed": False, "n_triangles": 96, "n_pairs": 2998,
        "max_violation": "-0x1.9999999999998p-2", "max_slack": "0x1.0000000000000p+0", "side_step": "0x1.6a09e667f3bcdp+1",
        "chronology_mismatches": 0,
        "witness": {
            "triangle": (2, 14, 20), "p": 8, "q": 20,
            "tau": "0x1.999999999999ap+0", "tau_model": "0x1.0000000000000p+1", "margin": "-0x1.9999999999998p-2",
        },
        "skipped": _BROKEN_SKIPS,
    },
    "broken-below-k-1": {
        "passed": False, "n_triangles": 96, "n_pairs": 2998,
        "max_violation": "-0x1.0000000000000p+0", "max_slack": "0x1.0000000000000p+0", "side_step": "0x1.6a09e667f3bcdp+1",
        "chronology_mismatches": 0,
        "witness": {
            "triangle": (4, 10, 22), "p": 10, "q": 16,
            "tau": "0x1.0000000000000p+0", "tau_model": "0x0.0p+0", "margin": "-0x1.0000000000000p+0",
        },
        "skipped": _BROKEN_SKIPS,
    },
    "tripod-below-k0": {
        "passed": False, "n_triangles": 20000, "n_pairs": 6208106,
        "max_violation": "-0x1.1e3779b97f4a8p+0", "max_slack": "0x1.1e3779b97f4a8p+0", "side_step": "0x1.feffbfdfebf1fp+3",
        "chronology_mismatches": 0,
        "witness": {
            "triangle": (75, 53, 124), "p": 17, "q": 53,
            "tau": "0x1.1e3779b97f4a8p+0", "tau_model": "0x0.0p+0", "margin": "-0x1.1e3779b97f4a8p+0",
        },
        "skipped": _NO_SKIPS,
    },
}


def test_certificates_pinned_bit_for_bit():
    """Whole certificates at K = +1, -1 and 0 keep every bit.

    The de Sitter fan at K = +1 FAILs both directions on margins of -2.5e-3
    and -1.3e-3, a false FAIL: the per-pair rounding of the curved
    comparison is not yet bounded, and bounding it changes these two pins
    on purpose.  The broken grid at K = -1 skips triangles for every domain
    reason.  The tripod is the bench's, at seed 1.
    """
    runs = pinned_runs()
    assert set(runs) == set(PINNED_EXACT)
    for name, cert in runs.items():
        assert certificate_pin(cert) == PINNED_EXACT[name], name


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
            M = reference_comparison_matrix(K_FLAT, lengths, params)
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
            M1 = reference_comparison_matrix(Kappa(1.0), lengths, params)
            for i, p in enumerate(qpts):
                for j, q in enumerate(qpts):
                    worst_ds = max(worst_ds, abs(M1[i, j] - self._signed(*ds_tau(p, q))))
        assert worst_flat <= 1e-12
        assert worst_ds <= 1e-9


def reference_geodesic(space, x, y, geo_tol=DEFAULT_GEO_TOL):
    """One pair's greedy walk, the reference that _geodesics is held to."""
    tau = space.tau
    target = float(tau[x, y])
    if target <= 0.0:
        raise NotChronological(f"tau({x},{y}) = {target}; no future-directed geodesic")
    through = tau[x, :] + tau[:, y]
    on_geo = (tau[x, :] > 0) & (tau[:, y] > 0) & (through >= target - scaled(geo_tol, target))
    pts = [int(x)]
    params = [0.0]
    cur = int(x)
    acc = 0.0
    candidates = np.flatnonzero(on_geo)
    candidates = candidates[np.lexsort((candidates, tau[x, candidates]))]
    while cur != y:
        step_tau = tau[cur, candidates]
        ok = (step_tau > 0) & (tau[x, candidates] > tau[x, cur]) & (
            tau[x, cur] + step_tau >= tau[x, candidates] - scaled(geo_tol, target)
        )
        nxt = candidates[ok]
        v = int(nxt[0]) if nxt.size else int(y)
        acc += float(tau[cur, v])
        pts.append(v)
        params.append(acc)
        if v == y:
            break
        cur = v
    return Chain(np.array(pts), np.array(params), deficit=target - acc)


def reference_sample_triangles(space, cap=20_000, seed=0, kappa=Kappa(0.0)):
    """sample_triangles as one loop that extracts each admitted triangle's
    sides as it goes (memoized per pair) and draws x with rng.choice."""
    kappa = Kappa.of(kappa)
    tau = space.tau
    n = space.n
    chron = tau > 0
    futures = [np.flatnonzero(chron[i]) for i in range(n)]
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        fi = futures[i]
        if fi.size:  # triples i << y << z inside the size bound
            counts[i] = int(chron[np.ix_(fi, fi)][:, tau[i, fi] < kappa.dk].sum())
    cache = {}

    def side(a, b):
        if (a, b) not in cache:
            cache[a, b] = reference_geodesic(space, a, b)
        return cache[a, b]

    def admit(x, y, z):
        if tau[x, z] < kappa.dk:
            triangles.append(SampledTriangle(x, y, z, side(x, y), side(y, z), side(x, z)))

    triangles = []
    if int(counts.sum()) <= cap:
        for x in range(n):
            for y in futures[x]:
                for z in futures[x][chron[y, futures[x]]]:
                    admit(x, int(y), int(z))
        return triangles
    rng = np.random.default_rng(seed)
    seen = set()
    xs = np.flatnonzero(counts > 0)
    attempts = 0
    while len(triangles) < cap and attempts < 50 * cap:
        attempts += 1
        x = int(xs[attempts % xs.size]) if attempts % 2 else int(rng.choice(xs))
        fx = futures[x]
        y = int(fx[rng.integers(fx.size)])
        zs = fx[chron[y, fx]]
        if not zs.size:
            continue
        z = int(zs[rng.integers(zs.size)])
        if (x, y, z) in seen:
            continue
        seen.add((x, y, z))
        admit(x, y, z)
    return triangles


def assert_same_chain(got, want):
    """Bit-equal points, params and deficit."""
    assert got.points.dtype == want.points.dtype and np.array_equal(got.points, want.points)
    assert got.params.dtype == want.params.dtype and got.params.tobytes() == want.params.tobytes()
    assert type(got.deficit) is type(want.deficit)
    assert np.float64(got.deficit).tobytes() == np.float64(want.deficit).tobytes()


def reference_triangle_triples(tau, cap, seed, kappa) -> list:
    """_triangle_triples with one Generator.integers call per choice.

    The draw in sampled reads the PCG64 words itself; it is held to this
    loop triple for triple, so a numpy release that changes the stream of
    Generator.integers fails here instead of changing certificates.
    """
    n = tau.shape[0]
    chron = tau > 0
    futures = [np.flatnonzero(chron[i]) for i in range(n)]
    # triples x << y << z inside the size bound, per x; H @ H is exact in
    # float32 while n < 2**24
    h = chron.astype(np.float32)
    counts = ((h @ h) * (chron & (tau < kappa.dk))).sum(axis=1, dtype=np.float64).astype(np.int64)
    triples = []
    if int(counts.sum()) <= cap:
        for x in range(n):
            fx = futures[x]
            yy, zz = np.nonzero(chron[np.ix_(fx, fx)])
            y, z = fx[yy], fx[zz]
            keep = tau[x, z] < kappa.dk
            triples += zip([x] * int(keep.sum()), y[keep].tolist(), z[keep].tolist())
        return triples

    rng = np.random.default_rng(seed)
    seen = set()
    xs = np.flatnonzero(counts > 0)
    attempts = 0
    max_attempts = 50 * cap
    while len(triples) < cap and attempts < max_attempts:
        attempts += 1
        x = int(xs[attempts % xs.size]) if attempts % 2 else int(xs[rng.integers(xs.size)])
        fx = futures[x]
        y = int(fx[rng.integers(fx.size)])
        zs = fx[chron[y, fx]]
        if not zs.size:
            continue
        z = int(zs[rng.integers(zs.size)])
        key = (x * n + y) * n + z
        if key in seen:
            continue
        seen.add(key)
        if tau[x, z] < kappa.dk:
            triples.append((x, y, z))
    return triples



def drawn(tau, cap, seed, kappa) -> list:
    """_triangle_triples as a list of (x, y, z) tuples of ints."""
    return list(zip(*(a.tolist() for a in sampled._triangle_triples(tau, cap, seed, kappa))))


def scalar_words(seed):
    """The words sampled._window hands out for seed's stream, one Python
    int at a time."""
    bit_generator = np.random.default_rng(seed).bit_generator
    while True:
        yield from sampled._window(bit_generator).tolist()


def scalar_bounded(words, h):
    """Generator.integers(h) for 1 <= h <= 2**32, read from scalar_words.

    numpy's rule (Lemire's multiply-shift with rejection): m = u * h for a
    word u, drawn again while the low half of m is below (2**32 - h) % h;
    the draw is m >> 32.  A range of one consumes no word.
    """
    if h == 1:
        return 0
    threshold = (2**32 - h) % h
    while True:
        m = next(words) * h
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32


def scalar_triangle_triples(tau, cap, seed, kappa) -> list:
    """The draw path of _triangle_triples as one Python loop over the scalar
    rule, reading scalar_words: the loop the draw ran before it walked
    windows of words.  It reads whatever sampled._window hands out, so a
    test that patches the words holds the draw to it."""
    n = tau.shape[0]
    chron = tau > 0
    futures = [np.flatnonzero(row) for row in chron]
    h = chron.astype(np.float32)
    hh = h @ h
    counts = (hh * (chron & (tau < kappa.dk))).sum(axis=1, dtype=np.float64).astype(np.int64)
    assert int(counts.sum()) > cap, "the enumeration path draws nothing"
    words = scalar_words(seed)
    triples, seen = [], set()
    xs = np.flatnonzero(counts > 0).tolist()
    attempts = 0
    while len(triples) < cap and attempts < 50 * cap:
        attempts += 1
        x = xs[attempts % len(xs)] if attempts % 2 else xs[scalar_bounded(words, len(xs))]
        fx = futures[x]
        y = int(fx[scalar_bounded(words, fx.size)])
        zs = fx[chron[y, fx]]
        if not zs.size:
            continue
        z = int(zs[scalar_bounded(words, zs.size)])
        if (x, y, z) in seen:
            continue
        seen.add((x, y, z))
        if tau[x, z] < kappa.dk:
            triples.append((x, y, z))
    return triples


def zeroed(window, every):
    """sampled._window with every word divisible by every set to 0, which
    each range that is not a power of two rejects."""

    def patched(bit_generator):
        words = window(bit_generator)
        words[words % every == 0] = 0
        return words

    return patched

def triple_count(tau, kappa):
    """Number of triples x << y << z with tau(x, z) inside the size bound."""
    chron = tau > 0
    return sum(
        np.count_nonzero(chron[np.ix_(f, f)][:, tau[x, f] < kappa.dk])
        for x, f in enumerate(np.flatnonzero(row) for row in chron)
    )


@functools.cache
def cleared_grid():
    """The small grid with a tenth of its chronological tau entries set to
    zero: x << y << z no longer gives x << z, so its chronology is not
    transitive."""
    grid = small_space("grid")
    tau = grid.tau.copy()
    ii, jj = np.nonzero(tau > 0)
    pick = np.random.default_rng(3).random(len(ii)) < 0.1
    tau[ii[pick], jj[pick]] = 0.0
    return SampledSpace(tau=tau, causal=grid.causal.copy())


@functools.cache
def oracle_space(name, scaled_frac, seed):
    """A small grid, de Sitter, tripod or sphere-product space with a
    fraction of its chronological tau entries scaled by 0.7-1.3 so that
    chains fall short (deficit != 0) or jump straight to their end."""
    if name == "sphere":
        space = product_fixture("sphere-sample", step=0.5, window=2.0)[0]
    else:
        space = small_space(name)
    if not scaled_frac:
        return space
    rng = np.random.default_rng(seed)
    tau = space.tau.copy()
    ii, jj = np.nonzero(tau > 0)
    pick = rng.random(len(ii)) < scaled_frac
    tau[ii[pick], jj[pick]] *= rng.uniform(0.7, 1.3, int(pick.sum()))
    return SampledSpace(tau=tau, causal=space.causal.copy())


ORACLE_SPACES = st.tuples(
    st.sampled_from(["grid", "desitter", "tripod", "sphere"]),
    st.sampled_from([0.0, 0.05, 0.3]),
    st.integers(0, 3),
)


class TestBatchedGeodesics:
    @pytest.mark.parametrize("chunk", [1, 7, 128])
    @pytest.mark.parametrize("name", ["grid", "desitter", "tripod", "sphere"])
    @pytest.mark.parametrize("scaled_frac", [0.0, 0.3])
    def test_every_pair_matches_reference_walk(self, monkeypatch, chunk, name, scaled_frac):
        monkeypatch.setattr(sampled, "_GEODESIC_CHUNK", chunk)
        space = oracle_space(name, scaled_frac, 0)
        xs, ys = np.nonzero(space.tau > 0)
        chains = sampled._geodesics(space, xs, ys)
        assert len(chains) == len(xs)
        # A chain holds at most its two ends and every candidate.  On the flat
        # grid each candidate is taken, so the walk fills every slot; on the
        # scaled tripod some are skipped, so the slots are compacted.
        branch = {("grid", 0.0): (307, 307), ("tripod", 0.3): (1610, 970)}.get((name, scaled_frac))
        if branch:
            tau, target = space.tau, space.tau[xs, ys]
            from_x, to_y = tau[xs, :], tau[:, ys].T
            low = target - scaled(DEFAULT_GEO_TOL, target)
            on_geo = (from_x > 0) & (to_y > 0) & (from_x + to_y >= low[:, None])
            assert (int(on_geo.sum()), len(chains.points) - 2 * len(chains)) == branch
        deficits = 0
        for x, y, chain in zip(xs, ys, chains):
            want = reference_geodesic(space, x, y)
            assert_same_chain(chain, want)
            deficits += want.deficit != 0.0
        if scaled_frac:
            assert deficits > 0

    def test_no_pairs_give_an_empty_store(self):
        chains = sampled._geodesics(small_space("grid"), [], [])
        assert len(chains) == 0 and list(chains) == []
        assert chains.points.dtype == np.int64 and chains.points.size == 0
        assert chains.params.dtype == np.float64 and chains.params.size == 0
        assert chains.deficits.dtype == np.float64 and chains.deficits.size == 0
        assert chains.offsets.tolist() == [0]
        assert chains.flagged().size == 0

    @settings(max_examples=30, deadline=None)
    @given(
        spec=ORACLE_SPACES,
        cap=st.integers(1, 1500) | st.just(10_000),
        seed=st.integers(0, 2**16),
        k=st.sampled_from([-1.0, 0.0, 1.0]),
    )
    def test_sample_triangles_matches_reference(self, spec, cap, seed, k):
        space = oracle_space(*spec)
        got = sample_triangles(space, cap=cap, seed=seed, kappa=Kappa(k))
        want = reference_sample_triangles(space, cap=cap, seed=seed, kappa=Kappa(k))
        assert [(t.x, t.y, t.z) for t in got] == [(t.x, t.y, t.z) for t in want]
        for a, b in zip(got, want):
            for side in ("side_xy", "side_yz", "side_xz"):
                assert_same_chain(getattr(a, side), getattr(b, side))

    @pytest.mark.parametrize("name", ["grid", "desitter", "tripod", "sphere"])
    def test_triangle_set_views_match_reference(self, name):
        space = oracle_space(name, 0.3, 1)
        got = sample_triangles(space, cap=400, seed=6)
        want = reference_sample_triangles(space, cap=400, seed=6)
        assert len(got) == len(want) > 0
        assert len(got.chains) == len({(t.x, t.y) for t in want} | {(t.y, t.z) for t in want} | {(t.x, t.z) for t in want})
        for t in range(-len(got), len(got)):
            a, b = got[t], want[t]
            assert (a.x, a.y, a.z) == (b.x, b.y, b.z) and type(a.x) is int
            for side in ("side_xy", "side_yz", "side_xz"):
                assert_same_chain(getattr(a, side), getattr(b, side))
                assert type(getattr(a, side).deficit) is float
        with pytest.raises(IndexError):
            got[len(got)]

    def test_size_bound_and_enumeration_paths(self):
        # K = -1 drops every triple whose longest side reaches pi; 187 of the
        # grid's 1409 triples are left, enumerated at a cap of 200 and drawn at 100
        space = small_space("grid")
        for cap in (200, 100):
            got = sample_triangles(space, cap=cap, seed=5, kappa=Kappa(-1.0))
            want = reference_sample_triangles(space, cap=cap, seed=5, kappa=Kappa(-1.0))
            assert got and all(space.tau[t.x, t.z] < math.pi for t in got)
            assert [(t.x, t.y, t.z) for t in got] == [(t.x, t.y, t.z) for t in want]
        assert len(sample_triangles(space, cap=200, kappa=Kappa(-1.0))) == 187
        assert len(sample_triangles(space, cap=2000)) == 1409

    def test_size_bound_counts_before_the_cap(self):
        """At K = -1 the 21x21 grid has 2,595 triples inside the size bound
        among 1.62 M; at the default cap they are all enumerated, not drawn."""
        space = minkowski_grid(21, 21, 1.0)
        got = sample_triangles(space, kappa=Kappa(-1.0))
        chron = space.tau > 0
        want = [
            (x, y, z)
            for x in range(space.n)
            for y in np.flatnonzero(chron[x]).tolist()
            for z in np.flatnonzero(chron[x] & chron[y] & (space.tau[x] < math.pi)).tolist()
        ]
        assert [(t.x, t.y, t.z) for t in got] == want
        assert len(got) == 2595

    def test_rounded_away_step_raises(self):
        # 1e17 + 1.0 rounds back to 1e17, so the chain 0 -> 1 -> 2 repeats a parameter
        tau = np.array([[0.0, 1e17, 1e17], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        space = SampledSpace(tau=tau, causal=(tau > 0) | np.eye(3, dtype=bool))
        with pytest.raises(ShapeError):
            reference_geodesic(space, 0, 2)
        with pytest.raises(ShapeError):
            geodesic_between(space, 0, 2)
        with pytest.raises(ShapeError):
            sample_triangles(space)


@functools.cache
def bench_space(name):
    if name == "grid21":
        return minkowski_grid(21, 21, 1.0)
    return product_fixture("tripod", step=0.5, window=8.0)[0]


def chain4():
    """Four points in one chronological chain: 0 << 1 << 2 << 3."""
    i, j = np.triu_indices(4, 1)
    tau = np.zeros((4, 4))
    tau[i, j] = j - i
    return tau


class TestTriangleDraw:
    """_triangle_triples against reference_triangle_triples on the draw path."""

    @settings(max_examples=60, deadline=None)
    @given(
        ranges=st.lists(
            st.integers(1, 8) | st.integers(1, 2**32) | st.integers(2**31, 2**31 + 2**29), max_size=3000
        ),
        seed=st.integers(0, 2**16),
    )
    def test_bounded_matches_generator_integers(self, ranges, seed):
        # ranges just above 2**31 reject about half of their words
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(h)) for h in ranges]
        words = scalar_words(seed)
        assert [scalar_bounded(words, h) for h in ranges] == want
        # the array rule, one word at a time: a draw is the first accepted
        # word after the previous draw's, and a range of one reads none
        words = scalar_words(seed)
        got, read, flags = [], [], []
        for h in ranges:
            draw, accepted = 0, h == 1
            while not accepted:
                read.append((next(words), h))
                draw, accepted = (v.item() for v in sampled._bounded_arr(np.uint64(read[-1][0]), np.uint64(h)))
                flags.append(accepted)
            got.append(draw)
        assert got == want
        # and the same rule on all those words in one call
        u = np.array([word for word, _ in read], dtype=np.uint64)
        draws, accepted = sampled._bounded_arr(u, np.array([h for _, h in read], dtype=np.uint64))
        assert draws.dtype == np.int64 and accepted.tolist() == flags
        assert draws[accepted].tolist() == [d for d, h in zip(want, ranges) if h > 1]

    @settings(max_examples=60, deadline=None)
    @given(
        spec=ORACLE_SPACES,
        cap=st.integers(1, 400),
        seed=st.integers(0, 2**16),
        k=st.sampled_from([-1.0, 0.0, 1.0]),
    )
    def test_draw_matches_reference(self, spec, cap, seed, k):
        tau = oracle_space(*spec).tau
        cap = min(cap, triple_count(tau, Kappa(k)) - 1)  # fewer than all: the draw path
        got = drawn(tau, cap, seed, Kappa(k))
        assert got == reference_triangle_triples(tau, cap, seed, Kappa(k))

    @settings(max_examples=20, deadline=None)
    @given(
        spec=ORACLE_SPACES,
        cap=st.integers(1, 200),
        seed=st.integers(0, 2**16),
        k=st.sampled_from([-1.0, 0.0, 1.0]),
        window=st.sampled_from([1, 3, 64]),
    )
    def test_window_size_does_not_change_the_triples(self, spec, cap, seed, k, window):
        # a window of one output holds two words, fewer than one attempt
        # may read, so attempts straddle windows
        tau = oracle_space(*spec).tau
        cap = min(cap, triple_count(tau, Kappa(k)) - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampled, "_WINDOW", window)
            assert drawn(tau, cap, seed, Kappa(k)) == reference_triangle_triples(tau, cap, seed, Kappa(k))

    @settings(max_examples=30, deadline=None)
    @given(
        spec=ORACLE_SPACES,
        cap=st.integers(1, 300),
        seed=st.integers(0, 2**16),
        k=st.sampled_from([-1.0, 0.0, 1.0]),
        every=st.sampled_from([2, 5, 31]),
        window=st.sampled_from([1, 3, 64, 4096]),
    )
    def test_rejected_words_are_dropped(self, spec, cap, seed, k, every, window):
        tau = oracle_space(*spec).tau
        cap = min(cap, triple_count(tau, Kappa(k)) - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampled, "_WINDOW", window)
            mp.setattr(sampled, "_window", zeroed(sampled._window, every))
            assert drawn(tau, cap, seed, Kappa(k)) == scalar_triangle_triples(tau, cap, seed, Kappa(k))

    @pytest.mark.parametrize("name, every", [("grid21", 7), ("tripod", 2)])
    def test_bench_scale_rejected_words_are_dropped(self, monkeypatch, name, every):
        # each batch is cut at its first rejected word; record which
        # attempt read it and for which of its draws
        cuts = []
        attempts = sampled._Draw.attempts

        def observed(self, starts, first):
            x, y, z, rejected = attempts(self, starts, first)
            cut = np.flatnonzero(rejected >= 0)
            if cut.size:
                t = int(cut[0])
                a = first + t
                # even attempts read x's word first; y reads one when |F(x)| > 1
                offset = rejected[t] - starts[t] - (a % 2 == 0)
                cuts.append((a, "x" if offset < 0 else "y" if offset == 0 and self.sizes[x[t]] > 1 else "z"))
            return x, y, z, rejected

        monkeypatch.setattr(sampled._Draw, "attempts", observed)
        monkeypatch.setattr(sampled, "_window", zeroed(sampled._window, every))
        tau = bench_space(name).tau
        want = scalar_triangle_triples(tau, 3000, 5, Kappa(0.0))
        assert drawn(tau, 3000, 5, Kappa(0.0)) == want
        assert len(want) == 3000
        hits = {"grid21": {"x": 318, "y": 535, "z": 272}, "tripod": {"x": 2020, "y": 3695, "z": 2409}}[name]
        assert collections.Counter(draw for _, draw in cuts) == hits
        # in attempt order; an attempt rejects again from the word after
        assert cuts == sorted(cuts)
        assert any(a == b for (a, _), (b, _) in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", ["grid21", "tripod"])
    def test_bench_scale_draw_matches_reference(self, name, seed):
        # K = 0 and K = 1 share the size bound (dk = inf), so one reference
        # draw serves both
        tau = bench_space(name).tau
        want = reference_triangle_triples(tau, 20_000, seed, Kappa(0.0))
        assert len(want) == 20_000
        for k in (0.0, 1.0):
            assert drawn(tau, 20_000, seed, Kappa(k)) == want

    @pytest.mark.parametrize("cap", [5000, 300])
    def test_non_transitive_chronology_raises_with_a_witness(self, cap):
        # the cleared grid's 1,030 triples are enumerated at cap 5000 and drawn at 300
        tau = cleared_grid().tau
        with pytest.raises(ShapeError) as raised:
            sample_triangles(cleared_grid(), cap=cap)
        message = r"chronology is not transitive: (\d+) << (\d+) << (\d+) but not (\d+) << (\d+); run lorentzgeo axioms"
        x, y, z, x2, z2 = map(int, re.fullmatch(message, str(raised.value)).groups())
        assert (x2, z2) == (x, z)
        assert tau[x, y] > 0 and tau[y, z] > 0 and tau[x, z] == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_range_of_one_consumes_no_word(self, monkeypatch, seed):
        # from x = 0 or 1, y = 2 leaves z = 3 alone; later draws read on
        tau = chain4()
        seen = []
        attempts = sampled._Draw.attempts

        def observed(self, starts, first):
            seen.append((list(starts), first, attempts(self, starts, first)))
            return seen[-1][2]

        monkeypatch.setattr(sampled._Draw, "attempts", observed)
        got = drawn(tau, 2, seed, Kappa(0.0))
        assert got == reference_triangle_triples(tau, 2, seed, Kappa(0.0))
        # the attempts' z ranges |F(y)| = 3 - y, and the words each reads:
        # the even ones draw x from two points, every one draws y from
        # |F(x)| = 3 - x > 1 and z only from a range above one
        ((starts, first, (x, y, z, rejected)),) = seen
        assert (rejected < 0).all()
        ranges = (3 - y).tolist()
        assert 1 in ranges[:-1]
        reads = (np.arange(first, first + len(starts)) % 2 == 0) + 1 + (3 - y > 1)
        assert np.diff(starts).tolist() == reads[:-1].tolist()

    def test_one_point_with_triples(self):
        # 0 << 1, 2, 3 and 1 << 2, 3: only x = 0 has triples, (0, 1, 2) and
        # (0, 1, 3), so every x is 0 and the even attempts read no word for it
        tau = np.zeros((4, 4))
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]:
            tau[i, j] = j - i
        for seed in range(12):
            got = drawn(tau, 1, seed, Kappa(0.0))
            assert got == reference_triangle_triples(tau, 1, seed, Kappa(0.0))
            assert got in ([(0, 1, 2)], [(0, 1, 3)])

    @pytest.mark.parametrize("panel", [1, 7])
    @pytest.mark.parametrize("cap", [150, 5000])
    @pytest.mark.parametrize("name", ["cleared", "tripod"])
    def test_panel_size_does_not_change_the_triples(self, monkeypatch, name, cap, panel):
        # cap 150 takes the draw path, 5000 enumerates; the cleared grid's
        # count pass finds the same first witness at every panel size
        if name == "cleared":
            tau = cleared_grid().tau
            with pytest.raises(ShapeError) as whole:
                drawn(tau, cap, 2, Kappa(0.0))
            monkeypatch.setattr(sampled, "_PANEL", panel)
            with pytest.raises(ShapeError, match=f"^{re.escape(str(whole.value))}$"):
                drawn(tau, cap, 2, Kappa(0.0))
            return
        monkeypatch.setattr(sampled, "_PANEL", panel)
        tau = oracle_space(name, 0.0, 0).tau
        assert drawn(tau, cap, 2, Kappa(0.0)) == reference_triangle_triples(tau, cap, 2, Kappa(0.0))

    def test_stops_at_max_attempts(self):
        # 187 of the small grid's 1409 triples lie inside the K = -1 bound;
        # 50 * 180 attempts find 143 of them at seed 1
        tau = small_space("grid").tau
        got = drawn(tau, 180, 1, Kappa(-1.0))
        assert got == reference_triangle_triples(tau, 180, 1, Kappa(-1.0))
        assert len(got) == 143

    def test_returns_int64_arrays(self):
        tau = small_space("grid").tau
        for cap in (100, 2000):  # the draw path, then the enumeration
            triples = sampled._triangle_triples(tau, cap, 0, Kappa(0.0))
            assert len(triples) == 3 and all(a.dtype == np.int64 and a.ndim == 1 for a in triples)
        assert all(a.size == 0 for a in sampled._triangle_triples(tau, 10, 0, Kappa(-100.0)))

    def test_bench_grid_draw_memory(self):
        # tracemalloc peak of a repeated draw of 20,000 triples on the
        # bench's 21x21 grid: the futures are one int32 CSR, the seen keys
        # one sorted int64 array and the triples int64 arrays
        tau = bench_space("grid21").tau
        sampled._triangle_triples(tau, 20_000, 1, Kappa(0.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert len(sampled._triangle_triples(tau, 20_000, 1, Kappa(0.0))[0]) == 20_000
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20


class TestTriangleSampling:
    def test_exhaustive_below_cap(self, chain3):
        tris = sample_triangles(chain3, cap=100)
        assert len(tris) == 1
        assert (tris[0].x, tris[0].y, tris[0].z) == (0, 1, 2)

    def test_deterministic(self, grid11):
        a = sample_triangles(grid11, cap=200, seed=9)
        b = sample_triangles(grid11, cap=200, seed=9)
        assert [(t.x, t.y, t.z) for t in a] == [(t.x, t.y, t.z) for t in b]

    def test_egrid_memory(self):
        # tracemalloc peak of a repeated call on the 1,625-point euclid-grid
        # product of the split benchmark: the draw counts its triples with
        # H @ H in row panels, so no n x n float32 matrix is held
        space = product_fixture("euclid-grid", step=0.25, window=8.0, m=5)[0]
        sample_triangles(space, cap=2000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert len(sample_triangles(space, cap=2000)) == 2000
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 14e6
