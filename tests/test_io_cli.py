import argparse
import ast
import base64
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lorentzgeo
from lorentzgeo import cli
from lorentzgeo import io as lgio
from lorentzgeo.cli import main
from lorentzgeo.errors import GeodesicDeficit, NoSeries, ShapeError
from lorentzgeo.fixtures import _BASES, base_pair, base_point, minkowski_grid, product_fixture
from lorentzgeo.io import (
    PAYLOADS,
    deterministic_view,
    doc_to_bytes,
    emit_plotdata,
    file_digest,
    fixture_to_dict,
    load_fixture,
    load_report,
    make_report,
    save_fixture,
)
from lorentzgeo.parallels import LineSample
from lorentzgeo.modelspace import Kappa
from lorentzgeo.sampled import SampledSpace, certify_curvature_bound, sample_triangles
from lorentzgeo.splitting import build_product, verify_embedding
from lorentzgeo.tolerances import DEFAULT_CERT_TOL


@pytest.fixture(scope="module")
def egrid_file(tmp_path_factory):
    """The bench's 1625-point euclid-grid product fixture, a 7.9 MiB file."""
    path = tmp_path_factory.mktemp("egrid") / "egrid.json"
    argv = ["gen", "product", "--base", "euclid-grid", "--m", "5", "--step", "0.25", "--window", "8"]
    assert main([*argv, "-o", str(path)]) == 0
    return path


class TestFixtureIO:
    def test_round_trip_identity(self, tmp_path):
        space, lines = build_product(base_pair(1.5), np.arange(-2.0, 2.5, 0.5))
        path = tmp_path / "f.json"
        save_fixture(path, space, lines, base_pair(1.5), {"note": 1})
        space2, lines2, base2, meta2, sha256 = load_fixture(path)
        assert sha256 == file_digest(path)
        assert np.array_equal(space2.tau, space.tau)
        assert np.array_equal(space2.causal, space.causal)
        assert len(lines2) == len(lines)
        assert np.array_equal(lines2[0].points, lines[0].points)
        assert lines2[0].step == lines[0].step
        assert np.array_equal(base2.dist, base_pair(1.5).dist)
        assert meta2 == {"note": 1}
        # byte-identical on re-save
        save_fixture(tmp_path / "g.json", space2, lines2, base2, meta2)
        assert (tmp_path / "f.json").read_bytes() == (tmp_path / "g.json").read_bytes()

    def test_bad_schema_rejected(self, tmp_path):
        for version in (1, 2, 3, 99):
            with pytest.raises(ShapeError, match=f"^unsupported fixture schema {version}: re-generate it with lorentzgeo gen$"):
                load_doc(tmp_path, {"schema_version": version})

    def test_only_positive_tau_written(self, tmp_path):
        space = minkowski_grid(3, 3, 1.0)
        doc = fixture_to_dict(space)
        assert doc["schema_version"] == 4
        chron, values = unpack(doc)
        assert len(values) == chron.sum() == np.count_nonzero(space.tau)
        assert all(v > 0 for v in values)
        loaded = load_doc(tmp_path, doc).space
        assert loaded.tau.dtype == space.tau.dtype
        assert np.array_equal(loaded.tau, space.tau)
        assert np.array_equal(loaded.causal, space.causal)
        # the test helper writes new entries and overwrites old ones
        assert load_doc(tmp_path, set_tau(doc, 4, 2, 2.5)).space.tau[4, 2] == 2.5
        assert load_doc(tmp_path, set_tau(doc, 0, 1, 7.0)).space.tau[0, 1] == 7.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_compact_round_trip(self, data):
        """Schema 4 restores tau and causal bit for bit, and re-saves to the same bytes."""
        n = data.draw(st.integers(1, 6))
        order = data.draw(st.permutations(range(n)))
        value = st.sampled_from([5e-324, 1.7976931348623157e308, 0.30000000000000004, 1 / 3, 0.0, -0.0]) | st.floats(
            min_value=5e-324, allow_infinity=False
        )
        tau = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                tau[order[a], order[b]] = data.draw(value)
        extra = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
        space = SampledSpace(tau=tau, causal=(tau > 0) | np.eye(n, dtype=bool) | extra)
        assert fixture_to_dict(space)["schema_version"] == 4
        panel = data.draw(st.integers(1, 7))  # panels whose bits start inside a byte
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(lgio, "_PANEL_ROWS", panel):
            data = save_fixture(Path(tmp) / "f.json", space).read_bytes()
            loaded = load_fixture(Path(tmp) / "f.json").space
            # zeros come back as +0.0: schema 4 stores only the positive entries
            assert np.array_equal(loaded.tau.view(np.uint64), (space.tau + 0.0).view(np.uint64))
            assert np.array_equal(loaded.causal, space.causal)
            assert save_fixture(Path(tmp) / "g.json", loaded).read_bytes() == data

    def test_load_peak_memory(self, egrid_file):
        """A load reads tau's values one row panel at a time into the zeroed
        tau and never holds the file whole: its peak stays within 0.25 file
        sizes of what it returns (23.5 MiB for 22.8 MiB returned on this
        7.9 MiB file; holding the bytes while scattering took 31.0 MiB)."""
        load_fixture(egrid_file)  # imports and first-call caches fall outside the traced load
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fixture = load_fixture(egrid_file)
            retained, peak = (size - start for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert fixture.space.n == 1625
        assert peak <= retained + 0.25 * egrid_file.stat().st_size

    def test_file_is_a_header_line_then_the_payloads(self, tmp_path):
        """The first line is the JSON document without its payloads; the
        body is causal, chronological and tau, with no length fields."""
        space = minkowski_grid(3, 3, 1.0)
        path = save_fixture(tmp_path / "f.json", space)
        header, body = path.read_bytes().split(b"\n", 1)
        doc = fixture_to_dict(space)
        sp = doc["space"]
        assert json.loads(header) == {**doc, "space": {k: v for k, v in sp.items() if k not in PAYLOADS}}
        assert len(sp["causal"]) == len(sp["chronological"]) == 11  # ceil(81 / 8)
        assert len(sp["tau"]) == 8 * np.count_nonzero(space.tau)
        assert body == sp["causal"] + sp["chronological"] + sp["tau"]

    def test_unknown_top_level_keys_ignored(self, tmp_path):
        """A fixture written with the retired `chains` list, or any other
        unknown top-level key, loads as the fixture without it."""
        doc = valid_fixture()
        assert "chains" not in doc
        chains = [{"points": [0, 1, 2], "params": [0.0, 1.0, 2.0]}]
        for extra in ({"chains": []}, {"chains": chains}, {"note": [1]}):
            loaded = load_doc(tmp_path, {**doc, **extra})
            assert fixture_to_dict(*loaded[:4]) == doc

    def test_out_of_range_indices_rejected(self, tmp_path):
        space = minkowski_grid(3, 3, 1.0)
        doc = fixture_to_dict(space, [LineSample([0, 99], 0.0, 1.0)])
        with pytest.raises(ShapeError):
            load_doc(tmp_path, doc)


class TestReports:
    def test_plotdata(self, tmp_path):
        report = make_report(
            "fvf",
            {},
            {},
            [],
            {"fvf": {"columns": ["t", "q"], "rows": [[0.1, 1.0], [0.2, 1.1]]}},
        )
        paths = emit_plotdata(report, tmp_path, stem="r")
        text = paths[0].read_text()
        assert text.splitlines()[0] == "t,q"
        assert len(text.splitlines()) == 3

    def test_no_series(self, tmp_path):
        with pytest.raises(NoSeries):
            emit_plotdata(make_report("axioms", {}, {}, []), tmp_path)

    def test_deterministic_view_excludes_runtime(self):
        r1 = make_report("axioms", {}, {}, [], runtime={"seconds": 1.0})
        r2 = make_report("axioms", {}, {}, [], runtime={"seconds": 99.0})
        assert deterministic_view(r1) == deterministic_view(r2)


def subcommands(parser):
    """The subparsers of parser by name; {} for a leaf command."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


# One run per subcommand that reaches every option read the subcommand makes:
# (subcommand path, fixture of TestCli or None, flags)
OPTION_RUNS = [
    (("axioms",), "grid", []),
    (("curvature",), "grid", ["--cap", "5"]),
    (("angles",), "grid", ["--cap", "5"]),
    (("fvf",), "grid", ["--point", "0", "--vertex", "7", "--target", "35"]),
    (("rigidity",), "grid", ["--cap", "10"]),
    (("quadrangle",), "grid", ["--vertices", "3,16,45,31"]),
    (("lines",), "tripod", []),
    (("strip",), "tripod", ["--alpha", "1", "--beta", "2"]),
    (("ray",), "grid", ["--point", "0", "--horizons", "2,4,6"]),
    (("split",), "tripod", []),
    (("roundtrip",), "tripod", []),
    (("gen", "minkowski-grid"), None, ["--nt", "3", "--nx", "3"]),
    (("gen", "desitter-sample"), None, ["--n-angles", "4", "--n-times", "5", "--fan-phi", "0.5"]),
    (("gen", "product"), None, ["--base", "hyperbolic-sample", "--m", "3", "--window", "1"]),
]
# Only product's hyperbolic-sample base reads gen --seed; the other kinds
# take it too, so that one --seed can be passed to every gen.
UNREAD_OPTIONS = {("gen", "minkowski-grid"): {"seed"}, ("gen", "desitter-sample"): {"seed"}}
# The tolerance and seed flags, each with a value that is not its default
FLAG_VALUES = {"--tol-tau": "2e-07", "--tol-angle": "2e-06", "--geo-tol": "2e-07", "--seed": "1"}
# The ones each subcommand takes
KEPT_FLAGS = {
    ("axioms",): [],
    ("curvature",): ["--seed", "--geo-tol"],
    ("angles",): ["--seed", "--tol-angle", "--geo-tol"],
    ("fvf",): ["--tol-angle", "--geo-tol"],
    ("rigidity",): ["--seed", "--tol-tau", "--tol-angle", "--geo-tol"],
    ("quadrangle",): ["--tol-angle"],
    ("lines",): ["--geo-tol"],
    ("strip",): ["--tol-tau"],
    ("ray",): ["--geo-tol"],
    ("split",): ["--tol-tau", "--geo-tol"],
    ("roundtrip",): ["--tol-tau", "--geo-tol"],
    ("gen", "minkowski-grid"): ["--seed"],
    ("gen", "desitter-sample"): ["--seed"],
    ("gen", "product"): ["--seed"],
}
# The runtime stage keys each command records besides load_s, seconds and timestamp
STAGES = {
    "axioms": {"scan_s"},
    "curvature": {"sample_s", "certify_s"},
    "split": {"classes_s", "base_s", "embedding_s"},
    "roundtrip": {"classes_s", "base_s"},
}
# The payload layout of valid_fixture(), as a wrong payload length names it
LAYOUT = "does not fit its layout, two packed 3x3 masks of 2 bytes each, then 8 bytes per chronological bit:"


class TestCli:
    @pytest.fixture()
    def grid_fixture(self, tmp_path):
        path = tmp_path / "grid.json"
        code = main(["gen", "minkowski-grid", "--nt", "7", "--nx", "7", "-o", str(path)])
        assert code == 0
        return path

    @pytest.fixture()
    def tripod_fixture(self, tmp_path):
        path = tmp_path / "tripod.json"
        code = main(
            ["gen", "product", "--base", "tripod", "--step", "0.5", "--window", "5", "-o", str(path)]
        )
        assert code == 0
        return path

    @pytest.fixture()
    def nolines_fixture(self, tmp_path):
        """A product fixture with its lines list emptied."""
        path = tmp_path / "nolines.json"
        assert main(["gen", "product", "--base", "pair", "--step", "0.5", "--window", "2", "-o", str(path)]) == 0
        doc = read_doc(path)
        doc["lines"] = []
        write_doc(path, doc)
        return path

    def test_axioms_pass(self, grid_fixture):
        assert main(["axioms", str(grid_fixture)]) == 0

    def test_curvature_exit_codes(self, tripod_fixture):
        assert main(["curvature", str(tripod_fixture), "--direction", "above", "--cap", "800"]) == 0
        assert main(["curvature", str(tripod_fixture), "--direction", "below", "--cap", "800"]) == 1

    def test_roundtrip(self, tripod_fixture):
        assert main(["roundtrip", str(tripod_fixture)]) == 0
        report = load_report(tripod_fixture.with_name("tripod_roundtrip.json"))
        assert report["checks"][0]["deviation"] <= 0.5

    def test_split(self, tripod_fixture):
        assert main(["split", str(tripod_fixture)]) == 0

    @pytest.mark.parametrize("excess, status, code", [(0.0, "PASS", 0), (1e-6, "FAIL", 1)])
    def test_split_embedding_fails_beyond_its_tau_bound(self, tripod_fixture, monkeypatch, excess, status, code):
        """embedding is bounded by step + tol_tau, as roundtrip is, even where
        causality agrees everywhere."""
        tol_tau = 1e-3

        def doctored(space, classes, recovered):
            emb = verify_embedding(space, classes, recovered)
            assert emb.causal_agreement == 1.0
            return dataclasses.replace(emb, max_tau_error=recovered.step + tol_tau + excess)

        monkeypatch.setattr(cli, "verify_embedding", doctored)
        assert main(["split", str(tripod_fixture), "--tol-tau", str(tol_tau)]) == code
        checks = load_report(tripod_fixture.with_name("tripod_split.json"))["checks"]
        (embedding,) = [c for c in checks if c["name"] == "embedding"]
        assert embedding["status"] == status
        assert embedding["causal_agreement"] == 1.0
        assert embedding["max_tau_error"] == embedding["step"] + tol_tau + excess

    def test_split_base_without_midpoints_skips_cat0(self, tmp_path):
        """A base with no midpoints cannot be checked for CAT(0); the check
        is reported as SKIP, not left out."""
        path = tmp_path / "hyp.json"
        assert main(["gen", "product", "--base", "hyperbolic-sample", "-o", str(path)]) == 0
        assert not load_fixture(path).base.midpoints
        assert main(["split", str(path)]) == 0
        checks = load_report(tmp_path / "hyp_split.json")["checks"]
        assert [c["name"] for c in checks] == ["classes", "embedding", "base-cat0"]
        assert checks[2] == {"name": "base-cat0", "status": "SKIP", "reason": "base has no midpoints"}

    @pytest.mark.parametrize("doctor", ["cross-tau-scaled", "point-swapped"])
    def test_non_parallel_line_is_fail(self, tmp_path, capsys, doctor):
        """A line that is not parallel to the reference, or not a line, is a
        finding about the space: split reports one FAIL classes check and
        roundtrip one FAIL roundtrip check, both exit 1 with the reason, as
        lines does, and neither exits 2."""
        path = tmp_path / "tripod.json"
        assert main(["gen", "product", "--base", "tripod", "--step", "0.5", "--window", "8", "-o", str(path)]) == 0
        space, lines, base, meta, _ = load_fixture(path)
        if doctor == "cross-tau-scaled":
            line_of = np.empty(space.n, dtype=int)
            for k, ln in enumerate(lines):
                line_of[ln.points] = k
            cross = line_of[:, None] != line_of[None, :]
            space = SampledSpace(tau=np.where(cross, 1.05 * space.tau, space.tau), causal=space.causal, meta=space.meta)
            reason, lines_code = "base[1] cannot be synchronised to the reference", 0
        else:
            points = lines[1].points.copy()
            points[16] = lines[2].points[16]
            lines[1] = dataclasses.replace(lines[1], points=points)
            reason, lines_code = "base[1] fails the line witness: ", 1
        save_fixture(path, space, lines, base, meta)
        out = tmp_path / "r.json"
        assert main(["lines", str(path), "-o", str(out)]) == lines_code
        for command, name in (("split", "classes"), ("roundtrip", "roundtrip")):
            capsys.readouterr()
            assert main([command, str(path), "-o", str(out)]) == 1
            assert capsys.readouterr().err == ""
            (check,) = load_report(out)["checks"]
            assert check.keys() == {"name", "status", "reason"}
            assert check["name"] == name and check["status"] == "FAIL"
            assert check["reason"].startswith(reason)
            assert doctor == "point-swapped" or check["reason"] == reason

    def test_unsynchronisable_window_is_not_a_fail(self, grid_fixture, capsys):
        """On the 7x7 grid the vertical line x=5 meets the reference x=0 in
        one chronological pair, too few to fit a synchronisation: the sample
        cannot decide, so split reports one SKIP check and exits 0, never a
        FAIL and never exit 2."""
        assert main(["split", str(grid_fixture)]) == 0
        assert capsys.readouterr().err == ""
        assert load_report(grid_fixture.with_name("grid_split.json"))["checks"] == [
            {"name": "classes", "status": "SKIP", "reason": "x=5 has fewer than two chronological pairs with the reference to synchronise it"}
        ]

    def test_unsynchronisable_product_is_skip(self, tmp_path, capsys):
        """The pair product at d = 7.9 on [-4, 4] has one chronological pair
        across its two lines: split and roundtrip report one SKIP check."""
        path = tmp_path / "pair.json"
        assert main(["gen", "product", "--base", "pair", "--d", "7.9", "--step", "0.5", "--window", "4", "-o", str(path)]) == 0
        out = tmp_path / "r.json"
        for command, name in (("split", "classes"), ("roundtrip", "roundtrip")):
            capsys.readouterr()
            assert main([command, str(path), "-o", str(out)]) == 0
            assert capsys.readouterr().err == ""
            assert load_report(out)["checks"] == [
                {"name": name, "status": "SKIP", "reason": "base[1] has fewer than two chronological pairs with the reference to synchronise it"}
            ]

    def test_pair_without_a_causal_window_is_skip(self, tmp_path, capsys):
        """The pair product at d = 7.1 on [-4, 4] synchronises its two lines,
        but alpha(0) has no causal past on the other line, so dS is +inf for
        both class pairs: the embedding and the round trip cannot be decided,
        so they are SKIP with a reason naming those pairs, and exit 0."""
        path = tmp_path / "pair.json"
        assert main(["gen", "product", "--base", "pair", "--d", "7.1", "--step", "0.5", "--window", "4", "-o", str(path)]) == 0
        reason = "no causal window in the sample for class pairs (0, 1), (1, 0), so their base distance is not recovered"
        out = tmp_path / "r.json"
        assert main(["split", str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        checks = load_report(out)["checks"]
        assert checks[0] == {"name": "classes", "status": "PASS", "count": 2, "infinite_pairs": 2}
        assert checks[1] == {"name": "embedding", "status": "SKIP", "reason": reason}
        assert main(["roundtrip", str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert load_report(out)["checks"] == [{"name": "roundtrip", "status": "SKIP", "reason": reason}]

    @pytest.mark.parametrize("base, flag", [("pair", "--d"), ("tripod", "--edge")])
    @pytest.mark.parametrize("k", [-6, -3, 3, 10, 20, 50])
    def test_verdicts_do_not_depend_on_the_unit_of_time(self, tmp_path, base, flag, k):
        """A product with every length scaled by 10^k is the same geometry, so
        lines, split, roundtrip and strip give the exit codes and statuses
        they give at k = 0.  Below about 1e-6 the tolerances are absolute by
        design, and past about 1e154 squares overflow (the next test)."""

        def verdicts(scale):
            path = tmp_path / f"{base}.json"
            gen = ["gen", "product", "--base", base, flag, repr(scale), "--step", repr(0.5 * scale), "--window", repr(4 * scale)]
            assert main([*gen, "-o", str(path)]) == 0
            out = tmp_path / "r.json"
            got = []
            for command in ("lines", "split", "roundtrip", "strip"):
                code = main([command, str(path), "-o", str(out)])
                got.append((command, code, [(c["name"], c["status"]) for c in load_report(out)["checks"]]))
            return got

        assert verdicts(10.0**k) == verdicts(1.0)

    def test_lengths_too_large_to_square_exit_2(self, tmp_path, capsys):
        """A pair product whose tau, line t0 and step and base distances are
        multiplied by 1e160 has separations whose squares overflow float64:
        split, roundtrip and strip exit 2 with one line, and no float
        operation overflows or makes a NaN on the way; lines needs no square."""
        space, lines, base = product_fixture("pair", step=0.5, window=4.0)
        big = 1e160
        space = SampledSpace(tau=space.tau * big, causal=space.causal)
        lines = [dataclasses.replace(ln, t0=ln.t0 * big, step=ln.step * big) for ln in lines]
        base = dataclasses.replace(base, dist=base.dist * big)
        path = tmp_path / "big.json"
        save_fixture(path, space, lines, base)
        out = tmp_path / "r.json"
        with np.errstate(all="raise"):
            assert main(["lines", str(path), "-o", str(out)]) == 0
            for command in ("split", "roundtrip", "strip"):
                capsys.readouterr()
                assert main([command, str(path), "-o", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1 and "too large to square in float64" in err

    def test_lines_and_strip(self, tripod_fixture):
        assert main(["lines", str(tripod_fixture)]) == 0
        assert main(["strip", str(tripod_fixture), "--alpha", "1", "--beta", "2"]) == 0

    @pytest.mark.parametrize("points", [[], [9]], ids=["empty", "one-point"])
    def test_lines_without_a_pair_skip(self, tmp_path, points):
        """A line with fewer than two points compares nothing, so it is not a PASS."""
        path = tmp_path / "short.json"
        assert main(["gen", "product", "--base", "pair", "--step", "0.5", "--window", "2", "-o", str(path)]) == 0
        doc = read_doc(path)
        doc["lines"][1]["points"] = points
        write_doc(path, doc)
        assert main(["lines", str(path)]) == 0
        checks = load_report(tmp_path / "short_lines.json")["checks"]
        assert [c["status"] for c in checks] == ["PASS", "SKIP"]
        assert checks[1]["reason"] == "fewer than two points"

    def test_fvf_and_plotdata(self, grid_fixture, tmp_path):
        # p=(0,0); vertex (1,0) = 7; target (5,0) = 35
        assert main(["fvf", str(grid_fixture), "--point", "0", "--vertex", "7", "--target", "35"]) == 0
        rp = grid_fixture.with_name("grid_fvf.json")
        out = tmp_path / "csv"
        assert main(["plotdata", str(rp), "-o", str(out)]) == 0
        csvs = sorted(out.glob("*.csv"))
        assert csvs and csvs[0].read_text().startswith("t,")

    def test_angles_and_rigidity(self, grid_fixture):
        assert main(["angles", str(grid_fixture), "--cap", "10"]) == 0
        assert main(["rigidity", str(grid_fixture), "--cap", "10"]) == 0

    def test_quadrangle(self, tmp_path):
        pts = [(0.0, 0.0), (2.0, 1.0), (6.0, 1.0), (4.0, 0.0)]
        from lorentzgeo.fixtures import space_from_plane_points

        coords = list(pts)
        for a, b in [(0, 1), (0, 3), (1, 3), (1, 2), (3, 2), (0, 2)]:
            for j in range(1, 6):
                f = j / 6
                coords.append(
                    (pts[a][0] + f * (pts[b][0] - pts[a][0]), pts[a][1] + f * (pts[b][1] - pts[a][1]))
                )
        path = tmp_path / "quad.json"
        save_fixture(path, space_from_plane_points(coords))
        assert main(["quadrangle", str(path), "--vertices", "0,1,2,3"]) == 0
        (check,) = load_report(tmp_path / "quad_quadrangle.json")["checks"]
        assert abs(check["value"]) <= 1e-9
        assert check["status"] == "PASS" and check["fill_in_error"] <= 1e-9  # PASS: the fill-in ran

    def test_quadrangle_below_flat_skips(self, tmp_path):
        """Around the tripod's branch point the angle sum falls below the
        flat case, so the rigidity criterion claims nothing: SKIP, not PASS."""
        path = tmp_path / "tripod.json"
        assert main(["gen", "product", "--base", "tripod", "--step", "0.5", "--window", "10", "-o", str(path)]) == 0
        # (t, leaf) = (0, 1), (3, 2), (9, 1), (6, 3) with 41 times per leaf
        assert main(["quadrangle", str(path), "--vertices", "61,108,79,155"]) == 0
        (check,) = load_report(tmp_path / "tripod_quadrangle.json")["checks"]
        assert check["status"] == "SKIP" and not check["flat"]
        assert check["value"] <= -0.05
        assert check["reason"] == "angle sum below the flat case; the criterion claims nothing"
        assert check["fill_in_error"] is None

    def test_quadrangle_failed_fill_in_fails(self, tmp_path):
        """A quadrangle that passes the angle criterion only by a loose
        --tol-angle has no flat fill-in on the tripod: FAIL with exit 1, the
        fill-in error and the angle sum, not an exit-2 error."""
        path = tmp_path / "tripod.json"
        assert main(["gen", "product", "--base", "tripod", "--step", "0.5", "--window", "6", "-o", str(path)]) == 0
        # (t, leaf) = (-6, 1), (-3, 2), (6, 1), (0, 3) with 25 times per leaf
        argv = ["quadrangle", str(path), "--vertices", "25,56,49,87", "--tol-angle", "2"]
        assert main(argv) == 1
        (check,) = load_report(tmp_path / "tripod_quadrangle.json")["checks"]
        assert check["status"] == "FAIL"
        assert check["reason"].startswith("quadrangle fill-in tau error ")
        assert check["reason"].endswith(" exceeds tolerance")
        assert 1.0 < check["fill_in_error"] < 2.0
        assert str(check["fill_in_error"]) in check["reason"]
        # the angle sum that claimed the fill-in is kept
        assert check["value"] == pytest.approx(-1.145, abs=5e-4)
        assert check["flat"] is True
        assert set(check["angles"]) == {"p1", "p2", "p3", "p4"}
        angles = check["angles"]
        assert check["value"] == pytest.approx(angles["p1"] + angles["p3"] - angles["p2"] - angles["p4"])

    def test_ray(self, tmp_path):
        """The report outside runtime is pinned to what one geodesic_between
        call per horizon gave."""
        from lorentzgeo.fixtures import plane_ray_fan

        space, line, info = plane_ray_fan((0.0, 1.0), 0.0, [8, 16, 32], 36, fan_spacing=0.5)
        path = tmp_path / "fan.json"
        save_fixture(path, space, [line])
        assert main(
            ["ray", str(path), "--line", "0", "--point", str(info["p"]), "--horizons", "8,16,32"]
        ) == 0
        report = json.loads(deterministic_view(load_report(tmp_path / "fan_ray.json")))
        drifts = [0.2504897164340594, 0.10942844490907666]
        assert report["checks"] == [
            {
                "name": "asymptotic-ray",
                "status": "PASS",
                "drifts": drifts,
                "ratios": [0.4368580334030733],
                "prefix": 3.968626966596886,
                "chain_points": 8,
            }
        ]
        assert report["series"] == {"ray_drift": {"columns": ["t_n", "drift"], "rows": [[16.0, drifts[0]], [32.0, drifts[1]]]}}
        # the fixture's bytes in schema 4
        assert report["inputs"]["sha256"] == "f7c0e1bb5643cea9484a8186e7b780937a7142a0ebff047a523c3c9181d052ab"

    def test_deterministic_reports(self, tripod_fixture):
        out1 = tripod_fixture.with_name("r1.json")
        out2 = tripod_fixture.with_name("r2.json")
        main(["curvature", str(tripod_fixture), "--direction", "above", "--cap", "300", "-o", str(out1)])
        main(["curvature", str(tripod_fixture), "--direction", "above", "--cap", "300", "-o", str(out2)])
        assert deterministic_view(load_report(out1)) == deterministic_view(load_report(out2))

    @pytest.mark.parametrize("command", ["curvature", "axioms", "lines", "split"])
    def test_non_finite_tau_exit_2(self, tripod_fixture, command):
        write_doc(tripod_fixture, set_tau(read_doc(tripod_fixture), 0, 40, float("nan")))
        assert main([command, str(tripod_fixture)]) == 2

    def test_vacuous_certificate_is_skip(self, tmp_path):
        # at K = -4 the timelike diameter pi/2 is below every triangle's longest side
        path = tmp_path / "chain.json"
        save_fixture(path, build_product(base_point(), np.arange(0.0, 5.0))[0])
        assert main(["curvature", str(path), "--k", "-4", "-o", str(tmp_path / "r.json")]) == 0
        check = load_report(tmp_path / "r.json")["checks"][0]
        assert check["n_triangles"] == 0
        assert check["status"] == "SKIP"

    def test_usage_error_exit_2(self, grid_fixture, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["axioms", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "space": {"n": 2, "tau": [[0]], "causal": [[1]]}}))
        assert main(["axioms", str(bad)]) == 2
        # a malformed flag value is named in one line
        for argv, message in [
            (["quadrangle", "--vertices", "1,2,3"], "--vertices needs four comma-separated point indices, got '1,2,3'"),
            (["quadrangle", "--vertices", "1,2,3,x"], "--vertices needs four comma-separated point indices, got '1,2,3,x'"),
            (["ray", "--point", "0", "--horizons", "2.5,4"], "parameter 2.5 not on the grid of x=0"),
            (["ray", "--point", "0", "--horizons", "3,x"], "--horizons needs comma-separated numbers, got '3,x'"),
        ]:
            capsys.readouterr()
            assert main([argv[0], str(grid_fixture), *argv[1:], "-o", str(tmp_path / "r.json")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_retired_schema_exit_2(self, tmp_path, capsys, version):
        """A schema-1, 2 or 3 file exits 2 with one line that says how to
        replace it, both as one line of JSON with base64 payloads (the
        schema-3 layout) and as a header line with a body."""
        doc = {**valid_fixture(), "schema_version": version}
        text = {key: base64.b64encode(doc["space"][key]).decode() for key in PAYLOADS}
        path = tmp_path / "old.json"
        for data in (json.dumps({**doc, "space": {**doc["space"], **text}}).encode(), doc_to_bytes(doc)):
            path.write_bytes(data)
            for command, *extra in FUZZ_COMMANDS:
                capsys.readouterr()
                assert main([command, str(path), *extra]) == 2
                assert capsys.readouterr().err == f"error: unsupported fixture schema {version}: re-generate it with lorentzgeo gen\n"

    @pytest.mark.parametrize("command", ["curvature", "axioms"])
    @pytest.mark.parametrize("entry, value", [((0, 40), -1.0), ((7, 7), 0.5)])
    def test_negative_tau_or_nonzero_diagonal_exit_2(self, tripod_fixture, command, entry, value):
        write_doc(tripod_fixture, set_tau(read_doc(tripod_fixture), *entry, value))
        assert main([command, str(tripod_fixture)]) == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: list(doc),
            lambda doc: {**doc, "space": [1]},
            lambda doc: {**doc, "space": {**doc["space"], "n": [2]}},
            lambda doc: {**doc, "lines": [1]},
            lambda doc: {**doc, "lines": [{**doc["lines"][0], "label": 5}]},
            lambda doc: {**doc, "base": {**doc["base"], "labels": 5}},
            lambda doc: {**doc, "base": {**doc["base"], "dist": 5}},
            # the version must be the integer 4
            lambda doc: {**doc, "schema_version": True},
            lambda doc: {**doc, "schema_version": 2.0},
            lambda doc: {**doc, "schema_version": 3.0},
            lambda doc: {**doc, "schema_version": 4.0},
            # causal 111/011/001 packs to EC 80, chronological 011/001/000 to 64 00
            lambda doc: with_space(doc, causal=bytes([0xEC])),
            lambda doc: with_space(doc, causal=bytes([0xEC, 0x80, 0x00])),
            lambda doc: with_space(doc, chronological=bytes([0x64, 0x01])),
            lambda doc: with_space(doc, causal=bytes([0xEC, 0xC0])),
            lambda doc: with_space(doc, tau=np.array([1.0, 2.0, 1.0], "<f8").tobytes()[:-1]),
            lambda doc: with_space(doc, tau=floats(1.0, 2.0)),
            lambda doc: with_space(doc, tau=floats(1.0, 2.0, 1.0, 1.0)),
            lambda doc: with_space(doc, tau=floats(1.0, float("nan"), 1.0)),
            lambda doc: with_space(doc, tau=floats(1.0, float("inf"), 1.0)),
            lambda doc: with_space(doc, tau=floats(1.0, float("-inf"), 1.0)),
            lambda doc: with_space(doc, tau=floats(1.0, -2.0, 1.0)),
            lambda doc: with_space(doc, tau=floats(1.0, 0.0, 1.0)),
            lambda doc: with_space(doc, tau=floats(1.0, -0.0, 1.0)),
            lambda doc: with_space(doc, chronological=bytes([0x6C, 0x00]), tau=floats(1.0, 2.0, 0.5, 1.0)),
        ],
        ids=[
            "root-list",
            "space-list",
            "n-list",
            "line-not-object",
            "line-label-number",
            "base-labels-number",
            "base-dist-number",
            "schema-true",
            "schema-2.0",
            "schema-3.0",
            "schema-4.0",
            "packed-bytes-too-few",
            "packed-bytes-too-many",
            "packed-padding-bit",
            "packed-causal-padding-bit",
            "packed-tau-partial-value",
            "packed-tau-too-few",
            "packed-tau-too-many",
            "packed-tau-nan",
            "packed-tau-inf",
            "packed-tau-minus-inf",
            "packed-tau-negative",
            "packed-tau-zero",
            "packed-tau-minus-zero",
            "packed-chronological-diagonal",
        ],
    )
    def test_malformed_fixture_exit_2(self, tmp_path, capsys, mutate):
        path = tmp_path / "f.json"
        path.write_bytes(fixture_file(mutate(valid_fixture())))
        with pytest.raises(ShapeError):
            load_fixture(path)
        for command, *extra in FUZZ_COMMANDS:
            capsys.readouterr()
            assert main([command, str(path), *extra]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mutate, message",
        [
            # chronological 011/011/000 packs to 6C 00: tau(1, 1) = 0.5
            (lambda doc: with_space(doc, chronological=bytes([0x6C, 0x00]), tau=floats(1.0, 2.0, 0.5, 1.0)), "tau has a nonzero diagonal"),
            (lambda doc: with_space(doc, labels=["a"]), "1 labels for 3 points"),
        ],
        ids=["chronological-diagonal", "labels-length"],
    )
    def test_loaded_space_keeps_its_checks(self, tmp_path, capsys, monkeypatch, mutate, message):
        """The load skips SampledSpace's rescan of tau's values, which it has
        checked already, but not its diagonal and labels checks."""
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_bytes(fixture_file(valid_fixture()))
        bad.write_bytes(fixture_file(mutate(valid_fixture())))
        monkeypatch.setattr(SampledSpace, "__post_init__", mock.Mock(side_effect=AssertionError("tau rescanned")))
        assert load_fixture(good).space.n == 3
        assert main(["lines", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, entry, value, field",
        [
            ("dist", (0, 1), float("inf"), "base.dist"),
            ("dist", (0, 1), float("nan"), "base.dist"),
            # the tripod base's midpoints are [[1, 2, 0], [1, 3, 0], [2, 3, 0]]
            ("midpoints", (0, 2), -1, "base midpoint"),
            ("midpoints", (0, 0), 99, "base midpoint"),
            ("midpoints", (0, 2), 99, "base midpoint"),
        ],
        ids=["dist-inf", "dist-nan", "midpoint-negative", "pair-too-large", "midpoint-too-large"],
    )
    def test_malformed_base_exit_2(self, tripod_fixture, tmp_path, capsys, key, entry, value, field):
        """A non-finite base distance or a midpoint triple outside the base
        exits 2 with one line naming the field, never a verdict or a wrapped index."""
        doc = read_doc(tripod_fixture)
        i, j = entry
        doc["base"][key][i][j] = value
        if key == "dist":
            doc["base"][key][j][i] = value
        with pytest.raises(ShapeError, match=field):
            load_doc(tmp_path, doc)
        write_doc(tripod_fixture, doc)
        out = tmp_path / "r.json"
        for command in ("split", "roundtrip"):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, str(tripod_fixture), "-o", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and field in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda b: fixture_to_dict(minkowski_grid(2, 2, 1.0), base=base_pair(1.0))["base"], "base"),
            (lambda b: {**b, "labels": b["labels"][:1]}, "base.labels"),
        ],
        ids=["two-point-base", "one-label"],
    )
    def test_base_that_does_not_fit_the_space_exit_2(self, tripod_fixture, tmp_path, capsys, edit, field):
        """A product whose base has another number of points than the space
        was built over, or labels of the wrong length, exits 2 with one line
        naming the field, never a verdict or numpy's broadcast error."""
        doc = read_doc(tripod_fixture)
        doc["base"] = edit(doc["base"])
        with pytest.raises(ShapeError, match=f"^fixture {field}"):
            load_doc(tmp_path, doc)
        write_doc(tripod_fixture, doc)
        out = tmp_path / "r.json"
        for command in ("split", "roundtrip"):
            capsys.readouterr()
            assert main([command, str(tripod_fixture), "-o", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: fixture {field}") and err.count("\n") == 1
            assert not out.exists()

    def test_base_that_does_not_fit_the_lines_exit_2(self, tripod_fixture, tmp_path, capsys):
        """Without space.meta base_points the load cannot compare the base
        with the space, so split and roundtrip compare it with the line
        classes: a 2-point base under the tripod's four classes exits 2 with
        one line naming the base, never a verdict or numpy's broadcast error."""
        doc = read_doc(tripod_fixture)
        del doc["space"]["meta"]["base_points"]
        doc["base"] = fixture_to_dict(minkowski_grid(2, 2, 1.0), base=base_pair(1.0))["base"]
        assert load_doc(tmp_path, doc).base.m == 2
        write_doc(tripod_fixture, doc)
        out = tmp_path / "r.json"
        for command in ("split", "roundtrip"):
            capsys.readouterr()
            assert main([command, str(tripod_fixture), "-o", str(out)]) == 2
            assert capsys.readouterr().err == "error: fixture base has 2 points, but its lines give 4 line classes\n"
            assert not out.exists()

    def test_rigidity_without_an_interior_point_is_skip(self, grid_fixture, tmp_path):
        """A triangle whose long side [x, z] has no interior sample point tests
        neither (i) => (iii) nor (iii) => (iv): SKIP with a reason, with the
        condition fields kept, and no PASS rests on such a triangle."""
        out = tmp_path / "r.json"
        assert main(["rigidity", str(grid_fixture), "--cap", "40", "-o", str(out)]) == 0
        checks = load_report(out)["checks"]
        vacuous = [c for c in checks if c.get("cond_iii", False) is None]
        assert vacuous and len(vacuous) < len(checks)
        for check in vacuous:
            assert check["status"] == "SKIP"
            assert check["reason"] == "the long side [x, z] has no interior sample point"
            assert check["cond_iv"] is None and check["tau_gap_max"] is None
            assert {"cond_i", "cond_ii", "angle_gaps"} <= check.keys()
        assert all(c["cond_iii"] is not None for c in checks if c["status"] == "PASS")

    def test_fvf_with_one_quotient_is_skip(self, grid_fixture, tmp_path):
        """One difference quotient cannot show the error decreasing: SKIP, exit 0."""
        # p = (0, 1) = 1; gamma runs from (1, 1) = 8 to (2, 1) = 15, one step
        out = tmp_path / "r.json"
        assert main(["fvf", str(grid_fixture), "--point", "1", "--vertex", "8", "--target", "15", "-o", str(out)]) == 0
        (check,) = load_report(out)["checks"]
        assert check["status"] == "SKIP" and check["reason"] == "fewer than two difference quotients"
        assert len(load_report(out)["series"]["fvf"]["rows"]) == 1

    def test_fvf_on_a_flagged_geodesic_is_a_fail(self, grid_fixture, tmp_path, monkeypatch, capsys):
        """A geodesic [p, a] whose chain falls short of tau is a finding
        about the space, not malformed input: fvf-empirical FAIL with the
        message as its reason, exit 1, never exit 2."""

        def flagged(*args):
            raise GeodesicDeficit("geodesic for [p, a] has deficit 0.5")

        monkeypatch.setattr(cli, "fvf_empirical", flagged)
        out = tmp_path / "r.json"
        assert main(["fvf", str(grid_fixture), "--point", "0", "--vertex", "7", "--target", "35", "-o", str(out)]) == 1
        assert capsys.readouterr().err == ""
        assert load_report(out)["checks"] == [{"name": "fvf-empirical", "status": "FAIL", "reason": "geodesic for [p, a] has deficit 0.5"}]

    def test_non_transitive_chronology_exit_2(self, tmp_path, capsys):
        """curvature and rigidity sample triangles, which needs a transitive
        chronology: on a grid with a tenth of its tau entries zeroed they exit
        2 with one line naming x << y << z, and axioms reports the failures."""
        grid = minkowski_grid(7, 7, 1.0)
        tau = grid.tau.copy()
        ii, jj = np.nonzero(tau > 0)
        pick = np.random.default_rng(3).random(len(ii)) < 0.1
        tau[ii[pick], jj[pick]] = 0.0
        path = tmp_path / "cleared.json"
        save_fixture(path, SampledSpace(tau=tau, causal=grid.causal))
        out = tmp_path / "r.json"
        line = r"error: chronology is not transitive: \d+ << \d+ << \d+ but not \d+ << \d+; run lorentzgeo axioms\n"
        for argv in (["curvature"], ["curvature", "--direction", "below"], ["rigidity"]):
            capsys.readouterr()
            assert main([argv[0], str(path), *argv[1:], "-o", str(out)]) == 2
            assert re.fullmatch(line, capsys.readouterr().err)
            assert not out.exists()
        assert main(["axioms", str(path), "-o", str(out)]) == 1
        (check,) = load_report(out)["checks"]
        assert check["status"] == "FAIL" and sum(check["counts"].values()) > 0

    @pytest.mark.parametrize("command", ["angles", "rigidity", "lines"])
    def test_nothing_to_check_is_one_skip(self, tmp_path, command):
        """A fixture that gives a command nothing to check reports one SKIP
        with a reason, not an empty list of checks."""
        path = tmp_path / "tiny.json"
        assert main(["gen", "minkowski-grid", "--nt", "2", "--nx", "2", "-o", str(path)]) == 0
        if command == "lines":
            doc = read_doc(path)
            doc["lines"] = []
            write_doc(path, doc)
        out = tmp_path / "r.json"
        assert main([command, str(path), "-o", str(out)]) == 0
        assert load_report(out)["checks"] == [{"name": command, "status": "SKIP", "reason": "nothing to check in this fixture"}]

    @pytest.mark.parametrize("error", [KeyError, IndexError])
    def test_a_fault_in_the_program_is_not_reported_as_bad_input(self, grid_fixture, monkeypatch, error):
        def broken(space):
            raise error("a fault in the program")

        monkeypatch.setattr(cli, "validate_axioms", broken)
        with pytest.raises(error):
            main(["axioms", str(grid_fixture)])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda header, body: header + b"\n" + body[:-1], f"fixture payload of 27 bytes {LAYOUT} 23 bytes are left for tau, not a multiple of 8"),
            (lambda header, body: header + b"\n" + body + b"\0", f"fixture payload of 29 bytes {LAYOUT} 25 bytes are left for tau, not a multiple of 8"),
            (lambda header, body: header, "fixture has no payload: a newline and the payload bytes must follow its header"),
            (
                lambda header, body: b'{"note": "\xe9", ' + header[1:] + b"\n" + body,
                "fixture header is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xe9 in position 10: invalid continuation byte",
            ),
            (
                lambda header, body: header.decode().encode("utf-16") + b"\n" + body,
                "fixture header is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
            # the body of valid_fixture(): causal EC 80, chronological 64 00, then three float64 values
            (lambda header, body: header + b"\n" + body[:1] + b"\x81" + body[2:], "fixture space.causal must be 3x3 packed bits with zero padding"),
            (lambda header, body: header + b"\n" + body[:3] + b"\x01" + body[4:], "fixture space.chronological must be 3x3 packed bits with zero padding"),
            (lambda header, body: header + b"\n" + body[:-8], f"fixture payload of 20 bytes {LAYOUT} its 3 chronological bits need 28"),
            (lambda header, body: header + b"\n" + body + floats(1.0), f"fixture payload of 36 bytes {LAYOUT} its 3 chronological bits need 28"),
            # causal one byte short or long, as in test_malformed_fixture_exit_2: the layout is named, not tau
            (lambda header, body: header + b"\n" + body[:1] + body[2:], f"fixture payload of 27 bytes {LAYOUT} 23 bytes are left for tau, not a multiple of 8"),
            (lambda header, body: header + b"\n" + body[:2] + b"\0" + body[2:], f"fixture payload of 29 bytes {LAYOUT} 25 bytes are left for tau, not a multiple of 8"),
            *(
                (lambda header, body, value=value: header + b"\n" + body[:-8] + floats(value), "space.tau values must be positive and finite")
                for value in (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -2.0)
            ),
        ],
        ids=[
            "body-one-byte-short",
            "body-one-byte-long",
            "no-newline-no-body",
            "header-latin-1",
            "header-utf-16",
            "causal-padding-bit",
            "chronological-padding-bit",
            "one-value-too-few",
            "one-value-too-many",
            "packed-bytes-too-few",
            "packed-bytes-too-many",
            "tau-nan",
            "tau-inf",
            "tau-minus-inf",
            "tau-zero",
            "tau-minus-zero",
            "tau-negative",
        ],
    )
    def test_malformed_file_exit_2(self, tmp_path, capsys, edit, message):
        """A fixture file whose body or header line is malformed exits 2
        with one line naming the fault, in every command."""
        header, body = doc_to_bytes(valid_fixture()).split(b"\n", 1)
        path = tmp_path / "f.json"
        path.write_bytes(edit(header, body))
        for command, *extra in FUZZ_COMMANDS:
            capsys.readouterr()
            assert main([command, str(path), *extra]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_axioms_report_diagnostics(self, grid_fixture, tmp_path):
        assert main(["axioms", str(grid_fixture), "-o", str(tmp_path / "r.json")]) == 0
        report = load_report(tmp_path / "r.json")
        causal = load_fixture(grid_fixture)[0].causal
        check = report["checks"][0]
        assert check["n_points"] == 49
        assert check["triples_checked"] == int(causal.sum(axis=0) @ causal.sum(axis=1))
        assert report["runtime"]["load_s"] >= 0 and report["runtime"]["scan_s"] >= 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["axioms", "tripod"],
            ["curvature", "tripod", "--direction", "below", "--cap", "300"],
            ["angles", "grid", "--cap", "10"],
            ["fvf", "grid", "--point", "0", "--vertex", "7", "--target", "35"],
            ["rigidity", "grid", "--cap", "10"],
            ["quadrangle", "grid", "--vertices", "3,16,45,31"],
            ["lines", "tripod"],
            ["strip", "tripod", "--alpha", "1", "--beta", "2"],
            ["ray", "grid", "--point", "0", "--horizons", "2,4,6"],
            ["split", "tripod"],
            ["roundtrip", "tripod"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_runtime_load_s(self, request, argv):
        """Every fixture command times its load and its work, and its stages
        where it has several, and names its report after itself."""
        command, name, *extra = argv
        path = request.getfixturevalue(f"{name}_fixture")
        assert main([command, str(path), *extra]) in (0, 1)
        report_name = "curvature_below" if command == "curvature" else command
        runtime = load_report(path.with_name(f"{name}_{report_name}.json"))["runtime"]
        assert runtime["load_s"] > 0 and runtime["seconds"] > 0
        assert isinstance(runtime["timestamp"], float)
        stages = {key for key in runtime if key not in ("load_s", "seconds", "timestamp")}
        assert stages == STAGES.get(command, set())
        assert all(0 < runtime[key] <= runtime["seconds"] for key in stages)

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--alpha", ["strip", "tripod", "--alpha", "-1"]),
            ("--beta", ["strip", "tripod", "--beta", "4"]),
            ("--line", ["ray", "grid", "--line", "-1", "--point", "0", "--horizons", "2,4,6"]),
            ("--point", ["ray", "grid", "--point", "-49", "--horizons", "2,4,6"]),
            ("--reference", ["split", "tripod", "--reference", "-1"]),
            ("--reference", ["split", "tripod", "--reference", "4"]),
            ("--point", ["fvf", "grid", "--point", "-49", "--vertex", "-42", "--target", "-14"]),
            ("--vertex", ["fvf", "grid", "--point", "0", "--vertex", "-42", "--target", "35"]),
            ("--target", ["fvf", "grid", "--point", "0", "--vertex", "7", "--target", "49"]),
            ("--vertices", ["quadrangle", "grid", "--vertices", "3,16,45,-18"]),
            ("reference line", ["roundtrip", "nolines"]),
        ],
        ids=[
            "strip-alpha-negative",
            "strip-beta-too-large",
            "ray-line-negative",
            "ray-point-negative",
            "split-reference-negative",
            "split-reference-too-large",
            "fvf-point-negative",
            "fvf-vertex-negative",
            "fvf-target-too-large",
            "quadrangle-vertex-negative",
            "roundtrip-no-lines",
        ],
    )
    def test_index_out_of_range_exit_2(self, request, tmp_path, capsys, flag, argv):
        """A negative or too-large point or line index is an input error, never a wrapped index."""
        command, name, *extra = argv
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main([command, str(request.getfixturevalue(f"{name}_fixture")), *extra, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1 and "out of range" in err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["curvature", "angles", "fvf", "rigidity", "quadrangle"])
    def test_non_finite_k_exit_2(self, grid_fixture, tmp_path, capsys, command, k):
        out = tmp_path / "r.json"
        # every command below exits 0 at --k 0 on this fixture
        extra = {
            "fvf": ["--point", "0", "--vertex", "7", "--target", "35"],
            "quadrangle": ["--vertices", "3,16,45,31"],
        }.get(command, ["--cap", "5"])
        capsys.readouterr()
        assert main([command, str(grid_fixture), f"--k={k}", *extra, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "curvature" in err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", ["curvature", "angles", "rigidity"])
    def test_cap_below_one_exit_2(self, grid_fixture, tmp_path, capsys, command, cap):
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main([command, str(grid_fixture), f"--cap={cap}", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "--cap" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, flag",
        [
            ("sphere-sample", "--m=4"),
            ("point", "--m=4"),
            ("pair", "--edge=2"),
            ("tripod", "--spacing=0.5"),
            ("euclid-grid", "--d=1"),
        ],
    )
    def test_gen_flag_the_base_does_not_take_exit_2(self, tmp_path, capsys, base, flag):
        out = tmp_path / "f.json"
        capsys.readouterr()
        assert main(["gen", "product", "--base", base, flag, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag.split("=")[0] in err and base in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--fan-phi", "0.5", "--fan-horizons", "3,x"], "--fan-horizons needs comma-separated numbers, got '3,x'"),
            (["--fan-horizons", "3,4"], "--fan-horizons is unused without --fan-phi"),
        ],
    )
    def test_gen_fan_flags_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "f.json"
        capsys.readouterr()
        assert main(["gen", "desitter-sample", *flags, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ray_with_one_drift_is_skip(self, tmp_path):
        """Two horizons give one drift, too few to show whether a ray
        stabilizes: SKIP with that reason, exit 0, drifts kept."""
        path, out = tmp_path / "g9.json", tmp_path / "r.json"
        assert main(["gen", "minkowski-grid", "--nt", "9", "--nx", "9", "-o", str(path)]) == 0
        assert main(["ray", str(path), "--point", "0", "--horizons", "2,2", "-o", str(out)]) == 0
        (check,) = load_report(out)["checks"]
        assert check["status"] == "SKIP" and check["reason"] == "fewer than two finite drifts"
        assert check["drifts"] == [0.0] and check["ratios"] == []
        # three horizons give two drifts, and a verdict
        assert main(["ray", str(path), "--point", "0", "--horizons", "2,3,4", "-o", str(out)]) in (0, 1)
        assert load_report(out)["checks"][0]["status"] in ("PASS", "FAIL")

    @pytest.mark.parametrize(
        "argv",
        [
            ["minkowski-grid", "--nt", "5", "--nx", "4"],
            ["desitter-sample", "--n-angles", "4", "--n-times", "5", "--fan-phi", "0.5"],
            ["product", "--base", "tripod", "--window", "3"],
            ["product", "--base", "hyperbolic-sample", "--m", "4", "--window", "2", "--seed", "3"],
        ],
        ids=["minkowski-grid", "desitter-sample", "tripod", "hyperbolic-sample"],
    )
    def test_gen_writes_identical_files(self, tmp_path, argv):
        """gen run twice with the same arguments writes the same bytes: a
        header line of sorted JSON without the payloads, then the payloads."""
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", *argv, "-o", str(first)]) == 0
        assert main(["gen", *argv, "-o", str(second)]) == 0
        data = first.read_bytes()
        assert data == second.read_bytes()
        header = json.loads(data.split(b"\n", 1)[0])
        assert header["schema_version"] == 4 and not header["space"].keys() & set(PAYLOADS)
        assert doc_to_bytes(read_doc(first)) == data

    def test_python_m_lorentzgeo(self, tmp_path):
        """python -m lorentzgeo runs the command-line front end."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(lorentzgeo.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        path = tmp_path / "g.json"
        for argv in (["gen", "minkowski-grid", "--nt", "3", "--nx", "3", "-o", str(path)], ["axioms", str(path)]):
            proc = subprocess.run([sys.executable, "-m", "lorentzgeo", *argv], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert load_report(tmp_path / "g_axioms.json")["checks"][0]["status"] == "PASS"

    def test_gen_flags_the_base_takes(self, tmp_path):
        out = tmp_path / "f.json"
        argv = ["gen", "product", "--base", "hyperbolic-sample", "--m", "3", "--window", "1", "-o", str(out)]
        assert main(argv) == 0
        assert load_fixture(out).base.dist.shape == (3, 3)

    def test_curvature_report_diagnostics(self, tmp_path):
        # a 6x6 grid with a sixth of its chronological tau entries shrunk:
        # some chains fall short of tau and triangles are skipped for
        # several domain reasons
        grid = minkowski_grid(6, 6, 1.0)
        tau = grid.tau.copy()
        ii, jj = np.nonzero(tau > 0)
        pick = np.random.default_rng(0).choice(len(ii), len(ii) // 6, replace=False)
        tau[ii[pick], jj[pick]] *= 0.8
        space = SampledSpace(tau=tau, causal=grid.causal.copy())
        path = tmp_path / "broken.json"
        save_fixture(path, space)
        main(["curvature", str(path), "--k", "-1", "-o", str(tmp_path / "r.json")])
        report = load_report(tmp_path / "r.json")
        check = report["checks"][0]

        tris = sample_triangles(space, cap=20_000, seed=0, kappa=Kappa(-1.0))
        cert = certify_curvature_bound(space, tris, Kappa(-1.0), "above")
        chains = {}
        for t in tris:
            chains.update({(t.x, t.y): t.side_xy, (t.y, t.z): t.side_yz, (t.x, t.z): t.side_xz})
        flagged = sum(c.flagged() for c in chains.values())
        reasons = {}
        for _, reason in cert.skipped:
            reasons[reason] = reasons.get(reason, 0) + 1
        assert check["geodesic_pairs"] == len(chains) > 0
        assert check["flagged_chains"] == flagged > 0
        assert check["skipped_by_reason"] == reasons
        assert check["cert_tol"] == DEFAULT_CERT_TOL  # the margin floor the verdict used
        assert len(reasons) >= 2 and sum(reasons.values()) == check["skipped"] == len(cert.skipped)
        runtime = report["runtime"]
        assert all(runtime[key] >= 0 for key in ("load_s", "sample_s", "certify_s"))

    @pytest.mark.parametrize("direction", ["above", "below"])
    def test_geo_tol_reaches_certified_chains(self, tmp_path, direction):
        """--geo-tol sets which points the certified side chains admit.  At
        the default 1e-7 the de Sitter fan fails its own K = 1 bound (-0.00247
        above, -0.00126 below) on points only near the geodesic; admitted at
        1e-12 it passes both ways at rounding scale."""
        path = tmp_path / "ds.json"
        assert main(["gen", "desitter-sample", "--fan-phi", "0.5", "-o", str(path)]) == 0
        out = tmp_path / "r.json"
        argv = ["curvature", str(path), "--k", "1", "--direction", direction, "--geo-tol", "1e-12", "-o", str(out)]
        assert main(argv) == 0
        (check,) = load_report(out)["checks"]
        assert check["status"] == "PASS"
        assert -1e-9 < check["max_violation"] < 0
        assert check["flagged_chains"] == 0

    def test_geo_tol_reaches_rigidity_chains(self, tmp_path, monkeypatch):
        """rigidity extracts its triangles' side chains at --geo-tol, the
        tolerance its report echoes, as curvature does."""
        from lorentzgeo import cli

        taken = []

        def spy(*args, **kwargs):
            taken.append(kwargs.get("geo_tol"))
            return sample_triangles(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_triangles", spy)
        path = tmp_path / "ds.json"
        assert main(["gen", "desitter-sample", "--fan-phi", "0.5", "-o", str(path)]) == 0
        out = tmp_path / "r.json"
        argv = ["rigidity", str(path), "--k", "1", "--cap", "200", "--geo-tol", "1e-12", "-o", str(out)]
        assert main(argv) in (0, 1)
        assert taken == [1e-12]
        assert load_report(out)["tolerances"]["geo_tol"] == 1e-12

    def test_desitter_gen_with_fan(self, tmp_path):
        path = tmp_path / "ds.json"
        assert (
            main(
                [
                    "gen",
                    "desitter-sample",
                    "--n-angles",
                    "8",
                    "--n-times",
                    "9",
                    "--t-max",
                    "2.0",
                    "--fan-phi",
                    "0.5",
                    "--fan-horizons",
                    "1.5,-1.5",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        assert main(["axioms", str(path)]) == 0

    @staticmethod
    def option_argv(request, path, fixture, extra):
        """The run of OPTION_RUNS without -o: the subcommand, its fixture file if any, and its flags."""
        files = [str(request.getfixturevalue(f"{fixture}_fixture"))] if fixture else []
        return [*path, *files, *extra]

    @pytest.mark.parametrize("path, fixture, extra", OPTION_RUNS, ids=[" ".join(run[0]) for run in OPTION_RUNS])
    def test_every_option_is_read(self, request, tmp_path, monkeypatch, path, fixture, extra):
        """A subcommand defines only options that main, run_fixture_command
        or its cmd_* function read as args attributes (the report's
        tolerance echo reads the namespace whole, so it counts for none)."""
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parser = cli.build_parser()
        recording = SimpleNamespace(parse_args=lambda argv: Recorder(**vars(parser.parse_args(argv))))
        monkeypatch.setattr(cli, "build_parser", lambda: recording)
        argv = self.option_argv(request, path, fixture, extra)
        assert main([*argv, "-o", str(tmp_path / "out.json")]) in (0, 1)
        sub = parser
        for name in path:
            sub = subcommands(sub)[name]
        defined = {a.dest for a in sub._actions if a.dest != "help"}
        assert defined - reads == UNREAD_OPTIONS.get(path, set())

    @pytest.mark.parametrize("path, fixture, extra", OPTION_RUNS, ids=[" ".join(run[0]) for run in OPTION_RUNS])
    def test_retired_flags_exit_2_and_kept_ones_work(self, request, tmp_path, capsys, path, fixture, extra):
        """Each tolerance or seed flag a subcommand does not read is an
        unrecognized argument; the ones it reads run and the report echoes
        exactly its tolerance flags, so axioms echoes {}."""
        argv = self.option_argv(request, path, fixture, extra)
        out = tmp_path / "out.json"
        kept = KEPT_FLAGS[path]
        for flag in sorted(set(FLAG_VALUES) - set(kept)):
            capsys.readouterr()
            assert main([*argv, flag, FLAG_VALUES[flag], "-o", str(out)]) == 2
            assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err
            assert not out.exists()
        code = main([*argv, "-o", str(out)])
        assert code in (0, 1)
        out.unlink()
        assert main([*argv, *(v for flag in kept for v in (flag, FLAG_VALUES[flag])), "-o", str(out)]) == code
        if path[0] != "gen":
            echoed = {flag[2:].replace("-", "_"): float(FLAG_VALUES[flag]) for flag in kept if flag != "--seed"}
            assert load_report(out)["tolerances"] == echoed

    def test_option_runs_cover_every_subcommand(self):
        """The two tests above see every subcommand but plotdata, which takes only its report and -o."""

        def leaves(parser, path=()):
            subs = subcommands(parser)
            return {leaf for name, sub in subs.items() for leaf in leaves(sub, (*path, name))} if subs else {path}

        assert leaves(cli.build_parser()) - {("plotdata",)} == {run[0] for run in OPTION_RUNS} == set(KEPT_FLAGS)

    def test_every_parameter_is_read(self):
        """Every function and lambda in the package reads each of its
        parameters.  The fixture commands are exempt: run_fixture_command
        calls them all as (args, fixture, stage)."""
        shared = {command.__name__ for command, _ in cli.FIXTURE_COMMANDS.values()}
        unread = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                name = getattr(node, "name", "<lambda>")
                if path.name == "cli.py" and name in shared:
                    continue
                a = node.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params if p not in read]
        assert unread == []

    def test_every_private_function_is_used_in_the_package(self):
        """Every private module-level function in the package is read
        somewhere in the package, so a helper that only tests call lives
        in the tests."""
        trees = [ast.parse(path.read_text()) for path in sorted(Path(cli.__file__).parent.glob("*.py"))]
        private = {
            node.name
            for tree in trees
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        }
        read = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        assert private and sorted(private - read) == []

    def test_every_public_name_is_used_outside_the_tests(self):
        """Every public module-level function and class in the package is
        read somewhere in src, demos or bench, so a public name that only
        tests call is not kept as API.  An import does not count as a read:
        the package's __init__ imports every name it exports.  A string
        "module.name", as the bench names the layers it traces, does."""
        package = Path(cli.__file__).parent
        root = package.parents[1]
        public = [
            (path.stem, node.name)
            for path in sorted(package.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        read, strings = set(), set()
        for path in [package, root / "demos", root / "bench"]:
            for file in sorted(path.rglob("*.py")):
                for node in ast.walk(ast.parse(file.read_text())):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        strings.add(node.value)
        unread = [f"{m}.{name}" for m, name in public if name not in read and f"{m}.{name}" not in strings]
        assert public and unread == []

    def test_every_result_field_is_read(self):
        """Every annotated field of a class in the package is read as an
        attribute somewhere in src, demos or bench, so a result field that
        only tests read is not computed for nothing.  The exceptions are
        kept on purpose, each for its reason."""
        kept = {
            "EmbeddingReport.worst": "the embedding check's witness pair, kept for the report to carry",
            "AxiomReport.exact_tests": "the screen count that TestAxioms holds to its oracle",
            "AngleEstimate.table": "the angle ladder, which ROADMAP item 4 reports",
            "AngleEstimate.monotone": "a ladder diagnostic, which ROADMAP item 4 reports",
            "AngleEstimate.converged": "a ladder diagnostic, which ROADMAP item 4 reports",
            "AngleEstimate.last_delta": "a ladder diagnostic, which ROADMAP item 4 reports",
        }
        package = Path(cli.__file__).parent
        root = package.parents[1]
        fields = [
            f"{node.name}.{item.target.id}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        read = {
            node.attr
            for path in [package, root / "demos", root / "bench"]
            for file in sorted(path.rglob("*.py"))
            for node in ast.walk(ast.parse(file.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        unread = [name for name in fields if name.split(".")[1] not in read]
        assert set(kept) <= set(fields)
        assert sorted(set(unread) - set(kept)) == []

    def test_every_default_is_passed_somewhere(self):
        """Every defaulted parameter of a function in the package is passed, by
        keyword or by position, in some call in src, tests, demos or bench.
        Calls are matched by the called name, and a class call by the class's
        __init__; a call with *args passes every position, one with **kwargs
        every keyword.  The fixtures._BASES builders are exempt: gen passes
        them the flags a base takes as **kwargs."""
        package = Path(cli.__file__).parent
        root = package.parents[1]
        exempt = {builder.__name__ for builder in _BASES.values()}
        defaulted = []  # (where, called name, parameter, position in a call or None)
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if path.name == "fixtures.py" and node.name in exempt:
                    continue
                a = node.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                bound = int(id(node) in owner and not static)  # self or cls is not passed in the call
                name = owner[id(node)] if node.name == "__init__" else node.name
                where = f"{path.name}:{node.lineno} {node.name}"
                positional = [*a.posonlyargs, *a.args]
                first = len(positional) - len(a.defaults)
                defaulted += [(where, name, p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
                defaulted += [(where, name, p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults) if default]
        calls = {}  # called name -> [(positional count, *args given, keywords given)]
        for path in [package, root / "tests", root / "demos", root / "bench"]:
            for file in sorted(path.rglob("*.py")):
                for node in ast.walk(ast.parse(file.read_text())):
                    if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                        name = getattr(node.func, "id", None) or node.func.attr
                        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                        calls.setdefault(name, []).append((len(node.args), starred, {k.arg for k in node.keywords}))
        unpassed = [
            f"{where}({param})"
            for where, name, param, at in defaulted
            if not any(
                param in kws or None in kws or (at is not None and (starred or at < n))
                for n, starred, kws in calls.get(name, [])
            )
        ]
        assert unpassed == []


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def valid_fixture():
    """A 3-point chain with its line and its one-point base."""
    space, lines = build_product(base_point(), [0.0, 1.0, 2.0])
    return fixture_to_dict(space, lines, base_point())


def read_doc(path):
    """The fixture document of the file at path, as fixture_to_dict gives it."""
    return fixture_to_dict(*load_fixture(path)[:4])


def write_doc(path, doc):
    path.write_bytes(doc_to_bytes(doc))


def fixture_file(doc):
    """doc as fixture file bytes, unchecked: doc_to_bytes(doc) when doc["space"]
    is an object, else doc as the header line of a file with no payloads."""
    if isinstance(doc, dict) and isinstance(doc.get("space"), dict):
        return doc_to_bytes(doc)
    return json.dumps(doc).encode() + b"\n"


def load_doc(tmp_path, doc):
    """load_fixture of doc, written to tmp_path as fixture_file(doc)."""
    path = tmp_path / "doc.json"
    path.write_bytes(fixture_file(doc))
    return load_fixture(path)


def unpack(doc):
    """The chronological mask and the listed tau values of a fixture document, unchecked."""
    sp = doc["space"]
    n = sp["n"]
    chron = np.unpackbits(np.frombuffer(sp["chronological"], np.uint8), count=n * n)
    return chron.astype(bool).reshape(n, n), np.frombuffer(sp["tau"], "<f8").tolist()


def set_tau(doc, i, j, value):
    """Write tau(i, j) = value into a fixture document, unchecked; returns doc."""
    sp = doc["space"]
    chron, values = unpack(doc)
    k = int(np.count_nonzero(chron.ravel()[: i * sp["n"] + j]))
    if chron[i, j]:
        values[k] = value
    else:
        values.insert(k, value)
        chron[i, j] = True
    sp["chronological"] = np.packbits(chron).tobytes()
    sp["tau"] = floats(*values)
    return doc


def with_space(doc, **fields):
    return {**doc, "space": {**doc["space"], **fields}}


def floats(*values):
    """Values as a tau payload."""
    return np.array(values, "<f8").tobytes()


@st.composite
def mutated_fixtures(draw):
    """valid_fixture()'s file with a few header values replaced by JSON or
    deleted, and its body kept, truncated, extended or bit-flipped."""
    header, body = doc_to_bytes(valid_fixture()).split(b"\n", 1)
    doc, body = json.loads(header), bytearray(body)
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(JSON)
            break
    edit = draw(st.sampled_from(["keep", "truncate", "extend", "flip"]))
    if edit == "truncate":
        del body[draw(st.integers(0, len(body) - 1)) :]
    elif edit == "extend":
        body += draw(st.binary(min_size=1, max_size=16))
    elif edit == "flip":
        bit = draw(st.integers(0, 8 * len(body) - 1))
        body[bit // 8] ^= 1 << bit % 8
    return json.dumps(doc).encode() + b"\n" + body


# Every fixture command, with fixed flags that suit valid_fixture()'s three-point chain
FUZZ_COMMANDS = [
    ["axioms"],
    ["curvature"],
    ["angles", "--cap", "5"],
    ["fvf", "--point", "0", "--vertex", "1", "--target", "2"],
    ["rigidity", "--cap", "5"],
    ["quadrangle", "--vertices", "0,1,2,2"],
    ["lines"],
    ["strip", "--alpha", "0", "--beta", "0"],
    ["ray", "--point", "0", "--horizons", "1,2"],
    ["split"],
    ["roundtrip"],
]
# valid_fixture() holds no quadrangle p1 << p2 << p4 << p3; its two ray
# horizons give one drift, too few for a verdict, so ray reports SKIP
VALID_FIXTURE_EXIT = {"quadrangle": 2}


class TestFixtureFuzz:
    """Any JSON fixture gives exit 0, 1 or 2, never an uncaught exception."""

    @staticmethod
    def run_commands(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.json"
            path.write_bytes(data)
            for command, *extra in FUZZ_COMMANDS:
                assert main([command, str(path), *extra, "-o", str(Path(tmp) / "r.json")]) in (0, 1, 2)

    @pytest.mark.parametrize("argv", FUZZ_COMMANDS, ids=lambda argv: argv[0])
    def test_valid_fixture_runs(self, tmp_path, argv):
        command, *extra = argv
        path = tmp_path / "f.json"
        write_doc(path, valid_fixture())
        assert main([command, str(path), *extra]) == VALID_FIXTURE_EXIT.get(command, 0)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=JSON | st.fixed_dictionaries({"schema_version": st.sampled_from([1, 2, 3, 4]), "space": JSON}))
    def test_arbitrary_json(self, doc):
        """A header line with no newline and no body."""
        self.run_commands(json.dumps(doc).encode())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=mutated_fixtures())
    def test_mutated_fixture(self, data):
        self.run_commands(data)
