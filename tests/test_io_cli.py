import json

import numpy as np
import pytest

from lorentzgeo.cli import main
from lorentzgeo.errors import NoSeries, ShapeError
from lorentzgeo.fixtures import base_pair, base_point, minkowski_grid
from lorentzgeo.io import (
    deterministic_view,
    emit_plotdata,
    fixture_from_dict,
    fixture_to_dict,
    load_fixture,
    load_report,
    make_report,
    save_fixture,
)
from lorentzgeo.parallels import LineSample
from lorentzgeo.sampled import Chain
from lorentzgeo.splitting import build_product


class TestFixtureIO:
    def test_round_trip_identity(self, tmp_path):
        space, lines = build_product(base_pair(1.5), np.arange(-2.0, 2.5, 0.5))
        chain = Chain([0, 1, 2], [0.0, 0.5, 1.0])
        path = tmp_path / "f.json"
        save_fixture(path, space, lines, [chain], base_pair(1.5), {"note": 1})
        space2, lines2, chains2, base2, meta2 = load_fixture(path)
        assert np.array_equal(space2.tau, space.tau)
        assert np.array_equal(space2.causal, space.causal)
        assert len(lines2) == len(lines)
        assert np.array_equal(lines2[0].points, lines[0].points)
        assert lines2[0].step == lines[0].step
        assert np.array_equal(chains2[0].points, chain.points)
        assert np.array_equal(base2.dist, base_pair(1.5).dist)
        assert meta2 == {"note": 1}
        # byte-identical on re-save
        save_fixture(tmp_path / "g.json", space2, lines2, chains2, base2, meta2)
        assert (tmp_path / "f.json").read_bytes() == (tmp_path / "g.json").read_bytes()

    def test_bad_schema_rejected(self):
        with pytest.raises(ShapeError):
            fixture_from_dict({"schema_version": 99})

    def test_out_of_range_indices_rejected(self):
        space = minkowski_grid(3, 3, 1.0)
        doc = fixture_to_dict(space, [LineSample([0, 99], 0.0, 1.0)])
        with pytest.raises(ShapeError):
            fixture_from_dict(doc)


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

    def test_lines_and_strip(self, tripod_fixture):
        assert main(["lines", str(tripod_fixture)]) == 0
        assert main(["strip", str(tripod_fixture), "--alpha", "1", "--beta", "2"]) == 0

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
        report = load_report(tmp_path / "quad_quadrangle.json")
        assert abs(report["checks"][0]["value"]) <= 1e-9

    def test_ray(self, tmp_path):
        from lorentzgeo.fixtures import plane_ray_fan

        space, line, info = plane_ray_fan((0.0, 1.0), 0.0, [8, 16, 32], 36, fan_spacing=0.5)
        path = tmp_path / "fan.json"
        save_fixture(path, space, [line])
        assert main(
            ["ray", str(path), "--line", "0", "--point", str(info["p"]), "--horizons", "8,16,32"]
        ) == 0

    def test_deterministic_reports(self, tripod_fixture):
        out1 = tripod_fixture.with_name("r1.json")
        out2 = tripod_fixture.with_name("r2.json")
        main(["curvature", str(tripod_fixture), "--direction", "above", "--cap", "300", "-o", str(out1)])
        main(["curvature", str(tripod_fixture), "--direction", "above", "--cap", "300", "-o", str(out2)])
        assert deterministic_view(load_report(out1)) == deterministic_view(load_report(out2))

    @pytest.mark.parametrize("command", ["curvature", "axioms", "lines", "split"])
    def test_non_finite_tau_exit_2(self, tripod_fixture, command):
        doc = json.loads(tripod_fixture.read_text())
        doc["space"]["tau"][0][40] = float("nan")
        tripod_fixture.write_text(json.dumps(doc))
        assert main([command, str(tripod_fixture)]) == 2

    def test_vacuous_certificate_is_skip(self, tmp_path):
        # at K = -4 the timelike diameter pi/2 is below every triangle's longest side
        path = tmp_path / "chain.json"
        save_fixture(path, build_product(base_point(), np.arange(0.0, 5.0))[0])
        assert main(["curvature", str(path), "--k", "-4", "-o", str(tmp_path / "r.json")]) == 0
        check = load_report(tmp_path / "r.json")["checks"][0]
        assert check["n_triangles"] == 0
        assert check["status"] == "SKIP"

    def test_usage_error_exit_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["axioms", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "space": {"n": 2, "tau": [[0]], "causal": [[1]]}}))
        assert main(["axioms", str(bad)]) == 2

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
