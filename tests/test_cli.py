"""Front-door behaviour: exit codes, report shape, determinism."""

import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from spiralpaste import (
    cli, counterexample, fdd, frechet_embed, line_space, load_map, load_space, space_to_doc, spiral,
)
from spiralpaste.cli import main
from .conftest import MAP_SCHEMA_ERRORS, SPACE_SCHEMA_ERRORS, WINDOW_END_DOC, random_integer_space


@pytest.fixture(scope="module")
def line_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("spaces") / "line.json"
    path.write_text(json.dumps(space_to_doc(line_space(n=24, r_max=1e6))))
    return str(path)


@pytest.fixture(scope="module")
def pair_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("spaces") / "pair.json"
    path.write_text(json.dumps({"basepoint": "o", "metric": "linf", "points": [
        {"id": "o", "coords": [0.0]},
        {"id": "a", "coords": [1.0]},
    ]}))
    return str(path)


@pytest.fixture(scope="module")
def int_doc(tmp_path_factory):
    sp = random_integer_space(np.random.default_rng(12), n_max=12)
    path = tmp_path_factory.mktemp("spaces") / "ints.json"
    path.write_text(json.dumps(space_to_doc(sp)))
    return str(path), sp


class TestEmbed:
    def test_spiral_report(self, line_doc, tmp_path):
        out = tmp_path / "r.json"
        code = main(["embed", "--input", line_doc, "--p", "2", "--epsilon", "0.2",
                     "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema_version"] == "1"
        assert rep["command"] == "embed"
        assert rep["config"]["p"] == 2.0
        assert rep["pass"] is True
        assert all(rep["checks"].values())
        assert rep["report"]["distortion"] <= rep["report"]["analytic_bound"]
        assert rep["seam"]["max_gap"] == 0.0
        assert rep["schedule"]["band_count"] >= 3

    def test_infinite_bound_serialised_as_string(self, line_doc, tmp_path):
        out = tmp_path / "r.json"
        code = main(["embed", "--input", line_doc, "--p", "3", "--epsilon", "0.2",
                     "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["analytic_bound"] == "inf"

    def test_frechet_method(self, int_doc, tmp_path):
        path, _ = int_doc
        out = tmp_path / "r.json"
        code = main(["embed", "--input", path, "--method", "frechet", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["distortion"] == 1.0

    @pytest.mark.parametrize("p", ["1", "2", "3"])
    @pytest.mark.parametrize("eps", ["0.002", "0.0001"])
    def test_tiny_epsilon_pastes(self, line_doc, tmp_path, p, eps):
        # R_2 = e^(pi/(2 eps)) is past double range, so radii from R_2 on are +inf
        out = tmp_path / "r.json"
        assert main(["embed", "--input", line_doc, "--p", p, "--epsilon", eps,
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert all(rep["checks"].values())
        assert rep["schedule"]["radii"][1:] == ["inf"] * (len(rep["schedule"]["radii"]) - 1)

    @pytest.mark.parametrize("xs, eps, argv", [
        # at 0.1 only R_80, the last block's ball radius, is past double range
        ([0.0, 1.0, 1e300], "0.1", ["embed", "--p", "2"]),
        ([0.0, 1.0, 1e300], "0.1", ["fdd-demo"]),
        ([0.0, 1.0, 1e200, 1.7e308], "0.5", ["embed", "--p", "2"]),
        ([0.0, 1.0, 1e200, 1.7e308], "0.5", ["fdd-demo"]),
        # pasted images stay inside double range: no target distance overflows
        ([0.0, 1.0, 1e200, 1e300, 1.7e308], "0.5", ["embed", "--p", "1"]),
        ([0.0, 1.0, 1e200, 1e300, 1.7e308], "0.5", ["embed", "--p", "2"]),
    ], ids=["1e300-embed", "1e300-fdd", "1.7e308-embed", "1.7e308-fdd", "five-1.7e308-p1",
            "five-1.7e308-p2"])
    def test_radii_past_double_range(self, tmp_path, xs, eps, argv):
        doc = {"basepoint": "x0", "metric": "linf",
               "points": [{"id": f"x{i}", "coords": [x]} for i, x in enumerate(xs)]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(argv + ["--input", str(path), "--epsilon", eps, "--out", str(out)]) == 0
        assert all(json.loads(out.read_text())["checks"].values())

    def test_sweep_past_double_range(self, line_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", line_doc, "--p", "2", "--eps", "0.2,0.001",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_point_just_above_first_radius(self, tmp_path):
        # rho = 1 + 1e-13, just above R_1 = 1
        doc = {"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]},
            {"id": "a", "coords": [1.0000000000001]},
            {"id": "b", "coords": [1e6]},
        ]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["embed", "--input", str(path), "--p", "2", "--epsilon", "0.2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["checks"]["seams_exact"] is True

    @staticmethod
    def embed_at_eps_tenth(tmp_path, doc):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        return main(["embed", "--input", str(path), "--p", "2", "--epsilon", "0.1",
                     "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("radius", [66356239.99341138, 4403150586063176.0])
    def test_point_one_ulp_above_an_odd_radius(self, tmp_path, radius):
        # one ulp above R_3 and R_5 at eps = 0.1, the automatic band count's edge
        doc = {"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]},
            {"id": "a", "coords": [1.0]},
            {"id": "b", "coords": [math.nextafter(radius, math.inf)]},
        ]}
        assert self.embed_at_eps_tenth(tmp_path, doc) == 0

    def test_point_one_ulp_below_an_even_radius(self, tmp_path):
        # the blend reaches (0, 1) at the window's end as built, so the pair
        # one ulp apart at R_4 keeps its distance
        assert self.embed_at_eps_tenth(tmp_path, WINDOW_END_DOC) == 0

    @pytest.mark.parametrize("x", [5.0, math.exp(math.pi / 0.4)])
    def test_huge_exponent(self, tmp_path, capsys, x):
        # 5 sits early in the first blend window; e^(pi/(4 eps)) at its middle
        doc = {"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]},
            {"id": "a", "coords": [1.0]},
            {"id": "b", "coords": [x]},
        ]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["embed", "--input", str(path), "--p", "3000", "--epsilon", "0.1",
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text())["report"]["analytic_bound"] == "inf"

    @pytest.mark.parametrize("p", ["8.99e307", "1e308", repr(sys.float_info.max)])
    def test_exponent_near_double_max(self, line_doc, tmp_path, p):
        # (p - 1)(p - 2) and 2p both overflow: the bound is +inf, not NaN
        out = tmp_path / "r.json"
        assert main(["embed", "--input", line_doc, "--p", p, "--epsilon", "0.2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["analytic_bound"] == "inf"


class TestInputErrors:
    def test_missing_file(self):
        assert main(["embed", "--input", "/nonexistent.json", "--p", "2",
                     "--epsilon", "0.2"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["embed", "--input", str(bad), "--p", "2", "--epsilon", "0.2"]) == 2

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"metric": "linf"}))
        assert main(["embed", "--input", str(bad), "--p", "2", "--epsilon", "0.2"]) == 2
        pair = {"basepoint": "o", "metric": "matrix", "points": [{"id": "o"}, {"id": "a"}]}
        docs = [dict(pair, matrix=matrix) for matrix in (
            [[False, True], [True, False]], [["0", "1"], ["1", "0"]],
            [[0, {"d": 1}], [1, 0]],
            # an integer literal beyond double range
            [[0, 10**400], [10**400, 0]],
        )]
        docs.append({"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0]}, {"id": "a", "coords": [10**400]}]})
        # distinct rows whose l2 distance underflows to 0
        docs.append({"basepoint": "o", "metric": "l2", "points": [
            {"id": "o", "coords": [0.0]}, {"id": "a", "coords": [1e-200]},
            {"id": "b", "coords": [1.0]}]})
        capsys.readouterr()
        for doc in docs:
            bad.write_text(json.dumps(doc))
            for argv in (["embed", "--method", "frechet"], ["embed", "--p", "2", "--epsilon", "0.2"],
                         ["fdd-demo", "--epsilon", "0.2"]):
                assert main(argv + ["--input", str(bad)]) == 2, doc
                err = capsys.readouterr().err
                assert err.startswith("error:") and "Traceback" not in err and "NaN" not in err
        for doc, message in SPACE_SCHEMA_ERRORS:
            bad.write_text(json.dumps(doc))
            assert main(["embed", "--input", str(bad), "--p", "2", "--epsilon", "0.2"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        bad.write_text(json.dumps({"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0]}, {"id": "a", "coords": [1]}]}))
        assert main(["embed", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == "error: the spiral method needs --p and --epsilon\n"
        assert main(["sweep", "--input", str(bad), "--p", "1,x", "--eps", "0.2"]) == 2
        assert "error: argument --p: not a comma list of floats: '1,x'" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("text, key", [
        ('{"basepoint": "o", "metric": "linf", "points": [{"id": "o", "coords": [0]},'
         ' {"id": "a", "coords": [1], "coords": [3]}]}', "coords"),
        ('{"basepoint": "o", "basepoint": "a", "metric": "linf", "points": [{"id": "o",'
         ' "coords": [0]}, {"id": "a", "coords": [1]}]}', "basepoint"),
    ], ids=["coords", "basepoint"])
    def test_repeated_key_in_a_space_is_schema_error(self, tmp_path, capsys, text, key):
        # json.load alone keeps the last of two equal keys
        bad = tmp_path / "space.json"
        bad.write_text(text)
        assert main(["embed", "--input", str(bad), "--p", "2", "--epsilon", "0.2"]) == 2
        assert capsys.readouterr().err == f"error: JSON in {bad} repeats key {key!r} in one object\n"

    @pytest.mark.parametrize("argv, out", [
        (["embed", "--p", "2", "--epsilon", "0.2"], "."),
        (["sweep", "--p", "2", "--eps", "0.2"], "missing/x.csv"),
    ], ids=["directory", "missing-parent"])
    def test_unwritable_out_is_input_error(self, line_doc, tmp_path, capsys, argv, out):
        capsys.readouterr()
        assert main(argv + ["--input", line_doc, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_flag_value(self, line_doc):
        assert main(["embed", "--input", line_doc, "--p", "two", "--epsilon", "0.2"]) == 2

    def test_empty_sweep_grid(self, line_doc):
        assert main(["sweep", "--input", line_doc, "--p", "", "--eps", "0.2"]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]}, {"id": "a", "coords": [1.0]},
            {"id": "b", "coords": [math.nan]}]},
         "error: coordinates of point 'b' must be finite\n"),
        ({"basepoint": "o", "metric": "matrix", "points": [{"id": "o"}, {"id": "a"}, {"id": "b"}],
          "matrix": [[0, 1, 2], [1, 0, math.inf], [2, math.inf, 0]]},
         "error: distances must be finite: entry ('a', 'b') is NaN or overflows double range\n"),
    ], ids=["coords", "matrix"])
    def test_non_finite_input_names_its_source(self, tmp_path, capsys, doc, message):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        assert main(["embed", "--input", str(path), "--p", "2", "--epsilon", "0.2"]) == 2
        assert capsys.readouterr().err == message

    def test_overflowing_distances(self, tmp_path, capsys):
        doc = {"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]},
            {"id": "a", "coords": [1.7e308]},
            {"id": "b", "coords": [-1.7e308]},
        ]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        assert main(["embed", "--input", str(path), "--method", "frechet"]) == 2
        assert "overflows double range" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["linf", "l2"])
    def test_points_without_coordinates(self, tmp_path, capsys, metric):
        # zero columns: every computed distance is 0
        doc = {"basepoint": "o", "metric": metric,
               "points": [{"id": pid, "coords": []} for pid in ("o", "a", "b")]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        assert main(["embed", "--input", str(path), "--p", "2", "--epsilon", "0.2"]) == 2
        assert "coordinate rows must be distinct points" in capsys.readouterr().err

    @pytest.mark.parametrize("coords", [5, [[0]], [True]])
    def test_coords_not_a_list_of_numbers(self, tmp_path, capsys, coords):
        doc = {"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]},
            {"id": "a", "coords": coords},
        ]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        assert main(["embed", "--input", str(path), "--p", "2", "--epsilon", "0.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_deeply_nested_json(self, int_doc, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for argv in (["embed", "--input", str(deep), "--p", "2", "--epsilon", "0.2"],
                     ["distortion", "--input", int_doc[0], "--map", str(deep)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "nests too deeply" in err and "Traceback" not in err

    def test_eps_list_product_too_small(self, pair_doc, capsys):
        # prod(1 - eps_n) = 0.5 is not above 1 - epsilon = 0.8: bad input, like a
        # list of the wrong length, not a failed check
        assert main(["fdd-demo", "--input", pair_doc, "--epsilon", "0.2",
                     "--eps-list", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: --eps-list: prod(1 - eps_n)")

    @pytest.mark.parametrize("eps_list, message", [
        ("0.5", "need one eps per block: got 1 for 2 blocks"),
        ("0.1,0.1,0.1", "need one eps per block: got 3 for 2 blocks"),
        ("0,1", "block eps values must lie in [0, 1)"),
        ("nan,0", "block eps values must lie in [0, 1)"),
    ], ids=["too-short", "too-long", "entry-one", "entry-nan"])
    def test_eps_list_rejections_name_the_flag(self, tmp_path, capsys, eps_list, message):
        # the block count is the band count of the pasted schedule: 2 for {0, 3} at 0.2
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]}, {"id": "a", "coords": [3.0]}]}))
        assert main(["fdd-demo", "--input", str(path), "--epsilon", "0.2",
                     f"--eps-list={eps_list}"]) == 2
        assert capsys.readouterr().err == f"error: --eps-list: {message}\n"

    def test_default_eps_list_passes_at_tiny_epsilon(self, pair_doc, line_doc, capsys):
        # 1 - 1e-320 rounds to 1, so the product condition is compared as 1 - prod < eps
        assert main(["fdd-demo", "--input", pair_doc, "--epsilon", "1e-320"]) == 0
        capsys.readouterr()
        assert main(["fdd-demo", "--input", line_doc, "--epsilon", "0.2",
                     "--eps-list", "0.5,0.5,0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: --eps-list: prod(1 - eps_n)")

    @pytest.mark.parametrize("argv", [
        ["embed", "--p", "2", "--epsilon", "0.2"],
        ["fdd-demo", "--epsilon", "0.2"],
        ["sweep", "--p", "2", "--eps", "0.2"],
    ])
    def test_one_point_space(self, tmp_path, capsys, argv):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(
            {"basepoint": "o", "metric": "linf", "points": [{"id": "o", "coords": [0.0]}]}))
        assert main(argv + ["--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: distortion needs at least two points\n"


class TestDistortionCommand:
    def build_map_doc(self, sp):
        fm = frechet_embed(sp)
        return {
            "p": "sup",
            "block_dims": [fm.dimension],
            "images": {pid: {"1": [float(x) for x in fm[pid]]} for pid in sp.ids},
        }

    def test_isometric_map(self, int_doc, tmp_path):
        path, sp = int_doc
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(self.build_map_doc(sp)))
        out = tmp_path / "r.json"
        code = main(["distortion", "--input", path, "--map", str(map_path),
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["report"]["distortion"] == 1.0

    def test_images_of_other_ids_are_ignored(self, int_doc, tmp_path):
        # a map of a larger space measures its restriction to the input's points
        path, sp = int_doc
        doc = self.build_map_doc(sp)
        extra = dict(doc, images=dict(doc["images"], zzz={"1": [1e6] * doc["block_dims"][0]}))
        reports = []
        for map_doc in (doc, extra):
            map_path = tmp_path / "map.json"
            map_path.write_text(json.dumps(map_doc))
            out = tmp_path / "r.json"
            assert main(["distortion", "--input", path, "--map", str(map_path),
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1]

    def test_bound_violation_exits_one(self, int_doc, tmp_path):
        path, sp = int_doc
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(self.build_map_doc(sp)))
        assert main(["distortion", "--input", path, "--map", str(map_path),
                     "--bound", "0.99"]) == 1

    def test_non_injective_map(self, int_doc, tmp_path):
        path, sp = int_doc
        doc = self.build_map_doc(sp)
        zero = {"1": [0.0] * doc["block_dims"][0]}
        doc["images"] = {pid: zero for pid in doc["images"]}
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["distortion", "--input", path, "--map", str(map_path),
                     "--out", str(out)]) == 1
        assert json.loads(out.read_text())["report"]["distortion"] == "inf"

    def test_overflowing_target_distance_names_its_pair(self, tmp_path, capsys):
        # valid inputs whose image distances 2e308 and 2.5e308 overflow a double
        space = {"basepoint": "x0", "metric": "linf",
                 "points": [{"id": f"x{i}", "coords": [float(i)]} for i in range(3)]}
        doc = {"p": 2, "block_dims": [1],
               "images": {"x0": {"1": [-1e308]}, "x1": {"1": [1e308]}, "x2": {"1": [1.5e308]}}}
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "map.json").write_text(json.dumps(doc))
        assert main(["distortion", "--input", str(tmp_path / "space.json"),
                     "--map", str(tmp_path / "map.json")]) == 2
        assert capsys.readouterr().err == (
            "error: target distances must be finite: pair ('x0', 'x1') has a distance or "
            "ratio that is NaN or out of double range\n")

    @pytest.mark.parametrize("pid, blocks, message", [
        ("zzz", {"1": [1, 2]}, "block 1 has shape (2,), expected (1,)"),
        ("b", {"3": [1]}, "block index 3 outside 1..1"),
    ], ids=["shape", "index"])
    def test_block_errors_name_the_image(self, pair_doc, tmp_path, capsys, pid, blocks, message):
        doc = {"p": 2, "block_dims": [1], "images": {"o": {"1": [0]}, "a": {"1": [1]}, pid: blocks}}
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        assert main(["distortion", "--input", pair_doc, "--map", str(map_path)]) == 2
        assert capsys.readouterr().err == f"error: image of {pid!r}: {message}\n"

    @pytest.mark.parametrize("keys", [("1", "01"), ("01", "1")])
    def test_duplicate_block_keys_are_schema_errors(self, pair_doc, tmp_path, capsys, keys):
        # "1" and "01" both parse to block 1; neither may silently win
        doc = {"p": 2, "block_dims": [1],
               "images": {"o": {"1": [0]}, "a": dict(zip(keys, ([5], [1])))}}
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        assert main(["distortion", "--input", pair_doc, "--map", str(map_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: block keys {keys[0]!r} and {keys[1]!r} of 'a' both name block 1\n")

    @pytest.mark.parametrize("key", [" 1", "+1", "\u0661", "1_0"])
    def test_block_keys_are_decimal_digits(self, pair_doc, tmp_path, capsys, key):
        # int() reads the first three as block 1 and "1_0" as block 10; "01" is block 1
        map_path = tmp_path / "map.json"

        def run(key):
            doc = {"p": 2, "block_dims": [1] * 10, "images": {"o": {}, "a": {key: [1]}}}
            map_path.write_text(json.dumps(doc))
            return main(["distortion", "--input", pair_doc, "--map", str(map_path)])

        assert run(key) == 2
        assert capsys.readouterr().err == f"error: block key {key!r} of 'a' is not an integer\n"
        assert run("01") == 0

    @pytest.mark.parametrize("doc, message", MAP_SCHEMA_ERRORS.values(), ids=MAP_SCHEMA_ERRORS)
    def test_map_schema_errors(self, pair_doc, tmp_path, capsys, doc, message):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        assert main(["distortion", "--input", pair_doc, "--map", str(map_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("images, key", [
        ('{"o": {"1": [0]}, "a": {"1": [5], "1": [1]}}', "1"),
        ('{"o": {"1": [0]}, "a": {"1": [1]}, "a": {"1": [5]}}', "a"),
    ], ids=["block", "point"])
    def test_repeated_json_keys_are_schema_errors(self, pair_doc, tmp_path, capsys, images, key):
        # json.load alone keeps the last value, which silently sets the report
        map_path = tmp_path / "map.json"
        map_path.write_text('{"p": 2, "block_dims": [1], "images": ' + images + "}")
        assert main(["distortion", "--input", pair_doc, "--map", str(map_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: JSON in {map_path} repeats key {key!r} in one object\n")

    def test_readme_examples(self, tmp_path):
        # the space under "Metric-space documents" and the map under "Map documents"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paths = []
        for title, load in (("Metric-space documents", load_space), ("Map documents", load_map)):
            doc = json.loads(re.search(r"```json\n(.*?)```", readme.split(f"### {title}")[1], re.S)[1])
            load(doc)
            paths.append(tmp_path / f"{load.__name__}.json")
            paths[-1].write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["distortion", "--input", str(paths[0]), "--map", str(paths[1]),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["distortion"] == 1.0

    def test_missing_image_is_schema_error(self, int_doc, tmp_path):
        path, sp = int_doc
        doc = self.build_map_doc(sp)
        doc["images"].pop(sorted(doc["images"])[1])
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        assert main(["distortion", "--input", path, "--map", str(map_path)]) == 2


class TestOtherCommands:
    def test_counterexample_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["counterexample", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["ball_points"] == 34
        assert all(rep["checks"].values())
        assert len(rep["separations"]) == 5
        assert rep["checks"]["rays_in_carrier"] is True
        # tips 3^(t-1) apart keep 3^(t-1) - 2 (1/9) 3^t = 3^(t-2) once tails are cut
        assert rep["tail_epsilon"] == "1/9"
        rows = {row["level"]: row for row in rep["packing"]}
        assert [rows[t]["delta"] for t in range(2, 7)] == [1.0, 3.0, 9.0, 27.0, 81.0]
        assert rows[6]["radius"] == 364.0
        assert rows[6]["bound_dim_1"] == 4 * 364 / 81

    def test_counterexample_depth_is_width_count(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["counterexample", "--N", "2,3,4", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["depth"] == 3 and rep["levels"] == [2, 3, 4]
        assert rep["config"]["levels"] == [2, 3, 4]

    @pytest.mark.parametrize("argv, code", [
        (["--N", "2,3,4", "--rays", "3"], 0),
        (["--N", "5", "--rays", "1"], 0),
        (["--rays", "0"], 2),
    ], ids=["last-width-uncovered", "one-level", "no-rays"])
    def test_counterexample_rays_cover_levels_below_the_last(self, tmp_path, argv, code):
        assert main(["counterexample", *argv, "--out", str(tmp_path / "r.json")]) == code

    @pytest.mark.parametrize("argv", [
        ["--N", "1,2", "--rays", "1"],
        ["--N", "1,2,3", "--rays", "2"],
    ], ids=["depth-2", "depth-3"])
    def test_counterexample_first_width_one_needs_one_level(self, tmp_path, capsys, argv):
        # the level-2 separation compares the tips of N_1 rays, so N_1 = 1 leaves no pair
        assert main(["counterexample", *argv, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error: --N: N_1 must be at least 2")
        assert main(["counterexample", "--N", "1", "--rays", "1",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_counterexample_separation_shortfall_fails(self, monkeypatch, tmp_path):
        # rays 1 and 2 share every tip, so the level-t witnesses collapse
        real = counterexample.ray_point
        monkeypatch.setattr(counterexample, "ray_point",
                            lambda cfg, j, t: real(cfg, 1 if j == 2 else j, t))
        out = tmp_path / "r.json"
        assert main(["counterexample", "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["checks"]["separations_at_bound"] is False
        assert all(s["min_distance"] == 0 for s in rep["separations"])

    def test_spiral_zero_eps(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        assert main(["spiral", "--epsilon", "0", "--tmax", "100", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["distortion"] == 1.0
        assert rep["checks"]["identity_exact"] is True

    def test_spiral_far_range(self, tmp_path):
        # the smallest sample gaps (~0.1) lie far below 64 ulp of the 1e20
        # diameter: the coordinate kinds accept that, the matrix rule would not
        assert main(["spiral", "--epsilon", "0.1", "--tmax", "1e20",
                     "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("tmax", ["1.7e308", "1.79e308"])
    def test_spiral_overflowing_point_distance(self, capsys, tmp_path, tmax):
        # the curve's far points lie on opposite sides: their distance overflows
        assert main(["spiral", "--epsilon", "1", "--tmax", tmax, "--samples", "512",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --tmax {float(tmax)!r} with --samples 512: "
                              "target distances must be finite: pair ('t05")
        assert "RuntimeWarning" not in err and not (tmp_path / "r.json").exists()

    def test_spiral_too_large_to_allocate(self, capsys, tmp_path):
        # the l2 distance matrix of 10^6 samples needs 7.28 TiB, which the kernel refuses
        assert main(["spiral", "--epsilon", "0.1", "--samples", "1000000",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 7.28 TiB") and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_fdd_demo(self, line_doc, tmp_path):
        out = tmp_path / "r.json"
        assert main(["fdd-demo", "--input", line_doc, "--epsilon", "0.2",
                     "--seed", "5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["equivalence"]["max_ratio"] == 2.0
        assert rep["pair_isometry_deviation"] == 0.0

    def test_fdd_demo_equivalence_is_judged_by_the_report(self, monkeypatch, tmp_path):
        # a renorming 100x the sup norm escapes [1, 4(1+eps)/(1-eps)]: the report
        # is written and its check fails, rather than the run ending in an error
        real = fdd.FddModel.fold

        def renormed_100x(model):
            fold = real.fget(model)

            def scaled(shape, blocks):
                a, amb = fold(shape, blocks)
                return 100.0 * a, amb

            return scaled

        monkeypatch.setattr(fdd.FddModel, "fold", property(renormed_100x))
        path = tmp_path / "line3.json"
        path.write_text(json.dumps({"basepoint": "o", "metric": "linf", "points": [
            {"id": "o", "coords": [0.0]}, {"id": "a", "coords": [1.0]},
            {"id": "b", "coords": [3.0]}]}))
        out = tmp_path / "r.json"
        assert main(["fdd-demo", "--input", str(path), "--epsilon", "0.2",
                     "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["equivalence"]["max_ratio"] > rep["equivalence"]["bound"]
        assert rep["checks"]["equivalence_within_bound"] is False
        assert rep["pass"] is False

    def test_counterexample_deep_family(self, tmp_path):
        # 3^T passes 2^53 from T = 34 on, so only exact integers keep these checks
        out = tmp_path / "r.json"
        levels = ",".join(str(n) for n in range(2, 42))
        assert main(["counterexample", "--N", levels, "--rays", "40", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["depth"] == 40
        assert all(rep["checks"].values())
        assert rep["ball_points"] == 1462
        assert len(rep["separations"]) == 39
        assert all(s["min_distance"] >= s["bound"] for s in rep["separations"])
        assert len(rep["rays"]) == 40
        assert all(len(r["points"]) == 41 for r in rep["rays"])

    def test_sweep_rows(self, line_doc, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", line_doc, "--p", "1,2", "--eps",
                     "0.2,0.1", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "p,epsilon,distortion,bound,margin"
        assert len(rows) == 5
        # per exponent, the measured column shrinks with eps
        for base in (1, 3):
            assert float(rows[base].split(",")[2]) > float(rows[base + 1].split(",")[2])


class TestSpiralVerdict:
    """``embed`` and every ``sweep`` cell are judged by the same three checks."""

    @pytest.mark.parametrize("check", ["seams_exact", "norm_preservation"])
    def test_failed_check_fails_embed_and_sweep(self, monkeypatch, line_doc, tmp_path, check):
        if check == "seams_exact":
            monkeypatch.setattr(cli, "seam_check", lambda emb: (1.0, 1))
        else:
            monkeypatch.setattr(spiral.PastedEmbedding, "norm_preservation_error", lambda self: 1.0)
        report = tmp_path / "r.json"
        assert main(["embed", "--input", line_doc, "--p", "2", "--epsilon", "0.2",
                     "--out", str(report)]) == 1
        checks = json.loads(report.read_text())["checks"]
        assert [name for name, ok in checks.items() if not ok] == [check]
        table = tmp_path / "s.csv"
        assert main(["sweep", "--input", line_doc, "--p", "2", "--eps", "0.2",
                     "--out", str(table)]) == 1
        rows = table.read_text().splitlines()
        assert rows[0] == "p,epsilon,distortion,bound,margin" and len(rows) == 2

    def test_sweep_cell_is_the_embed_verdict(self, line_doc, tmp_path):
        table = tmp_path / "s.csv"
        assert main(["sweep", "--input", line_doc, "--p", "1,2", "--eps", "0.5,0.2",
                     "--out", str(table)]) == 0
        with table.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["p"], r["epsilon"]) for r in rows] == [
            ("1.0", "0.5"), ("1.0", "0.2"), ("2.0", "0.5"), ("2.0", "0.2")]
        for row in rows:
            out = tmp_path / "r.json"
            assert main(["embed", "--input", line_doc, "--p", row["p"], "--epsilon", row["epsilon"],
                         "--out", str(out)]) == 0
            rep = json.loads(out.read_text())["report"]
            distortion, bound = float(row["distortion"]), float(row["bound"])
            assert distortion == rep["distortion"]
            assert bound == float(rep["analytic_bound"])  # "inf" in the report where the bound is vacuous
            assert float(row["margin"]) == bound - distortion


PAIR_MAP = {"p": "sup", "block_dims": [1], "images": {"o": {"1": [0]}, "a": {"1": [1]}}}


class TestFlags:
    @pytest.fixture
    def base_argv(self, line_doc, pair_doc, tmp_path):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(PAIR_MAP))
        return {
            "embed": ["--input", line_doc, "--p", "2", "--epsilon", "0.2"],
            "distortion": ["--input", pair_doc, "--map", str(map_path)],
            "counterexample": [],
            "fdd-demo": ["--input", line_doc, "--epsilon", "0.2"],
            "spiral": ["--epsilon", "0.1", "--tmax", "100", "--samples", "64"],
            "sweep": ["--input", line_doc, "--p", "2", "--eps", "0.2"],
        }

    @pytest.mark.parametrize("command, keys", [
        ("embed", {"input", "p", "epsilon", "method", "out"}),
        ("distortion", {"input", "map", "bound", "out"}),
        ("counterexample", {"rays", "levels", "out"}),
        ("fdd-demo", {"input", "epsilon", "eps_list", "samples", "seed", "out"}),
        ("spiral", {"epsilon", "tmax", "samples", "out"}),
    ])
    def test_config_echoes_only_the_subcommands_flags(self, base_argv, tmp_path, command, keys):
        out = tmp_path / "r.json"
        assert main([command, *base_argv[command], "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["config"]) == {"subcommand"} | keys

    # Flags that size an allocation (--samples, --rays, --N) are left out: a
    # large value would really allocate that much.  counterexample has no other.
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-320"])
    @pytest.mark.parametrize("command, flag", [
        ("embed", "--p"), ("embed", "--epsilon"), ("distortion", "--bound"),
        ("fdd-demo", "--epsilon"), ("fdd-demo", "--eps-list"), ("fdd-demo", "--seed"),
        ("spiral", "--epsilon"), ("spiral", "--tmax"), ("sweep", "--p"), ("sweep", "--eps"),
    ])
    def test_numeric_flag_extremes_exit_classified(self, base_argv, tmp_path, capsys,
                                                   command, flag, value):
        argv = base_argv[command]
        if flag in argv:
            i = argv.index(flag)
            argv = argv[:i] + argv[i + 2:]
        if flag == "--eps-list":
            value = ",".join([value] * 3)  # one per block of the line at epsilon 0.2
        # "--flag=value", so that "-inf" is not read as an option name
        assert main([command, *argv, f"{flag}={value}", "--out", str(tmp_path / "r")]) in (0, 1, 2)
        err = capsys.readouterr().err
        assert "NaN reached a report" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["--epsilon=nan"], "--epsilon"), (["--epsilon=-inf"], "--epsilon"),
        (["--epsilon=0.1", "--tmax=inf"], "--tmax"), (["--epsilon=0.1", "--tmax=nan"], "--tmax"),
        (["--epsilon=1e308"], "--epsilon times ln(--tmax) overflows"),
        (["--epsilon=0.1", "--tmax=1"], "--tmax"), (["--epsilon=0.1", "--samples=1"], "--samples"),
        # the samples t_max^(k/samples) coincide as doubles
        (["--epsilon=0.1", "--tmax=1.0000000000001", "--samples=512"],
         "--tmax 1.0000000000001 with --samples 512"),
        (["--epsilon=0.1", "--tmax=1.0000000000000002", "--samples=3"],
         "--tmax 1.0000000000000002 with --samples 3"),
    ], ids=["epsilon-nan", "epsilon-neg-inf", "tmax-inf", "tmax-nan", "angle-overflow",
            "tmax-1", "samples-1", "samples-coincide-512", "samples-coincide-3"])
    def test_spiral_rejects_by_flag_name(self, capsys, argv, flag):
        assert main(["spiral", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv, flag", [
        (["--rays=3"], "--rays: ray_count 3 cannot cover"), (["--N=0"], "--N: level widths must be positive"),
    ], ids=["rays-short", "N-zero"])
    def test_counterexample_rejects_by_flag_name(self, capsys, argv, flag):
        assert main(["counterexample", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv, flag", [
        (["--samples=0"], "--samples"), (["--samples=-5"], "--samples"), (["--seed=-1"], "--seed"),
    ], ids=["samples-0", "samples-neg", "seed-neg"])
    def test_fdd_demo_rejects_by_flag_name(self, line_doc, capsys, argv, flag):
        assert main(["fdd-demo", "--input", line_doc, "--epsilon", "0.2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err


class TestDeterminism:
    def test_embed_bytes_stable(self, line_doc, tmp_path):
        out = tmp_path / "r.json"
        argv = ["embed", "--input", line_doc, "--p", "2", "--epsilon", "0.2",
                "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_fdd_bytes_stable(self, line_doc, tmp_path):
        out = tmp_path / "r.json"
        argv = ["fdd-demo", "--input", line_doc, "--epsilon", "0.2", "--seed", "9",
                "--samples", "150", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_sweep_bytes_stable(self, line_doc, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--input", line_doc, "--p", "1,2", "--eps", "0.2,0.1",
                "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
