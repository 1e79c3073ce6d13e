import json

import numpy as np
import pytest

from curveclust import warping
from curveclust.cli import main
from curveclust.io import (
    read_curves_csv,
    read_labels_csv,
    read_partition_json,
    write_curves_csv,
)
from curveclust.pipeline import RunConfig, prepare_curves
from curveclust.similarity import similarity


@pytest.fixture()
def small_dataset(tmp_path):
    curves = tmp_path / "curves.csv"
    labels = tmp_path / "labels.csv"
    code = main(
        [
            "simulate", "--scenario", "s33b", "--sizes", "2,2", "--points", "80",
            "--seed", "1", "--out", str(curves), "--labels", str(labels),
        ]
    )
    assert code == 0
    return curves, labels


@pytest.fixture(scope="module")
def s31_dataset(tmp_path_factory):
    folder = tmp_path_factory.mktemp("s31")
    curves, labels = folder / "curves.csv", folder / "labels.csv"
    code = main(
        [
            "simulate", "--scenario", "s31", "--sizes", "2,2,2", "--seed", "1",
            "--out", str(curves), "--labels", str(labels),
        ]
    )
    assert code == 0
    return curves


class TestSimulate:
    def test_writes_csv_pair(self, small_dataset):
        curves, labels = small_dataset
        names, points, samples = read_curves_csv(curves)
        assert names == ["0", "1", "2", "3"]
        assert len(points) == 80 and samples.shape == (4, 80)
        parsed = read_labels_csv(labels)
        assert parsed == {"0": "1", "1": "1", "2": "2", "3": "2"}

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "c.csv"
        points = np.linspace(0, 1, 60)
        rows = np.sin(np.outer([1, 2], points))
        write_curves_csv(path, ["a", "b"], points, rows)
        names, got_points, got_rows = read_curves_csv(path)
        np.testing.assert_array_equal(got_points, points)
        np.testing.assert_array_equal(got_rows, rows)
        assert names == ["a", "b"]


class TestCluster:
    def test_cluster_and_evaluate(self, small_dataset, tmp_path, capsys):
        curves, labels = small_dataset
        out = tmp_path / "result.json"
        code = main(
            [
                "cluster", "--input", str(curves), "--lambda0", "0.0",
                "--grid", "80", "--max-iter", "4", "--output", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) >= {
            "partition", "threshold", "index_name", "index_value", "iterations", "candidates",
        }
        assert data["partition"] == [["0", "1"], ["2", "3"]]
        assert data["index_name"] == "silhouette"
        assert all(len(w) == 101 for w in data["warps"].values())

        code = main(["evaluate", "--pred", str(out), "--truth", str(labels)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "1.000000"

    def test_byte_identical_reruns(self, small_dataset, tmp_path):
        curves, _ = small_dataset
        outputs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = main(
                [
                    "cluster", "--input", str(curves), "--lambda0", "0.25",
                    "--grid", "80", "--max-iter", "3",
                    "--output", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_same_bytes_with_zero_one_and_two_helpers(self, s31_dataset, tmp_path, monkeypatch):
        outputs = []
        for count in (0, 1, 2):
            monkeypatch.setattr(warping, "_spare_cpus", lambda: count)
            out = tmp_path / f"helpers{count}.json"
            code = main(
                [
                    "cluster", "--input", str(s31_dataset), "--lambda0", "0.5",
                    "--grid", "100", "--max-iter", "3", "--output", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_dunn_index_flags(self, small_dataset, tmp_path):
        curves, _ = small_dataset
        out = tmp_path / "result.json"
        code = main(
            [
                "cluster", "--input", str(curves), "--lambda0", "0.0",
                "--index", "dunn", "--dunn-inter", "I3", "--dunn-intra", "J2",
                "--grid", "80", "--max-iter", "3", "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["index_name"] == "dunn-I3-J2"


class TestAlign:
    def test_align_pair(self, small_dataset, tmp_path):
        curves, _ = small_dataset
        out = tmp_path / "align.json"
        code = main(
            [
                "align", "--input", str(curves), "--pair", "0,1",
                "--lambda0", "0.0", "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["rho"] >= 0.99  # same-shape pair
        assert len(data["warp"]) == 101
        assert {"penalty_fwd", "penalty_inv", "r_fwd", "r_inv"} <= set(data)

    def test_unknown_id_is_invalid_input(self, small_dataset, tmp_path):
        curves, _ = small_dataset
        code = main(
            [
                "align", "--input", str(curves), "--pair", "0,99",
                "--lambda0", "0.0", "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2


    def test_grid_matches_library_similarity(self, s31_dataset, tmp_path):
        out = tmp_path / "align.json"
        code = main(
            [
                "align", "--input", str(s31_dataset), "--pair", "0,2",
                "--lambda0", "0.5", "--grid", "100", "--out", str(out),
            ]
        )
        assert code == 0
        names, points, samples = read_curves_csv(s31_dataset)
        curves = prepare_curves(points, samples, RunConfig(lambda0=0.5, grid_size=100))
        entry = similarity(curves[0], curves[2], 0.5)
        assert json.loads(out.read_text())["rho"] == entry.rho


class TestIndexes:
    def test_prints_all_variants(self, small_dataset, tmp_path, capsys):
        curves, _ = small_dataset
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps([["0", "1"], ["2", "3"]]))
        code = main(
            [
                "indexes", "--input", str(curves), "--partition", str(partition),
                "--lambda0", "0.0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("silhouette ")
        names = [line.split()[0] for line in lines[1:]]
        assert names == [
            "dunn_I1_J1", "dunn_I1_J2", "dunn_I2_J1", "dunn_I2_J2", "dunn_I3_J1", "dunn_I3_J2",
        ]


    def test_grid_reproduces_cluster_index_value(self, s31_dataset, tmp_path, capsys):
        result = tmp_path / "result.json"
        code = main(
            [
                "cluster", "--input", str(s31_dataset), "--lambda0", "0.5",
                "--grid", "100", "--output", str(result),
            ]
        )
        assert code == 0
        data = json.loads(result.read_text())
        assert data["index_name"] == "silhouette"
        capsys.readouterr()
        code = main(
            [
                "indexes", "--input", str(s31_dataset), "--partition", str(result),
                "--lambda0", "0.5", "--grid", "100",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"silhouette {data['index_value']:.6f}"


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        code = main(
            [
                "cluster", "--input", str(tmp_path / "none.csv"), "--lambda0", "0.0",
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "points",
        [
            [0.0, 0.5, 1.0],
            [0.0, 0.4, 0.3, 1.0],
            [0.1, 0.4, 0.7, 1.0],
            [0.0, 0.3, 0.6, 0.9],
            # valid, but no smoothing spline can be fit on it
            [*np.linspace(0.0, 0.1, 30), 1.0],
        ],
    )
    def test_bad_time_points_invalid_input(self, tmp_path, points):
        path = tmp_path / "bad.csv"
        write_curves_csv(path, ["0", "1"], points, [np.sin(points), np.cos(points)])
        code = main(
            [
                "cluster", "--input", str(path), "--lambda0", "0.0",
                "--grid", "60", "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "case", ["nan", "inf", "ragged row", "empty cell", "duplicate ids", "one curve"]
    )
    def test_malformed_curves_csv_invalid_input(self, tmp_path, capsys, case):
        points = np.linspace(0.0, 1.0, 30)  # enough points for a smoothing fit
        rows = [[str(i), *map(repr, np.sin(3 * points + i).tolist())] for i in range(3)]
        if case in ("nan", "inf"):
            rows[1][5] = case
        elif case == "ragged row":
            del rows[1][-1]
        elif case == "empty cell":
            rows[1][5] = ""
        elif case == "duplicate ids":
            rows[1][0] = rows[0][0]
        else:
            del rows[1:]
        path = tmp_path / "bad.csv"
        lines = [["id", *map(repr, points.tolist())], *rows]
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        code = main(
            [
                "cluster", "--input", str(path), "--lambda0", "0.0",
                "--grid", "60", "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["cluster", "align", "indexes"])
    def test_non_finite_lambda0_invalid_input(self, small_dataset, tmp_path, capsys, command, value):
        curves, _ = small_dataset
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps([["0", "1"], ["2", "3"]]))
        rest = {
            "cluster": ["--output", str(tmp_path / "out.json")],
            "align": ["--pair", "0,1", "--out", str(tmp_path / "align.json")],
            "indexes": ["--partition", str(partition)],
        }[command]
        code = main([command, "--input", str(curves), "--lambda0", value, "--grid", "60", *rest])
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["error: lambda0 must be finite and nonnegative"]
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "align.json").exists()

    def test_constant_curve_degenerate(self, tmp_path):
        path = tmp_path / "flat.csv"
        points = np.linspace(0, 1, 60)
        rows = np.vstack([np.ones_like(points), np.sin(points)])
        write_curves_csv(path, ["0", "1"], points, rows)
        code = main(
            [
                "cluster", "--input", str(path), "--lambda0", "0.0",
                "--grid", "60", "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 3

    def test_partition_json_accepts_bare_array(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([["0"], ["1"]]))
        assert read_partition_json(path) == [["0"], ["1"]]
