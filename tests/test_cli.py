import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveclust
from curveclust import warping
from curveclust.cli import _build_parser, main
from curveclust.errors import InvalidInputError, WarpRangeError
from curveclust.io import (
    read_curves_csv,
    read_labels_csv,
    read_partition_json,
    write_curves_csv,
    write_labels_csv,
    write_text,
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


def test_subcommands_take_run_config_defaults():
    # align and indexes reproduce a cluster run's values only on its grid
    required = {
        "cluster": ["--input", "c.csv", "--lambda0", "0", "--output", "r.json"],
        "align": ["--input", "c.csv", "--pair", "0,1", "--lambda0", "0", "--out", "a.json"],
        "indexes": ["--input", "c.csv", "--partition", "r.json", "--lambda0", "0"],
    }
    parser = _build_parser()
    parsed = {command: parser.parse_args([command, *args]) for command, args in required.items()}
    grids = {command: args.grid for command, args in parsed.items()}
    assert grids == dict.fromkeys(required, RunConfig.grid_size)
    cluster = parsed["cluster"]
    assert (cluster.index, cluster.quantile_a, cluster.max_iter) == (
        RunConfig.index,
        RunConfig.quantile_a,
        RunConfig.max_iterations,
    )


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

    def test_same_bytes_under_two_hash_seeds(self, tmp_path):
        # each run is a new interpreter started as `python -m curveclust`, under
        # its own hash seed: an output that followed the iteration order of a
        # set or dict of strings would differ between the two
        src = str(Path(curveclust.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

        def module(hash_seed, *args):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
            command = [sys.executable, "-m", "curveclust", *args]
            subprocess.run(command, env=env, check=True, capture_output=True, timeout=120)

        curves, labels = tmp_path / "curves.csv", tmp_path / "labels.csv"
        module(
            "0", "simulate", "--scenario", "s31", "--sizes", "3,3,3", "--seed", "4",
            "--out", str(curves), "--labels", str(labels),
        )
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}.json"
            module(
                hash_seed, "cluster", "--input", str(curves), "--lambda0", "0.5",
                "--grid", "60", "--max-iter", "3", "--output", str(out),
            )
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

    def test_results_do_not_depend_on_labels(self, s31_dataset, tmp_path):
        # the new names sort in the reverse order of the rows
        names, points, samples = read_curves_csv(s31_dataset)
        new_name = {name: f"c{9 - i}" for i, name in enumerate(names)}
        renamed = tmp_path / "renamed.csv"
        write_curves_csv(renamed, [new_name[name] for name in names], points, samples)
        results = []
        for curves in (s31_dataset, renamed):
            out = tmp_path / "result.json"
            code = main(
                [
                    "cluster", "--input", str(curves), "--lambda0", "0.5",
                    "--grid", "100", "--max-iter", "3", "--output", str(out),
                ]
            )
            assert code == 0
            results.append(json.loads(out.read_text()))
        original, got = results

        def mapped(partition):
            return [[new_name[name] for name in group] for group in partition]

        want = {
            **original,
            "partition": mapped(original["partition"]),
            "candidates": [
                {**candidate, "partition": mapped(candidate["partition"])}
                for candidate in original["candidates"]
            ],
            "warps": {new_name[name]: warp for name, warp in original["warps"].items()},
        }
        assert got == want

    def test_dunn_index_flags(self, small_dataset, tmp_path):
        curves, _ = small_dataset
        out = tmp_path / "result.json"
        args = [
            "cluster", "--input", str(curves), "--lambda0", "0.0",
            "--grid", "80", "--max-iter", "3", "--output", str(out),
        ]
        code = main([*args, "--index", "dunn-I3-J2"])
        assert code == 0
        assert json.loads(out.read_text())["index_name"] == "dunn-I3-J2"
        # `dunn` alone names no index, and there is no --dunn-inter flag
        for rejected in (["--index", "dunn"], ["--dunn-inter", "I3"]):
            with pytest.raises(SystemExit) as exc:
                main([*args, *rejected])
            assert exc.value.code == 2


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

    def test_repeated_id_invalid_input(self, small_dataset, tmp_path, capsys):
        curves, _ = small_dataset
        out = tmp_path / "align.json"
        capsys.readouterr()
        code = main(
            ["align", "--input", str(curves), "--pair", "1,1", "--lambda0", "0.0", "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: curve id '1' is listed twice in --pair"]
        assert not out.exists()

    def test_pair_with_no_scorable_warp_is_degenerate(
        self, small_dataset, tmp_path, capsys, monkeypatch
    ):
        # every exact score fails, in the caller and in the helpers forked after
        # the patch: no start and no final point of the pair is scored
        def out_of_range(*args):
            raise WarpRangeError("forced")

        monkeypatch.setattr(warping, "rho_parts", out_of_range)
        curves, _ = small_dataset
        out = tmp_path / "align.json"
        capsys.readouterr()
        code = main(
            ["align", "--input", str(curves), "--pair", "0,1", "--lambda0", "0.0", "--out", str(out)]
        )
        assert code == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: no warp of the pair")
        assert not out.exists()

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
        names = [line.split()[0] for line in lines]
        assert names == [
            "silhouette",
            "dunn-I1-J1", "dunn-I1-J2", "dunn-I2-J1", "dunn-I2-J2", "dunn-I3-J1", "dunn-I3-J2",
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

    def test_duplicate_label_ids_invalid_input(self, tmp_path, capsys):
        # a later row must not overwrite an earlier one: c would count as
        # label 3 alone and the index would read 1.000000
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.csv"
        pred.write_text(json.dumps([["a", "b"], ["c"]]))
        truth.write_text("id,label\na,1\nb,1\nc,2\nc,3\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")

    def test_too_few_points_to_cluster_invalid_input(self, tmp_path, capsys):
        # a cubic shape spline on 16 interior knots has 20 basis functions, so
        # cluster needs 20 points
        points = np.linspace(0.0, 1.0, 10)
        path = tmp_path / "curves.csv"
        ids = [str(i) for i in range(6)]
        write_curves_csv(path, ids, points, [np.sin(3.0 * points + i) for i in range(6)])
        result = tmp_path / "result.json"
        code = main(
            [
                "cluster", "--input", str(path), "--lambda0", "0.0", "--grid", "60",
                "--output", str(result),
            ]
        )
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["error: need at least 20 samples to fit 20 basis functions, got 10"]
        assert not result.exists()

    @pytest.mark.parametrize("points, code", [(10, 2), (19, 2), (20, 0)])
    def test_simulate_writes_only_files_cluster_can_fit(self, tmp_path, capsys, points, code):
        out, labels = tmp_path / "curves.csv", tmp_path / "labels.csv"
        args = ["simulate", "--scenario", "s31", "--sizes", "2,2,2", "--points", str(points)]
        assert main([*args, "--out", str(out), "--labels", str(labels)]) == code
        errors = capsys.readouterr().err.splitlines()
        if code == 2:
            assert errors == [
                "error: need at least 20 time points, one per shape-spline basis function"
            ]
            assert not out.exists() and not labels.exists()
        else:
            assert errors == [] and len(read_curves_csv(out)[1]) == 20

    @pytest.mark.parametrize(
        "partition",
        [[["0", "1", "1"], ["2", "3", "4", "5"]], [["0", "1"], ["1", "2", "3", "4", "5"]]],
        ids=["within a group", "in two groups"],
    )
    def test_repeated_predicted_id_invalid_input(self, tmp_path, capsys, partition):
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.csv"
        pred.write_text(json.dumps(partition))
        ids = [str(i) for i in range(6)]
        write_labels_csv(truth, ids, dict(zip(ids, [1, 1, 2, 2, 3, 3])))
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: curve id '1' is listed twice in the partition"
        ]

    @pytest.mark.parametrize(
        "option",
        [["--sigma", "nan"], ["--sigma", "inf"], ["--points", "3"], ["--seed", "-1"]],
        ids=["sigma-nan", "sigma-inf", "points-3", "seed-negative"],
    )
    def test_bad_simulate_option_invalid_input(self, tmp_path, capsys, option):
        out, labels = tmp_path / "curves.csv", tmp_path / "labels.csv"
        code = main(
            [
                "simulate", "--scenario", "s31", "--sizes", "2,2,2", *option,
                "--out", str(out), "--labels", str(labels),
            ]
        )
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert not out.exists() and not labels.exists()

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

    @pytest.mark.parametrize("command", ["cluster", "align", "indexes"])
    def test_overflowing_curves_invalid_input(self, tmp_path, capsys, command):
        # finite samples near 1e200, whose squares overflow: every similarity
        # would read NaN
        curves = tmp_path / "curves.csv"
        code = main(
            [
                "simulate", "--scenario", "s31", "--sizes", "2,2,2", "--sigma", "1e200",
                "--points", "40", "--out", str(curves), "--labels", str(tmp_path / "labels.csv"),
            ]
        )
        assert code == 0
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps([["0", "1", "2"], ["3", "4", "5"]]))
        rest = {
            "cluster": ["--output", str(tmp_path / "out.json")],
            "align": ["--pair", "0,1", "--out", str(tmp_path / "align.json")],
            "indexes": ["--partition", str(partition)],
        }[command]
        capsys.readouterr()
        code = main([command, "--input", str(curves), "--lambda0", "0.5", "--grid", "60", *rest])
        assert code == 2
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: curve 0 ")
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "align.json").exists()

    @pytest.mark.parametrize("command", ["cluster", "align", "indexes"])
    def test_nan_time_point_invalid_input(self, tmp_path, capsys, command):
        points = np.linspace(0.0, 1.0, 40)
        rows = [np.sin(3 * points + i) for i in range(4)]
        points[20] = np.nan  # NaN compares false, so order and end checks let it pass
        curves = tmp_path / "curves.csv"
        write_curves_csv(curves, ["0", "1", "2", "3"], points, rows)
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps([["0", "1"], ["2", "3"]]))
        rest = {
            "cluster": ["--output", str(tmp_path / "out.json")],
            "align": ["--pair", "0,1", "--out", str(tmp_path / "align.json")],
            "indexes": ["--partition", str(partition)],
        }[command]
        code = main([command, "--input", str(curves), "--lambda0", "0.5", "--grid", "60", *rest])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: time points must be finite"]
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "align.json").exists()

    @pytest.mark.parametrize("where", ["missing folder", "folder"])
    @pytest.mark.parametrize("command", ["cluster", "align", "simulate --out", "simulate --labels"])
    def test_unwritable_output_invalid_input(
        self, small_dataset, tmp_path, capsys, monkeypatch, command, where
    ):
        def no_search(values, x0s):
            raise AssertionError("a pair search ran")

        monkeypatch.setattr(warping, "minimize", no_search)
        curves, _ = small_dataset
        bad = str(tmp_path / "missing" / "out") if where == "missing folder" else str(tmp_path)
        good = str(tmp_path / "good.csv")
        simulate = ["simulate", "--scenario", "s31", "--sizes", "2,2,2"]
        pair = ["--input", str(curves), "--lambda0", "0.5", "--grid", "60"]
        args = {
            "cluster": ["cluster", *pair, "--output", bad],
            "align": ["align", *pair, "--pair", "0,1", "--out", bad],
            "simulate --out": [*simulate, "--out", bad, "--labels", good],
            "simulate --labels": [*simulate, "--out", good, "--labels", bad],
        }[command]
        capsys.readouterr()
        code = main(args)
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert not (tmp_path / "good.csv").exists() and not (tmp_path / "missing").exists()

    def test_failed_write_invalid_input(self, tmp_path):
        path = tmp_path / "missing" / "out"
        with pytest.raises(InvalidInputError):
            write_text(path, "{}\n")
        with pytest.raises(InvalidInputError):
            write_curves_csv(path, ["0"], [0.0, 1.0], [[1.0, 2.0]])
        with pytest.raises(InvalidInputError):
            write_labels_csv(path, ["0"], {"0": "a"})

    @pytest.mark.parametrize(
        "partition",
        [
            [["0", "1", "2", "3", "4", "5"]],  # a single group
            [["0", "1", "2"], [], ["3", "4", "5"]],  # an empty group
            [["0", "1", "2"], ["2", "3", "4", "5"]],  # an id in two groups
            [["0", "1"], ["2", "3", "4"]],  # a curve left out
        ],
    )
    def test_malformed_partition_invalid_input(self, s31_dataset, tmp_path, capsys, partition):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(partition))
        code = main(
            [
                "indexes", "--input", str(s31_dataset), "--partition", str(path),
                "--lambda0", "0.5", "--grid", "60",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert captured.out == ""

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

    @pytest.mark.parametrize(
        "reader, what",
        [(read_curves_csv, "curves"), (read_labels_csv, "labels"), (read_partition_json, "partition")],
    )
    def test_unreadable_input_file_invalid_input(self, tmp_path, reader, what):
        # a missing file, a folder, and bytes that are not UTF-8
        undecodable = tmp_path / "latin1"
        undecodable.write_bytes(b"id,label\n\xff,1\n")
        for path in (tmp_path / "none", tmp_path, undecodable):
            with pytest.raises(InvalidInputError, match=f"^cannot read {what} file: "):
                reader(path)

    def test_partition_json_accepts_bare_array(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([["0"], ["1"]]))
        assert read_partition_json(path) == [["0"], ["1"]]
