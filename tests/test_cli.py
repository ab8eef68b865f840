import json

import numpy as np
import pytest

from spectral_pattern import cli
from spectral_pattern.cli import ExperimentReport, main
from spectral_pattern.data import generate_synthetic_dataset, save_dataset
from spectral_pattern.nn import load_checkpoint, save_checkpoint
from spectral_pattern.geometry import FEATURE_NAMES


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.ndjson"
    save_dataset(generate_synthetic_dataset(n_groups=12, size_range=(3, 5), seed=17), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


FAST = ("--epochs", "8", "--batch", "4", "--channels", "6", "--layers", "2")


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        assert "exit codes" in out

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("generate") == 2
        capsys.readouterr()


class TestGenerate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        assert run("generate", "--out", out, "--groups", "6", "--size-min", "3",
                   "--size-max", "4", "--seed", "5") == 0
        assert "6 groups" in capsys.readouterr().out
        assert out.exists() and len(out.read_text().splitlines()) == 6

    def test_reproducible_artifact(self, tmp_path, capsys):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        args = ("--groups", "4", "--size-min", "3", "--size-max", "4", "--seed", "9")
        assert run("generate", "--out", a, *args) == 0
        assert run("generate", "--out", b, *args) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_odd_group_count_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "--out", tmp_path / "x.ndjson", "--groups", "5") == 2
        assert "usage error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def artifacts(data_path, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("artifacts")
    ckpt = tmp / "model.json"
    hist = tmp / "history.csv"
    rc = run("train", "--data", data_path, "--checkpoint", ckpt,
             "--history", hist, "--seed", "3", *FAST)
    assert rc == 0
    return {"ckpt": ckpt, "hist": hist, "tmp": tmp}


class TestTrainEvalPredict:

    def test_checkpoint_and_history_written(self, artifacts):
        doc = json.loads(artifacts["ckpt"].read_text())
        assert doc["version"] == 1
        extra = doc["payload"]["extra"]
        assert extra["labels"] == ["regular", "irregular"]
        assert extra["split"] == {"ratios": [0.6, 0.2, 0.2], "seed": 3}
        assert len(extra["standardizer"]["mean"]) == 5
        lines = artifacts["hist"].read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
        assert len(lines) >= 2

    def test_train_is_deterministic(self, data_path, artifacts, capsys):
        again = artifacts["tmp"] / "again.json"
        rc = run("train", "--data", data_path, "--checkpoint", again, "--seed", "3", *FAST)
        capsys.readouterr()
        assert rc == 0
        assert again.read_bytes() == artifacts["ckpt"].read_bytes()

    def test_eval_prints_accuracy_and_confusion(self, data_path, artifacts, capsys):
        assert run("eval", "--checkpoint", artifacts["ckpt"], "--data", data_path) == 0
        out = capsys.readouterr().out
        assert "test accuracy:" in out
        acc = float(out.split("test accuracy:")[1].split()[0])
        assert 0.0 <= acc <= 1.0
        assert "regular" in out and "irregular" in out

    def test_eval_other_split(self, data_path, artifacts, capsys):
        assert run("eval", "--checkpoint", artifacts["ckpt"], "--data", data_path,
                   "--split", "train") == 0
        assert "train accuracy:" in capsys.readouterr().out

    def test_predict_writes_probabilities(self, data_path, artifacts, capsys):
        out_path = artifacts["tmp"] / "pred.ndjson"
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", data_path,
                   "--out", out_path) == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        assert len(lines) == 12
        for line in lines:
            obj = json.loads(line)
            probs = obj["probabilities"]
            assert set(probs) == {"regular", "irregular"}
            assert abs(sum(probs.values()) - 1.0) <= 1e-9
            assert obj["prediction"] in probs

    def test_predict_to_stdout(self, data_path, artifacts, capsys):
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", data_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12 and json.loads(lines[0])["id"]

    def test_predict_handles_unlabeled(self, artifacts, tmp_path, capsys):
        ds = generate_synthetic_dataset(n_groups=2, size_range=(3, 4), seed=31)
        for g in ds.groups:
            object.__setattr__(g, "label", None)
        path = tmp_path / "unlabeled.ndjson"
        save_dataset(ds, path)
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert abs(sum(json.loads(lines[0])["probabilities"].values()) - 1.0) <= 1e-9

    def test_predict_on_empty_input_writes_nothing(self, artifacts, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        out_path = tmp_path / "pred.ndjson"
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", empty,
                   "--out", out_path) == 0
        assert "wrote 0 predictions" in capsys.readouterr().out
        assert out_path.read_bytes() == b""
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", empty) == 0
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_missing_data_file_is_3(self, tmp_path, capsys):
        rc = run("train", "--data", tmp_path / "nope.ndjson",
                 "--checkpoint", tmp_path / "m.json", *FAST)
        assert rc == 3
        assert "file error" in capsys.readouterr().err

    def test_corrupt_data_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{broken\n")
        rc = run("train", "--data", bad, "--checkpoint", tmp_path / "m.json", *FAST)
        assert rc == 3
        assert "line 1" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_3(self, data_path, tmp_path, capsys):
        ckpt = tmp_path / "mangled.json"
        ckpt.write_text('{"version": 1, "oops": true}')
        assert run("eval", "--checkpoint", ckpt, "--data", data_path) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("extra", ["none", "short standardizer"])
    def test_checkpoint_without_usable_settings_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, extra
    ):
        # a library save_checkpoint(path, model) passes the checksum but
        # carries none of the settings the commands read
        model, settings = load_checkpoint(artifacts["ckpt"])
        if extra == "none":
            settings = None
        else:
            stats = settings["standardizer"]
            stats["mean"], stats["std"] = stats["mean"][:-1], stats["std"][:-1]
        ckpt = tmp_path / "library.json"
        save_checkpoint(ckpt, model, settings)
        assert run(command, "--checkpoint", ckpt, "--data", data_path) == 3
        assert "data error: checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("field, value", [("std", float("nan")), ("mean", float("inf"))])
    def test_checkpoint_with_non_finite_standardizer_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, field, value
    ):
        model, settings = load_checkpoint(artifacts["ckpt"])
        settings["standardizer"][field][0] = value
        ckpt = tmp_path / "non-finite.json"
        save_checkpoint(ckpt, model, settings)
        out = tmp_path / "out.ndjson"
        argv = ["--out", out] if command == "predict" else []
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 3
        assert "data error: checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_bad_split_ratios_is_3(self, data_path, artifacts, tmp_path, capsys):
        model, settings = load_checkpoint(artifacts["ckpt"])
        settings["split"]["ratios"] = [0.5, 0.5]
        ckpt = tmp_path / "bad-split.json"
        save_checkpoint(ckpt, model, settings)
        assert run("eval", "--checkpoint", ckpt, "--data", data_path) == 3
        assert "data error: checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "labels",
        [["regular"], None, "ri", ["regular", "regular"], ["regular", ""], ["regular", 1]],
        ids=["one", "null", "string", "repeated", "empty", "number"],
    )
    def test_checkpoint_with_bad_labels_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, labels
    ):
        model, settings = load_checkpoint(artifacts["ckpt"])
        settings["labels"] = labels
        ckpt = tmp_path / "bad-labels.json"
        save_checkpoint(ckpt, model, settings)
        out = tmp_path / "out.ndjson"
        argv = ["--out", out] if command == "predict" else []
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 3
        assert "data error: checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_coincident_centroids_name_the_group_and_are_3(self, artifacts, tmp_path, capsys):
        square = {"ring": [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]}
        others = [
            {"ring": [[x, 40.0], [x + 10.0, 40.0], [x + 10.0, 50.0], [x, 50.0]]}
            for x in (0.0, 30.0)
        ]
        group = {"id": "twin-block", "buildings": [square, square, *others]}
        path = tmp_path / "twins.ndjson"
        path.write_text(json.dumps(group) + "\n")
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", path) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "'twin-block'" in err and "coincide" in err

    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_overflowing_centroid_names_the_group_and_is_3(
        self, data_path, artifacts, tmp_path, capsys, command
    ):
        # finite JSON numbers whose centroid sums (cubes of 1e150) overflow; the
        # ring is rejected on load, so the group is named by its line
        s = 1e150
        huge = [{"ring": [[x, 0], [x + s, 0], [x + s, s], [x, s]]} for x in (0, 3 * s, 6 * s)]
        path = tmp_path / "huge.ndjson"
        path.write_text(data_path.read_text()
                        + json.dumps({"id": "huge-block", "label": "regular", "buildings": huge})
                        + "\n")
        if command == "predict":
            argv = ("predict", "--checkpoint", artifacts["ckpt"], "--data", path)
        else:
            argv = ("train", "--data", path, "--checkpoint", tmp_path / "m.json", *FAST)
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "line 13: building 0" in err
        assert "centroid (inf, inf) must be finite" in err

    @pytest.mark.parametrize("vertex", [["10", "0"], [10, True], [[10], 0]],
                             ids=["string", "bool", "nested-list"])
    def test_non_number_coordinate_is_3(self, artifacts, tmp_path, capsys, vertex):
        ring = [[0, 0], vertex, [10, 10], [0, 10]]
        others = [{"ring": [[x, 40], [x + 10, 40], [x + 10, 50], [x, 50]]} for x in (0, 30)]
        path = tmp_path / "typed.ndjson"
        path.write_text(json.dumps({"id": "typed", "buildings": [{"ring": ring}, *others]}) + "\n")
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", path) == 3
        err = capsys.readouterr().err
        assert "line 1" in err and "building 0" in err

    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_overflowing_ring_is_3(self, data_path, artifacts, tmp_path, capsys, command):
        def squares(s):
            return [[[x, 0], [x + s, 0], [x + s, s], [x, s]] for x in (0, 3 * s, 6 * s)]

        small = [[[x, 40], [x + 10, 40], [x + 10, 50], [x, 50]] for x in (0, 30)]
        sliver = [[10000038.397559145, 10000026.626020757],
                  [10000040.523604643, 10000027.068552375],
                  [10000038.751657445, 10000026.699725527]]
        for rings, fault in [
            (squares(1e160), "must be finite"),  # the area overflows
            ([sliver, *small], "hull collapsed to a segment"),  # a 2-point hull at 1e7 m
        ]:
            buildings = [{"ring": ring} for ring in rings]
            path = tmp_path / "huge.ndjson"
            path.write_text(data_path.read_text() + json.dumps(
                {"id": "huge-block", "label": "regular", "buildings": buildings}) + "\n")
            if command == "predict":
                argv = ("predict", "--checkpoint", artifacts["ckpt"], "--data", path)
            else:
                argv = ("train", "--data", path, "--checkpoint", tmp_path / "m.json", *FAST)
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert "line 13: building 0" in err and fault in err

    @pytest.mark.parametrize("command", ["predict", "train"])
    @pytest.mark.parametrize("fault", ["invalid-utf8", "deep-nesting", "repeated-id"])
    def test_bad_line_is_3_and_named(self, data_path, artifacts, tmp_path, capsys, command, fault):
        lines = data_path.read_bytes().splitlines()
        if fault == "invalid-utf8":
            lines[4] = lines[4].replace(b'"id": "', b'"id": "\xff')
        elif fault == "deep-nesting":
            lines[4] = b"[" * 5000 + b"]" * 5000
        else:
            lines[4] = lines[1]
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "out"
        if command == "predict":
            argv = ("predict", "--checkpoint", artifacts["ckpt"], "--data", path, "--out", out)
        else:
            argv = ("train", "--data", path, "--checkpoint", out, *FAST)
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert "data error: line 5" in err
        if fault == "repeated-id":
            assert "also on line 2" in err
        assert not out.exists()

    def test_divergence_is_4(self, data_path, tmp_path, capsys):
        rc = run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json",
                 "--optimizer", "sgd", "--lr", "1e12", "--epochs", "60",
                 "--batch", "4", "--channels", "6", "--layers", "2")
        assert rc == 4
        assert "numeric error" in capsys.readouterr().err

    def test_bad_split_string_is_2(self, data_path, tmp_path, capsys):
        rc = run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json",
                 "--split", "0.5,0.5", *FAST)
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "sweep-k", "ablate-features"])
    @pytest.mark.parametrize(
        "flag",
        [("--batch", "0"), ("--dropout", "1"), ("--lr", "nan"), ("--lr", "inf"),
         ("--l2", "nan"), ("--l2", "inf"), ("--epochs", "0")],
    )
    def test_bad_training_flag_is_2_before_any_graph_is_built(
        self, data_path, tmp_path, capsys, monkeypatch, command, flag
    ):
        built = []
        monkeypatch.setattr(cli, "prepare_training_samples", lambda *a: built.append(a))
        out = ("--checkpoint" if command == "train" else "--out", tmp_path / "out")
        rc = run(command, "--data", data_path, *out, *FAST, *flag)
        assert rc == 2
        assert built == []
        assert not (tmp_path / "out").exists()
        assert "usage error" in capsys.readouterr().err

    def test_insufficient_class_is_3(self, tmp_path, capsys):
        ds = generate_synthetic_dataset(n_groups=4, size_range=(3, 4), seed=23)
        ds.groups = ds.groups[:3]  # leaves one class with a single group
        path = tmp_path / "tiny.ndjson"
        save_dataset(ds, path)
        rc = run("train", "--data", path, "--checkpoint", tmp_path / "m.json", *FAST)
        assert rc == 3
        capsys.readouterr()


class TestReports:
    def test_report_round_trip(self):
        report = ExperimentReport(columns=("a", "b"), rows=[(1, "x"), (2, "y")])
        assert report.to_csv() == "a,b\n1,x\n2,y\n"
        table = report.to_table()
        assert table.splitlines()[0].split() == ["a", "b"]

    def test_sweep_k_rows_and_csv(self, data_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run("sweep-k", "--data", data_path, "--k-values", "1,3", "--out", out,
                 "--seed", "2", *FAST)
        assert rc == 0
        table = capsys.readouterr().out
        assert "val_accuracy" in table
        lines = out.read_text().splitlines()
        assert lines[0] == "k,val_accuracy,val_loss,best_epoch,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("3,")
        for line in lines[1:]:
            acc = float(line.split(",")[1])
            assert 0.0 <= acc <= 1.0

    def test_sweep_k_range_checked(self, data_path, capsys):
        assert run("sweep-k", "--data", data_path, "--k-values", "0,3", *FAST) == 2
        assert "[1, 6]" in capsys.readouterr().err

    def test_sweep_k_reproducible(self, data_path, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep-k", "--data", data_path, "--k-values", "2", "--seed", "4", *FAST)
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        capsys.readouterr()
        ca = a.read_text().rsplit(",", 1)[0]  # drop the timing column
        cb = b.read_text().rsplit(",", 1)[0]
        assert ca == cb

    def test_ablate_only_one(self, data_path, tmp_path, capsys):
        out = tmp_path / "ablate.csv"
        rc = run("ablate-features", "--data", data_path, "--mode", "only-one",
                 "--out", out, "--seed", "2", "--epochs", "4", "--batch", "4",
                 "--channels", "4", "--layers", "2")
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,n_columns,val_accuracy,test_accuracy,seconds"
        assert len(lines) == 6
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == list(FEATURE_NAMES)
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_ablate_all_but_one_uses_four_columns(self, data_path, tmp_path, capsys):
        out = tmp_path / "ablate2.csv"
        rc = run("ablate-features", "--data", data_path, "--mode", "all-but-one",
                 "--out", out, "--seed", "2", "--epochs", "2", "--batch", "4",
                 "--channels", "4", "--layers", "2")
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 5
        assert all(line.split(",")[1] == "4" for line in lines)
