import contextlib
import copy
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from spectral_pattern import cli
from spectral_pattern.cli import ExperimentReport, main
from spectral_pattern.data import (
    Standardizer,
    generate_synthetic_dataset,
    load_dataset,
    prepare_inference_samples,
    save_dataset,
    split_dataset,
)
from spectral_pattern.errors import DataError, DivergedLoss
from spectral_pattern.graph import GraphConfig
from spectral_pattern.nn import (
    DenseLayer,
    GcnnModel,
    _checksum,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from spectral_pattern.geometry import FEATURE_NAMES

from conftest import assert_round_trip, rect_ring, triangle_centres


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.ndjson"
    save_dataset(generate_synthetic_dataset(n_groups=12, size_range=(3, 5), seed=17), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


FAST = ("--epochs", "8", "--batch", "4", "--channels", "6", "--layers", "2")


def with_classes(model, classes):
    """`model` with its dense head cut or widened to `classes` outputs."""
    weights = np.resize(model.dense.weights.T, (classes, model.dense.c_in)).T
    return GcnnModel(model.conv_layers, DenseLayer(weights, np.zeros(classes)))


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
        assert "feature_mask" not in extra
        assert extra["graph"] == {"structure": "dt", "weighting": "binary", "laplacian": "sym"}
        assert extra["train"] == {
            "k": 3, "layers": 2, "channels": 6, "lr": 1e-3, "epochs": 8, "batch": 4,
            "dropout": 0.5, "l2": 5e-4, "optimizer": "adam", "seed": 3,
        }
        lines = artifacts["hist"].read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
        assert len(lines) >= 2

    def test_train_is_deterministic(self, data_path, artifacts, capsys):
        again = artifacts["tmp"] / "again.json"
        rc = run("train", "--data", data_path, "--checkpoint", again, "--seed", "3", *FAST)
        capsys.readouterr()
        assert rc == 0
        assert again.read_bytes() == artifacts["ckpt"].read_bytes()

    def test_train_reports_what_eval_finds_on_val(self, data_path, tmp_path, capsys):
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", data_path, "--checkpoint", ckpt, "--seed", "5", *FAST) == 0
        trained = capsys.readouterr().out.split("val accuracy ")[1].split(";")[0]
        assert run("eval", "--checkpoint", ckpt, "--data", data_path, "--split", "val") == 0
        assert capsys.readouterr().out.startswith(f"val accuracy: {trained} (")

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

    def test_predict_bytes_equal_the_per_group_forward(self, data_path, artifacts, capsys):
        # predict runs stacks of equal-size groups; each line must be the
        # one that a forward of its group alone gives
        out_path = artifacts["tmp"] / "pred-bytes.ndjson"
        assert run("predict", "--checkpoint", artifacts["ckpt"], "--data", data_path,
                   "--out", out_path) == 0
        capsys.readouterr()
        model, extra = load_checkpoint(artifacts["ckpt"])
        stats, labels = extra["standardizer"], extra["labels"]
        std = Standardizer(mean=np.array(stats["mean"]), std=np.array(stats["std"]))
        groups = load_dataset(data_path).groups
        assert len({len(g.buildings) for g in groups}) < len(groups)  # a stack holds several
        want = ""
        for s in prepare_inference_samples(groups, std, GraphConfig(**extra["graph"])):
            probs = model.forward(s.laplacian, s.features)
            obj = {
                "id": s.sample_id,
                "probabilities": {lab: float(p) for lab, p in zip(labels, probs)},
                "prediction": labels[int(np.argmax(probs))],
            }
            want += json.dumps(obj) + "\n"
        assert out_path.read_bytes() == want.encode("utf-8")

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
    @pytest.mark.parametrize(
        "content, why",
        [(b"\xff\xfe{}", "can't decode byte 0xff"), (b"[" * 100_000, "nested too deeply")],
        ids=["invalid-utf8", "deep-nesting"],
    )
    def test_unreadable_checkpoint_is_3(self, data_path, tmp_path, capsys, command, content, why):
        ckpt = tmp_path / "unreadable.json"
        ckpt.write_bytes(content)
        assert run(command, "--checkpoint", ckpt, "--data", data_path) == 3
        err = capsys.readouterr().err
        assert "data error: unreadable checkpoint" in err and why in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_with_another_pooling_head_is_3(
        self, data_path, artifacts, tmp_path, capsys, command
    ):
        # a well-formed file with a valid checksum, for a head the network lacks
        doc = json.loads(artifacts["ckpt"].read_text())
        doc["payload"]["model"]["pool"] = "max"
        doc["checksum"] = _checksum(doc["payload"])
        ckpt = tmp_path / "max-pool.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out.ndjson"
        argv = ["--out", out] if command == "predict" else []
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 3
        assert "data error: malformed checkpoint payload: pool" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "extra", ["none", "short standardizer", "masked", "graph list", "graph null",
                  "graph unknown key", "feature names reordered", "feature names not a list"],
    )
    def test_checkpoint_without_usable_settings_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, extra
    ):
        # a library save_checkpoint(path, model) passes the checksum but
        # carries none of the settings the commands read; inference gives a
        # model every feature column, so one trained on a mask cannot run
        model, settings = load_checkpoint(artifacts["ckpt"])
        stats = settings["standardizer"]
        if extra == "none":
            settings = None
        elif extra == "short standardizer":
            stats["mean"], stats["std"] = stats["mean"][:-1], stats["std"][:-1]
        elif extra == "masked":
            settings["feature_mask"] = ["area"]
            stats["mean"], stats["std"] = stats["mean"][:1], stats["std"][:1]
            model = build_model(1, (6, 6), order=3, seed=3)
        elif extra == "feature names reordered":
            settings["feature_names"] = settings["feature_names"][::-1]
        elif extra == "feature names not a list":
            settings["feature_names"] = ",".join(FEATURE_NAMES)
        else:
            settings["graph"] = {"graph list": [], "graph null": None,
                                 "graph unknown key": {"structure": "dt", "kind": "sym"}}[extra]
        ckpt = tmp_path / "library.json"
        save_checkpoint(ckpt, model, settings)
        assert run(command, "--checkpoint", ckpt, "--data", data_path) == 3
        err = capsys.readouterr().err
        assert "data error: checkpoint" in err
        assert ("feature_names" in err) == extra.startswith("feature names")

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

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "edit, fault",
        [(lambda m: m["conv_layers"][0].update(theta=m["conv_layers"][0]["theta"][0]),
          "theta must be (K, c_in, c_out), got (5, 6)"),
         (lambda m: m["conv_layers"][1]["theta"][2][0].__setitem__(3, float("nan")),
          "layer parameters must be finite"),
         (lambda m: m["conv_layers"][1]["bias"].append(0.0), "bias must be (6,), got (7,)"),
         (lambda m: m["dense"]["weights"][4].__setitem__(1, float("inf")),
          "dense parameters must be finite"),
         (lambda m: m.update(conv_layers=[]), "model needs at least one conv layer"),
         (lambda m: m["dense"]["weights"].append([0.0, 0.0]),
          "dense expects 7 channels, last conv emits 6")],
        ids=["2d-theta", "nan-theta", "bias-shape", "inf-dense-weight", "no-conv-layers",
             "dense-width"],
    )
    def test_malformed_model_payload_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, edit, fault
    ):
        # each payload passes its checksum, so only the model's own checks stop it
        doc = json.loads(artifacts["ckpt"].read_text())
        edit(doc["payload"]["model"])
        doc["checksum"] = _checksum(doc["payload"])
        ckpt = tmp_path / "bad-model.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out.ndjson"
        argv = ["--out", out] if command == "predict" else []
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 3
        assert f"data error: malformed checkpoint payload: {fault}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "scaled", [0, None, "no", False], ids=["zero", "null", "string", "false"]
    )
    def test_checkpoint_whose_scaled_is_not_a_bool_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, scaled
    ):
        # older checkpoints carry "scaled": true, and nothing else stands for it
        model, settings = load_checkpoint(artifacts["ckpt"])
        settings["graph"]["scaled"] = scaled
        ckpt = tmp_path / "scaled.json"
        save_checkpoint(ckpt, model, settings)
        assert run(command, "--checkpoint", ckpt, "--data", data_path) == 3
        assert f"graph scaled must be true, got {scaled!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_in_the_older_format_gives_the_same_output(
        self, data_path, artifacts, tmp_path, capsys, command
    ):
        # the older format wrote "scaled": true in the graph block and a null
        # feature_mask; a checkpoint without feature_names is read in their order
        model, settings = load_checkpoint(artifacts["ckpt"])
        older = {**settings, "feature_mask": None, "graph": {**settings["graph"], "scaled": True}}
        unnamed = {k: v for k, v in settings.items() if k != "feature_names"}
        paths = [artifacts["ckpt"], tmp_path / "older.json", tmp_path / "unnamed.json"]
        save_checkpoint(paths[1], model, older)
        save_checkpoint(paths[2], model, unnamed)
        outputs = []
        for path in paths:
            assert run(command, "--checkpoint", path, "--data", data_path) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[1] == outputs[0] != ""

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("where", ["dense-weights", "conv-thetas", "standardizer-mean"])
    def test_probabilities_that_overflow_are_4(
        self, data_path, artifacts, tmp_path, capsys, command, where
    ):
        # finite settings whose probabilities are not: refused, naming the
        # first sample, with no output and no numpy warning
        model, settings = load_checkpoint(artifacts["ckpt"])
        if where == "dense-weights":  # on a last conv layer that emits 2 everywhere
            model.conv_layers[-1].theta[:] = 0.0
            model.conv_layers[-1].bias[:] = 2.0
            model.dense.weights[:] = 1e308
        elif where == "conv-thetas":
            for layer in model.conv_layers:
                layer.theta[:] = 1e308
        else:  # some feature's std is below 1, so its column overflows
            settings["standardizer"]["mean"] = [1e308] * len(FEATURE_NAMES)
        ckpt = tmp_path / "overflow.json"
        save_checkpoint(ckpt, model, settings)
        out = tmp_path / "out.ndjson"
        if command == "predict":
            argv, first = ["--out", out], load_dataset(data_path).groups[0]
        else:
            argv, first = [], split_dataset(load_dataset(data_path), seed=3)["test"][0]
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 4
        assert capsys.readouterr().err == (
            f"numeric error: sample {first.group_id!r}: probabilities are not finite\n")
        assert not out.exists()

    def test_empty_eval_split_is_3_and_named(self, tmp_path, capsys):
        # three groups of each class leave the test split empty at 0.6/0.2/0.2
        data, ckpt = tmp_path / "six.ndjson", tmp_path / "six.json"
        save_dataset(generate_synthetic_dataset(n_groups=6, size_range=(3, 5), seed=1), data)
        assert run("train", "--data", data, "--checkpoint", ckpt, "--epochs", "1") == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--split", "test") == 3
        assert capsys.readouterr().err == f"data error: the test split of {data} is empty\n"

    def test_ablate_features_on_an_empty_test_split_is_3_before_any_training(
        self, tmp_path, capsys, monkeypatch
    ):
        # six groups leave the test split empty at 0.6/0.2/0.2; sweep-k does not read it
        data = tmp_path / "six.ndjson"
        save_dataset(generate_synthetic_dataset(n_groups=6, size_range=(3, 5), seed=1), data)
        trained = []
        real_train = cli.train
        monkeypatch.setattr(cli, "train", lambda *a: trained.append(a) or real_train(*a))
        flags = ("--epochs", "1", "--channels", "2", "--layers", "1")
        assert run("ablate-features", "--data", data, *flags) == 3
        assert capsys.readouterr().err == f"data error: the test split of {data} is empty\n"
        assert trained == []
        assert run("sweep-k", "--data", data, "--k-values", "1", *flags) == 0
        capsys.readouterr()
        assert len(trained) == 1

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
        [
            ["regular"], None, "ri", ["regular", "regular"], ["regular", ""], ["regular", 1],
            ["irregular", "regular"], ["regular", "random"], ["regular", "irregular", "mixed"],
        ],
        ids=[
            "one", "null", "string", "repeated", "empty", "number",
            "swapped", "renamed", "three classes",
        ],
    )
    def test_checkpoint_with_bad_labels_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, labels
    ):
        # eval scores and predict names classes in the data's label order, so
        # a checkpoint that names them otherwise would mislabel every group
        model, settings = load_checkpoint(artifacts["ckpt"])
        if isinstance(labels, list) and len(labels) == 3:
            model = with_classes(model, 3)
        settings["labels"] = labels
        ckpt = tmp_path / "bad-labels.json"
        save_checkpoint(ckpt, model, settings)
        out = tmp_path / "out.ndjson"
        argv = ["--out", out] if command == "predict" else []
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 3
        assert "data error: checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("classes", [1, 3])
    def test_checkpoint_model_with_other_class_count_is_3(
        self, data_path, artifacts, tmp_path, capsys, command, classes
    ):
        model, settings = load_checkpoint(artifacts["ckpt"])
        del settings["labels"]  # a missing list stands for the data's labels
        ckpt = tmp_path / "classes.json"
        save_checkpoint(ckpt, with_classes(model, classes), settings)
        out = tmp_path / "out.ndjson"
        argv = ["--out", out] if command == "predict" else []
        assert run(command, "--checkpoint", ckpt, "--data", data_path, *argv) == 3
        err = capsys.readouterr().err
        assert f"data error: checkpoint model has {classes} classes, the data has 2" in err
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

    def test_disconnected_graph_names_the_group_and_is_3(self, data_path, tmp_path, capsys):
        # gaussian weights to the square 1e5 m away underflow to 0 and cut
        # it off from the 127 squares inside a 100 m triangle
        ckpt = tmp_path / "mst-gaussian.json"
        assert run("train", "--data", data_path, "--checkpoint", ckpt, "--structure", "mst",
                   "--weighting", "gaussian", "--seed", "3", *FAST) == 0
        centres = triangle_centres(np.random.default_rng(0), 127) + [(1e5, 0.0)]
        group = {"id": "far-block",
                 "buildings": [{"ring": rect_ring(x, y, 1.0, 1.0, 0.0)} for x, y in centres]}
        path = tmp_path / "far.ndjson"
        path.write_text(json.dumps(group) + "\n")
        capsys.readouterr()
        assert run("predict", "--checkpoint", ckpt, "--data", path) == 3
        assert "data error: group 'far-block': graph is not connected" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_line_that_is_not_an_object_is_3(self, artifacts, tmp_path, capsys, command):
        path = tmp_path / "array.ndjson"
        path.write_text("[1, 2]\n")
        if command == "predict":
            argv = ("predict", "--checkpoint", artifacts["ckpt"], "--data", path)
        else:
            argv = ("train", "--data", path, "--checkpoint", tmp_path / "m.json", *FAST)
        assert run(*argv) == 3
        assert capsys.readouterr().err == (
            "data error: line 1: group line must be a JSON object\n")

    def test_divergence_is_4(self, data_path, tmp_path, capsys):
        rc = run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json",
                 "--optimizer", "sgd", "--lr", "1e12", "--epochs", "60",
                 "--batch", "4", "--channels", "6", "--layers", "2")
        assert rc == 4
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, failing_call, prefix",
        [(("train", "--checkpoint"), (), 1, ""),
         (("sweep-k", "--out"), ("--k-values", "1,3"), 2, "k=3: "),
         (("ablate-features", "--out"), (), 2, "feature=main_direction: ")],
        ids=["train", "sweep-k", "ablate-features"],
    )
    def test_a_failing_model_is_named(
        self, data_path, tmp_path, capsys, monkeypatch, command, extra, failing_call, prefix
    ):
        calls = []

        def train(model, splits, config):
            calls.append(model)
            if len(calls) == failing_call:
                raise DivergedLoss("non-finite loss at epoch 1")
            return real_train(model, splits, config)

        real_train = cli.train
        monkeypatch.setattr(cli, "train", train)
        rc = run(command[0], "--data", data_path, command[1], tmp_path / "out", *extra, *FAST)
        assert rc == 4
        assert capsys.readouterr().err == f"numeric error: {prefix}non-finite loss at epoch 1\n"
        assert len(calls) == failing_call
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_is_1_without_a_traceback(
        self, data_path, tmp_path, capsys, monkeypatch
    ):
        # as numpy raises for `--channels 100000000`
        def build_model(*args, **kwargs):
            raise MemoryError(
                "Unable to allocate 11.2 GiB for an array with shape (3, 5, 100000000)")

        monkeypatch.setattr(cli, "build_model", build_model)
        assert run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json", *FAST) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: out of memory: Unable to allocate 11.2 GiB for an array with shape "
            "(3, 5, 100000000)\n")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "m.json").exists()

    def test_bad_split_string_is_2(self, data_path, tmp_path, capsys):
        rc = run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json",
                 "--split", "0.5,0.5", *FAST)
        assert rc == 2
        capsys.readouterr()

    def test_non_number_split_is_2_and_named(self, data_path, tmp_path, capsys):
        rc = run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json",
                 "--split", "a,b,c", *FAST)
        assert rc == 2
        assert capsys.readouterr().err == (
            "usage error: --split must be three comma-separated numbers, got 'a,b,c'\n")
        assert not (tmp_path / "m.json").exists()

    def test_nan_split_ratio_is_2_and_named(self, data_path, tmp_path, capsys):
        rc = run("train", "--data", data_path, "--checkpoint", tmp_path / "m.json",
                 "--split", "0.6,0.2,nan", *FAST)
        assert rc == 2
        assert "usage error: ratios must be finite, got (0.6, 0.2, nan)" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

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
        monkeypatch.setattr(cli, "split_graphs", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "load_dataset", lambda *a: built.append(a))
        out = ("--checkpoint" if command == "train" else "--out", tmp_path / "out")
        rc = run(command, "--data", data_path, *out, *FAST, *flag)
        assert rc == 2
        assert built == []
        assert not (tmp_path / "out").exists()
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate-features"])
    @pytest.mark.parametrize(
        "flag, message",
        [(("--k", "0"), "order K must be at least 1, got 0"),
         (("--k", "-1"), "order K must be at least 1, got -1"),
         (("--channels", "-3"), "channel counts must be at least 1, got -3"),
         (("--channels", "0"), "channel counts must be at least 1, got 0"),
         (("--layers", "9" * 30), f"--layers is too large, got {'9' * 30}")],
    )
    def test_bad_order_or_channels_is_2_and_named(
        self, data_path, tmp_path, capsys, monkeypatch, command, flag, message
    ):
        built = []
        monkeypatch.setattr(cli, "split_graphs", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "load_dataset", lambda *a: built.append(a))
        out = ("--checkpoint" if command == "train" else "--out", tmp_path / "out")
        rc = run(command, "--data", data_path, *out, *FAST, *flag)
        assert rc == 2 and built == []
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err

    def test_bad_flag_is_2_before_the_data_file_is_opened(self, tmp_path, capsys):
        missing = tmp_path / "missing.ndjson"
        rc = run("train", "--data", missing, "--checkpoint", tmp_path / "m.json", "--batch", "0")
        assert rc == 2
        assert capsys.readouterr().err == "usage error: batch_size must be at least 1\n"

    @pytest.mark.parametrize("command", ["train", "sweep-k", "ablate-features"])
    @pytest.mark.parametrize("flag", [
        "--seed", "--k", "--layers", "--channels", "--lr", "--epochs", "--batch", "--dropout",
        "--l2", "--split",
    ])
    def test_flag_mutations_end_in_a_documented_exit(
        self, data_path, tmp_path, capsys, monkeypatch, command, flag
    ):
        # odd spellings of each training flag: every run exits with a
        # documented code and no traceback, and a usage error comes before
        # the data file is read.  Values that train for long or allocate
        # huge arrays are left out.
        values = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1.5", "1e400", "-0", "  ",
                  "0x10", "1_000", "1e-400", "9" * 30]
        if flag in ("--k", "--layers", "--channels", "--epochs"):
            values.remove("1_000")
        if flag in ("--k", "--channels", "--epochs"):
            values.remove("9" * 30)
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda p: loads.append(p) or load_dataset(p))
        out = ("--checkpoint" if command == "train" else "--out", tmp_path / "out")
        extra = ("--k-values", "2") if command == "sweep-k" else ()
        for value in values:
            loads.clear()
            rc = run(command, "--data", data_path, *out, *extra, *FAST, "--epochs", "1",
                     f"{flag}={value}")
            err = capsys.readouterr().err
            assert rc in (0, 1, 2, 3, 4), (value, rc, err)
            assert "Traceback" not in err, (value, err)
            assert rc != 2 or loads == [], (value, err)

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
        for k_values in ("", "1,,2", "a"):
            assert run("sweep-k", "--data", data_path, "--k-values", k_values, *FAST) == 2
            err = capsys.readouterr().err
            assert "--k-values must be comma-separated integers" in err, k_values

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


# ---------------------------------------------------------------------------
# Fuzzed input: mutated lines of a valid corpus through every reading command


def _intact(group):
    """Whether a group's buildings are still rings of number pairs, so that
    a mutation can move them."""
    buildings = group["buildings"]
    return isinstance(buildings, list) and len(buildings) >= 2 and all(
        isinstance(b, dict) and isinstance(b.get("ring"), list) and len(b["ring"]) >= 2
        and all(isinstance(v, list) and len(v) == 2 and all(type(c) is float for c in v)
                for v in b["ring"])
        for b in buildings
    )


def _scale_ring(groups, i, r):
    # about its first vertex; a factor of 0 collapses it to a point
    b = r.choice(groups[i]["buildings"])
    f = r.choice([0.0, 1e-300, 1e-12, 1e-3, -1.0, 1e3, 1e12, 1e300])
    x0, y0 = b["ring"][0]
    b["ring"] = [[x0 + f * (x - x0), y0 + f * (y - y0)] for x, y in b["ring"]]


def _shift_ring(groups, i, r):
    b = r.choice(groups[i]["buildings"])
    dx, dy = r.choice([1e3, 7e6, -1e9, 1e15, 1e300]), r.choice([0.0, 1e-9, 5e6, -1e300])
    b["ring"] = [[x + dx, y + dy] for x, y in b["ring"]]


def _flatten_ring(groups, i, r):
    # every vertex onto the line through the first two, or onto the first
    b = r.choice(groups[i]["buildings"])
    (x0, y0), (x1, y1) = b["ring"][:2]
    ts = [r.uniform(-1.0, 2.0) for _ in b["ring"]] if r.random() < 0.5 else [0.0] * len(b["ring"])
    b["ring"] = [[x0 + t * (x1 - x0), y0 + t * (y1 - y0)] for t in ts]


def _coincident_centroids(groups, i, r):
    a, b = r.sample(groups[i]["buildings"], 2)
    b["ring"] = [list(v) for v in a["ring"]]


def _collinear_centroids(groups, i, r):
    # each building moved so that its vertex mean lies on one line
    spacing, tilt = r.choice([40.0, 1e-3, 1e5]), r.choice([0.0, 1e-12, 0.5])
    for k, b in enumerate(groups[i]["buildings"]):
        cx, cy = (sum(c) / len(b["ring"]) for c in zip(*b["ring"]))
        dx, dy = k * spacing - cx, k * spacing * tilt - cy
        b["ring"] = [[x + dx, y + dy] for x, y in b["ring"]]


def _move_group(groups, i, r):
    # survey-scale offsets, and huge or tiny groups
    f = r.choice([1.0, 1e-9, 1e-6, 1e6, 1e9])
    dx, dy = r.choice([0.0, 5e5, 7e6, -1e12]), r.choice([0.0, 4e6, 1e15])
    for b in groups[i]["buildings"]:
        b["ring"] = [[f * x + dx, f * y + dy] for x, y in b["ring"]]


_BAD_VALUES = {
    "id": [None, 5, "", ["a"], {"a": 1}],
    "label": ["other", 1, True, "", ["regular"]],
    "buildings": [None, "abc", {}, [], [1, 2, 3], [{"ring": []}] * 3],
}
_BAD_RINGS = [
    None, "ring", [], [[0.0, 0.0]], [[0.0, 0.0, 0.0]] * 4, [[0.0, "1"], [1.0, 0.0], [1.0, 1.0]],
    [[True, 0.0], [1.0, 0.0], [1.0, 1.0]], [[math.nan, 0.0], [1.0, 0.0], [1.0, 1.0]],
    [[math.inf, 0.0], [1.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
]


def _bad_type(groups, i, r):
    group = groups[i]
    where = r.choice(["id", "label", "buildings", "building", "ring", "vertex"])
    if where in _BAD_VALUES:
        group[where] = r.choice(_BAD_VALUES[where])
        return
    k = r.randrange(len(group["buildings"]))
    if where == "building":
        group["buildings"][k] = r.choice([3, [], {}, {"ring": None, "x": 1}])
    elif where == "ring":
        group["buildings"][k]["ring"] = r.choice(_BAD_RINGS)
    else:
        group["buildings"][k]["ring"][0] = r.choice([[1.0], "xy", None, [1.0, [2.0]], [1e309, 0.0]])


def _repeated_id(groups, i, r):
    groups[i]["id"] = r.choice(groups)["id"]


def _drop_labels(groups, i, r):
    # group i's class keeps only a few labels, so a split may lack it
    label, keep = groups[i].get("label"), r.choice([0, 1, 2, 3])
    for group in groups:
        if group.get("label") == label:
            if keep:
                keep -= 1
            else:
                group.pop("label", None)


def _invalid_utf8(line, r):
    at = r.randrange(len(line) + 1)
    return line[:at] + r.choice([b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\xe2\x82"]) + line[at:]


def _deep_nesting(line, r):
    depth = r.choice([10, 2_000, 100_000])
    if r.random() < 0.5:
        return b"[" * depth + b"]" * depth
    return line[:-1] + b', "extra": ' + b"[" * depth + b"]" * depth + b"}"


def _truncated(line, r):
    return line[: r.randint(0, max(len(line) - 1, 0))]


GROUP_MUTATIONS = {f.__name__: f for f in (
    _scale_ring, _shift_ring, _flatten_ring, _coincident_centroids, _collinear_centroids,
    _move_group, _bad_type, _repeated_id, _drop_labels,
)}
LINE_MUTATIONS = {f.__name__: f for f in (_invalid_utf8, _deep_nesting, _truncated)}

# what an exit-3 message must name: a line, a group, a class or split, or
# that no group has a label
NAMED = re.compile(r"line \d+|group '|class '|(training|validation|train|val|test) split|no labeled groups")


class TestFuzzedInput:
    """Mutated lines of a valid corpus through `predict`, `eval` and `train`,
    run in-process: each exits 0, 2, 3 or 4 without a traceback, and an exit
    3 names where the fault is.  A file `load_dataset` accepts is saved and
    read back unchanged."""

    @pytest.fixture(scope="class")
    def corpus(self, data_path, artifacts):
        groups = [json.loads(line) for line in data_path.read_text().splitlines()]
        return groups, artifacts["ckpt"], artifacts["tmp"] / "fuzz"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(GROUP_MUTATIONS) + sorted(LINE_MUTATIONS)),
                st.integers(0, 11),  # a line of the 12-group corpus
            ),
            min_size=1,
            max_size=3,
        ),
        st.randoms(use_true_random=False),
    )
    def test_no_traceback_and_a_documented_exit(self, corpus, mutations, r):
        groups, ckpt, tmp = corpus
        groups = copy.deepcopy(groups)
        for name, i in mutations:
            if name in GROUP_MUTATIONS and _intact(groups[i]):
                GROUP_MUTATIONS[name](groups, i, r)
        lines = [json.dumps(g).encode() for g in groups]
        for name, i in mutations:
            if name in LINE_MUTATIONS:
                lines[i] = LINE_MUTATIONS[name](lines[i], r)
        tmp.mkdir(exist_ok=True)
        data = tmp / "mutated.ndjson"
        data.write_bytes(b"\n".join(lines) + b"\n")
        for argv in (
            ["predict", "--checkpoint", ckpt, "--data", data, "--out", tmp / "pred.ndjson"],
            ["eval", "--checkpoint", ckpt, "--data", data, "--split", r.choice(["train", "val", "test"])],
            ["train", "--data", data, "--checkpoint", tmp / "m.json", "--epochs", "1",
             "--batch", "4", "--channels", "2", "--layers", "1", "--k", "2"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(*argv)
            note(f"{argv[0]}: exit {code}: {err.getvalue()}")
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if code == 3:
                assert NAMED.search(err.getvalue()), err.getvalue()
        try:
            accepted = load_dataset(data)
        except DataError:
            return
        assert_round_trip(accepted, tmp / "round-trip.ndjson")
