import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pattern import data, graph
from spectral_pattern.data import (
    LABELS,
    BuildingGroup,
    Dataset,
    Standardizer,
    _allocate,
    generate_synthetic_dataset,
    load_dataset,
    prepare_inference_samples,
    prepare_training_samples,
    save_dataset,
    split_dataset,
    split_graphs,
)
from spectral_pattern.errors import (
    CoincidentCentroids,
    CollinearInput,
    DataError,
    DuplicatePoints,
    EmptySplit,
    GraphError,
    InfeasiblePacking,
    InsufficientSamples,
    InvalidPolygon,
    ParseError,
    UnknownLabel,
)
from spectral_pattern.geometry import (
    FEATURE_NAMES,
    Polygon,
    extract_features,
    polygon_area,
    polygon_centroid,
    polygons,
)
from spectral_pattern.graph import (
    LAPLACIAN_KINDS,
    STRUCTURES,
    WEIGHTINGS,
    GraphConfig,
    SpatialGraph,
    _principal_axis_path,
    delaunay_triangles,
    minimum_spanning_tree,
)

from conftest import NEAR_LINE_RING, assert_round_trip, rect_ring, triangle_centres


def tiny_buildings(offset=0.0):
    # three well separated unit squares on a line
    return tuple(
        Polygon(rect_ring(10.0 * k + offset, 0.0, 1.0, 1.0, 0.0)) for k in range(3)
    )


def make_groups(n_regular, n_irregular, n_unlabeled=0):
    groups = []
    for i in range(n_regular):
        groups.append(BuildingGroup(f"r{i}", tiny_buildings(), "regular"))
    for i in range(n_irregular):
        groups.append(BuildingGroup(f"i{i}", tiny_buildings(), "irregular"))
    for i in range(n_unlabeled):
        groups.append(BuildingGroup(f"u{i}", tiny_buildings(), None))
    return groups


# ---------------------------------------------------------------------------
# Types


class TestBuildingGroup:
    def test_requires_three_buildings(self):
        two = tiny_buildings()[:2]
        with pytest.raises(ValueError, match="need 3"):
            BuildingGroup("g", two, "regular")

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="label"):
            BuildingGroup("g", tiny_buildings(), "weird")

    def test_label_index(self):
        assert BuildingGroup("g", tiny_buildings(), "regular").label_index == 0
        assert BuildingGroup("g", tiny_buildings(), "irregular").label_index == 1
        assert BuildingGroup("g", tiny_buildings(), None).label_index is None


class TestDatasetInvariants:
    """`split_graphs`, the one entry of every training path, refuses splits
    that `split_dataset` cannot give."""

    def test_overlapping_splits_rejected(self):
        r0, r1, i0, i1 = make_groups(2, 2)
        splits = {"train": [r0, r1], "val": [r1], "test": [i0, i1]}
        with pytest.raises(ValueError, match="splits overlap: group 'r1' is in train and val"):
            split_graphs(splits)

    def test_unlabeled_groups_stay_out_of_splits(self):
        *labeled, u0 = make_groups(3, 3, n_unlabeled=1)
        splits = split_dataset(Dataset([*labeled[:3], u0, *labeled[3:]]), seed=0)
        assert sorted(g.group_id for part in splits.values() for g in part) == sorted(
            g.group_id for g in labeled)
        splits["val"].append(u0)
        with pytest.raises(ValueError, match="val group 'u0' has no label"):
            split_graphs(splits)


# ---------------------------------------------------------------------------
# NDJSON I/O


class TestNdjsonIO:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**16), st.sampled_from([(3, 128), (20, 40)]), st.sampled_from([2, 4, 6]),
    )
    def test_save_then_load_is_the_dataset(self, tmp_path_factory, seed, sizes, n_groups):
        ds = generate_synthetic_dataset(n_groups=n_groups, size_range=sizes, seed=seed)
        # and a group whose clockwise near-line ring is saved as `Polygon` stores it, reversed
        near_line = (Polygon(NEAR_LINE_RING), *tiny_buildings(offset=100.0))
        ds.groups.append(BuildingGroup("near-line", near_line, "regular"))
        assert_round_trip(ds, tmp_path_factory.mktemp("round-trip") / "ds.ndjson")

    def test_round_trip_exact(self, tmp_path):
        ds = generate_synthetic_dataset(n_groups=10, size_range=(3, 6), seed=5)
        path = tmp_path / "ds.ndjson"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert len(back) == len(ds)
        for a, b in zip(ds.groups, back.groups):
            assert a.group_id == b.group_id
            assert a.label == b.label
            assert len(a.buildings) == len(b.buildings)
            for pa, pb in zip(a.buildings, b.buildings):
                assert [(p.x, p.y) for p in pa.ring] == [(p.x, p.y) for p in pb.ring]

    def test_save_load_save_byte_identical(self, tmp_path):
        ds = generate_synthetic_dataset(n_groups=6, size_range=(3, 5), seed=9)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_line_endings_are_lf(self, tmp_path):
        ds = Dataset(make_groups(1, 1))
        path = tmp_path / "ds.ndjson"
        save_dataset(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 2

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        ds = load_dataset(path)
        assert len(ds) == 0 and ds.groups == []

    def test_blank_lines_skipped(self, tmp_path):
        ds = Dataset(make_groups(1, 0))
        path = tmp_path / "ds.ndjson"
        save_dataset(ds, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_dataset(path)) == 1

    def test_label_omitted_for_unlabeled(self, tmp_path):
        ds = Dataset(make_groups(0, 0, n_unlabeled=1))
        path = tmp_path / "ds.ndjson"
        save_dataset(ds, path)
        obj = json.loads(path.read_text())
        assert "label" not in obj
        assert load_dataset(path).groups[0].label is None

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        return path

    def good_line(self, gid="g1", label="regular"):
        ring = [[0, 0], [1, 0], [1, 1], [0, 1]]
        obj = {
            "id": gid,
            "label": label,
            "buildings": [{"ring": ring}, {"ring": [[3, 0], [4, 0], [4, 1], [3, 1]]},
                          {"ring": [[6, 0], [7, 0], [7, 1], [6, 1]]}],
        }
        return json.dumps(obj)

    def test_invalid_json_reports_line(self, tmp_path):
        path = self.write_lines(tmp_path, [self.good_line(), "{not json"])
        with pytest.raises(ParseError, match="line 2") as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_unknown_label_reports_line(self, tmp_path):
        bad = json.loads(self.good_line())
        bad["label"] = "fancy"
        path = self.write_lines(tmp_path, [self.good_line(), self.good_line("g2"), json.dumps(bad)])
        with pytest.raises(UnknownLabel, match="line 3"):
            load_dataset(path)

    def test_bad_polygon_reports_line(self, tmp_path):
        bad = json.loads(self.good_line())
        bad["buildings"][1]["ring"] = [[0, 0], [1, 1], [1, 0], [0, 1]]  # bowtie
        path = self.write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(InvalidPolygon, match="line 1") as exc:
            load_dataset(path)
        assert exc.value.line == 1

    def test_too_few_vertices_reports_line(self, tmp_path):
        bad = json.loads(self.good_line())
        bad["buildings"][0]["ring"] = [[0, 0], [1, 0]]
        path = self.write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(InvalidPolygon, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "ring_edit",
        [
            lambda ring: ring.__setitem__(1, ["7", "0"]),
            lambda ring: ring.__setitem__(1, [7, False]),
            lambda ring: ring.__setitem__(1, [[7], 0]),
            lambda ring: ring.__setitem__(1, [7, None]),
            lambda ring: ring.__setitem__(1, [7, 0, 0]),
            lambda ring: ring.__setitem__(1, 10**400),
            lambda ring: ring.__setitem__(1, [10**400, 0]),
        ],
        ids=["string", "bool", "nested-list", "null", "three-values", "bare-number", "int-overflow"],
    )
    def test_non_number_coordinates_rejected(self, tmp_path, ring_edit):
        # vertex 1 of building 2 is [7, 0]: as "7" or False it would pass
        # float() inside Point2 and give a valid square; only JSON numbers pass
        bad = json.loads(self.good_line("g2"))
        ring_edit(bad["buildings"][2]["ring"])
        path = self.write_lines(tmp_path, [self.good_line(), json.dumps(bad)])
        with pytest.raises(InvalidPolygon, match="line 2") as exc:
            load_dataset(path)
        assert exc.value.line == 2
        assert "building 2" in str(exc.value)

    def test_string_ring_rejected(self, tmp_path):
        bad = json.loads(self.good_line())
        bad["buildings"][0]["ring"] = "0 0 1 0 1 1"
        path = self.write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(InvalidPolygon, match="building 0"):
            load_dataset(path)

    def test_missing_id_rejected(self, tmp_path):
        bad = json.loads(self.good_line())
        del bad["id"]
        path = self.write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(ParseError, match="'id'"):
            load_dataset(path)

    def test_too_few_buildings_rejected(self, tmp_path):
        bad = json.loads(self.good_line())
        bad["buildings"] = bad["buildings"][:2]
        path = self.write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(ParseError, match="at least 3"):
            load_dataset(path)

    def test_missing_ring_rejected(self, tmp_path):
        bad = json.loads(self.good_line())
        bad["buildings"][2] = {"outline": []}
        path = self.write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(ParseError, match="ring"):
            load_dataset(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "bytes.ndjson"
        bad = self.good_line("g2").encode().replace(b"g2", b"g\xff")
        lines = [self.good_line("g1").encode(), bad]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match="line 2: invalid UTF-8") as exc:
            load_dataset(path)
        assert exc.value.line == 2 and "0xff" in str(exc.value)

    def test_deep_nesting_reports_line(self, tmp_path):
        path = self.write_lines(tmp_path, [self.good_line(), "[" * 5000 + "]" * 5000])
        with pytest.raises(ParseError, match="line 2: invalid JSON: nested too deeply"):
            load_dataset(path)

    def test_repeated_group_id_names_both_lines(self, tmp_path):
        lines = [self.good_line("g1"), self.good_line("g2"), self.good_line("g1")]
        with pytest.raises(ParseError, match="line 3: group id 'g1' is also on line 1") as exc:
            load_dataset(self.write_lines(tmp_path, lines))
        assert exc.value.line == 3

    def test_overflowing_ring_reports_line(self, tmp_path):
        bad = json.loads(self.good_line("g2"))
        bad["buildings"][1]["ring"] = [[0, 0], [1e160, 0], [1e160, 1e160], [0, 1e160]]
        path = self.write_lines(tmp_path, [self.good_line(), json.dumps(bad)])
        with pytest.raises(InvalidPolygon, match="line 2: building 1: area inf") as exc:
            load_dataset(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("per_build", [1, 4, 4096])
    def test_first_bad_line_in_file_order_wins(self, tmp_path, monkeypatch, per_build):
        # line 5 has a bowtie, line 7 is not JSON, line 9 a bad label: the
        # bowtie is reported however many lines are built at once
        monkeypatch.setattr(data, "_RINGS_PER_BUILD", per_build)
        bowtie = json.loads(self.good_line("g5"))
        bowtie["buildings"][2]["ring"] = [[0, 0], [1, 1], [1, 0], [0, 1]]
        lines = [self.good_line(f"g{k}") for k in range(1, 5)]
        lines += [json.dumps(bowtie), self.good_line("g6"), "{not json", '{"id": "g8", "label": 5}']
        with pytest.raises(InvalidPolygon, match="line 5: building 2: edges") as exc:
            load_dataset(self.write_lines(tmp_path, lines))
        assert exc.value.line == 5
        # a building's own fault waits for the bad rings before it on its line
        bad = json.loads(self.good_line("g1"))
        bad["buildings"][0]["ring"] = [[0, 0], [1, 1], [1, 0], [0, 1]]
        bad["buildings"][1] = {"outline": []}
        with pytest.raises(InvalidPolygon, match="line 1: building 0"):
            load_dataset(self.write_lines(tmp_path, [json.dumps(bad)]))

    def test_groups_built_in_several_batches_match_one(self, tmp_path, monkeypatch):
        ds = generate_synthetic_dataset(n_groups=6, size_range=(3, 9), seed=5)
        path = tmp_path / "ds.ndjson"
        save_dataset(ds, path)
        whole = load_dataset(path)
        monkeypatch.setattr(data, "_RINGS_PER_BUILD", 7)
        for a, b in zip(whole.groups, load_dataset(path).groups):
            assert a.group_id == b.group_id and a.buildings == b.buildings
            assert [extract_features(p) for p in a.buildings] == [
                extract_features(p) for p in b.buildings]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.ndjson")


# ---------------------------------------------------------------------------
# Splitting


class TestSplitDataset:
    def test_balanced_100_gives_60_20_20(self):
        ds = Dataset(make_groups(50, 50))
        out = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
        assert list(out) == ["train", "val", "test"]
        assert [len(part) for part in out.values()] == [60, 20, 20]
        for part in out.values():
            labels = [g.label for g in part]
            assert labels.count("regular") == labels.count("irregular")

    def test_stratified_within_one(self):
        ds = Dataset(make_groups(51, 49))
        out = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        for part, ratio in zip(out.values(), (0.6, 0.2, 0.2)):
            labels = [g.label for g in part]
            assert abs(labels.count("regular") - 51 * ratio) <= 1
            assert abs(labels.count("irregular") - 49 * ratio) <= 1

    def test_deterministic_and_seed_sensitive(self):
        ds = Dataset(make_groups(20, 20))
        a = split_dataset(ds, seed=7)
        b = split_dataset(ds, seed=7)
        c = split_dataset(ds, seed=8)
        assert a == b
        assert a != c

    def test_indices_sorted_disjoint_and_cover(self):
        # each split holds the dataset's own groups, in file order
        ds = Dataset(make_groups(10, 10, n_unlabeled=3))
        out = split_dataset(ds, seed=0)
        position = {id(g): i for i, g in enumerate(ds.groups)}
        all_idx = [position[id(g)] for part in out.values() for g in part]
        assert len(all_idx) == len(set(all_idx)) == 20
        assert set(all_idx) == set(range(20))  # unlabeled groups are 20..22
        for part in out.values():
            idx = [position[id(g)] for g in part]
            assert idx == sorted(idx)

    def test_small_class_rejected(self):
        ds = Dataset(make_groups(10, 2))
        with pytest.raises(InsufficientSamples, match="irregular"):
            split_dataset(ds)

    def test_no_labeled_groups_rejected(self):
        ds = Dataset(make_groups(0, 0, n_unlabeled=4))
        with pytest.raises(InsufficientSamples):
            split_dataset(ds)

    def test_ratio_validation(self):
        ds = Dataset(make_groups(5, 5))
        with pytest.raises(ValueError):
            split_dataset(ds, (0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            split_dataset(ds, (0.5, 0.3, 0.3))
        with pytest.raises(ValueError):
            split_dataset(ds, (0.8, 0.2))
        # every comparison with NaN is false, so NaN passes the sign and sum checks
        with pytest.raises(ValueError, match=r"finite, got \(0.6, 0.2, nan\)"):
            split_dataset(ds, (0.6, 0.2, math.nan))

    @given(
        count=st.integers(min_value=0, max_value=1000),
        raw=st.tuples(
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_allocation_sums_and_stays_within_one(self, count, raw):
        total = sum(raw)
        ratios = tuple(r / total for r in raw)
        parts = _allocate(count, ratios)
        assert sum(parts) == count
        for got, r in zip(parts, ratios):
            assert abs(got - count * r) < 1.0


# ---------------------------------------------------------------------------
# Standardizer


def square_group(gid, side, label="regular"):
    polys = tuple(
        Polygon(rect_ring(20.0 * k, 0.0, side, side, 0.0)) for k in range(3)
    )
    return BuildingGroup(gid, polys, label)


def fitted(groups, train, feature_mask=None):
    """The standardizer `prepare_training_samples` fits with groups `train`
    as the training split and the rest as validation."""
    splits = {
        "train": [groups[i] for i in train],
        "val": [g for i, g in enumerate(groups) if i not in train],
        "test": [],
    }
    return prepare_training_samples(splits, feature_mask=feature_mask)


class TestStandardizer:
    def test_fit_matches_manual_stats(self):
        groups = [square_group("a", 1.0), square_group("b", 2.0, "irregular"),
                  square_group("c", 3.0)]
        _, std = fitted(groups, [0, 1])
        rows = []
        for i in (0, 1):
            for poly in groups[i].buildings:
                rows.append(tuple(extract_features(poly)))
        rows = np.array(rows)
        assert np.allclose(std.mean, rows.mean(axis=0), atol=1e-12)
        assert np.allclose(std.std, np.maximum(rows.std(axis=0), 1e-8), atol=1e-12)

    def test_training_buildings_only(self):
        _, s1 = fitted([square_group("a", 1.0), square_group("b", 2.0)], [0])
        _, s2 = fitted([square_group("a", 1.0), square_group("b", 9.0)], [0])
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.std, s2.std)

    def test_transform_normalizes_training_rows(self):
        groups = [square_group(f"side-{s:g}", s) for s in (1.0, 2.0, 5.0)]
        splits, _ = fitted(groups, [0, 1, 2])
        rows = np.array([
            tuple(extract_features(p)) for g in groups for p in g.buildings
        ])
        z = np.vstack([s.features for s in splits["train"]])
        assert np.all(np.abs(z.mean(axis=0)) <= 1e-9)
        spread = z.std(axis=0)
        varying = rows.std(axis=0) > 1e-6
        assert np.all(np.abs(spread[varying] - 1.0) <= 1e-9)

    def test_constant_feature_hits_std_floor(self):
        group = square_group("a", 2.0)
        _, std = fitted([group], [0])
        # identical squares: every feature is constant across the pool
        assert np.all(std.std == 1e-8)
        z = std.transform(tuple(extract_features(group.buildings[0])))
        assert np.all(np.isfinite(z))

    def test_empty_split_rejected(self):
        with pytest.raises(EmptySplit):
            fitted([square_group("a", 1.0)], [])

    def test_feature_mask_by_name_and_index(self):
        groups = [square_group(f"side-{s:g}", s) for s in (1.0, 2.0)]
        _, by_name = fitted(groups, [0, 1], feature_mask=("area",))
        _, by_index = fitted(groups, [0, 1], feature_mask=[0])
        assert by_name.mean.shape == (1,)
        assert np.array_equal(by_name.mean, by_index.mean)
        with pytest.raises(ValueError, match="unknown feature"):
            fitted(groups, [0], feature_mask=("acreage",))

    def test_dimension_mismatch_rejected(self):
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        with pytest.raises(ValueError, match="columns"):
            std.transform(np.zeros((2, 3)))

    def test_std_floor_enforced_on_construction(self):
        with pytest.raises(ValueError):
            Standardizer(mean=np.zeros(2), std=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("field", ["mean", "std"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_statistics_rejected(self, field, bad):
        stats = {"mean": np.zeros(2), "std": np.ones(2)}
        stats[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            Standardizer(**stats)


# ---------------------------------------------------------------------------
# Synthetic generator


def segment_distance(a, b, c, d):
    # min distance between segments ab and cd
    def clamp01(t):
        return min(1.0, max(0.0, t))

    def pt_seg(px, py, ax, ay, bx, by):
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        t = 0.0 if L2 == 0 else clamp01(((px - ax) * vx + (py - ay) * vy) / L2)
        return math.hypot(px - (ax + t * vx), py - (ay + t * vy))

    return min(
        pt_seg(a[0], a[1], c[0], c[1], d[0], d[1]),
        pt_seg(b[0], b[1], c[0], c[1], d[0], d[1]),
        pt_seg(c[0], c[1], a[0], a[1], b[0], b[1]),
        pt_seg(d[0], d[1], a[0], a[1], b[0], b[1]),
    )


def polygon_gap(p1, p2):
    r1 = [(p.x, p.y) for p in p1.ring]
    r2 = [(p.x, p.y) for p in p2.ring]
    best = math.inf
    for i in range(len(r1)):
        a, b = r1[i], r1[(i + 1) % len(r1)]
        for j in range(len(r2)):
            c, d = r2[j], r2[(j + 1) % len(r2)]
            best = min(best, segment_distance(a, b, c, d))
    return best


def orientation_spread(group):
    angles = [extract_features(p).main_direction for p in group.buildings]
    ref = angles[0]
    diffs = []
    for a in angles:
        d = abs(a - ref) % 180.0
        diffs.append(min(d, 180.0 - d))
    return max(diffs)


def area_cv(group):
    areas = np.array([polygon_area(p) for p in group.buildings])
    return float(areas.std() / areas.mean())


@pytest.fixture(scope="module")
def small():
    return generate_synthetic_dataset(n_groups=20, size_range=(5, 10), seed=7)


class TestSyntheticGenerator:
    def test_counts_and_interleaving(self, small):
        labels = [g.label for g in small.groups]
        assert labels[0::2] == ["regular"] * 10
        assert labels[1::2] == ["irregular"] * 10

    def test_sizes_within_range(self, small):
        for g in small.groups:
            assert 5 <= len(g.buildings) <= 10

    def test_regular_groups_are_homogeneous(self, small):
        for g in small.groups[0::2]:
            assert area_cv(g) <= 0.1
            assert orientation_spread(g) <= 2.5  # shared axis, 1 degree jitter
            for p in g.buildings:
                f = extract_features(p)
                assert f.area_ratio >= 0.999  # rectangles fill their box

    def test_irregular_groups_are_dispersed(self, small):
        for g in small.groups[1::2]:
            assert area_cv(g) >= 0.5
        # L-shapes show up somewhere in the corpus
        n_vertices = [len(p.ring) for g in small.groups[1::2] for p in g.buildings]
        assert 6 in n_vertices

    def test_pairwise_separation(self, small):
        for g in small.groups:
            polys = g.buildings
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    assert polygon_gap(polys[i], polys[j]) >= 0.1 - 1e-9

    def test_byte_identical_for_same_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_dataset(generate_synthetic_dataset(8, (3, 5), seed=11), p1)
        save_dataset(generate_synthetic_dataset(8, (3, 5), seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()
        p3 = tmp_path / "c.ndjson"
        save_dataset(generate_synthetic_dataset(8, (3, 5), seed=12), p3)
        assert p1.read_bytes() != p3.read_bytes()

    def test_group_streams_independent_of_count(self):
        # group i draws from stream (seed, i), so a longer run keeps a prefix
        d4 = generate_synthetic_dataset(4, (3, 5), seed=13)
        d8 = generate_synthetic_dataset(8, (3, 5), seed=13)
        for a, b in zip(d4.groups, d8.groups):
            assert a.label == b.label
            ra = [[(p.x, p.y) for p in poly.ring] for poly in a.buildings]
            rb = [[(p.x, p.y) for p in poly.ring] for poly in b.buildings]
            assert ra == rb

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            generate_synthetic_dataset(5, (3, 5), seed=1)
        with pytest.raises(ValueError, match="size_range"):
            generate_synthetic_dataset(4, (2, 5), seed=1)
        with pytest.raises(ValueError, match="size_range"):
            generate_synthetic_dataset(4, (10, 200), seed=1)

    def test_infeasible_packing_raises(self, monkeypatch):
        monkeypatch.setattr(data, "_FILL_FACTOR", 1e9)
        with pytest.raises(InfeasiblePacking):
            generate_synthetic_dataset(2, (5, 5), seed=3)

    def test_profile_knobs_respected(self, monkeypatch):
        monkeypatch.setattr(data, "_AREA_CV_REGULAR", 0.0)
        monkeypatch.setattr(data, "_ORIENTATION_JITTER_REGULAR", 0.0)
        ds = generate_synthetic_dataset(2, (6, 6), seed=21)
        g = ds.groups[0]
        assert area_cv(g) <= 1e-12
        assert orientation_spread(g) <= 1e-9


# ---------------------------------------------------------------------------
# Model-ready samples


@pytest.fixture(scope="module")
def split():
    raw = generate_synthetic_dataset(n_groups=12, size_range=(3, 5), seed=17)
    return split_dataset(raw, (0.6, 0.2, 0.2), seed=2)


class TestPrepareSamples:
    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_one_large_group_is_sampled_in_bounded_memory(self):
        # 2,000 buildings: each n x n float array is 30.5 MiB, and a new
        # Laplacian array at every step peaked near 219 MiB in all
        code = (
            "import resource\n"
            "from spectral_pattern.data import BuildingGroup, Standardizer,"
            " prepare_inference_samples\n"
            "from spectral_pattern.geometry import polygons\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "k = np.arange(2000)\n"
            "xs = 10.0 * (k % 45) + rng.uniform(-2, 2, 2000)\n"
            "ys = 10.0 * (k // 45) + rng.uniform(-2, 2, 2000)\n"
            "rings = [[(x - 2, y - 1.5), (x + 2, y - 1.5), (x + 2, y + 1.5), (x - 2, y + 1.5)]\n"
            "         for x, y in zip(xs.tolist(), ys.tolist())]\n"
            "group = BuildingGroup('big', polygons(rings))\n"
            "prepare_inference_samples([group], Standardizer(np.zeros(5), np.ones(5)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(data.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 175 * 1024

    def test_shapes_labels_and_ids(self, split):
        samples, std = prepare_training_samples(split)
        assert set(samples) == {"train", "val", "test"}
        assert std.mean.shape == (5,)
        for name in ("train", "val", "test"):
            assert len(samples[name]) == len(split[name])
            for sample, group in zip(samples[name], split[name]):
                n = len(group.buildings)
                assert sample.laplacian.shape == (n, n)
                assert np.allclose(sample.laplacian, sample.laplacian.T, atol=1e-12)
                assert sample.features.shape == (n, 5)
                assert sample.label == group.label_index
                assert sample.sample_id == group.group_id

    def test_training_features_standardized(self, split):
        samples, _ = prepare_training_samples(split)
        stacked = np.vstack([s.features for s in samples["train"]])
        assert np.all(np.abs(stacked.mean(axis=0)) <= 1e-9)
        spread = stacked.std(axis=0)
        assert np.all((np.abs(spread - 1.0) <= 1e-6) | (spread <= 1e-6))

    def test_feature_mask_narrows_columns(self, split):
        samples, std = prepare_training_samples(split, feature_mask=("area",))
        assert std.mean.shape == (1,)
        assert samples["train"][0].features.shape[1] == 1

    def test_inference_matches_training_transform(self, split):
        samples, std = prepare_training_samples(split)
        inferred = prepare_inference_samples(split["test"], std)
        for a, b in zip(samples["test"], inferred):
            assert a.sample_id == b.sample_id
            assert np.allclose(a.features, b.features, atol=1e-12)
            assert np.allclose(a.laplacian, b.laplacian, atol=1e-12)

    def test_inference_allows_unlabeled(self):
        group = BuildingGroup("u0", tiny_buildings(), None)
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        samples = prepare_inference_samples([group], std)
        assert samples[0].label is None
        assert samples[0].features.shape == (3, 5)


# ---------------------------------------------------------------------------
# The graph builder against the group-by-group loop it replaced

ALL_CONFIGS = [GraphConfig(s, w, k) for s in STRUCTURES for w in WEIGHTINGS for k in LAPLACIAN_KINDS]


def reference_features(p):
    """`extract_features` as one footprint's tuple, read off its measures row."""
    area_ratio, compact, area, angle, length, width = p._block.measures[p._row, 2:8].tolist()
    return (area, angle, length / width, area_ratio, compact)


def reference_graph(polys, config):
    """(features, weights) of one group, as `build_spatial_graph` made them
    one group at a time, with the same SpatialGraph checks."""
    pts = [polygon_centroid(p) for p in polys]
    try:
        base_edges = sorted({e for a, b, c in delaunay_triangles(pts) for e in ((a, b), (b, c), (a, c))})
    except CollinearInput:
        base_edges = _principal_axis_path(pts)

    def dist(e):
        (x1, y1), (x2, y2) = pts[e[0]], pts[e[1]]
        return math.hypot(x2 - x1, y2 - y1)

    if config.structure == "mst":
        edges = minimum_spanning_tree(len(pts), [(i, j, dist((i, j))) for i, j in base_edges])
    else:
        edges = base_edges
    if config.weighting == "gaussian":
        sigma = sum(dist(e) for e in base_edges) / len(base_edges)
    n = len(pts)
    W = np.zeros((n, n))
    for i, j in edges:
        d = dist((i, j))
        if config.weighting == "binary":
            w = 1.0
        elif config.weighting == "invdist":
            w = 1.0 / d
        else:
            w = math.exp(-(d * d) / (2.0 * sigma * sigma))
        W[i, j] = W[j, i] = w
    F = np.array([reference_features(p) for p in polys])
    SpatialGraph(weights=W, features=F, positions=pts)
    return F, W


def reference_laplacian(W, kind):
    """`laplacian` of one weights matrix, scaled as the network reads it,
    as it was before it took stacks."""
    deg = W.sum(axis=1)
    if kind == "comb":
        L = np.diag(deg) - W
    else:
        inv_sqrt = 1.0 / np.sqrt(deg)
        L = np.eye(W.shape[0]) - (inv_sqrt[:, None] * W * inv_sqrt[None, :])
    L = (L + L.T) / 2.0
    d = np.diag(L)
    lam_up = float(np.max(d + (np.sum(np.abs(L), axis=1) - np.abs(d))))
    return -np.eye(W.shape[0]) if lam_up <= 0 else (2.0 / lam_up) * L - np.eye(W.shape[0])


def reference_samples(groups, standardizer, config, cols):
    """[(Laplacian, standardized features)] of each group, or the error,
    naming the group, of the first group in order whose graph cannot be made."""
    out = []
    for group in groups:
        try:
            F, W = reference_graph(group.buildings, config)
        except DuplicatePoints as exc:
            raise CoincidentCentroids(f"group {group.group_id!r}: {exc}") from exc
        except GraphError as exc:
            raise DataError(f"group {group.group_id!r}: {exc}") from exc
        out.append((reference_laplacian(W, config.laplacian),
                    standardizer.transform(F[:, cols])))
    return out


def outcome(make):
    try:
        return make()
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_arrays(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.strides == b.strides
    assert a.tobytes() == b.tobytes()


@st.composite
def building_groups(draw):
    """1-5 groups of 3-128 rectangles, several often of one size: centres
    scattered, on an exact or a jittered grid (co-circular and near
    co-circular centroids), or on one line (the path fallback); in about one
    group of six a footprint is repeated, so two centroids coincide.
    Offsets of 0 or 1e6 m."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = st.sampled_from([3, 4, 5, 9, 20, 33, 128]) | st.integers(3, 128)
    sizes = draw(st.lists(size, min_size=1, max_size=5))
    off = draw(st.sampled_from([0.0, 1e6]))
    rings, groups = [], []
    for n in sizes:
        kind = draw(st.sampled_from(["scatter", "grid", "jittered grid", "line"]))
        if kind == "line":
            ang = float(rng.choice([0.0, 45.0, rng.uniform(0.0, 180.0)]))
            t = np.sort(rng.uniform(0.0, 30.0 * n, n))
            centres = np.stack((t * math.cos(math.radians(ang)), t * math.sin(math.radians(ang))), 1)
        elif kind == "scatter":
            centres = rng.uniform(0.0, 15.0 * math.sqrt(n), (n, 2))
        else:
            cols = math.ceil(math.sqrt(n))
            centres = 12.0 * np.array([divmod(k, cols) for k in range(n)], dtype=float)
            if kind == "jittered grid":
                centres += rng.uniform(-1.0, 1.0, (n, 2))
        group = [rect_ring(off + x, off + y, *rng.uniform(2.0, 8.0, 2), rng.uniform(0.0, 180.0))
                 for x, y in centres]
        if rng.random() < 1 / 6:
            group[int(rng.integers(1, n))] = group[0]
        groups.append(len(group))
        rings += group
    made = iter(polygons(rings))
    return [BuildingGroup(f"g{i}", tuple(next(made) for _ in range(n)))
            for i, n in enumerate(groups)]


class TestGraphBuilder:
    @settings(max_examples=60, deadline=None)
    @given(building_groups())
    def test_matches_the_group_by_group_loop(self, groups):
        # every config, bit for bit and with equal strides; or the same
        # error, for the same group
        cols = list(range(5))
        std = Standardizer(mean=np.linspace(-1.0, 1.0, 5), std=np.linspace(0.5, 2.0, 5))
        for config in ALL_CONFIGS:
            want = outcome(lambda: reference_samples(groups, std, config, cols))
            got = outcome(lambda: prepare_inference_samples(groups, std, config))
            if isinstance(want, tuple):
                assert got == want, config
                continue
            assert len(got) == len(want)
            for group, sample, (L, X) in zip(groups, got, want):
                assert sample.sample_id == group.group_id
                assert_same_arrays(sample.laplacian, L)
                assert_same_arrays(sample.features, X)

    @pytest.mark.parametrize(
        "mask", [None, ("area",), (4, 1), (0, 2, 3)], ids=["all", "area", "4-1", "0-2-3"]
    )
    def test_training_samples_match_the_loop(self, mask):
        # masked columns too, bit for bit and with equal strides
        split = split_dataset(generate_synthetic_dataset(40, (3, 30), seed=31), seed=5)
        cols = list(data._mask_indices(mask))
        for config in (GraphConfig(), GraphConfig("mst", "gaussian", "comb")):
            samples, std = prepare_training_samples(split, config, mask)
            rows = np.vstack(
                [reference_graph(g.buildings, config)[0][:, cols] for g in split["train"]])
            assert std.mean.tobytes() == rows.mean(axis=0).tobytes()
            assert std.std.tobytes() == np.maximum(rows.std(axis=0), 1e-8).tobytes()
            for name in ("train", "val", "test"):
                want = reference_samples(split[name], std, config, cols)
                for sample, (L, X) in zip(samples[name], want):
                    assert_same_arrays(sample.laplacian, L)
                    assert_same_arrays(sample.features, X)

    @pytest.mark.parametrize("cap", [1, 300])
    def test_stacks_cut_at_the_entry_cap_change_nothing(self, monkeypatch, cap):
        # a cap of 1 puts each group in a stack of its own; 300 holds three
        # groups of 10, two of 11 or 12, one of 13 to 17
        ds = generate_synthetic_dataset(40, (3, 17), seed=43)
        twin = list(ds.groups[25].buildings)
        twin[3] = twin[1]
        groups = list(ds.groups[:30]) + [BuildingGroup("twin", tuple(twin))] + list(ds.groups[30:])
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        monkeypatch.setattr(graph, "_STACK_ENTRIES", cap)
        for config in (GraphConfig(), GraphConfig("mst", "gaussian", "comb")):
            got = prepare_inference_samples(ds.groups, std, config)
            want = reference_samples(ds.groups, std, config, list(range(5)))
            for sample, (L, X) in zip(got, want):
                assert_same_arrays(sample.laplacian, L)
                assert_same_arrays(sample.features, X)
            with pytest.raises(CoincidentCentroids, match="group 'twin': points 1 and 3 coincide"):
                prepare_inference_samples(groups, std, config)

    def test_coincident_centroids_name_the_first_group_in_order(self):
        # the later twin group has fewer buildings, so its stack comes first
        def group(gid, n, twin):
            rings = [rect_ring(15.0 * k, 7.0 * (k % 2), 4.0, 3.0, 10.0) for k in range(n)]
            if twin:
                rings[2] = rings[0]
            return BuildingGroup(gid, tuple(polygons(rings)))

        groups = [group("ok", 6, False), group("first", 9, True), group("ok2", 9, False),
                  group("second", 4, True)]
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        with pytest.raises(CoincidentCentroids, match="group 'first': points 0 and 2 coincide"):
            prepare_inference_samples(groups, std)
        with pytest.raises(CoincidentCentroids, match="group 'second'"):
            prepare_inference_samples([groups[0], groups[3], groups[1]], std)
        # gaussian weights to the square 1e5 m away underflow and cut "far"
        # off; it comes before "second" but its stack of 128 comes after
        rng = np.random.default_rng(0)
        centres = triangle_centres(rng, 127) + [(1e5, 0.0)]
        far = BuildingGroup("far", tuple(polygons([rect_ring(x, y, 1.0, 1.0, 0.0) for x, y in centres])))
        config = GraphConfig("mst", "gaussian", "comb")
        with pytest.raises(DataError, match="^group 'far': graph is not connected$") as err:
            prepare_inference_samples([group("ok4", 4, False), far, groups[3]], std, config)
        assert err.type is DataError

    def test_weights_that_underflow_but_leave_the_graph_connected_are_kept(self):
        # 120 squares inside a 100 m triangle and two far off: two DT edges
        # get gaussian weight exactly 0, yet every building is still reached
        rng = np.random.default_rng(0)
        centres = triangle_centres(rng, 120) + [(1e5, 50.0), (5e4, 2050.0)]
        group = BuildingGroup("far", tuple(polygons([rect_ring(x, y, 1.0, 1.0, 0.0) for x, y in centres])))
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        for kind in LAPLACIAN_KINDS:
            config = GraphConfig("dt", "gaussian", kind)
            _, w = graph._group_edges([polygon_centroid(p) for p in group.buildings], config)
            assert w.count(0.0) == 2
            (sample,) = prepare_inference_samples([group], std, config)
            ((L, X),) = reference_samples([group], std, config, list(range(5)))
            assert_same_arrays(sample.laplacian, L)
            assert_same_arrays(sample.features, X)
