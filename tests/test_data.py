import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pattern.data import (
    LABELS,
    BuildingGroup,
    Dataset,
    GeneratorProfile,
    Splits,
    Standardizer,
    _allocate,
    generate_synthetic_dataset,
    load_dataset,
    prepare_inference_samples,
    prepare_training_samples,
    save_dataset,
    split_dataset,
)
from spectral_pattern.errors import (
    EmptySplit,
    InfeasiblePacking,
    InsufficientSamples,
    InvalidPolygon,
    ParseError,
    StateError,
    UnknownLabel,
)
from spectral_pattern.geometry import (
    FEATURE_NAMES,
    Polygon,
    extract_features,
    polygon_area,
)

from conftest import rect_ring


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
    def test_overlapping_splits_rejected(self):
        groups = make_groups(2, 2)
        with pytest.raises(ValueError, match="overlap"):
            Dataset(groups, Splits(train=(0, 1), val=(1,), test=(2, 3)))

    def test_splits_must_cover_labeled(self):
        groups = make_groups(2, 2)
        with pytest.raises(ValueError, match="cover"):
            Dataset(groups, Splits(train=(0,), val=(1,), test=(2,)))

    def test_unlabeled_groups_stay_out_of_splits(self):
        groups = make_groups(2, 2, n_unlabeled=1)
        ds = Dataset(groups, Splits(train=(0, 2), val=(1,), test=(3,)))
        assert len(ds) == 5
        assert [g.group_id for g in ds.split_groups("train")] == ["r0", "i0"]

    def test_split_groups_requires_splits(self):
        ds = Dataset(make_groups(2, 2))
        with pytest.raises(StateError):
            ds.split_groups("train")


# ---------------------------------------------------------------------------
# NDJSON I/O


class TestNdjsonIO:
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
        assert len(ds) == 0 and ds.splits is None

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

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.ndjson")


# ---------------------------------------------------------------------------
# Splitting


class TestSplitDataset:
    def test_balanced_100_gives_60_20_20(self):
        ds = Dataset(make_groups(50, 50))
        out = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
        assert (len(out.splits.train), len(out.splits.val), len(out.splits.test)) == (60, 20, 20)
        for part in (out.splits.train, out.splits.val, out.splits.test):
            labels = [ds.groups[i].label for i in part]
            assert labels.count("regular") == labels.count("irregular")

    def test_stratified_within_one(self):
        ds = Dataset(make_groups(51, 49))
        out = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        for part, ratio in ((out.splits.train, 0.6), (out.splits.val, 0.2), (out.splits.test, 0.2)):
            labels = [ds.groups[i].label for i in part]
            assert abs(labels.count("regular") - 51 * ratio) <= 1
            assert abs(labels.count("irregular") - 49 * ratio) <= 1

    def test_deterministic_and_seed_sensitive(self):
        ds = Dataset(make_groups(20, 20))
        a = split_dataset(ds, seed=7).splits
        b = split_dataset(ds, seed=7).splits
        c = split_dataset(ds, seed=8).splits
        assert a == b
        assert a != c

    def test_indices_sorted_disjoint_and_cover(self):
        ds = Dataset(make_groups(10, 10, n_unlabeled=3))
        out = split_dataset(ds, seed=0)
        all_idx = out.splits.train + out.splits.val + out.splits.test
        assert len(all_idx) == len(set(all_idx)) == 20
        assert set(all_idx) == set(range(20))  # unlabeled groups are 20..22
        for part in (out.splits.train, out.splits.val, out.splits.test):
            assert list(part) == sorted(part)

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
    val = tuple(i for i in range(len(groups)) if i not in train)
    ds = Dataset(groups, Splits(train=tuple(train), val=val, test=()))
    return prepare_training_samples(ds, feature_mask=feature_mask)


class TestStandardizer:
    def test_fit_matches_manual_stats(self):
        groups = [square_group("a", 1.0), square_group("b", 2.0, "irregular"),
                  square_group("c", 3.0)]
        _, std = fitted(groups, [0, 1])
        rows = []
        for i in (0, 1):
            for poly in groups[i].buildings:
                rows.append(extract_features(poly).as_tuple())
        rows = np.array(rows)
        assert np.allclose(std.mean, rows.mean(axis=0), atol=1e-12)
        assert np.allclose(std.std, np.maximum(rows.std(axis=0), 1e-8), atol=1e-12)

    def test_training_buildings_only(self):
        _, s1 = fitted([square_group("a", 1.0), square_group("b", 2.0)], [0])
        _, s2 = fitted([square_group("a", 1.0), square_group("b", 9.0)], [0])
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.std, s2.std)

    def test_transform_normalizes_training_rows(self):
        groups = [square_group("a", s) for s in (1.0, 2.0, 5.0)]
        splits, _ = fitted(groups, [0, 1, 2])
        rows = np.array([
            extract_features(p).as_tuple() for g in groups for p in g.buildings
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
        z = std.transform(extract_features(group.buildings[0]).as_tuple())
        assert np.all(np.isfinite(z))

    def test_empty_split_rejected(self):
        with pytest.raises(EmptySplit):
            fitted([square_group("a", 1.0)], [])

    def test_feature_mask_by_name_and_index(self):
        groups = [square_group("a", s) for s in (1.0, 2.0)]
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
        assert small.splits is None

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

    def test_infeasible_packing_raises(self):
        cramped = GeneratorProfile(fill_factor=1e9)
        with pytest.raises(InfeasiblePacking):
            generate_synthetic_dataset(2, (5, 5), seed=3, noise_profile=cramped)

    def test_profile_knobs_respected(self):
        tight = GeneratorProfile(area_cv_regular=0.0, orientation_jitter_regular=0.0)
        ds = generate_synthetic_dataset(2, (6, 6), seed=21, noise_profile=tight)
        g = ds.groups[0]
        assert area_cv(g) <= 1e-12
        assert orientation_spread(g) <= 1e-9


# ---------------------------------------------------------------------------
# Model-ready samples


@pytest.fixture(scope="module")
def ds():
    raw = generate_synthetic_dataset(n_groups=12, size_range=(3, 5), seed=17)
    return split_dataset(raw, (0.6, 0.2, 0.2), seed=2)


class TestPrepareSamples:
    def test_shapes_labels_and_ids(self, ds):
        splits, std = prepare_training_samples(ds)
        assert set(splits) == {"train", "val", "test"}
        assert std.mean.shape == (5,)
        for name in ("train", "val", "test"):
            idxs = getattr(ds.splits, name)
            assert len(splits[name]) == len(idxs)
            for sample, idx in zip(splits[name], idxs):
                group = ds.groups[idx]
                n = len(group.buildings)
                assert sample.laplacian.shape == (n, n)
                assert np.allclose(sample.laplacian, sample.laplacian.T, atol=1e-12)
                assert sample.features.shape == (n, 5)
                assert sample.label == group.label_index
                assert sample.sample_id == group.group_id

    def test_training_features_standardized(self, ds):
        splits, _ = prepare_training_samples(ds)
        stacked = np.vstack([s.features for s in splits["train"]])
        assert np.all(np.abs(stacked.mean(axis=0)) <= 1e-9)
        spread = stacked.std(axis=0)
        assert np.all((np.abs(spread - 1.0) <= 1e-6) | (spread <= 1e-6))

    def test_feature_mask_narrows_columns(self, ds):
        splits, std = prepare_training_samples(ds, feature_mask=("area",))
        assert std.mean.shape == (1,)
        assert splits["train"][0].features.shape[1] == 1

    def test_requires_splits(self):
        raw = generate_synthetic_dataset(n_groups=4, size_range=(3, 4), seed=19)
        with pytest.raises(StateError):
            prepare_training_samples(raw)

    def test_inference_matches_training_transform(self, ds):
        splits, std = prepare_training_samples(ds)
        test_groups = [ds.groups[i] for i in ds.splits.test]
        inferred = prepare_inference_samples(test_groups, std)
        for a, b in zip(splits["test"], inferred):
            assert a.sample_id == b.sample_id
            assert np.allclose(a.features, b.features, atol=1e-12)
            assert np.allclose(a.laplacian, b.laplacian, atol=1e-12)

    def test_inference_allows_unlabeled(self):
        group = BuildingGroup("u0", tiny_buildings(), None)
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        samples = prepare_inference_samples([group], std)
        assert samples[0].label is None
        assert samples[0].features.shape == (3, 5)
