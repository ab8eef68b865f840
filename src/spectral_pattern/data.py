"""Dataset handling: NDJSON ingestion, splits, standardization, synthesis.

The on-disk format is one JSON object per line:

    {"id": "...", "label": "regular"|"irregular", "buildings": [{"ring": [[x, y], ...]}, ...]}

`label` may be omitted for predict-only data.  Coordinates are planar
meters.  The synthetic generator stands in for a real survey corpus: it
draws balanced regular and irregular building groups whose separating cues
are area homogeneity and orientation alignment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CoincidentCentroids,
    DataError,
    DuplicatePoints,
    EmptySplit,
    InfeasiblePacking,
    InsufficientSamples,
    InvalidPolygon,
    ParseError,
    StateError,
    UnknownLabel,
)
from .geometry import FEATURE_NAMES, Polygon, polygons
from .graph import GraphConfig, build_spatial_graph, laplacian
from .nn import GraphSample

LABELS = ("regular", "irregular")

_STD_FLOOR = 1e-8
_RINGS_PER_BUILD = 2048  # footprints parsed before they are built as one batch
_JSON_NUMBERS = (int, float)  # exact types: bool is an int subclass


@dataclass(frozen=True)
class BuildingGroup:
    """One spatial cluster of building footprints, optionally labeled."""

    group_id: str
    buildings: tuple[Polygon, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "buildings", tuple(self.buildings))
        if len(self.buildings) < 3:
            raise ValueError(f"group {self.group_id!r} has {len(self.buildings)} buildings, need 3")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS} or None, got {self.label!r}")

    @property
    def label_index(self) -> int | None:
        return None if self.label is None else LABELS.index(self.label)


@dataclass(frozen=True)
class Splits:
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


@dataclass
class Dataset:
    groups: list[BuildingGroup]
    splits: Splits | None = None

    def __post_init__(self):
        if self.splits is not None:
            labeled = {i for i, g in enumerate(self.groups) if g.label is not None}
            parts = [set(self.splits.train), set(self.splits.val), set(self.splits.test)]
            if sum(len(p) for p in parts) != len(set().union(*parts)):
                raise ValueError("split index lists overlap")
            if set().union(*parts) != labeled:
                raise ValueError("splits must cover exactly the labeled groups")

    def __len__(self) -> int:
        return len(self.groups)

    def split_groups(self, name: str) -> list[BuildingGroup]:
        if self.splits is None:
            raise StateError("dataset has no splits; call split_dataset first")
        return [self.groups[i] for i in getattr(self.splits, name)]


# ---------------------------------------------------------------------------
# NDJSON I/O


def _ring_fault(ring) -> str | None:
    """Why a JSON ring is not a list of [x, y] pairs of JSON numbers, if it
    is not.  Strings and booleans would pass `float()` inside `Point2`."""
    if not isinstance(ring, list):
        return "ring must be a list of [x, y] pairs"
    for k, v in enumerate(ring):
        if not (isinstance(v, list) and len(v) == 2
                and type(v[0]) in _JSON_NUMBERS and type(v[1]) in _JSON_NUMBERS):
            return f"vertex {k} is not a pair of numbers: {v!r}"
    return None


def _parse_line(line: str, lineno: int, first_line: dict):
    """(id, label, rings, fault) of an NDJSON line: `fault` is the error of
    its first bad building, or of an id seen on an earlier line (as in
    `first_line`), and `rings` are the rings before it.  Any other fault of
    the line is raised at once."""
    if not line.isascii():
        try:  # undecodable bytes were read as lone surrogates
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}", line=lineno) from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("group line must be a JSON object", line=lineno)
    gid = obj.get("id")
    if not isinstance(gid, str) or not gid:
        raise ParseError("missing or invalid 'id'", line=lineno)
    label = obj.get("label")
    if label is not None and label not in LABELS:
        raise UnknownLabel(f"label {label!r} not in {LABELS}", line=lineno)
    raw = obj.get("buildings")
    if not isinstance(raw, list) or len(raw) < 3:
        raise ParseError("'buildings' must be a list of at least 3 entries", line=lineno)
    rings = []
    for b_idx, b in enumerate(raw):
        if not isinstance(b, dict) or "ring" not in b:
            return gid, label, rings, ParseError(f"building {b_idx} lacks a 'ring'", line=lineno)
        if (why := _ring_fault(b["ring"])) is not None:
            return gid, label, rings, InvalidPolygon(f"building {b_idx}: {why}", line=lineno)
        rings.append(b["ring"])
    first = first_line.setdefault(gid, lineno)
    if first == lineno:
        return gid, label, rings, None
    return gid, label, rings, ParseError(f"group id {gid!r} is also on line {first}", line=lineno)


def _build(lines: list, fault=None) -> list[BuildingGroup]:
    """The groups of (line number, id, label, rings) entries, their rings
    built in one batch.  Raises InvalidPolygon for the first bad ring in
    file order, and then `fault`, the error of a line after them."""
    made = iter(polygons([ring for *_, rings in lines for ring in rings]))
    polys = []
    for lineno, *_, rings in lines:
        polys.append([next(made) for _ in rings])
        for b_idx, p in enumerate(polys[-1]):
            if isinstance(p, Exception):
                raise InvalidPolygon(f"building {b_idx}: {p}", line=lineno) from p
    if fault is not None:
        raise fault
    return [BuildingGroup(gid, tuple(ps), label) for (_, gid, label, _), ps in zip(lines, polys)]


def load_dataset(path) -> Dataset:
    """Parse an NDJSON group file; errors carry 1-based line numbers and
    name the first bad line, and on it the first bad building.  Footprints
    are built a few thousand rings at a time."""
    groups, pending, n_rings, first_line, fault = [], [], 0, {}, None
    # undecodable bytes are kept as lone surrogates and reported with their line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                *group, fault = _parse_line(line, lineno, first_line)
                pending.append((lineno, *group))
                n_rings += len(group[-1])
            except DataError as exc:
                fault = exc
            if fault is not None or n_rings >= _RINGS_PER_BUILD:
                groups += _build(pending, fault)
                pending, n_rings = [], 0
    return Dataset(groups=groups + _build(pending))


def save_dataset(dataset: Dataset, path) -> None:
    """One group per line, LF endings; floats keep full precision so that
    save/load round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g in dataset.groups:
            obj = {"id": g.group_id}
            if g.label is not None:
                obj["label"] = g.label
            obj["buildings"] = [{"ring": poly.xy.tolist()} for poly in g.buildings]
            fh.write(json.dumps(obj))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Splitting


def _allocate(count: int, ratios: Sequence[float]) -> list[int]:
    # largest-remainder allocation; ties go to the earlier split
    exact = [count * r for r in ratios]
    base = [int(math.floor(e)) for e in exact]
    short = count - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def split_dataset(dataset: Dataset, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> Dataset:
    """Stratified train/val/test split of the labeled groups.

    Per-class allocation uses largest remainders, so each class lands within
    one sample of its exact proportion in every split.  Deterministic for a
    fixed seed; the index lists come back sorted.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")

    by_label: dict[str, list[int]] = {lab: [] for lab in LABELS}
    for i, g in enumerate(dataset.groups):
        if g.label is not None:
            by_label[g.label].append(i)
    for lab, idxs in by_label.items():
        if 0 < len(idxs) < 3:
            raise InsufficientSamples(f"class {lab!r} has only {len(idxs)} groups, need 3")
    present = {lab: idxs for lab, idxs in by_label.items() if idxs}
    if not present:
        raise InsufficientSamples("dataset has no labeled groups")

    rng = np.random.default_rng(seed)
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    for lab in LABELS:  # fixed label order keeps the shuffle stream stable
        idxs = by_label[lab]
        if not idxs:
            continue
        perm = rng.permutation(len(idxs))
        shuffled = [idxs[int(k)] for k in perm]
        n_tr, n_va, n_te = _allocate(len(idxs), ratios)
        buckets[0].extend(shuffled[:n_tr])
        buckets[1].extend(shuffled[n_tr : n_tr + n_va])
        buckets[2].extend(shuffled[n_tr + n_va :])
    splits = Splits(
        train=tuple(sorted(buckets[0])),
        val=tuple(sorted(buckets[1])),
        test=tuple(sorted(buckets[2])),
    )
    return Dataset(groups=dataset.groups, splits=splits)


# ---------------------------------------------------------------------------
# Standardization


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine map x -> (x - mean) / std fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float).reshape(-1)
        s = np.asarray(self.std, dtype=float).reshape(-1)
        if m.shape != s.shape:
            raise ValueError("mean and std must have the same length")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ValueError("mean and std must be finite")
        if np.any(s < _STD_FLOOR):
            raise ValueError(f"std entries must be >= {_STD_FLOOR:g}")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    def transform(self, features) -> np.ndarray:
        F = np.atleast_2d(np.asarray(features, dtype=float))
        if F.shape[1] != self.mean.shape[0]:
            raise ValueError(
                f"features have {F.shape[1]} columns, standardizer has {self.mean.shape[0]}"
            )
        return (F - self.mean) / self.std


def _mask_indices(feature_mask) -> tuple[int, ...]:
    if feature_mask is None:
        return tuple(range(len(FEATURE_NAMES)))
    out = []
    for m in feature_mask:
        if isinstance(m, str):
            if m not in FEATURE_NAMES:
                raise ValueError(f"unknown feature {m!r}; known: {FEATURE_NAMES}")
            out.append(FEATURE_NAMES.index(m))
        else:
            i = int(m)
            if not 0 <= i < len(FEATURE_NAMES):
                raise ValueError(f"feature index {i} out of range")
            out.append(i)
    if not out:
        raise ValueError("feature mask selects nothing")
    return tuple(sorted(set(out)))


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass(frozen=True)
class GeneratorProfile:
    """Dials for the synthetic corpus; defaults give cleanly separable classes."""

    area_cv_regular: float = 0.05  # exact within-group CV of regular areas
    min_cv_irregular: float = 0.55  # redraw until irregular areas disperse this much
    sigma_irregular: float = 0.8  # lognormal shape for irregular areas
    l_shape_fraction: float = 0.4
    min_separation: float = 0.1  # meters between any two footprints
    fill_factor: float = 0.2  # irregular packing density target
    orientation_jitter_regular: float = 1.0  # degrees, applied per building


def _rect_ring(cx, cy, length, width, angle_deg):
    a = math.radians(angle_deg)
    ca, sa = math.cos(a), math.sin(a)
    pts = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        u, v = sx * length / 2.0, sy * width / 2.0
        pts.append((cx + u * ca - v * sa, cy + u * sa + v * ca))
    return pts


def _l_shape_ring(length, width, fx, fy):
    l2, w2 = length / 2.0, width / 2.0
    cut_x, cut_y = length * fx, width * fy
    return [
        (-l2, -w2),
        (l2, -w2),
        (l2, w2 - cut_y),
        (l2 - cut_x, w2 - cut_y),
        (l2 - cut_x, w2),
        (-l2, w2),
    ]


def _rotate_translate(ring, angle_deg, cx, cy):
    a = math.radians(angle_deg)
    ca, sa = math.cos(a), math.sin(a)
    return [(cx + x * ca - y * sa, cy + x * sa + y * ca) for x, y in ring]


def _standardized_normals(rng, n):
    z = np.clip(rng.standard_normal(n), -3.0, 3.0)
    sd = z.std()
    if sd < 1e-12:  # essentially impossible, but never divide by ~0
        z = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(float)
        sd = z.std()
    return (z - z.mean()) / sd


def _regular_group(rng, n, profile: GeneratorProfile):
    """Rings of grid-aligned rectangles, one shared orientation, near-uniform
    areas."""
    base_area = rng.uniform(120.0, 260.0)
    aspect = rng.uniform(1.3, 2.5)
    phi = rng.uniform(0.0, 180.0)
    areas = base_area * (1.0 + profile.area_cv_regular * _standardized_normals(rng, n))

    lengths = np.sqrt(areas * aspect)
    widths = np.sqrt(areas / aspect)
    diag = float(np.max(np.hypot(lengths, widths)))
    gap = rng.uniform(4.0, 8.0)
    pitch = diag + gap
    jit = 0.2 * gap  # keeps worst-case separation above min_separation

    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    a = math.radians(phi)
    ca, sa = math.cos(a), math.sin(a)
    rings = []
    for i in range(n):
        r, c = divmod(i, cols)
        gx = (c - (cols - 1) / 2.0) * pitch + rng.uniform(-jit, jit)
        gy = (r - (rows - 1) / 2.0) * pitch + rng.uniform(-jit, jit)
        cx, cy = gx * ca - gy * sa, gx * sa + gy * ca
        tilt = phi + rng.uniform(
            -profile.orientation_jitter_regular, profile.orientation_jitter_regular
        )
        rings.append(_rect_ring(cx, cy, lengths[i], widths[i], tilt))
    return rings


def _irregular_areas(rng, n, profile: GeneratorProfile):
    base = rng.uniform(100.0, 220.0)
    sigma = profile.sigma_irregular
    for _ in range(50):
        areas = base * np.exp(sigma * rng.standard_normal(n) - sigma * sigma / 2.0)
        mean = areas.mean()
        if mean > 0 and areas.std() / mean >= profile.min_cv_irregular:
            return areas
    raise InfeasiblePacking(
        f"area dispersion never reached CV {profile.min_cv_irregular} in 50 draws"
    )


def _irregular_group(rng, n, profile: GeneratorProfile):
    """Rings of mixed rectangles and L-shapes, random orientations, packed
    without overlap by rejection sampling on bounding disks."""
    areas = _irregular_areas(rng, n, profile)

    rings = []
    for i in range(n):
        aspect = rng.uniform(1.0, 3.0)
        length = math.sqrt(areas[i] * aspect)
        width = math.sqrt(areas[i] / aspect)
        if rng.random() < profile.l_shape_fraction:
            fx, fy = rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)
            ring = _l_shape_ring(length, width, fx, fy)
            scale = math.sqrt(areas[i] / (length * width * (1.0 - fx * fy)))
            ring = [(x * scale, y * scale) for x, y in ring]
        else:
            ring = _rect_ring(0.0, 0.0, length, width, 0.0)
        ring = _rotate_translate(ring, rng.uniform(0.0, 180.0), 0.0, 0.0)
        rings.append(ring)

    radii = [max(math.hypot(x, y) for x, y in ring) for ring in rings]
    order = sorted(range(n), key=lambda i: -radii[i])  # biggest first packs best

    side = math.sqrt(float(np.sum(areas)) / profile.fill_factor)
    for _ in range(30):
        placed: list[tuple[float, float, float]] = []  # (cx, cy, radius)
        centers = [None] * n
        ok = True
        for i in order:
            r = radii[i]
            hit = None
            for _attempt in range(500):
                cx = rng.uniform(-side / 2.0, side / 2.0)
                cy = rng.uniform(-side / 2.0, side / 2.0)
                if all(
                    math.hypot(cx - px, cy - py) >= r + pr + profile.min_separation
                    for px, py, pr in placed
                ):
                    hit = (cx, cy)
                    break
            if hit is None:
                ok = False
                break
            placed.append((hit[0], hit[1], r))
            centers[i] = hit
        if ok:
            return [
                [(x + centers[i][0], y + centers[i][1]) for x, y in rings[i]] for i in range(n)
            ]
        side *= 1.15  # give the rejection sampler more room and retry
    raise InfeasiblePacking(f"could not place {n} buildings in 30 region growths")


def generate_synthetic_dataset(
    n_groups: int = 600,
    size_range: tuple[int, int] = (20, 40),
    seed: int = 42,
    noise_profile: GeneratorProfile | None = None,
) -> Dataset:
    """Balanced synthetic corpus: even group indices are regular, odd are
    irregular.  Each group draws from its own RNG stream seeded by
    (seed, group index), so generation order cannot change the output.
    """
    profile = noise_profile if noise_profile is not None else GeneratorProfile()
    lo, hi = int(size_range[0]), int(size_range[1])
    if n_groups < 2 or n_groups % 2 != 0:
        raise ValueError("n_groups must be even and at least 2 for balanced classes")
    if not (3 <= lo <= hi <= 128):
        raise ValueError(f"size_range must sit inside [3, 128], got {size_range}")

    width = len(str(n_groups - 1))
    made = []  # (line number, id, label, rings), as _build takes them
    for i in range(n_groups):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(lo, hi + 1))
        rings = (_regular_group if i % 2 == 0 else _irregular_group)(rng, n, profile)
        made.append((None, f"synthetic-{i:0{width}d}", LABELS[i % 2], rings))
    groups = _build(made)  # every footprint of the corpus in one batch
    return Dataset(groups=groups)


# ---------------------------------------------------------------------------
# Model-ready samples


def _group_graph(group: BuildingGroup, config: GraphConfig, cols) -> tuple[np.ndarray, np.ndarray]:
    """(selected feature columns, Laplacian) of one group's graph."""
    try:
        g = build_spatial_graph(group.buildings, config)
    except DuplicatePoints as exc:
        raise CoincidentCentroids(f"group {group.group_id!r}: {exc}") from exc
    L = laplacian(g, kind=config.laplacian, scaled=config.scaled)
    return g.features[:, cols], L.values


def _sample(group: BuildingGroup, feats, L, standardizer: Standardizer) -> GraphSample:
    return GraphSample(
        laplacian=L,
        features=standardizer.transform(feats),
        label=group.label_index,
        sample_id=group.group_id,
    )


def prepare_training_samples(
    dataset: Dataset,
    graph_config: GraphConfig | None = None,
    feature_mask=None,
):
    """Graphs, Laplacians, and standardized features for each split.

    Returns ({"train": [...], "val": [...], "test": [...]}, Standardizer).
    The feature mask (names or indices) is applied before fitting, and the
    standardizer sees training buildings only.
    """
    if dataset.splits is None:
        raise StateError("dataset has no splits; call split_dataset first")
    if not dataset.splits.train:
        raise EmptySplit("training split is empty; the standardizer needs training buildings")
    config = graph_config if graph_config is not None else GraphConfig()
    cols = list(_mask_indices(feature_mask))

    train_groups = dataset.split_groups("train")
    graphs = [_group_graph(group, config, cols) for group in train_groups]
    train_rows = np.vstack([feats for feats, _ in graphs])
    standardizer = Standardizer(
        mean=train_rows.mean(axis=0), std=np.maximum(train_rows.std(axis=0), _STD_FLOOR)
    )
    out = {"train": [_sample(g, *graph, standardizer) for g, graph in zip(train_groups, graphs)]}
    for name in ("val", "test"):
        out[name] = prepare_inference_samples(
            dataset.split_groups(name), standardizer, config, feature_mask
        )
    return out, standardizer


def prepare_inference_samples(
    groups: Sequence[BuildingGroup],
    standardizer: Standardizer,
    graph_config: GraphConfig | None = None,
    feature_mask=None,
) -> list[GraphSample]:
    """Same transform as training time, for unlabeled or held-out groups."""
    config = graph_config if graph_config is not None else GraphConfig()
    cols = list(_mask_indices(feature_mask))
    return [_sample(group, *_group_graph(group, config, cols), standardizer) for group in groups]
