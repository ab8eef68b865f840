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
    GraphError,
    InfeasiblePacking,
    InsufficientSamples,
    InvalidPolygon,
    ParseError,
    UnknownLabel,
)
from .geometry import FEATURE_NAMES, Polygon, polygons
from .graph import GraphConfig, graph_stacks, laplacian
from .nn import _JSON_NUMBERS, GraphSample

LABELS = ("regular", "irregular")

_STD_FLOOR = 1e-8
_RINGS_PER_BUILD = 2048  # footprints parsed before they are built as one batch
_SPLIT_NAMES = ("train", "val", "test")


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


@dataclass
class Dataset:
    groups: list[BuildingGroup]

    def __len__(self) -> int:
        return len(self.groups)


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


def _check_ratios(ratios) -> tuple[float, ...]:
    """The train/val/test ratios as floats; ValueError unless they are three
    finite positive numbers that sum to 1."""
    ratios = tuple(float(r) for r in ratios)
    if not all(math.isfinite(r) for r in ratios):
        raise ValueError(f"ratios must be finite, got {ratios}")
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    return ratios


def split_dataset(dataset: Dataset, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> dict:
    """Stratified train/val/test split of the labeled groups:
    {"train": [...], "val": [...], "test": [...]}, each list in file order.

    Per-class allocation uses largest remainders, so each class lands within
    one sample of its exact proportion in every split.  Deterministic for a
    fixed seed.
    """
    ratios = _check_ratios(ratios)
    by_label: dict[str, list[int]] = {lab: [] for lab in LABELS}
    for i, g in enumerate(dataset.groups):
        if g.label is not None:
            by_label[g.label].append(i)
    for lab, idxs in by_label.items():
        if 0 < len(idxs) < 3:
            raise InsufficientSamples(f"class {lab!r} has only {len(idxs)} groups, need 3")
    if not any(by_label.values()):
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
    return {name: [dataset.groups[i] for i in sorted(bucket)]
            for name, bucket in zip(_SPLIT_NAMES, buckets)}


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
        # an overflow stays inf, without a warning: inference refuses the
        # probabilities that it gives
        with np.errstate(over="ignore"):
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


# the synthetic corpus; these values give cleanly separable classes
_AREA_CV_REGULAR = 0.05  # exact within-group CV of regular areas
_MIN_CV_IRREGULAR = 0.55  # redraw until irregular areas disperse this much
_SIGMA_IRREGULAR = 0.8  # lognormal shape for irregular areas
_L_SHAPE_FRACTION = 0.4
_MIN_SEPARATION = 0.1  # meters between any two footprints
_FILL_FACTOR = 0.2  # irregular packing density target
_ORIENTATION_JITTER_REGULAR = 1.0  # degrees, applied per building


def _rect_ring(length, width):
    l2, w2 = length / 2.0, width / 2.0
    return [(-l2, -w2), (l2, -w2), (l2, w2), (-l2, w2)]


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


def _regular_group(rng, n):
    """Rings of grid-aligned rectangles, one shared orientation, near-uniform
    areas."""
    base_area = rng.uniform(120.0, 260.0)
    aspect = rng.uniform(1.3, 2.5)
    phi = rng.uniform(0.0, 180.0)
    areas = base_area * (1.0 + _AREA_CV_REGULAR * _standardized_normals(rng, n))

    lengths = np.sqrt(areas * aspect)
    widths = np.sqrt(areas / aspect)
    diag = float(np.max(np.hypot(lengths, widths)))
    gap = rng.uniform(4.0, 8.0)
    pitch = diag + gap
    jit = 0.2 * gap  # keeps worst-case separation above _MIN_SEPARATION

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
        tilt = phi + rng.uniform(-_ORIENTATION_JITTER_REGULAR, _ORIENTATION_JITTER_REGULAR)
        rings.append(_rotate_translate(_rect_ring(lengths[i], widths[i]), tilt, cx, cy))
    return rings


def _irregular_areas(rng, n):
    base = rng.uniform(100.0, 220.0)
    sigma = _SIGMA_IRREGULAR
    for _ in range(50):
        areas = base * np.exp(sigma * rng.standard_normal(n) - sigma * sigma / 2.0)
        mean = areas.mean()
        if mean > 0 and areas.std() / mean >= _MIN_CV_IRREGULAR:
            return areas
    raise InfeasiblePacking(f"area dispersion never reached CV {_MIN_CV_IRREGULAR} in 50 draws")


def _irregular_group(rng, n):
    """Rings of mixed rectangles and L-shapes, random orientations, packed
    without overlap by rejection sampling on bounding disks."""
    areas = _irregular_areas(rng, n)

    rings = []
    for i in range(n):
        aspect = rng.uniform(1.0, 3.0)
        length = math.sqrt(areas[i] * aspect)
        width = math.sqrt(areas[i] / aspect)
        if rng.random() < _L_SHAPE_FRACTION:
            fx, fy = rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)
            ring = _l_shape_ring(length, width, fx, fy)
            scale = math.sqrt(areas[i] / (length * width * (1.0 - fx * fy)))
            ring = [(x * scale, y * scale) for x, y in ring]
        else:
            ring = _rect_ring(length, width)
        ring = _rotate_translate(ring, rng.uniform(0.0, 180.0), 0.0, 0.0)
        rings.append(ring)

    radii = [max(math.hypot(x, y) for x, y in ring) for ring in rings]
    order = sorted(range(n), key=lambda i: -radii[i])  # biggest first packs best

    side = math.sqrt(float(np.sum(areas)) / _FILL_FACTOR)
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
                    math.hypot(cx - px, cy - py) >= r + pr + _MIN_SEPARATION
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
) -> Dataset:
    """Balanced synthetic corpus: even group indices are regular, odd are
    irregular.  Each group draws from its own RNG stream seeded by
    (seed, group index), so generation order cannot change the output.
    """
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
        rings = (_regular_group if i % 2 == 0 else _irregular_group)(rng, n)
        made.append((None, f"synthetic-{i:0{width}d}", LABELS[i % 2], rings))
    groups = _build(made)  # every footprint of the corpus in one batch
    return Dataset(groups=groups)


# ---------------------------------------------------------------------------
# Model-ready samples


def _graphs(groups: Sequence[BuildingGroup], config: GraphConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(unmasked features, Laplacian) of each group's graph, built on stacks
    of groups with equal vertex count; each pair is a view into its stack's.
    A stack's weights are freed once its Laplacians are made.  The first
    group in order whose graph cannot be made raises a DataError naming it."""
    out = [None] * len(groups)
    try:
        for index, W, F in graph_stacks([group.buildings for group in groups], config):
            L = laplacian(W, kind=config.laplacian).values
            for k, i in enumerate(index.tolist()):
                out[i] = F[k], L[k]
    except GraphError as exc:
        named = f"group {groups[exc.group].group_id!r}: {exc}"
        if isinstance(exc, DuplicatePoints):
            raise CoincidentCentroids(named) from exc
        raise DataError(named) from exc
    return out


def _samples(groups, graphs, cols, standardizer: Standardizer) -> list[GraphSample]:
    return [
        GraphSample(
            laplacian=L,
            features=standardizer.transform(feats[:, cols]),
            label=group.label_index,
            sample_id=group.group_id,
        )
        for group, (feats, L) in zip(groups, graphs)
    ]


def split_graphs(splits: dict, graph_config: GraphConfig = GraphConfig()) -> dict:
    """{"train": [...], "val": [...], "test": [...]}: the (unmasked features,
    Laplacian) pair of each group of `split_dataset`'s splits, all built in
    one pass.  Neither the filter order nor a feature mask changes them, so
    one call serves every model trained on the split.  Every group must have
    a label, and no group id may be in two splits."""
    seen = {}
    for name in _SPLIT_NAMES:
        for g in splits[name]:
            if g.label is None:
                raise ValueError(f"{name} group {g.group_id!r} has no label")
            first = seen.setdefault(g.group_id, name)
            if first != name:
                raise ValueError(f"splits overlap: group {g.group_id!r} is in {first} and {name}")
    if not splits["train"]:
        raise EmptySplit("training split is empty; the standardizer needs training buildings")
    graphs = iter(_graphs([g for name in _SPLIT_NAMES for g in splits[name]], graph_config))
    return {name: [next(graphs) for _ in splits[name]] for name in _SPLIT_NAMES}


def training_samples(splits: dict, graphs: dict, feature_mask=None):
    """Each split's samples from its `split_graphs`, and the Standardizer
    fitted on the training split's buildings: ({"train": [...], "val":
    [...], "test": [...]}, Standardizer).  The feature mask (names or
    indices) is applied before fitting.  Raises DataError naming the first
    feature whose mean or std is not finite."""
    cols = list(_mask_indices(feature_mask))
    train_rows = np.vstack([feats[:, cols] for feats, _ in graphs["train"]])
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = train_rows.mean(axis=0), train_rows.std(axis=0)
    unfit = ~(np.isfinite(mean) & np.isfinite(std))
    if unfit.any():
        name = FEATURE_NAMES[cols[int(np.argmax(unfit))]]
        raise DataError(f"the {name} mean or std over the training split is not finite")
    standardizer = Standardizer(mean=mean, std=np.maximum(std, _STD_FLOOR))
    out = {name: _samples(splits[name], graphs[name], cols, standardizer) for name in _SPLIT_NAMES}
    return out, standardizer


def prepare_training_samples(
    splits: dict,
    graph_config: GraphConfig = GraphConfig(),
    feature_mask=None,
):
    """Graphs, Laplacians, and standardized features for each of
    `split_dataset`'s splits.

    Returns ({"train": [...], "val": [...], "test": [...]}, Standardizer).
    The feature mask (names or indices) is applied before fitting, and the
    standardizer sees training buildings only.
    """
    return training_samples(splits, split_graphs(splits, graph_config), feature_mask)


def prepare_inference_samples(
    groups: Sequence[BuildingGroup],
    standardizer: Standardizer,
    graph_config: GraphConfig = GraphConfig(),
) -> list[GraphSample]:
    """Same transform as training time, on every feature column, for
    unlabeled or held-out groups."""
    return _samples(groups, _graphs(groups, graph_config), list(_mask_indices(None)), standardizer)
