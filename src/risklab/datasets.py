"""Dataset generation, IDX ingestion, teacher relabeling, splits, and the package's CSV format."""

from __future__ import annotations

import itertools
import os
import shutil
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, IdxDimensionError, IdxMagicError, IdxTruncatedError
from .perceptron import GaussianClassSpec
from .predictors import PredictorSpec, WeightVector, augmented_t, predict_batch
from .workers import fork_workers, forked_map

__all__ = [
    "LabelledDataset",
    "gen_gaussian_pair",
    "load_idx",
    "write_idx",
    "teacher_relabel",
    "split",
    "dataset_to_csv",
    "dataset_from_csv",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabelledDataset:
    """Feature matrix with integer class labels >= 0: a read-only value over the arrays it is given."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DomainError("features must be a non-empty n x p matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DomainError("labels must be one integer per feature row")
        if not np.isfinite(self.features).all():
            raise DomainError("feature rows must be finite")
        if self.labels.min() < 0:
            raise DomainError("labels must be >= 0")
        self.features.flags.writeable = self.labels.flags.writeable = False  # so no cache goes stale

    def __reduce__(self):
        # rebuild through __init__: a copy gets read-only arrays and no cached block
        return LabelledDataset, (self.features, self.labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @cached_property
    def features_t(self) -> np.ndarray:
        """Contiguous feature-major copy of ``features`` over a last row of ones.

        The (p + 1) × n block is what the mlp kernel multiplies by each
        layer's [W | b], so the ones row adds the first layer's bias inside
        its GEMM.  Built on first use.  Forked chain workers inherit or build
        their own copy.
        """
        return augmented_t(self.features)

    @cached_property
    def binary_labels(self) -> np.ndarray | None:
        """A bool copy of ``labels`` if every entry is 0 or 1, else None.

        The two-class mlp kernel decides in bool, and comparing bool with
        bool skips casting every decision to int64.  Labels with a 2 or more
        get none, so such a label still counts as an error.
        """
        as_bool = self.labels.astype(bool)
        return as_bool if (as_bool == self.labels).all() else None

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabelledDataset":
        idx = np.asarray(indices)
        return LabelledDataset(self.features[idx], self.labels[idx])


def gen_gaussian_pair(spec: GaussianClassSpec, n: int, seed) -> LabelledDataset:
    """Draw n examples of the two-Gaussian pair: y uniform, x = (2y−1)·Δ·e₁ + N(0, I)."""
    if n < 1:
        raise DomainError(f"need n >= 1 examples, got {n}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    signs = 2.0 * labels - 1.0
    features = rng.standard_normal((n, spec.p))
    features[:, 0] += spec.delta * signs
    return LabelledDataset(features, labels)


def _read_exact(path, header_fmt):
    with open(path, "rb") as fh:
        head_size = struct.calcsize(header_fmt)
        head = fh.read(head_size)
        if len(head) != head_size:
            raise IdxTruncatedError(f"{path}: header truncated at {len(head)} bytes")
        payload = fh.read()
    return struct.unpack(header_fmt, head), payload


def load_idx(image_path, label_path) -> LabelledDataset:
    """Parse big-endian IDX image/label files into a dataset.

    Pixels are scaled byte/255 into [0, 1] and images flattened row-major.
    """
    (img_magic, n_img, rows, cols), img_payload = _read_exact(image_path, ">IIII")
    if img_magic != IDX_IMAGE_MAGIC:
        raise IdxMagicError(
            f"{image_path}: magic 0x{img_magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    expected = n_img * rows * cols
    if len(img_payload) != expected:
        raise IdxTruncatedError(
            f"{image_path}: payload holds {len(img_payload)} bytes, header promises {expected}"
        )
    (lbl_magic, n_lbl), lbl_payload = _read_exact(label_path, ">II")
    if lbl_magic != IDX_LABEL_MAGIC:
        raise IdxMagicError(
            f"{label_path}: magic 0x{lbl_magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    if n_lbl != n_img:
        raise IdxDimensionError(f"{n_img} images but {n_lbl} labels")
    if len(lbl_payload) != n_lbl:
        raise IdxTruncatedError(
            f"{label_path}: payload holds {len(lbl_payload)} bytes, header promises {n_lbl}"
        )
    pixels = np.frombuffer(img_payload, dtype=np.uint8).reshape(n_img, rows * cols)
    features = pixels.astype(float) / 255.0
    labels = np.frombuffer(lbl_payload, dtype=np.uint8).astype(np.int64)
    return LabelledDataset(features, labels)


def write_idx(data: LabelledDataset, image_path, label_path, rows: int, cols: int):
    """Write a dataset with features in [0, 1] back to IDX byte files.

    Inverse of :func:`load_idx` for byte-derived features (values k/255
    round-trip bit-exactly); other floats are quantised to the nearest byte.
    """
    if rows * cols != data.feature_dim:
        raise DomainError(f"rows*cols = {rows * cols} must equal feature_dim = {data.feature_dim}")
    pixels = np.clip(np.rint(data.features * 255.0), 0, 255).astype(np.uint8)
    with open(image_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, data.n, rows, cols))
        fh.write(pixels.tobytes())
    with open(label_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, data.n))
        fh.write(data.labels.astype(np.uint8).tobytes())


def teacher_relabel(data: LabelledDataset, spec: PredictorSpec, w_star: WeightVector) -> LabelledDataset:
    """Replace the labels with the teacher's own predictions.

    The resulting task is realisable by construction: the teacher weights
    achieve empirical risk exactly zero on it.  It shares ``data``'s read-only
    feature matrix: a copy would add a full matrix to the peak memory of
    ``data relabel``, which drops the input right away.
    """
    labels = predict_batch(spec, w_star, data.features)
    return LabelledDataset(data.features, labels)


def split(data: LabelledDataset, fraction: float, seed) -> tuple[LabelledDataset, LabelledDataset]:
    """Disjoint random partition into (⌈fraction·n⌉, rest)."""
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    k = int(np.ceil(fraction * data.n))
    perm = rng.permutation(data.n)
    return data.subset(perm[:k]), data.subset(perm[k:])


FLOAT_CELL = "%.17g"  # 17 significant digits: exact for doubles


def _fmt(value) -> str:
    """A CSV cell: integers as such, other numbers as :data:`FLOAT_CELL`."""
    if isinstance(value, float) or not isinstance(value, (bool, np.bool_, int, np.integer)):
        return FLOAT_CELL % float(value)
    return str(int(value))


def _temp_name(path) -> str:
    return f"{path}.tmp.{os.getpid()}"


def atomic_write(path, chunks):
    """Write strings, or one bytes object, to a temp file and rename it over ``path``.

    On failure ``path`` is untouched and the temp file is removed.
    """
    tmp = _temp_name(path)
    try:
        with open(tmp, "w", newline="") as fh:
            if isinstance(chunks, bytes):
                fh.buffer.write(chunks)
            else:
                fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, header, rows):
    """Stream a header line and one line of :func:`_fmt` cells per row to ``path``, atomically."""
    atomic_write(path, itertools.chain([",".join(header) + "\n"],
                                       (",".join(map(_fmt, row)) + "\n" for row in rows)))


def read_table(path):
    """(header, float64 matrix of the non-blank rows); empty, ragged or non-numeric data is a ConfigError."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        lines = (line for line in fh if line.strip())
        if (first := next(lines, None)) is None:
            raise ConfigError(f"{path}: no data rows")
        try:
            table = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {_first_bad_line(path) or exc}") from None
    if table.shape[1] != len(header):
        raise ConfigError(f"{path}: data rows have {table.shape[1]} fields, header has {len(header)}")
    return header, table


def _first_bad_line(path):
    """Why the first malformed data line of ``path`` is refused (the header is line 1), or None."""
    with open(path, "r", newline="") as fh:
        fh.readline()
        width = None
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.split(",")
            width = width or len(cells)
            if len(cells) != width:
                return f"line {number} has {len(cells)} fields, the first data line has {width}"
            for cell in cells:
                try:
                    float(cell)
                except ValueError:
                    return f"line {number}: {cell.strip()!r} is not a number"
    return None


def whole_numbers(path, name, column) -> np.ndarray:
    """A table column as int64; a cell that is not a whole number raises ConfigError."""
    with np.errstate(invalid="ignore"):
        ints = column.astype(np.int64)
    bad = ints != column
    if bad.any():
        raise ConfigError(f"{path}: {name} must be whole numbers, got {column[bad][0]}")
    return ints


def dataset_to_csv(data: LabelledDataset, path):
    """CSV export with header ``label,f0,f1,...``, written atomically.

    The bytes are those :func:`write_csv` writes for the rows ``[label,
    *features]``, but each row is one ``%`` template filled at C speed.  The
    rows are cut into ``fork_workers(n)`` contiguous ranges (the count is
    capped by ``RISKLAB_THREADS``), each a :func:`forked_map` item: range 0
    goes into the temp file after the header, every other range into a part
    file of its own.  This process then appends the parts in order and
    renames the temp file over ``path``.  A failure in any process raises
    here, leaves ``path`` untouched and removes the temp and part files.
    """
    n, p = data.features.shape
    row = "%d" + f",{FLOAT_CELL}" * p + "\n"
    ranges = fork_workers(n)
    tmp = _temp_name(path)
    files = [tmp] + [f"{tmp}.part{k}" for k in range(1, ranges)]

    def write_range(k):
        start, stop = n * k // ranges, n * (k + 1) // ranges
        with open(files[k], "w", newline="") as fh:
            if k == 0:
                fh.write(",".join(["label"] + [f"f{j}" for j in range(p)]) + "\n")
            fh.writelines(row % (y, *x.tolist())
                          for y, x in zip(data.labels[start:stop].tolist(), data.features[start:stop]))

    try:
        forked_map(write_range, range(ranges), ranges)
        with open(tmp, "ab") as fh:
            for part in files[1:]:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh, 1 << 20)
        os.replace(tmp, path)
    finally:
        for name in files:
            if os.path.exists(name):
                os.remove(name)


def dataset_from_csv(path) -> LabelledDataset:
    """Read a CSV written by :func:`dataset_to_csv`; malformed files raise ConfigError."""
    header, table = read_table(path)
    if header[0] != "label":
        raise ConfigError(f"{path}: expected a 'label,f0,...' header, got {header[:3]}")
    labels = whole_numbers(path, "labels", table[:, 0])
    return LabelledDataset(table[:, 1:], labels)  # a view: a copy would hold the matrix twice
