"""Dataset generation, IDX ingestion, teacher relabeling, splits, and the package's CSV format."""

from __future__ import annotations

import itertools
import os
import shutil
import struct
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, IdxDimensionError, IdxMagicError, IdxTruncatedError
from .mcmc import fork_workers, forked_map
from .perceptron import GaussianClassSpec
from .predictors import PredictorSpec, WeightVector, predict_batch

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


@dataclass
class LabelledDataset:
    """Feature matrix with integer class labels in [0, class_count)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DomainError("features must be a non-empty n x p matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DomainError("labels must be one integer per feature row")
        if not np.isfinite(self.features).all():
            raise DomainError("feature rows must be finite")
        if self.class_count < 1:
            raise DomainError("class_count must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise DomainError("labels out of range [0, class_count)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def features_t(self) -> np.ndarray:
        """Contiguous feature-major copy (p × n) of ``features``, built on first use.

        The copy is rebuilt whenever ``features`` has been replaced, so it
        cannot go stale.  Forked chain workers inherit or build their own copy.
        """
        cached = getattr(self, "_features_t", None)
        if cached is None or cached[0] is not self.features:
            cached = (self.features, np.ascontiguousarray(self.features.T, dtype=float))
            self._features_t = cached
        return cached[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabelledDataset":
        idx = np.asarray(indices)
        return LabelledDataset(self.features[idx], self.labels[idx], self.class_count)


def gen_gaussian_pair(spec: GaussianClassSpec, n: int, seed) -> LabelledDataset:
    """Draw n examples of the two-Gaussian pair: y uniform, x = (2y−1)·Δ·t + N(0, I)."""
    if n < 1:
        raise DomainError(f"need n >= 1 examples, got {n}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    signs = 2.0 * labels - 1.0
    features = signs[:, None] * (spec.delta * spec.t)[None, :] + rng.standard_normal((n, spec.p))
    return LabelledDataset(features, labels, class_count=2)


def _read_exact(path, header_fmt):
    with open(path, "rb") as fh:
        head_size = struct.calcsize(header_fmt)
        head = fh.read(head_size)
        if len(head) != head_size:
            raise IdxTruncatedError(f"{path}: header truncated at {len(head)} bytes")
        payload = fh.read()
    return struct.unpack(header_fmt, head), payload


def load_idx(image_path, label_path, class_count: int | None = None) -> LabelledDataset:
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
    if class_count is None:
        class_count = int(labels.max()) + 1
    return LabelledDataset(features, labels, class_count)


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
    achieve empirical risk exactly zero on it.  It shares ``data``'s feature
    matrix: a copy would add a full matrix to the peak memory of
    ``data relabel``, which drops the input right away.
    """
    labels = predict_batch(spec, w_star, data.features)
    return LabelledDataset(data.features, labels, class_count=spec.class_count)


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


@contextmanager
def _atomic_file(path):
    """A text file open on a temp name, renamed over ``path`` when the block succeeds.

    On failure ``path`` is untouched and the temp file is removed.
    """
    tmp = _temp_name(path)
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def atomic_write(path, chunks):
    """Write strings, or one bytes object, to a temp file and rename it over ``path``.

    On failure ``path`` is untouched and the temp file is removed.
    """
    with _atomic_file(path) as fh:
        if isinstance(chunks, bytes):
            fh.buffer.write(chunks)
        else:
            fh.writelines(chunks)


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
    capped by ``RISKLAB_THREADS``).  Forked workers write every range but
    the first to a part file each while this process writes the header and
    the first range to the temp file; it then appends the parts in order and
    renames the temp file over ``path``.  A failure in any process raises
    here, leaves ``path`` untouched and removes the temp and part files.
    """
    n, p = data.features.shape
    row = "%d" + f",{FLOAT_CELL}" * p + "\n"
    ranges = fork_workers(n)
    parts = [f"{_temp_name(path)}.part{k}" for k in range(1, ranges)]

    def rows(k):
        start, stop = n * k // ranges, n * (k + 1) // ranges
        for y, x in zip(data.labels[start:stop].tolist(), data.features[start:stop]):
            yield row % (y, *x.tolist())

    def write_part(k):
        with open(parts[k - 1], "w", newline="") as fh:
            fh.writelines(rows(k))

    try:
        # the workers fork before the temp file opens, so they inherit no unflushed buffer
        with (forked_map(write_part, range(1, ranges), ranges - 1) if parts else nullcontext()) as results, \
                _atomic_file(path) as fh:
            fh.write(",".join(["label"] + [f"f{j}" for j in range(p)]) + "\n")
            fh.writelines(rows(0))
            if parts:
                results()
                fh.flush()
                for part in parts:
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer, 1 << 20)
    finally:
        for part in parts:
            if os.path.exists(part):
                os.remove(part)


def dataset_from_csv(path, class_count: int | None = None) -> LabelledDataset:
    """Read a CSV written by :func:`dataset_to_csv`; malformed files raise ConfigError."""
    header, table = read_table(path)
    if header[0] != "label":
        raise ConfigError(f"{path}: expected a 'label,f0,...' header, got {header[:3]}")
    labels = whole_numbers(path, "labels", table[:, 0])
    if class_count is None:
        class_count = int(labels.max()) + 1
    return LabelledDataset(np.ascontiguousarray(table[:, 1:]), labels, class_count)
