import dataclasses
import errno
import multiprocessing
import os
import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from risklab import (
    GaussianClassSpec,
    LabelledDataset,
    PredictorSpec,
    empirical_risk,
    gen_gaussian_pair,
    load_idx,
    predict_batch,
    random_weights,
    split,
    teacher_relabel,
    write_idx,
)
import risklab.datasets as datasets
from risklab.datasets import dataset_from_csv, dataset_to_csv, write_csv
from risklab.errors import (
    ConfigError,
    DomainError,
    IdxDimensionError,
    IdxMagicError,
    IdxTruncatedError,
)


def idx_bytes(magic, dims, payload):
    return struct.pack(f">{'I' * (len(dims) + 1)}", magic, *dims) + payload


class TestGenGaussianPair:
    def test_deterministic(self):
        spec = GaussianClassSpec(5, 1.0)
        a = gen_gaussian_pair(spec, 100, seed=1)
        b = gen_gaussian_pair(spec, 100, seed=1)
        assert (a.features == b.features).all() and (a.labels == b.labels).all()

    def test_no_signal_means_centred_classes(self):
        spec = GaussianClassSpec(8, 0.0)
        data = gen_gaussian_pair(spec, 20_000, seed=2)
        for cls in (0, 1):
            rows = data.features[data.labels == cls]
            bound = 3 * np.sqrt(spec.p / rows.shape[0])
            assert np.linalg.norm(rows.mean(axis=0)) <= bound

    def test_projected_signal_mean(self):
        spec = GaussianClassSpec(10, 2.0)
        n = 100_000
        data = gen_gaussian_pair(spec, n, seed=3)
        signs = 2.0 * data.labels - 1.0
        proj = signs * data.features[:, 0]
        assert abs(proj.mean() - spec.delta) <= 3 / np.sqrt(n)

    def test_noise_variance_per_coordinate(self):
        spec = GaussianClassSpec(10, 1.5)
        n = 100_000
        data = gen_gaussian_pair(spec, n, seed=4)
        signs = 2.0 * data.labels - 1.0
        noise = data.features.copy()
        noise[:, 0] -= spec.delta * signs
        var = noise.var(axis=0, ddof=1)
        # chi-squared concentration: sd of the sample variance is sqrt(2/n)
        assert (np.abs(var - 1.0) <= 4.5 * np.sqrt(2.0 / n)).all()

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            gen_gaussian_pair(GaussianClassSpec(4, 1.0), 0, seed=0)


class TestLoadIdx:
    def test_hand_built_fixture(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(idx_bytes(0x803, (1, 2, 2), bytes([0, 255, 0, 255])))
        lbl.write_bytes(idx_bytes(0x801, (1,), bytes([7])))
        data = load_idx(img, lbl)
        assert (data.features == np.array([[0.0, 1.0, 0.0, 1.0]])).all()
        assert data.labels.tolist() == [7]

    def test_magic_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(idx_bytes(0x9999, (1, 1, 1), bytes([5])))
        lbl.write_bytes(idx_bytes(0x801, (1,), bytes([0])))
        with pytest.raises(IdxMagicError):
            load_idx(img, lbl)
        img.write_bytes(idx_bytes(0x803, (1, 1, 1), bytes([5])))
        lbl.write_bytes(idx_bytes(0x777, (1,), bytes([0])))
        with pytest.raises(IdxMagicError):
            load_idx(img, lbl)

    def test_record_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(idx_bytes(0x803, (2, 1, 1), bytes([5, 6])))
        lbl.write_bytes(idx_bytes(0x801, (3,), bytes([0, 1, 2])))
        with pytest.raises(IdxDimensionError):
            load_idx(img, lbl)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "img.idx"
        lbl = tmp_path / "lbl.idx"
        img.write_bytes(idx_bytes(0x803, (2, 2, 2), bytes([1, 2, 3])))  # needs 8
        lbl.write_bytes(idx_bytes(0x801, (2,), bytes([0, 1])))
        with pytest.raises(IdxTruncatedError):
            load_idx(img, lbl)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, size=(7, 12), dtype=np.uint8)
        data = LabelledDataset(pixels / 255.0, rng.integers(0, 10, 7))
        write_idx(data, tmp_path / "i.idx", tmp_path / "l.idx", rows=3, cols=4)
        back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert (back.features == data.features).all()
        assert (back.labels == data.labels).all()


class TestTeacherRelabel:
    def _setup(self, seed=6, layer_sizes=(5, 3)):
        rng = np.random.default_rng(seed)
        spec = PredictorSpec(kind="mlp", input_dim=6, layer_sizes=layer_sizes)
        data = gen_gaussian_pair(GaussianClassSpec(6, 1.0), 500, rng)
        teacher = random_weights(spec, 1.0, rng)
        return spec, data, teacher

    def test_teacher_achieves_zero_risk(self):
        spec, data, teacher = self._setup()
        relabeled = teacher_relabel(data, spec, teacher)
        assert empirical_risk(spec, teacher, relabeled) == 0.0
        assert relabeled.labels.max() <= 2

    def test_two_hidden_layer_teacher_achieves_zero_risk(self):
        # the second hidden layer's bias rides on the ones row of the first's output
        spec, data, teacher = self._setup(layer_sizes=(5, 4, 3))
        relabeled = teacher_relabel(data, spec, teacher)
        assert empirical_risk(spec, teacher, relabeled) == 0.0
        assert empirical_risk(spec, teacher, relabeled, subset=np.arange(0, 500, 7)) == 0.0

    def test_idempotent(self):
        spec, data, teacher = self._setup()
        once = teacher_relabel(data, spec, teacher)
        twice = teacher_relabel(once, spec, teacher)
        assert (once.labels == twice.labels).all()

    def test_marginal_matches_direct_tally(self):
        spec, data, teacher = self._setup()
        relabeled = teacher_relabel(data, spec, teacher)
        direct = predict_batch(spec, teacher, data.features)
        assert (np.bincount(relabeled.labels, minlength=3)
                == np.bincount(direct, minlength=3)).all()

    def test_features_unchanged(self):
        spec, data, teacher = self._setup()
        relabeled = teacher_relabel(data, spec, teacher)
        assert (relabeled.features == data.features).all()

    def test_features_shared_not_copied(self):
        spec, data, teacher = self._setup()
        assert teacher_relabel(data, spec, teacher).features is data.features


class TestFeatureBlock:
    def test_feature_major_over_a_ones_row(self):
        data = gen_gaussian_pair(GaussianClassSpec(4, 1.0), 7, 3)
        block = data.features_t
        assert block.shape == (5, 7) and block.flags.c_contiguous
        assert (block[:4] == data.features.T).all()
        assert (block[4] == 1.0).all()

    def test_cached_over_arrays_taken_read_only(self):
        X, y = np.random.default_rng(3).standard_normal((7, 4)), np.arange(7) % 2
        data = LabelledDataset(X, y)
        assert data.features is X and data.labels is y  # taken, not copied
        assert not X.flags.writeable and not y.flags.writeable
        first = data.features_t
        assert data.features_t is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.features = -X
        assert (data.features_t[:4] == X.T).all()

    def test_pickled_copy_is_read_only_without_the_cached_block(self):
        data = gen_gaussian_pair(GaussianClassSpec(4, 1.0), 9, 5)
        data.features_t  # cache the block before pickling
        copy = pickle.loads(pickle.dumps(data))
        assert not copy.features.flags.writeable and not copy.labels.flags.writeable
        assert "features_t" not in vars(copy)
        with pytest.raises(ValueError):
            copy.features[:] = -copy.features
        spec = PredictorSpec(kind="mlp", input_dim=4, layer_sizes=(3, 2))
        w = random_weights(spec, 1.0, np.random.default_rng(6))
        assert empirical_risk(spec, w, copy) == empirical_risk(spec, w, data)


class TestSplit:
    def test_sizes_and_disjointness(self):
        data = gen_gaussian_pair(GaussianClassSpec(3, 1.0), 10, seed=7)
        train, hold = split(data, 0.5, seed=8)
        assert train.n == 5 and hold.n == 5
        # rows are unique with probability 1, so multiset equality is row equality
        combined = np.vstack([train.features, hold.features])
        assert np.unique(combined, axis=0).shape[0] == 10

    def test_union_preserves_rows(self):
        data = gen_gaussian_pair(GaussianClassSpec(4, 1.0), 23, seed=9)
        train, hold = split(data, 0.3, seed=10)
        assert train.n == 7 and hold.n == 16
        combined = np.vstack([train.features, hold.features])
        original = np.sort(data.features.round(12), axis=0)
        assert (np.sort(combined.round(12), axis=0) == original).all()

    def test_deterministic(self):
        data = gen_gaussian_pair(GaussianClassSpec(3, 1.0), 50, seed=11)
        a1, b1 = split(data, 0.4, seed=12)
        a2, b2 = split(data, 0.4, seed=12)
        assert (a1.features == a2.features).all() and (b1.labels == b2.labels).all()

    def test_rejects_degenerate_fraction(self):
        data = gen_gaussian_pair(GaussianClassSpec(3, 1.0), 10, seed=13)
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                split(data, frac, seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = gen_gaussian_pair(GaussianClassSpec(4, 1.0), 20, seed=14)
        path = tmp_path / "d.csv"
        dataset_to_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "label,f0,f1,f2,f3"
        back = dataset_from_csv(path)
        assert (back.features == data.features).all()
        assert (back.labels == data.labels).all()
        # the features are a view of the parsed table; split's subsets are contiguous copies
        assert all(part.features.flags.c_contiguous for part in split(back, 0.5, seed=0))

    def test_golden_bytes_written_atomically(self, tmp_path):
        data = LabelledDataset(np.array([[0.1, -0.0], [1e-300, 2.0]]), np.array([1, 0]))
        path = tmp_path / "d.csv"
        golden = "label,f0,f1\n1,0.10000000000000001,-0\n0,1e-300,2\n"
        dataset_to_csv(data, path)
        assert path.read_text() == golden
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        # a write that fails part-way leaves the old file and no temp file
        with pytest.raises(ValueError):
            write_csv(path, ["a"], [[0.5], ["not a number"]])
        assert path.read_text() == golden
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    @given(features=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(features=np.array([[-0.0]]))
    @example(features=np.array([[5e-324, -2.2250738585072009e-308, -0.0, 1.7976931348623157e308]]))
    @example(features=np.array([[0.1, -0.1], [1.0, 0.1], [0.1, 2.5]]))
    def test_any_finite_matrix_round_trips_bit_exactly(self, tmp_path_factory, features):
        folder = tmp_path_factory.mktemp("csv")
        path, generic = folder / "d.csv", folder / "generic.csv"
        labels = np.arange(features.shape[0]) * 5 % 12  # 0, 5, 10, 3, ...: labels >= 2 too
        dataset_to_csv(LabelledDataset(features, labels), path)
        back = dataset_from_csv(path)
        assert (back.features.view(np.int64) == features.view(np.int64)).all()
        assert (back.labels == labels).all()
        # the row template writes what the generic cell formatter writes
        write_csv(generic, ["label"] + [f"f{j}" for j in range(features.shape[1])],
                  ([y, *row] for y, row in zip(labels, features)))
        assert path.read_text() == generic.read_text()

    @pytest.mark.parametrize("n, threads", [(1, "2"), (2, "4"), (3, "4"), (7, "2"), (40, "3")])
    def test_split_write_matches_one_process(self, tmp_path, monkeypatch, n, threads):
        data = gen_gaussian_pair(GaussianClassSpec(3, 1.0), n, seed=15)
        monkeypatch.setenv("RISKLAB_THREADS", "1")
        dataset_to_csv(data, tmp_path / "one.csv")
        monkeypatch.setenv("RISKLAB_THREADS", threads)
        dataset_to_csv(data, tmp_path / "split.csv")
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "split.csv"]
        assert multiprocessing.active_children() == []

    def test_worker_write_error_reaches_caller(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def failing_open(file, *args, **kwargs):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, "No space left on device", str(file))
            return open(file, *args, **kwargs)

        path = tmp_path / "d.csv"
        path.write_text("old\n")
        monkeypatch.setattr(datasets, "open", failing_open, raising=False)
        monkeypatch.setenv("RISKLAB_THREADS", "3")
        with pytest.raises(OSError, match="No space left"):
            dataset_to_csv(gen_gaussian_pair(GaussianClassSpec(3, 1.0), 30, seed=16), path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        assert multiprocessing.active_children() == []

    def test_header_only_refused_without_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no data rows"):
                dataset_from_csv(path)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\n0,1.5\n \t \n\n1,-2.5\n")
        back = dataset_from_csv(path)
        assert back.features.tolist() == [[1.5], [-2.5]]
        assert back.labels.tolist() == [0, 1]


    @pytest.mark.parametrize("text, line, reason", [
        ("label,f0,f1\n\n0,abc,1\n", 3, "'abc' is not a number"),
        ("label,f0,f1\n0,1,2\n\n\n1,,4\n", 5, "'' is not a number"),
        ("label,f0,f1\n0,1,2\n\n1\n", 4, "1 fields, the first data line has 3"),
    ], ids=["blank-then-non-numeric", "empty-cell", "short-row"])
    def test_malformed_row_named_by_file_line(self, tmp_path, text, line, reason):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"line {line}") as info:
            dataset_from_csv(path)
        assert reason in str(info.value)
        assert "usecols" not in str(info.value)


class TestValidation:
    def test_label_range_checked(self):
        with pytest.raises(DomainError, match="labels must be >= 0"):
            LabelledDataset(np.zeros((2, 2)), np.array([0, -1]))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            LabelledDataset(np.array([[np.nan, 0.0]]), np.array([0]))
