import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from risklab import (
    GaussianClassSpec,
    LabelledDataset,
    PredictorSpec,
    WeightVector,
    empirical_risk,
    gen_gaussian_pair,
    perceptron_risk,
    predict_batch,
    random_weights,
    weight_count,
)
from risklab.errors import DomainError
from risklab.predictors import load_weight_vector, save_weight_vector


def sphere_spec(p=4):
    return PredictorSpec(kind="sphere_linear", input_dim=p)


class TestWeightCount:
    def test_sphere_linear(self):
        assert weight_count(sphere_spec(100)) == 100

    def test_small_mlp(self):
        spec = PredictorSpec(kind="mlp", input_dim=4, layer_sizes=(3, 2))
        assert weight_count(spec) == (4 + 1) * 3 + (3 + 1) * 2  # 23

    def test_wide_mlp(self):
        spec = PredictorSpec(kind="mlp", input_dim=3072, layer_sizes=(768, 10))
        assert weight_count(spec) == 2_367_754

    @given(p=st.integers(1, 30), layer_sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4))
    def test_layout_tiles_the_flat_vector(self, p, layer_sizes):
        spec = PredictorSpec(kind="mlp", input_dim=p, layer_sizes=layer_sizes)
        fan_ins = [p, *layer_sizes[:-1]]
        n = weight_count(spec)
        assert n == sum((i + 1) * o for i, o in zip(fan_ins, layer_sizes))
        assert len(spec.layout) == len(layer_sizes)
        values, pos = np.arange(n), 0
        for gather, fan_in, fan_out in zip(spec.layout, fan_ins, layer_sizes):
            Wb = values[gather]  # W row-major then b, layer by layer
            assert (Wb[:, :-1] == values[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in)).all()
            assert (Wb[:, -1] == values[pos + fan_in * fan_out : pos + (fan_in + 1) * fan_out]).all()
            pos += (fan_in + 1) * fan_out
        covered = np.sort(np.concatenate([gather.ravel() for gather in spec.layout]))
        assert (covered == np.arange(n)).all()


class TestPredict:
    def test_aligned_input_is_class_one(self):
        x = np.array([3.0, -1.0, 2.0, 0.5])
        w = WeightVector(x / np.linalg.norm(x), "unit_sphere").validate()
        assert predict_batch(sphere_spec(), w, x[None, :]).tolist() == [1]

    def test_zero_mlp_ties_break_low(self):
        spec = PredictorSpec(kind="mlp", input_dim=3, layer_sizes=(4, 3))
        w = WeightVector(np.zeros(weight_count(spec)))
        for x in (np.zeros(3), np.array([1.0, -2.0, 0.3])):
            assert predict_batch(spec, w, x[None, :]).tolist() == [0]

    def test_hand_computed_forward_pass(self):
        # x = [1, -2, 0.5]; layer 1 pre-activations [1.6, -1.2] -> relu [1.6, 0];
        # layer 2 scores [1.6, 2.7] -> class 1
        spec = PredictorSpec(kind="mlp", input_dim=3, layer_sizes=(2, 2))
        flat = np.array(
            [0.5, -0.25, 1.0, -1.0, 0.5, 2.0]  # W1 rows
            + [0.1, -0.2]                      # b1
            + [1.0, 1.0, 2.0, -1.0]            # W2 rows
            + [0.0, -0.5]                      # b2
        )
        w = WeightVector(flat)
        assert predict_batch(spec, w, np.array([[1.0, -2.0, 0.5]])).tolist() == [1]

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        spec = sphere_spec(8)
        w = random_weights(spec, 1.0, rng)
        X = rng.standard_normal((64, 8))
        base = predict_batch(spec, w, X)
        scaled = WeightVector(w.values * 7.3)  # same direction, longer vector
        assert (predict_batch(spec, scaled, X) == base).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            predict_batch(sphere_spec(4), WeightVector(np.zeros(3), "unconstrained"), np.zeros((1, 4)))
        with pytest.raises(DomainError):
            predict_batch(sphere_spec(4), random_weights(sphere_spec(4), 1.0, 0), np.zeros((1, 5)))


class TestEmpiricalRisk:
    def test_self_labels_give_zero(self):
        rng = np.random.default_rng(1)
        spec = PredictorSpec(kind="mlp", input_dim=5, layer_sizes=(6, 3))
        w = random_weights(spec, 1.0, rng)
        X = rng.standard_normal((200, 5))
        data = LabelledDataset(X, predict_batch(spec, w, X))
        assert empirical_risk(spec, w, data) == 0.0

    def test_constant_predictor_on_balanced_classes(self):
        spec = PredictorSpec(kind="mlp", input_dim=2, layer_sizes=(4,))
        w = WeightVector(np.zeros(weight_count(spec)))  # always predicts class 0
        X = np.zeros((400, 2))
        labels = np.repeat(np.arange(4), 100)
        data = LabelledDataset(X, labels)
        assert empirical_risk(spec, w, data) == pytest.approx(1 - 1 / 4)

    def test_hand_counted_fraction(self):
        # w = e0: predictions [1, 0, 1, 0, 1] vs labels [1, 1, 0, 0, 1] -> 2/5
        spec = sphere_spec(2)
        w = WeightVector(np.array([1.0, 0.0]), "unit_sphere").validate()
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-2.0, 3.0], [0.1, -5.0]])
        data = LabelledDataset(X, np.array([1, 1, 0, 0, 1]))
        assert empirical_risk(spec, w, data) == pytest.approx(0.4)

    def test_subset_and_empty_subset(self):
        spec = sphere_spec(2)
        w = WeightVector(np.array([1.0, 0.0]), "unit_sphere").validate()
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        data = LabelledDataset(X, np.array([1, 1]))
        assert empirical_risk(spec, w, data, subset=[0]) == 0.0
        assert empirical_risk(spec, w, data, subset=[1]) == 1.0
        with pytest.raises(DomainError):
            empirical_risk(spec, w, data, subset=[])

    def test_random_weights_on_balanced_set_near_half(self):
        rng = np.random.default_rng(2)
        spec = PredictorSpec(kind="mlp", input_dim=6, layer_sizes=(8, 2))
        data = gen_gaussian_pair(GaussianClassSpec(6, 1.0), 2000, rng)
        risks = [empirical_risk(spec, random_weights(spec, 1.0, rng), data) for _ in range(50)]
        mean = np.mean(risks)
        stderr = np.std(risks, ddof=1) / math.sqrt(len(risks))
        assert abs(mean - 0.5) <= 3 * stderr

    def test_matches_angle_risk_at_scale(self):
        # empirical risk converges to Phi(-delta w_1) at ~3/sqrt(n)
        n = 100_000
        spec = sphere_spec(10)
        gauss = GaussianClassSpec(10, 2.0)
        data = gen_gaussian_pair(gauss, n, seed=9)
        w = random_weights(spec, 1.0, seed=10)
        expected = perceptron_risk(w, gauss)
        assert abs(empirical_risk(spec, w, data) - expected) <= 3 / math.sqrt(n)


def reference_scores(spec, w, X):
    """Row-major forward pass, written independently of the fused kernel."""
    h, pos, fan_in = X, 0, spec.input_dim
    for i, fan_out in enumerate(spec.layer_sizes):
        W = w.values[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in)
        b = w.values[pos + fan_in * fan_out : pos + (fan_in + 1) * fan_out]
        pos += (fan_in + 1) * fan_out
        h = h @ W.T + b
        if i < len(spec.layer_sizes) - 1:
            h = np.maximum(h, 0.0)
        fan_in = fan_out
    return h


class TestFusedMlpKernel:
    @pytest.mark.parametrize("layer_sizes", [(4, 2), (4, 3), (5, 3, 2)])
    def test_tied_outputs_predict_class_zero(self, layer_sizes):
        # every output row and bias equal: all scores tie on every input
        spec = PredictorSpec(kind="mlp", input_dim=3, layer_sizes=layer_sizes)
        w = random_weights(spec, 1.0, seed=11)
        classes, fan_in = layer_sizes[-1], layer_sizes[-2]
        last = w.values[-(fan_in + 1) * classes :]
        last[: fan_in * classes] = np.tile(last[:fan_in], classes)
        last[fan_in * classes :] = 0.3
        X = np.random.default_rng(12).standard_normal((50, 3))
        assert (predict_batch(spec, w, X) == 0).all()
        assert empirical_risk(spec, w, LabelledDataset(X, np.zeros(50, dtype=int))) == 0.0
        assert empirical_risk(spec, w, LabelledDataset(X, np.ones(50, dtype=int))) == 1.0

    @given(seed=st.integers(0, 2**32 - 1), classes=st.sampled_from([2, 3]),
           hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3), p=st.integers(1, 6),
           n=st.integers(1, 60))
    def test_matches_row_major_argmax(self, seed, classes, hidden, p, n):
        rng = np.random.default_rng(seed)
        spec = PredictorSpec(kind="mlp", input_dim=p, layer_sizes=(*hidden, classes))
        w = random_weights(spec, 1.0, rng)
        X = rng.standard_normal((n, p))
        scores = reference_scores(spec, w, X)
        top2 = np.sort(scores, axis=1)[:, -2:]
        clear = np.flatnonzero(top2[:, 1] - top2[:, 0] > 1e-9)
        expected = np.argmax(scores, axis=1)
        predicted = predict_batch(spec, w, X)
        assert (predicted[clear] == expected[clear]).all()
        data = LabelledDataset(X, expected)
        assert empirical_risk(spec, w, data) == np.count_nonzero(predicted != expected) / n
        assert empirical_risk(spec, w, data) <= (n - clear.size) / n
        if clear.size:
            assert empirical_risk(spec, w, data, subset=clear) == 0.0

    def test_replaced_features_change_the_risk(self):
        spec = PredictorSpec(kind="mlp", input_dim=4, layer_sizes=(6, 2))
        w = random_weights(spec, 1.0, seed=13)
        X = np.random.default_rng(14).standard_normal((300, 4))
        data = LabelledDataset(X, predict_batch(spec, w, X))
        assert empirical_risk(spec, w, data) == 0.0  # builds the feature-major copy
        flipped = LabelledDataset(-X, data.labels)  # shares the labels
        assert empirical_risk(spec, w, flipped) > 0.0
        assert empirical_risk(spec, w, data) == 0.0

    def test_data_cannot_change_under_its_cached_blocks(self):
        spec = PredictorSpec(kind="mlp", input_dim=20, layer_sizes=(16, 2))
        rng = np.random.default_rng(15)
        w = random_weights(spec, 1.0, rng)
        X = rng.standard_normal((400, 20))
        data = LabelledDataset(X, predict_batch(spec, w, X))
        assert empirical_risk(spec, w, data) == 0.0  # caches features_t and binary_labels
        with pytest.raises(ValueError):
            data.features[:] = -data.features
        with pytest.raises(ValueError):
            data.labels[:] = 1 - data.labels
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.features = -X
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.labels = 1 - data.labels
        assert empirical_risk(spec, w, data) == 0.0
        assert empirical_risk(spec, w, LabelledDataset(data.features, data.labels)) == 0.0


class TestBinaryLabels:
    def test_only_zero_one_labels_get_a_bool_copy(self):
        X = np.zeros((4, 2))
        data = LabelledDataset(X, np.array([0, 1, 1, 0]))
        assert data.binary_labels.dtype == bool
        assert data.binary_labels.tolist() == [False, True, True, False]
        assert data.binary_labels is data.binary_labels
        assert LabelledDataset(X, np.array([0, 1, 2, 0])).binary_labels is None

    def test_label_two_still_counts_as_an_error(self):
        spec = PredictorSpec(kind="mlp", input_dim=3, layer_sizes=(5, 2))
        rng = np.random.default_rng(21)
        X = rng.standard_normal((400, 3))
        w = random_weights(spec, 1.0, rng)
        labels = predict_batch(spec, w, X)
        labels[::4] = 2  # a class the machine never predicts
        data = LabelledDataset(X, labels)
        assert empirical_risk(spec, w, data) == 0.25
        assert empirical_risk(spec, w, data, subset=np.arange(0, 400, 2)) == 0.5

    @pytest.mark.parametrize("layer_sizes", [(6, 2), (6, 3)])
    def test_read_only_labels_give_the_same_risks(self, layer_sizes):
        spec = PredictorSpec(kind="mlp", input_dim=4, layer_sizes=layer_sizes)
        rng = np.random.default_rng(22)
        data = gen_gaussian_pair(GaussianClassSpec(4, 1.0), 300, rng)
        subset = rng.permutation(300)[:77]
        weights = [random_weights(spec, 1.0, rng) for _ in range(20)]
        assert data.binary_labels is not None

        def counted(w, rows):  # int64 decisions against int64 labels
            return np.count_nonzero(predict_batch(spec, w, data.features[rows]) != data.labels[rows]) / len(rows)

        assert [(empirical_risk(spec, w, data), empirical_risk(spec, w, data, subset))
                for w in weights] == [(counted(w, np.arange(300)), counted(w, subset)) for w in weights]


class TestRandomWeights:
    def test_sphere_norm(self):
        w = random_weights(sphere_spec(50), 2.0, seed=4)
        assert abs(np.linalg.norm(w.values) - 1.0) <= 1e-10
        assert w.constraint == "unit_sphere"

    def test_deterministic(self):
        a = random_weights(sphere_spec(10), 1.0, seed=5)
        b = random_weights(sphere_spec(10), 1.0, seed=5)
        assert (a.values == b.values).all()

    def test_entry_variance_matches_scale(self):
        spec = PredictorSpec(kind="mlp", input_dim=99, layer_sizes=(999, 2))
        w = random_weights(spec, 0.7, seed=6)
        n = w.values.size
        var = w.values.var()
        stderr = 0.7**2 * math.sqrt(2.0 / n)
        assert abs(var - 0.49) <= 3 * stderr

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_scale(self, scale):
        with pytest.raises(DomainError):
            random_weights(PredictorSpec(kind="mlp", input_dim=3, layer_sizes=(2, 2)), scale, 7)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        w = random_weights(PredictorSpec(kind="mlp", input_dim=7, layer_sizes=(5, 3)), 1.3, 8)
        path = tmp_path / "w.bin"
        save_weight_vector(w, path)
        back = load_weight_vector(path)
        assert (back.values == w.values).all()

    def test_header_is_little_endian_length(self, tmp_path):
        w = WeightVector(np.array([1.5, -2.5]))
        path = tmp_path / "w.bin"
        save_weight_vector(w, path)
        raw = path.read_bytes()
        assert raw[:8] == (2).to_bytes(8, "little")
        assert len(raw) == 8 + 16

    def test_failed_write_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "w.bin"
        save_weight_vector(WeightVector(np.array([1.5, -2.5])), path)
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_weight_vector(WeightVector(np.array([3.0, 4.0, 5.0])), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["w.bin"]

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes((3).to_bytes(8, "little") + b"\x00" * 16)
        with pytest.raises(DomainError):
            load_weight_vector(path)

    @pytest.mark.parametrize("constraint", ["unconstrained", "unit_sphere"])
    def test_non_finite_payload_rejected(self, tmp_path, constraint):
        # a NaN norm would slip past the unit-sphere check
        path = tmp_path / "w.bin"
        save_weight_vector(WeightVector(np.array([math.nan, 0.0])), path)
        with pytest.raises(DomainError):
            load_weight_vector(path, constraint)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            PredictorSpec(kind="transformer", input_dim=3)

    def test_rejects_mlp_without_layers(self):
        with pytest.raises(DomainError):
            PredictorSpec(kind="mlp", input_dim=3)

    def test_class_count(self):
        assert sphere_spec().class_count == 2
        assert PredictorSpec(kind="mlp", input_dim=3, layer_sizes=(7, 5)).class_count == 5

    def test_unit_sphere_norm_enforced(self):
        with pytest.raises(DomainError):
            WeightVector(np.array([1.0, 1.0]), "unit_sphere").validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_refused(self, bad):
        with pytest.raises(DomainError):
            WeightVector(np.array([1.0, bad])).validate()
