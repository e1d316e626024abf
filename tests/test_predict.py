"""Crop decomposition, full-signal prediction, and rejection rules."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import betamix
from betamix.betadist import BetaMixture, BetaParams, PredictiveSummary
from betamix.data import SignalRecord
from betamix.errors import NonFiniteOutputError, UsageError
from betamix.model import ResidualBlock, build_model, load_checkpoint
from betamix.predict import (
    Prediction,
    decompose_crops,
    predict,
    prediction_json_line,
    reject_by_uncertainty,
    write_predictions,
)

SOFTPLUS_INV_ONE = math.log(math.e - 1.0)
TINY_SEED0_CHECKPOINT = Path(__file__).parent / "data" / "tiny_seed0.bgc"


def record_of_length(n, record_id="r", target=0.0):
    rng = np.random.default_rng(n)
    return SignalRecord(record_id, 100.0,
                        rng.normal(size=n).astype(np.float32), target)


def fake_prediction(record_id, uncertainty, predicted=0, true=0.0):
    summary = PredictiveSummary(mean=0.8 if predicted else 0.2,
                                variance=uncertainty / 4.0)
    return Prediction(record_id=record_id, summary=summary,
                      components=BetaMixture((BetaParams(1.0, 1.0),)),
                      true_target=true)


class TestDecomposeCrops:
    def test_exact_multiple_no_overlap(self):
        samples = record_of_length(300).samples
        windows = decompose_crops(samples, 100)
        assert len(windows) == 3
        for i, w in enumerate(windows):
            np.testing.assert_array_equal(w, samples[i * 100:(i + 1) * 100])

    def test_large_remainder_gets_tail_window(self):
        samples = record_of_length(260).samples
        windows = decompose_crops(samples, 100)
        assert len(windows) == 3
        np.testing.assert_array_equal(windows[2], samples[160:260])

    def test_small_remainder_discarded(self):
        samples = record_of_length(249).samples
        windows = decompose_crops(samples, 100)
        assert len(windows) == 2

    def test_remainder_exactly_half_included(self):
        samples = record_of_length(250).samples
        windows = decompose_crops(samples, 100)
        assert len(windows) == 3

    @pytest.mark.parametrize("crop_len", [0, -1])
    def test_crop_len_below_one_rejected(self, crop_len):
        samples = record_of_length(40).samples
        with pytest.raises(ValueError, match="crop_len must be >= 1"):
            decompose_crops(samples, crop_len)

    def test_short_signal_padded(self):
        samples = record_of_length(40).samples
        windows = decompose_crops(samples, 100)
        assert len(windows) == 1
        assert windows[0].size == 100
        np.testing.assert_array_equal(windows[0][30:70], samples)
        assert (windows[0][:30] == samples[0]).all()
        assert (windows[0][70:] == samples[-1]).all()


class TestPredict:
    def uniform_head_model(self):
        model = build_model("tiny", seed=21)
        model.head_dense.weight.value[...] = 0.0
        model.head_dense.bias.value[...] = SOFTPLUS_INV_ONE
        return model

    def test_forced_uniform_head(self):
        model = self.uniform_head_model()
        record = record_of_length(1000, target=1.0)
        pred = predict(model, record, 256)
        assert pred.summary.mean == pytest.approx(0.5, abs=1e-5)
        assert pred.summary.uncertainty == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert pred.predicted_class == 1  # a tie at 0.5 goes to class 1

    def test_single_crop_signal_gives_one_component(self):
        model = build_model("tiny", seed=21)
        record = record_of_length(256)
        pred = predict(model, record, 256)
        assert len(pred.components) == 1

    def test_component_count_matches_window_count(self):
        model = build_model("tiny", seed=21)
        for n in (256, 256 * 3, 256 * 2 + 130, 100):
            record = record_of_length(n)
            pred = predict(model, record, 256)
            assert len(pred.components) == len(decompose_crops(
                betamix.orient_signal(record), 256))

    def test_deterministic(self):
        model = build_model("tiny", seed=21)
        record = record_of_length(1000)
        a = predict(model, record, 256)
        b = predict(model, record, 256)
        assert a.summary == b.summary
        assert a.components == b.components

    def test_uncertainty_is_four_variances(self):
        model = build_model("tiny", seed=21)
        pred = predict(model, record_of_length(900), 256)
        assert pred.summary.uncertainty == pytest.approx(
            4.0 * pred.summary.variance, rel=1e-12)
        assert 0.0 <= pred.summary.uncertainty <= 1.0

    def test_overflow_is_a_non_finite_output_naming_the_record(self, tmp_path):
        """The committed checkpoint with byte 236 set to 0xff holds a
        finite stem weight of -3.07e38, which overflows the stem GEMM. The
        forward raises instead of warning and going on to the softplus
        floor, and predict names the record; numpy's error state is left as
        it was."""
        data = bytearray(TINY_SEED0_CHECKPOINT.read_bytes())
        data[236] = 0xFF
        path = tmp_path / "overflow.bgc"
        path.write_bytes(bytes(data))
        model = load_checkpoint(path)
        assert -3.1e38 < model.stem_conv.weight.value.min() < -3e38
        state = np.geterr()
        with pytest.raises(NonFiniteOutputError,
                           match="record 'big': the network overflowed"):
            predict(model, record_of_length(1000, record_id="big"), 256)
        assert np.geterr() == state

    def test_nan_weight_is_a_non_finite_output_naming_the_record(self):
        """A NaN head bias reaches the output without raising numpy's
        invalid-operation error, so only the final finite check catches
        it: predict raises NonFiniteOutputError naming the record, with no
        FloatingPointError behind it."""
        model = load_checkpoint(TINY_SEED0_CHECKPOINT)
        model.head_dense.bias.value[0] = np.nan
        message = r"^record 'nan': the network output \(alpha, beta\) is not finite$"
        with pytest.raises(NonFiniteOutputError, match=message) as info:
            predict(model, record_of_length(1000, record_id="nan"), 256)
        assert info.value.__cause__ is None

    def test_leaves_no_layer_cache(self, rng):
        """predict runs infer-mode forwards only, so afterwards no layer
        holds a backward cache, not even one a train step left behind."""
        model = build_model("tiny", seed=21)
        model.forward(rng.normal(size=(2, 1, 256)).astype(np.float32), train=True)
        predict(model, record_of_length(900), 256)
        layers = []
        for node in model.nodes:
            if isinstance(node, ResidualBlock):
                layers += node.main + node.shortcut + [node.join]
            else:
                layers.append(node)
        assert len(layers) == 21
        assert [l.name for l in layers if l._cache is not None] == []


class TestPredictedClass:
    def test_is_hard_label_of_the_mean(self):
        """A mean of exactly 0.5 gives class 1; one just below gives 0."""
        pred = fake_prediction("p", 0.1)
        at_cut = replace(pred, summary=PredictiveSummary(0.5, 0.01))
        below = replace(pred, summary=PredictiveSummary(
            math.nextafter(0.5, 0.0), 0.01))
        assert (at_cut.predicted_class, below.predicted_class) == (1, 0)

    def test_cannot_be_set_against_the_mean(self):
        """The class is derived from the mean, so no prediction can hold
        a class its mean contradicts."""
        with pytest.raises(TypeError):
            Prediction(record_id="p", summary=PredictiveSummary(0.2, 0.01),
                       components=BetaMixture((BetaParams(1.0, 1.0),)),
                       predicted_class=1)


class TestRejectByUncertainty:
    def test_keep_all(self):
        preds = [fake_prediction(f"p{i}", u) for i, u in
                 enumerate([0.5, 0.1, 0.9])]
        flagged, threshold = reject_by_uncertainty(preds, 1.0)
        assert all(p.accepted for p in flagged)
        assert threshold == 0.9

    def test_keep_nine_of_ten(self):
        uncertainties = [0.05 * i for i in range(10)]
        preds = [fake_prediction(f"p{i}", u) for i, u in enumerate(uncertainties)]
        flagged, threshold = reject_by_uncertainty(preds, 0.9)
        assert sum(p.accepted for p in flagged) == 9
        rejected = [p for p in flagged if not p.accepted]
        assert rejected[0].summary.uncertainty == max(uncertainties)
        assert threshold == 0.40

    def test_fraction_k_over_n_keeps_exactly_k(self):
        """A keep fraction of k/N keeps k for every N <= 100, also where
        the float product k/N * N lands above k (0.07 * 100 is
        7.000000000000001); a fraction between counts still rounds up."""
        for n in range(1, 101):
            preds = [fake_prediction(f"p{i}", i / n) for i in range(n)]
            for k in range(1, n + 1):
                flagged, threshold = reject_by_uncertainty(preds, k / n)
                assert sum(p.accepted for p in flagged) == k, (k, n)
                assert threshold == (k - 1) / n
        preds = [fake_prediction(f"p{i}", i / 9) for i in range(9)]
        flagged, _ = reject_by_uncertainty(preds, 0.9)
        assert sum(p.accepted for p in flagged) == 9

    def test_ties_accepted_in_input_order(self):
        preds = [fake_prediction(f"p{i}", 0.3) for i in range(4)]
        flagged, _ = reject_by_uncertainty(preds, 0.5)
        assert [p.accepted for p in flagged] == [True, True, False, False]

    def test_monotone_in_keep_fraction(self):
        rng = np.random.default_rng(0)
        preds = [fake_prediction(f"p{i}", float(u))
                 for i, u in enumerate(rng.uniform(0, 1, 20))]
        accepted_sets = []
        for fraction in (0.25, 0.5, 0.75, 1.0):
            flagged, _ = reject_by_uncertainty(preds, fraction)
            accepted_sets.append({p.record_id for p in flagged if p.accepted})
        for smaller, larger in zip(accepted_sets, accepted_sets[1:]):
            assert smaller <= larger

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            reject_by_uncertainty([], 0.9)

    def test_bad_fraction_rejected(self):
        with pytest.raises(UsageError):
            reject_by_uncertainty([fake_prediction("p", 0.1)], 0.0)

    def test_input_order_preserved(self):
        preds = [fake_prediction(f"p{i}", u) for i, u in
                 enumerate([0.9, 0.1, 0.5])]
        flagged, _ = reject_by_uncertainty(preds, 0.67)
        assert [p.record_id for p in flagged] == ["p0", "p1", "p2"]


class TestPredictionExport:
    def test_json_line_schema(self):
        pred = fake_prediction("rec7", 0.25, predicted=1, true=1.0)
        obj = json.loads(prediction_json_line(pred))
        assert list(obj) == ["id", "mean", "variance", "uncertainty", "class",
                             "accepted", "components"]
        assert obj["id"] == "rec7"
        assert obj["uncertainty"] == pytest.approx(4.0 * obj["variance"])
        assert obj["components"] == [[1.0, 1.0]]

    def test_write_predictions_round_trip(self, tmp_path):
        preds = [fake_prediction(f"p{i}", 0.1 * i) for i in range(3)]
        path = tmp_path / "preds.jsonl"
        write_predictions(preds, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        for line, pred in zip(lines, preds):
            assert json.loads(line)["id"] == pred.record_id
