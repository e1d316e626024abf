"""Dataset I/O, signal operations, sampling, and the synthetic generator."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from betamix.data import (
    _resample_window,
    AugmentConfig,
    Dataset,
    DatasetManifest,
    ManifestEntry,
    RhythmAnnotation,
    SignalRecord,
    load_dataset,
    orient_signal,
    pad_to_length,
    read_record,
    sample_changepoint_batch,
    sample_changepoint_segments,
    sample_crop_batch,
    soft_target_for_segment,
    split_dataset,
    synth_generate,
    synth_generate_changepoints,
    write_dataset,
    write_record,
)
from betamix.errors import DataError, UsageError
from conftest import detect_peak_times, naive_crop_batch, naive_orient


def spike_record(record_id="r0", n=400, positive=True, target=0.0):
    """Zero-median spike train: sparse tall peaks over a flat baseline."""
    samples = np.zeros(n, dtype=np.float32)
    samples[::50] = 1.0 if positive else -1.0
    return SignalRecord(record_id, 100.0, samples, target)


def three_interval_record():
    """normal [0,100), AF [100,250), normal [250,400)."""
    samples = np.zeros(400, dtype=np.float32)
    samples[0] = 1.0
    rhythm = RhythmAnnotation(0, ((100, 1), (250, 0)))
    return SignalRecord("tri", 100.0, samples, 0.375, rhythm)


class TestRecordIO:
    def test_round_trip_bitwise(self, tmp_path, rng):
        samples = rng.normal(size=1000).astype(np.float32)
        rhythm = RhythmAnnotation(0, ((100, 1), (600, 0)))
        record = SignalRecord("x1", 300.0, samples, 1.0, rhythm)
        path = tmp_path / "x1.bgs"
        write_record(path, record)
        loaded = read_record(path, "x1", 1.0)
        np.testing.assert_array_equal(loaded.samples, samples)
        assert loaded.sampling_rate == 300.0
        assert loaded.rhythm == rhythm

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            read_record(tmp_path / "nope.bgs", "x", 0.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bgs"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError, match="malformed header"):
            read_record(path, "x", 0.0)

    def test_truncated_samples(self, tmp_path):
        record = spike_record()
        path = tmp_path / "r0.bgs"
        write_record(path, record)
        data = path.read_bytes()
        path.write_bytes(data[:40])
        with pytest.raises(DataError, match="truncated"):
            read_record(path, "r0", 0.0)

    @pytest.mark.parametrize("count", [2**34, 2**61], ids=["2**34", "2**61"])
    def test_huge_sample_count(self, tmp_path, count):
        """A corrupt u64 sample count is a data error before any read is
        attempted, not a MemoryError or OverflowError."""
        path = tmp_path / "r0.bgs"
        write_record(path, spike_record())
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 16, count)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="truncated"):
            read_record(path, "r0", 0.0)

    def test_non_monotone_changepoints(self, tmp_path):
        path = tmp_path / "cp.bgs"
        samples = np.zeros(10, dtype=np.float32)
        with open(path, "wb") as fh:
            fh.write(b"BGS1")
            fh.write(struct.pack("<I", 1))
            fh.write(struct.pack("<d", 100.0))
            fh.write(struct.pack("<Q", 10))
            fh.write(samples.tobytes())
            fh.write(struct.pack("<B", 0))
            fh.write(struct.pack("<I", 2))
            fh.write(struct.pack("<QB", 5, 1))
            fh.write(struct.pack("<QB", 3, 0))
        with pytest.raises(DataError, match="increasing"):
            read_record(path, "cp", 0.0)


class TestDatasetIO:
    def test_dataset_round_trip(self, tmp_path):
        records = synth_generate(3, crop_budget_s=10.0, seed=8)
        manifest = split_dataset(records, 0.8, seed=8)
        write_dataset(records, manifest, tmp_path)
        loaded = load_dataset(tmp_path / "manifest.csv")
        assert [e.id for e in loaded.manifest.entries] == [r.id for r in records]
        assert loaded.manifest.seed == 8
        for original, reread in zip(records, loaded.records, strict=True):
            np.testing.assert_array_equal(original.samples, reread.samples)
            assert reread.target == original.target

    def test_known_lengths_preserved(self, tmp_path):
        records = [spike_record("a", n=333), spike_record("b", n=555, target=1.0),
                   spike_record("c", n=777)]
        manifest = DatasetManifest([
            ManifestEntry("a", "records/a.bgs", "train"),
            ManifestEntry("b", "records/b.bgs", "train"),
            ManifestEntry("c", "records/c.bgs", "val"),
        ], seed=None)
        write_dataset(records, manifest, tmp_path)
        loaded = load_dataset(tmp_path / "manifest.csv")
        assert [len(r) for r in loaded.records] == [333, 555, 777]
        assert [r.target for r in loaded.records] == [0.0, 1.0, 0.0]
        assert [r.id for r in loaded.train_records()] == ["a", "b"]
        assert [r.id for r in loaded.val_records()] == ["c"]

    def test_byte_order_mark_accepted(self, tmp_path):
        """Spreadsheet tools save CSV with a leading UTF-8 byte-order mark."""
        records = synth_generate(3, crop_budget_s=10.0, seed=8)
        write_dataset(records, split_dataset(records, 0.8, seed=8), tmp_path)
        path = tmp_path / "manifest.csv"
        plain = load_dataset(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_dataset(path)
        assert marked.manifest == plain.manifest
        for a, b in zip(plain.records, marked.records, strict=True):
            assert a.id == b.id
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest missing"):
            load_dataset(tmp_path / "manifest.csv")

    def test_empty_manifest_is_usage_error(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,target,split\n")
        with pytest.raises(UsageError, match="no records"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,file,label,split\na,b,0,train\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    @pytest.mark.parametrize("row", ["a,p.bgs,2,train", "a,p.bgs,x,train",
                                     "a,p.bgs,0,test"])
    def test_bad_rows(self, tmp_path, row):
        path = tmp_path / "manifest.csv"
        path.write_text(f"id,path,target,split\n{row}\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_missing_record_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,target,split\na,records/a.bgs,0,train\n")
        with pytest.raises(DataError, match="missing"):
            load_dataset(path)


class TestOrientSignal:
    def test_upright_spike_train_unchanged(self):
        record = spike_record(positive=True)
        oriented = orient_signal(record)
        np.testing.assert_array_equal(oriented, record.samples)

    def test_negated_flips_back(self):
        record = spike_record(positive=True)
        upside_down = SignalRecord("r1", 100.0, -record.samples, 0.0)
        oriented = orient_signal(upside_down)
        np.testing.assert_allclose(oriented, record.samples, atol=1e-6)
        np.testing.assert_array_equal(upside_down.samples, -record.samples)

    def test_tie_stays_unflipped(self):
        samples = np.array([-1.0, 0.0, 1.0, 0.0], dtype=np.float32)
        record = SignalRecord("sym", 10.0, samples, 0.0)
        oriented = orient_signal(record)
        np.testing.assert_array_equal(oriented, samples)

    def test_rebound_samples_get_fresh_orientation(self):
        record = spike_record(positive=True)
        assert record.orientation()[1] is False
        record.samples = -record.samples
        assert record.orientation()[1] is True
        expected, _ = naive_orient(record.samples)
        np.testing.assert_array_equal(record.oriented(), expected)
        upright = replace(record, samples=spike_record(positive=True).samples)
        assert upright.orientation()[1] is False

    def test_idempotent(self, rng):
        samples = rng.normal(size=501).astype(np.float32) + 2.0
        samples[::40] -= 5.0  # downward peaks, median offset
        record = SignalRecord("i", 10.0, samples, 0.0)
        once = orient_signal(record)
        twice = orient_signal(SignalRecord("i", 10.0, once, 0.0))
        np.testing.assert_allclose(twice, once, atol=1e-6)


class TestResample:
    def test_half_factor_hand_example(self):
        # Median 0 and a tie between the extremes: oriented == samples.
        record = SignalRecord("h", 10.0, np.arange(-2, 3, dtype=np.float32), 0.0)
        out = _resample_window(record, 0.5, 0, 2)
        np.testing.assert_array_equal(out, [-2.0, 0.0])

    def test_against_pointwise_oracle(self, rng):
        record = SignalRecord("p", 10.0, rng.normal(size=73).astype(np.float32), 0.0)
        factor = 1.3
        n_new = round(73 * factor)
        out = _resample_window(record, factor, 0, n_new)
        assert out.size == n_new
        np.testing.assert_allclose(out, pointwise_resample(record, factor, 0, n_new),
                                   rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("factor,start", [(1.3, 40), (0.8, 50)])
    def test_window_against_pointwise_oracle(self, rng, factor, start):
        record = SignalRecord("w", 10.0, rng.normal(size=73).astype(np.float32), 0.0)
        length = round(73 * factor) - start
        out = _resample_window(record, factor, start, length)
        np.testing.assert_allclose(
            out, pointwise_resample(record, factor, start, length),
            rtol=1e-5, atol=1e-6)


def pointwise_resample(record, factor, start, length):
    """Points start .. start + length - 1 of the oriented record resampled
    by `factor`, one textbook interpolation at a time."""
    samples = record.oriented()
    last = len(record) - 1
    out = []
    for j in range(start, start + length):
        pos = min(j / factor, float(last))
        lo = int(pos)
        frac = pos - lo
        if lo >= last:
            out.append(samples[last])
        else:
            out.append(samples[lo] * (1 - frac) + samples[lo + 1] * frac)
    return np.array(out)


class TestSampleCropBatch:
    def make_records(self):
        return ([spike_record(f"n{i}", n=600, target=0.0) for i in range(3)]
                + [spike_record(f"a{i}", n=600, target=1.0) for i in range(2)])

    def test_exact_class_balance(self, rng):
        batch = sample_crop_batch(self.make_records(), 8, 128, None, rng)
        assert (batch.targets[:4] == 0.0).all()
        assert (batch.targets[4:] == 1.0).all()

    def test_deterministic_given_seed(self):
        records = self.make_records()
        a = sample_crop_batch(records, 8, 128, None, np.random.default_rng(3))
        b = sample_crop_batch(records, 8, 128, None, np.random.default_rng(3))
        assert a.crops.tobytes() == b.crops.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_crops_are_source_slices_without_augment(self, rng):
        records = self.make_records()
        batch = sample_crop_batch(records, 4, 128, None, rng)
        for crop, target in zip(batch.crops[:, 0], batch.targets, strict=True):
            # Some window of some record of the crop's class is the crop.
            assert any(
                (sliding_window_view(orient_signal(r), 128) == crop)
                .all(axis=1).any()
                for r in records if r.target == target)

    def test_augment_factors_within_range(self):
        # The oracle's factors are the sampler's: their crops are equal.
        provenance = self.assert_matches_oracle(
            self.make_records(), 8, 128, AugmentConfig(0.8, 1.25), 0)
        for _, _, factor, _, _ in provenance:
            assert 0.8 <= factor <= 1.25

    def test_short_record_edge_padded(self, rng):
        records = [spike_record("short", n=64, target=0.0),
                   spike_record("long", n=600, target=1.0)]
        batch = sample_crop_batch(records, 4, 128, None, rng)
        short = orient_signal(records[0])
        expected = np.concatenate([np.full(32, short[0]), short,
                                   np.full(32, short[-1])])
        # The first half of the batch is class 0: the short record.
        for crop in batch.crops[:2, 0]:
            np.testing.assert_array_equal(crop, expected)

    @staticmethod
    def oracle_records():
        """Synth records (a quarter of them upside down), records shorter
        than either crop length, and records whose resampled length
        straddles 256 or 2048; the even-indexed extra records point down."""
        records = synth_generate(6, crop_budget_s=12.0, seed=11)
        rng = np.random.default_rng(5)
        for i, n in enumerate((100, 240, 256, 300, 1500, 1900, 2048, 2300)):
            x = rng.normal(size=n).astype(np.float32)
            x[::37] += 6.0 if i % 2 else -6.0
            records.append(SignalRecord(f"len{n}", 300.0, x, float(i % 2)))
        return records

    @staticmethod
    def assert_matches_oracle(records, batch_size, crop_len, augment, seed):
        """Compare with the per-crop oracle byte for byte; return the
        oracle's provenance, which holds for the sampler's crops too."""
        batch = sample_crop_batch(records, batch_size, crop_len, augment,
                                  np.random.default_rng(seed))
        crops, targets, provenance = naive_crop_batch(
            records, batch_size, crop_len, augment, np.random.default_rng(seed))
        assert batch.crops.tobytes() == crops.tobytes()
        assert batch.targets.tobytes() == targets.tobytes()
        return provenance

    @pytest.mark.parametrize("augment", [None, AugmentConfig()],
                             ids=["plain", "augment"])
    @pytest.mark.parametrize("crop_len", [256, 2048])
    def test_matches_per_crop_oracle_bytewise(self, crop_len, augment):
        records = self.oracle_records()
        padded_by_id = {}
        for seed in range(6):
            for rid, _, _, flipped, padded in self.assert_matches_oracle(
                    records, 32, crop_len, augment, seed):
                padded_by_id.setdefault(rid, set()).add(padded)
        flips = {flipped for _, _, _, flipped, _ in self.assert_matches_oracle(
            records, 64, crop_len, None, 0)}
        assert flips == {False, True}
        assert any(True in seen for seen in padded_by_id.values())
        if augment is not None:
            # some record was padded at one factor and long enough at another
            assert {False, True} in padded_by_id.values()

    @pytest.mark.parametrize("crop_len, factor, n",
                             [(256, 0.9, 284), (2048, 0.85, 2409)])
    def test_clamped_last_positions_match_oracle(self, crop_len, factor, n):
        # The resampled record is exactly one crop long, so the crop starts
        # at 0 and its last positions lie past n - 1 and clamp to it.
        assert round(n * factor) == crop_len
        assert (crop_len - 1) / factor > n - 1
        x = np.random.default_rng(7).normal(size=n).astype(np.float32)
        records = [SignalRecord("up", 300.0, x, 0.0),
                   SignalRecord("down", 300.0, -x, 1.0)]
        for seed in range(3):
            provenance = self.assert_matches_oracle(
                records, 4, crop_len, AugmentConfig(factor, factor), seed)
            assert {(p[1], p[4]) for p in provenance} == {(0, False)}

    def test_odd_batch_size_rejected(self, rng):
        with pytest.raises(UsageError):
            sample_crop_batch(self.make_records(), 7, 128, None, rng)

    def test_missing_class_rejected(self, rng):
        records = [spike_record("n0", target=0.0)]
        with pytest.raises(UsageError):
            sample_crop_batch(records, 4, 128, None, rng)


class TestSoftTargets:
    def test_fully_normal_segment(self):
        assert soft_target_for_segment(three_interval_record(), 0, 100) == 0.0

    def test_boundary_fraction(self):
        samples = np.zeros(200, dtype=np.float32)
        samples[0] = 1.0
        record = SignalRecord("b", 100.0, samples, 0.25,
                              RhythmAnnotation(0, ((75, 1),)))
        assert soft_target_for_segment(record, 0, 100) == pytest.approx(0.25)

    def test_three_intervals_against_brute_force(self):
        record = three_interval_record()
        tags = np.zeros(400, dtype=int)
        tags[100:250] = 1
        for start, length in [(0, 400), (50, 100), (90, 200), (240, 20)]:
            expected = tags[start:start + length].mean()
            assert soft_target_for_segment(record, start, length) == \
                pytest.approx(expected)

    def test_refinement_invariance(self):
        """Splitting an interval without changing tags keeps every target."""
        base = three_interval_record()
        refined = SignalRecord("tri2", 100.0, base.samples, base.target,
                               RhythmAnnotation(0, ((100, 1), (180, 1), (250, 0))))
        for start, length in [(0, 400), (60, 150), (150, 200)]:
            assert soft_target_for_segment(base, start, length) == \
                soft_target_for_segment(refined, start, length)

    def test_missing_annotation_rejected(self):
        record = spike_record()
        with pytest.raises(UsageError):
            soft_target_for_segment(record, 0, 100)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(UsageError):
            soft_target_for_segment(three_interval_record(), 300, 200)


class TestChangepointSegments:
    def test_every_window_contains_a_changepoint(self, rng):
        record = three_interval_record()
        for start, _ in sample_changepoint_segments(record, 80, 200, rng):
            assert any(start <= cp < start + 80
                       for cp, _ in record.rhythm.changepoints)

    def test_interior_changepoint_gives_fractional_target(self, rng):
        record = three_interval_record()
        for start, target in sample_changepoint_segments(record, 80, 100, rng):
            cps_inside = [cp for cp, _ in record.rhythm.changepoints
                          if start < cp < start + 80]
            if cps_inside:
                assert 0.0 < target < 1.0

    def test_empirical_mean_target_near_half(self, rng):
        """Uniform offset of a single mid-record changepoint: mean soft
        target over many draws approaches 1/2."""
        samples = np.zeros(4000, dtype=np.float32)
        samples[0] = 1.0
        record = SignalRecord("one", 100.0, samples, 0.5,
                              RhythmAnnotation(0, ((2000, 1),)))
        targets = [t for _, t in
                   sample_changepoint_segments(record, 200, 10_000, rng)]
        assert np.mean(targets) == pytest.approx(0.5, abs=0.05)

    def test_requires_changepoints(self, rng):
        with pytest.raises(UsageError):
            sample_changepoint_segments(spike_record(), 80, 1, rng)

    def test_requires_enough_length(self, rng):
        record = three_interval_record()
        with pytest.raises(UsageError):
            sample_changepoint_segments(record, 500, 1, rng)

    def test_batch_sampler(self, rng):
        records = [three_interval_record(), spike_record("plain")]
        batch = sample_changepoint_batch(records, 6, 80, rng)
        assert batch.crops.shape == (6, 1, 80)
        # Only "tri" has changepoints: every crop is one of its windows.
        windows = sliding_window_view(orient_signal(records[0]), 80)
        for crop in batch.crops[:, 0]:
            assert (windows == crop).all(axis=1).any()
        assert ((batch.targets >= 0.0) & (batch.targets <= 1.0)).all()

    def test_batch_crops_are_oriented_windows(self):
        records = synth_generate_changepoints(4, seed=3)
        crop_len = 256
        batch = sample_changepoint_batch(records, 32, crop_len,
                                         np.random.default_rng(0))
        # Replay the sampler's draws: record, changepoint, offset.
        rng = np.random.default_rng(0)
        for crop, target in zip(batch.crops, batch.targets, strict=True):
            record = records[int(rng.integers(len(records)))]
            cps = record.rhythm.changepoints
            cp = cps[int(rng.integers(len(cps)))][0]
            offset = int(rng.integers(crop_len))
            start = min(max(cp - offset, 0), len(record) - crop_len)
            oriented = orient_signal(record)
            np.testing.assert_array_equal(
                crop[0], oriented[start:start + crop_len])
            assert target == soft_target_for_segment(record, start, crop_len)


class TestSplitDataset:
    def test_eighty_twenty(self):
        records = [spike_record(f"r{i}", target=float(i % 2)) for i in range(10)]
        manifest = split_dataset(records, 0.8, seed=0)
        splits = [e.split for e in manifest.entries]
        assert splits.count("train") == 8
        assert splits.count("val") == 2

    def test_same_seed_same_manifest(self):
        records = [spike_record(f"r{i}", target=float(i % 2)) for i in range(10)]
        assert split_dataset(records, 0.8, 5) == split_dataset(records, 0.8, 5)

    def test_stratified_keeps_both_classes(self):
        records = ([spike_record(f"n{i}", target=0.0) for i in range(5)]
                   + [spike_record(f"a{i}", target=1.0) for i in range(5)])
        dataset = Dataset(records, split_dataset(records, 0.8, seed=1))
        for split in (dataset.train_records(), dataset.val_records()):
            assert {r.target for r in split} == {0.0, 1.0}

    def test_too_few_records_rejected(self):
        with pytest.raises(UsageError):
            split_dataset([spike_record()], 0.8, 0)

    def test_bad_fraction_rejected(self):
        records = [spike_record("a"), spike_record("b", target=1.0)]
        with pytest.raises(UsageError):
            split_dataset(records, 1.0, 0)

    def test_negative_seed_rejected(self):
        records = [spike_record("a"), spike_record("b", target=1.0)]
        with pytest.raises(UsageError):
            split_dataset(records, 0.8, -5)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(4, crop_budget_s=10.0, seed=3)
        b = synth_generate(4, crop_budget_s=10.0, seed=3)
        for ra, rb in zip(a, b):
            assert ra.id == rb.id
            np.testing.assert_array_equal(ra.samples, rb.samples)

    def test_lengths_and_rate(self):
        records = synth_generate(5, crop_budget_s=61.0, seed=2)
        for r in records:
            assert r.sampling_rate == 300.0
            assert 9.0 * 300 <= len(r) <= 61.0 * 300

    def test_crop_budget_caps_length(self):
        records = synth_generate(5, crop_budget_s=12.0, seed=2)
        assert all(len(r) <= 12.0 * 300 for r in records)

    def test_class_zero_intervals_regular(self):
        """Inter-peak interval standard deviation below 0.05 s for every
        pure normal-rhythm record (peak-detection oracle)."""
        records = [r for r in synth_generate(6, crop_budget_s=20.0, seed=11)
                   if r.target == 0.0]
        for r in records:
            peaks = detect_peak_times(np.abs(r.samples), 300.0)
            intervals = np.diff(peaks)
            assert len(intervals) >= 5
            assert intervals.std() < 0.05, r.id

    def test_class_one_intervals_irregular(self):
        """Coefficient of variation above 0.2 for every pure AF record."""
        records = [r for r in synth_generate(6, crop_budget_s=20.0, seed=11)
                   if r.target == 1.0]
        for r in records:
            peaks = detect_peak_times(np.abs(r.samples), 300.0)
            intervals = np.diff(peaks)
            assert len(intervals) >= 5
            assert intervals.std() / intervals.mean() > 0.2, r.id

    def test_ambiguous_fraction_counts(self):
        records = synth_generate(10, crop_budget_s=10.0, seed=0,
                                 ambiguous_fraction=0.2)
        assert len(records) == 20

    def test_invalid_arguments(self):
        with pytest.raises(UsageError):
            synth_generate(0)
        with pytest.raises(UsageError):
            synth_generate(2, ambiguous_fraction=1.5)
        with pytest.raises(UsageError):
            synth_generate(2, seed=-1)


class TestSynthChangepoints:
    def test_deterministic(self):
        a = synth_generate_changepoints(4, seed=9)
        b = synth_generate_changepoints(4, seed=9)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.samples, rb.samples)
            assert ra.rhythm == rb.rhythm

    def test_annotations_valid_and_target_matches_fraction(self):
        for r in synth_generate_changepoints(6, seed=4):
            assert r.rhythm is not None
            assert 1 <= len(r.rhythm.changepoints) <= 3
            tags = np.full(len(r), r.rhythm.initial_tag)
            for idx, tag in r.rhythm.changepoints:
                tags[idx:] = tag
            assert r.target == tags.mean()
            assert r.target == soft_target_for_segment(r, 0, len(r))

    def test_tags_alternate(self):
        for r in synth_generate_changepoints(6, seed=4):
            tags = [r.rhythm.initial_tag] + [t for _, t in r.rhythm.changepoints]
            for a, b in zip(tags, tags[1:]):
                assert a != b

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError):
            synth_generate_changepoints(2, seed=-1)


class TestPadToLength:
    def test_symmetric_edge_padding(self):
        out = pad_to_length(np.array([1.0, 2.0, 3.0], dtype=np.float32), 7)
        np.testing.assert_array_equal(out, [1, 1, 1, 2, 3, 3, 3])

    def test_no_padding_needed(self):
        x = np.arange(5, dtype=np.float32)
        assert pad_to_length(x, 5) is x
