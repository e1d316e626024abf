"""Dataset ingestion, crop sampling, and synthetic signal generation.

On-disk layout: a CSV manifest (`id,path,target,split`) next to one binary
file per recording. The record format is little-endian throughout:

    magic "BGS1" | u32 version | f64 sampling_rate | u64 n_samples |
    n_samples * f32 samples | u8 initial rhythm tag | u32 n_changepoints |
    per changepoint: u64 sample index + u8 tag (0 normal, 1 AF)

A changepoint's tag applies from its index onward; the leading byte tags
the stretch before the first changepoint.

The synthetic generator stands in for clinical data: regular spike trains
with a pre-spike bump for the normal class, irregular gamma-distributed
beat intervals with a low-amplitude oscillation for the AF class, plus an
optional slice of deliberately intermediate recordings so the uncertainty
machinery has something to reject.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .betadist import hard_label
from .errors import DataError, UsageError

RECORD_MAGIC = b"BGS1"
RECORD_VERSION = 1
SYNTH_SAMPLING_RATE = 300.0

# Largest sample magnitude a record may hold: far above any ADC count
# (2**32 is about 4.3e9) and far below float32 overflow (3.4e38). A record
# at the bound trains and predicts without overflow in both presets; one
# at 3e38 overflowed the conv sums into NaN.
MAX_ABS_SAMPLE = 1e12


@dataclass(frozen=True)
class RhythmAnnotation:
    """Piecewise-constant rhythm tags: initial tag plus change indices."""

    initial_tag: int
    changepoints: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.initial_tag not in (0, 1):
            raise ValueError(f"initial tag must be 0 or 1, got {self.initial_tag}")
        prev = -1
        for idx, tag in self.changepoints:
            if tag not in (0, 1):
                raise ValueError(f"changepoint tag must be 0 or 1, got {tag}")
            if idx <= prev:
                raise ValueError("changepoint indices must be strictly increasing")
            prev = idx


@dataclass
class SignalRecord:
    """One recording: samples, rate, target, optional rhythm annotation.

    The orientation (see `orientation`) is computed on first use and kept
    for as long as `samples` is the same array, so rebinding `samples`
    gets a fresh one; the array must not be written in place.
    """

    id: str
    sampling_rate: float
    samples: np.ndarray
    target: float
    rhythm: RhythmAnnotation | None = None
    # (samples array it was computed from, median, flipped)
    _orientation: tuple | None = field(default=None, init=False,
                                       compare=False, repr=False)

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if self.samples.size == 0:
            raise ValueError(f"record {self.id!r}: samples are empty")
        peak = np.abs(self.samples).max()
        if not np.isfinite(peak):
            raise ValueError(f"record {self.id!r}: samples hold NaN or inf")
        if peak > MAX_ABS_SAMPLE:
            raise ValueError(f"record {self.id!r}: sample magnitude {peak:.3g} "
                             f"exceeds {MAX_ABS_SAMPLE:.0e}")
        if not (self.sampling_rate > 0):
            raise ValueError(f"record {self.id!r}: sampling rate must be positive")
        if not (0.0 <= self.target <= 1.0):
            raise ValueError(f"record {self.id!r}: target {self.target} outside [0,1]")
        if self.rhythm is not None and self.rhythm.changepoints:
            last = self.rhythm.changepoints[-1][0]
            first = self.rhythm.changepoints[0][0]
            if first < 0 or last >= self.samples.size:
                raise ValueError(
                    f"record {self.id!r}: changepoint outside [0, {self.samples.size})"
                )

    def __len__(self) -> int:
        return int(self.samples.size)

    def orientation(self) -> tuple[np.float32, bool]:
        """(median, flipped): the float32 sample median, and whether the
        median-removed samples are negated so the dominant peak points up
        (|min| > |max| after removing the median; ties stay unflipped)."""
        cached = self._orientation
        if cached is None or cached[0] is not self.samples:
            samples = self.samples
            med = np.float32(np.median(samples))
            # Subtracting a constant rounds monotonically, so the extremes
            # of the centered samples are the centered extremes.
            flipped = bool(abs(samples.min() - med) > abs(samples.max() - med))
            cached = self._orientation = (samples, med, flipped)
        return cached[1], cached[2]

    def oriented(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The oriented samples[lo:hi]: median removed, negated if flipped."""
        med, flipped = self.orientation()
        window = self.samples[lo:hi] - med
        if flipped:
            np.negative(window, out=window)
        return window


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path: str
    target: float
    split: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    seed: int | None = None


@dataclass
class Dataset:
    records: list[SignalRecord]
    manifest: DatasetManifest

    def _by_split(self, split: str) -> list[SignalRecord]:
        wanted = {e.id for e in self.manifest.entries if e.split == split}
        return [r for r in self.records if r.id in wanted]

    def train_records(self) -> list[SignalRecord]:
        return self._by_split("train")

    def val_records(self) -> list[SignalRecord]:
        return self._by_split("val")


@dataclass(frozen=True)
class CropProvenance:
    record_id: str
    start: int
    resample_factor: float
    flipped: bool
    padded: bool


@dataclass
class CropBatch:
    crops: np.ndarray          # (batch, 1, crop_len) float32
    targets: np.ndarray        # (batch,) float64
    provenance: list[CropProvenance]


@dataclass(frozen=True)
class AugmentConfig:
    """The range of the random resampling factor of training crops."""

    resample_min: float = 0.8
    resample_max: float = 1.25


# -- record I/O --------------------------------------------------------------


def write_record(path, record: SignalRecord) -> None:
    rhythm = record.rhythm
    if rhythm is None:
        rhythm = RhythmAnnotation(hard_label(record.target), ())
    with open(path, "wb") as fh:
        fh.write(RECORD_MAGIC)
        fh.write(struct.pack("<I", RECORD_VERSION))
        fh.write(struct.pack("<d", float(record.sampling_rate)))
        fh.write(struct.pack("<Q", record.samples.size))
        fh.write(np.ascontiguousarray(record.samples, dtype="<f4").tobytes())
        fh.write(struct.pack("<B", rhythm.initial_tag))
        fh.write(struct.pack("<I", len(rhythm.changepoints)))
        for idx, tag in rhythm.changepoints:
            fh.write(struct.pack("<QB", idx, tag))


def open_input(path, what: str, error: type[DataError] = DataError, *,
               mode: str = "rb", newline: str | None = None):
    """Open a file the user named (a record, a manifest, a checkpoint);
    a text-mode file is decoded as UTF-8, skipping a leading byte-order
    mark.

    Every reason the file cannot be opened raises `error`: a missing file
    as "<what> missing: <path>", anything else (a directory, no
    permission) with the system's reason.
    """
    encoding = None if "b" in mode else "utf-8-sig"
    try:
        return open(path, mode, encoding=encoding, newline=newline)
    except FileNotFoundError as exc:
        raise error(f"{what} missing: {path}") from exc
    except OSError as exc:
        raise error(f"cannot open {what} {path}: {exc.strerror}") from exc


class BinaryReader:
    """Little-endian fields from an open binary file, for the record and
    checkpoint formats.

    Every declared length is checked against the bytes left in the file
    before it is read, because fh.read(n) allocates n bytes up front: a
    corrupt length field raises `error` instead of exhausting memory.
    """

    def __init__(self, fh, error: type[DataError]):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size - fh.tell()
        self._error = error

    def _claim(self, n: int, what: str) -> None:
        if n > self._left:
            raise self._error(f"{self._fh.name}: truncated while reading {what}")
        self._left -= n

    def read(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        return self._fh.read(n)

    def read_f32(self, count: int, what: str) -> np.ndarray:
        """count little-endian float32 values, read straight into a new
        array (no intermediate bytes object)."""
        self._claim(4 * count, what)
        out = np.empty(count, dtype="<f4")
        if self._fh.readinto(out) != out.nbytes:
            raise self._error(f"{self._fh.name}: truncated while reading {what}")
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))


def read_record(path, record_id: str, target: float) -> SignalRecord:
    with open_input(path, "record file") as fh:
        magic = fh.read(4)
        if magic != RECORD_MAGIC:
            raise DataError(f"{path}: malformed header (magic {magic!r})")
        reader = BinaryReader(fh, DataError)
        (version,) = reader.unpack("<I", "version")
        if version != RECORD_VERSION:
            raise DataError(f"{path}: unsupported record version {version}")
        (rate,) = reader.unpack("<d", "sampling rate")
        (count,) = reader.unpack("<Q", "sample count")
        samples = reader.read_f32(count, "samples")
        (initial_tag,) = reader.unpack("<B", "initial tag")
        (n_cp,) = reader.unpack("<I", "changepoint count")
        cps = []
        for _ in range(n_cp):
            idx, tag = reader.unpack("<QB", "changepoint")
            cps.append((int(idx), int(tag)))
    try:
        rhythm = RhythmAnnotation(int(initial_tag), tuple(cps))
        return SignalRecord(record_id, rate, samples, target, rhythm)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_dataset(records: list[SignalRecord], manifest: DatasetManifest,
                  out_dir) -> None:
    out_dir = Path(out_dir)
    (out_dir / "records").mkdir(parents=True, exist_ok=True)
    by_id = {r.id: r for r in records}
    with open(out_dir / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
        if manifest.seed is not None:
            fh.write(f"# split_seed={manifest.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "target", "split"])
        for entry in manifest.entries:
            writer.writerow([entry.id, entry.path,
                             _format_target(entry.target), entry.split])
            write_record(out_dir / entry.path, by_id[entry.id])


def _format_target(t: float) -> str:
    if t == 0.0:
        return "0"
    if t == 1.0:
        return "1"
    return repr(float(t))


def _inside_dataset(rel_path: str) -> bool:
    """Whether a manifest path names a file under the dataset directory:
    relative, with no ".." component. A string check, so no filesystem
    call per record."""
    return (not os.path.isabs(rel_path)
            and ".." not in rel_path.replace("\\", "/").split("/"))


def load_dataset(manifest_path) -> Dataset:
    """Parse a UTF-8 manifest and every record it references, validating
    both."""
    manifest_path = Path(manifest_path)
    seed = None
    rows = []
    with open_input(manifest_path, "manifest", mode="r", newline="") as fh:
        try:
            raw_lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{manifest_path}: not UTF-8 text ({exc.reason})") from exc
        lines = []
        for raw in raw_lines:
            if raw.startswith("#"):
                stripped = raw[1:].strip()
                if stripped.startswith("split_seed="):
                    try:
                        seed = int(stripped.split("=", 1)[1])
                    except ValueError as exc:
                        raise DataError(
                            f"{manifest_path}: bad split_seed comment") from exc
                continue
            lines.append(raw)
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != ["id", "path", "target", "split"]:
            raise DataError(
                f"{manifest_path}: expected header id,path,target,split, got {header}"
            )
        for row in reader:
            if len(row) != 4:
                raise DataError(f"{manifest_path}: malformed row {row!r}")
            rows.append(row)
    if not rows:
        raise UsageError(f"{manifest_path}: no records in manifest")
    entries = []
    records = []
    seen = set()
    for rec_id, rel_path, target_s, split in rows:
        if rec_id in seen:
            raise DataError(f"{manifest_path}: duplicate record id {rec_id!r}")
        seen.add(rec_id)
        try:
            target = float(target_s)
        except ValueError as exc:
            raise DataError(
                f"{manifest_path}: bad target {target_s!r} for {rec_id!r}") from exc
        if not (0.0 <= target <= 1.0):
            raise DataError(
                f"{manifest_path}: target {target} for {rec_id!r} outside [0,1]")
        if split not in ("train", "val"):
            raise DataError(
                f"{manifest_path}: unknown split {split!r} for {rec_id!r}")
        if not _inside_dataset(rel_path):
            raise DataError(f"{manifest_path}: record path {rel_path!r} for "
                            f"{rec_id!r} leaves the dataset directory")
        entries.append(ManifestEntry(rec_id, rel_path, target, split))
        records.append(read_record(manifest_path.parent / rel_path, rec_id, target))
    return Dataset(records, DatasetManifest(entries, seed))


# -- signal operations -------------------------------------------------------


def orient_signal(r: SignalRecord) -> SignalRecord:
    """Return the record with dominant peaks pointing up.

    Removes the sample median, then negates iff |min| > |max| afterwards
    (ties stay unflipped). The median and the flip are computed once per
    record, on first use, and shared with the crop samplers.
    """
    return replace(r, samples=r.oriented())


def _resample_window(record: SignalRecord, factor: float, start: int,
                     length: int) -> np.ndarray:
    """Points start .. start + length - 1 of the oriented record linearly
    resampled onto round(n * factor) points: point j sits at position
    j / factor, clamped to the final sample. Only the samples those
    positions fall between are oriented and interpolated."""
    n = len(record)
    positions = np.minimum(
        np.arange(start, start + length, dtype=np.float64) / factor, n - 1)
    lo = int(positions[0])
    hi = min(int(positions[-1]) + 2, n)
    return np.interp(positions, np.arange(lo, hi, dtype=np.float64),
                     record.oriented(lo, hi).astype(np.float64))


def pad_to_length(samples: np.ndarray, length: int) -> np.ndarray:
    """Symmetric edge padding; the odd element goes on the right."""
    deficit = length - samples.size
    if deficit <= 0:
        return samples
    left = deficit // 2
    return np.pad(samples, (left, deficit - left), mode="edge")


def sample_crop_batch(records: list[SignalRecord], batch_size: int,
                      crop_len: int, augment: AugmentConfig | None,
                      rng: np.random.Generator) -> CropBatch:
    """Draw a class-balanced batch of fixed-length crops.

    Half the batch comes from each class; records are picked uniformly
    within their class, so the minority class is simply revisited more
    often. Each crop is oriented, optionally resampled by a random factor,
    and cut at a uniform random start. Records too short for a full crop
    are symmetric-edge-padded and flagged in provenance.

    Every crop is byte-identical to orienting the whole record, resampling
    all of it and cutting the window, but only the window is computed: the
    record's orientation is computed once, on first use, and a resampled
    crop interpolates just its own positions.
    """
    if batch_size < 2 or batch_size % 2 != 0:
        raise UsageError(f"batch_size must be even and >= 2, got {batch_size}")
    by_class = ([], [])
    for r in records:
        by_class[hard_label(r.target)].append(r)
    if not by_class[0] or not by_class[1]:
        raise UsageError("both classes must be present to balance a batch")
    crops = np.empty((batch_size, 1, crop_len), dtype=np.float32)
    targets = np.empty(batch_size, dtype=np.float64)
    provenance = []
    half = batch_size // 2
    for i in range(batch_size):
        pool = by_class[0] if i < half else by_class[1]
        record = pool[int(rng.integers(len(pool)))]
        n = len(record)
        factor = 1.0
        if augment is not None:
            factor = float(rng.uniform(augment.resample_min, augment.resample_max))
        new_n = n if factor == 1.0 else max(1, int(round(n * factor)))
        padded = new_n < crop_len
        start = int(rng.integers(max(new_n - crop_len, 0) + 1))
        length = min(new_n, crop_len)
        if factor == 1.0:
            window = record.oriented(start, start + length)
        else:
            window = _resample_window(record, factor, start, length)
        crops[i, 0, :] = pad_to_length(window, crop_len)
        targets[i] = record.target
        provenance.append(CropProvenance(record.id, start, factor,
                                         record.orientation()[1], padded))
    return CropBatch(crops, targets, provenance)


def soft_target_for_segment(r: SignalRecord, start: int, length: int) -> float:
    """Fraction of samples in [start, start+length) whose rhythm tag is AF."""
    if r.rhythm is None:
        raise UsageError(f"record {r.id!r} has no rhythm annotation")
    if length < 1 or start < 0 or start + length > len(r):
        raise UsageError(
            f"segment [{start}, {start + length}) outside record of length {len(r)}"
        )
    boundaries = [0] + [idx for idx, _ in r.rhythm.changepoints] + [len(r)]
    tags = [r.rhythm.initial_tag] + [tag for _, tag in r.rhythm.changepoints]
    end = start + length
    af = 0
    for seg_start, seg_end, tag in zip(boundaries[:-1], boundaries[1:], tags):
        if tag == 1:
            af += max(0, min(end, seg_end) - max(start, seg_start))
    return af / length


def sample_changepoint_segments(r: SignalRecord, crop_len: int, n: int,
                                rng: np.random.Generator
                                ) -> list[tuple[int, float]]:
    """Windows containing a rhythm change at a uniform offset.

    Each returned (start, soft target) window covers a uniformly chosen
    changepoint placed at a uniformly random position inside the window,
    clamped so the window stays within the record.
    """
    if r.rhythm is None or not r.rhythm.changepoints:
        raise UsageError(f"record {r.id!r} has no changepoints to sample around")
    if len(r) < crop_len:
        raise UsageError(
            f"record {r.id!r} of length {len(r)} is shorter than crop {crop_len}"
        )
    cps = [idx for idx, _ in r.rhythm.changepoints]
    out = []
    for _ in range(n):
        cp = cps[int(rng.integers(len(cps)))]
        offset = int(rng.integers(crop_len))
        start = min(max(cp - offset, 0), len(r) - crop_len)
        out.append((start, soft_target_for_segment(r, start, crop_len)))
    return out


def sample_changepoint_batch(records: list[SignalRecord], batch_size: int,
                             crop_len: int, rng: np.random.Generator) -> CropBatch:
    """Batch of soft-labeled segments drawn around rhythm changepoints."""
    usable = [r for r in records
              if r.rhythm is not None and r.rhythm.changepoints
              and len(r) >= crop_len]
    if not usable:
        raise UsageError("no records with changepoint annotations and enough length")
    crops = np.empty((batch_size, 1, crop_len), dtype=np.float32)
    targets = np.empty(batch_size, dtype=np.float64)
    provenance = []
    for i in range(batch_size):
        record = usable[int(rng.integers(len(usable)))]
        start, target = sample_changepoint_segments(record, crop_len, 1, rng)[0]
        crops[i, 0, :] = record.oriented(start, start + crop_len)
        targets[i] = target
        provenance.append(CropProvenance(record.id, start, 1.0,
                                         record.orientation()[1], False))
    return CropBatch(crops, targets, provenance)


def _require_seed(seed: int) -> None:
    # numpy refuses a negative seed with a bare ValueError; a caller's
    # negative seed is a usage error.
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")


def split_dataset(records: list[SignalRecord], train_fraction: float,
                  seed: int) -> DatasetManifest:
    """Stratified random train/val assignment.

    Within each class, a seeded permutation sends the first
    ceil(n * fraction) records to train, adjusted so both splits keep both
    classes whenever a class has at least two members.
    """
    if len(records) < 2:
        raise UsageError("need at least 2 records to split")
    if not (0.0 < train_fraction < 1.0):
        raise UsageError(f"train_fraction must lie in (0,1), got {train_fraction}")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    split_of = {}
    for cls in (0, 1):
        members = [r.id for r in records if hard_label(r.target) == cls]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_train = math.ceil(len(members) * train_fraction)
        if len(members) >= 2:
            n_train = min(max(n_train, 1), len(members) - 1)
        for rank, idx in enumerate(order):
            split_of[members[idx]] = "train" if rank < n_train else "val"
    entries = [ManifestEntry(r.id, f"records/{r.id}.bgs", float(r.target),
                             split_of[r.id])
               for r in records]
    return DatasetManifest(entries, seed)


# -- synthetic data ----------------------------------------------------------


def _add_bump(x: np.ndarray, fs: float, center_s: float, sigma_s: float,
              amp: float) -> None:
    """Add a Gaussian bump in place, touching only a local window."""
    n = x.size
    half = max(1, int(round(4 * sigma_s * fs)))
    center = int(round(center_s * fs))
    lo = max(0, center - half)
    hi = min(n, center + half + 1)
    if lo >= hi:
        return
    idx = np.arange(lo, hi)
    t = (idx / fs) - center_s
    x[lo:hi] += amp * np.exp(-0.5 * (t / sigma_s) ** 2)


def _beat_times(rng: np.random.Generator, start_s: float, end_s: float,
                mu_rr: float, blend: float) -> list[float]:
    """Beat instants on [start_s, end_s): regular for blend 0, gamma-
    distributed with growing coefficient of variation as blend -> 1."""
    times = []
    t = start_s + float(rng.uniform(0.0, mu_rr))
    if blend > 0.0:
        cv = max(0.03, blend * float(rng.uniform(0.28, 0.42)))
        shape = 1.0 / (cv * cv)
        scale = mu_rr * cv * cv
    while t < end_s:
        times.append(t)
        if blend == 0.0:
            rr = max(0.4, float(rng.normal(mu_rr, 0.02)))
        else:
            rr = max(0.25, float(rng.gamma(shape, scale)))
        t += rr
    return times


def _synth_segment(x: np.ndarray, rng: np.random.Generator, fs: float,
                   start_s: float, end_s: float, blend: float) -> None:
    """Write one rhythm stretch into x: spikes, optional pre-spike bump,
    optional inter-beat oscillation."""
    mu_rr = float(rng.uniform(0.7, 1.1))
    p_amp = 0.2 * (1.0 - blend)
    f_amp = 0.12 * blend
    for tb in _beat_times(rng, start_s, end_s, mu_rr, blend):
        _add_bump(x, fs, tb, 0.012, float(rng.uniform(0.95, 1.05)))
        if p_amp > 0.0 and tb - 0.16 > start_s:
            _add_bump(x, fs, tb - 0.16, 0.03, p_amp * float(rng.uniform(0.9, 1.1)))
    if f_amp > 0.0:
        freq = float(rng.uniform(5.5, 7.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        lo = int(round(start_s * fs))
        hi = min(x.size, int(round(end_s * fs)))
        t = np.arange(lo, hi) / fs
        x[lo:hi] += f_amp * np.sin(2.0 * np.pi * freq * t + phase)


def synth_generate(n_per_class: int, crop_budget_s: float = 61.0,
                   seed: int = 0, ambiguous_fraction: float = 0.0
                   ) -> list[SignalRecord]:
    """Two-class synthetic dataset at 300 Hz.

    Class 0: regular beat intervals (per-record mean in [0.7, 1.1] s,
    sigma 0.02 s) with a small pre-spike bump. Class 1: gamma-distributed
    intervals with coefficient of variation >= 0.25, no pre-spike bump, and
    a low-amplitude oscillation between beats. Record lengths are uniform
    in [9 s, min(61 s, crop_budget_s)]; crop_budget_s caps the duration so
    desk-scale runs stay fast.

    ambiguous_fraction of each class is generated at an intermediate
    morphology blend (labels kept), producing genuinely borderline records.
    A quarter of all records are polarity-inverted to exercise the
    orientation fix.
    """
    if n_per_class < 1:
        raise UsageError(f"n_per_class must be >= 1, got {n_per_class}")
    if not (0.0 <= ambiguous_fraction <= 1.0):
        raise UsageError("ambiguous_fraction must lie in [0,1]")
    _require_seed(seed)
    fs = SYNTH_SAMPLING_RATE
    rng = np.random.default_rng(seed)
    max_len = min(61.0, max(9.0, float(crop_budget_s)))
    records = []
    n_ambiguous = int(round(ambiguous_fraction * n_per_class))
    for cls in (0, 1):
        prefix = "af" if cls else "no"
        for i in range(n_per_class):
            # Borderline records sit so close to the class midpoint that
            # their labels are effectively coin flips; they are what the
            # rejection machinery is supposed to catch.
            blend = (float(rng.uniform(0.45, 0.55)) if i < n_ambiguous
                     else float(cls))
            length_s = float(rng.uniform(9.0, max_len))
            n = int(round(length_s * fs))
            x = rng.normal(0.0, 0.03, n)
            _synth_segment(x, rng, fs, 0.0, length_s, blend)
            if rng.random() < 0.25:
                x = -x
            records.append(SignalRecord(
                id=f"{prefix}{i:04d}",
                sampling_rate=fs,
                samples=x.astype(np.float32),
                target=float(cls),
                rhythm=RhythmAnnotation(cls, ()),
            ))
    return records


def synth_generate_changepoints(n_records: int, seed: int = 0
                                ) -> list[SignalRecord]:
    """Recordings whose rhythm switches between the two pure morphologies.

    Record lengths are uniform in [14 s, 24 s]. Each record carries 1 to 3
    annotated change indices with alternating tags, and every segment is
    at least 2.5 s long; the record target is the overall AF sample
    fraction.
    """
    if n_records < 1:
        raise UsageError(f"n_records must be >= 1, got {n_records}")
    _require_seed(seed)
    fs = SYNTH_SAMPLING_RATE
    min_segment_s = 2.5
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_records):
        length_s = float(rng.uniform(14.0, 24.0))
        n = int(round(length_s * fs))
        n_cp = int(rng.integers(1, 4))
        cuts = None
        for _ in range(200):
            cand = np.sort(rng.uniform(min_segment_s, length_s - min_segment_s,
                                       size=n_cp))
            gaps = np.diff(np.concatenate(([0.0], cand, [length_s])))
            if (gaps >= min_segment_s).all():
                cuts = cand
                break
        if cuts is None:
            cuts = np.linspace(0.0, length_s, n_cp + 2)[1:-1]
        initial = int(rng.integers(0, 2))
        bounds_s = [0.0, *cuts.tolist(), length_s]
        tags = [(initial + k) % 2 for k in range(len(bounds_s) - 1)]
        x = rng.normal(0.0, 0.03, n)
        for seg_start, seg_end, tag in zip(bounds_s[:-1], bounds_s[1:], tags):
            _synth_segment(x, rng, fs, seg_start, seg_end, float(tag))
        changepoints = tuple(
            (min(n - 1, int(round(c * fs))), tags[k + 1])
            for k, c in enumerate(cuts)
        )
        sample_bounds = [0, *(idx for idx, _ in changepoints), n]
        af_samples = sum(hi - lo for lo, hi, tag
                         in zip(sample_bounds[:-1], sample_bounds[1:], tags)
                         if tag == 1)
        records.append(SignalRecord(
            id=f"cp{i:04d}",
            sampling_rate=fs,
            samples=x.astype(np.float32),
            target=af_samples / n,
            rhythm=RhythmAnnotation(initial, changepoints),
        ))
    return records
