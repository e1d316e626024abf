"""Dataset ingestion, crop sampling, and synthetic signal generation.

On-disk layout: a CSV manifest (`id,path,target,split`) next to one binary
file per recording. The record format is little-endian throughout:

    magic "BGS1" | u32 version | f64 sampling_rate | u64 n_samples |
    n_samples * f32 samples | u8 initial rhythm tag | u32 n_changepoints |
    per changepoint: u64 sample index + u8 tag (0 normal, 1 AF)

A changepoint's tag applies from its index onward; the leading byte tags
the stretch before the first changepoint. The file ends at its last
changepoint. One reader, `BinaryReader`, serves both binary formats, the
record and the checkpoint (see `model.load_checkpoint`).

Records, rhythm annotations and manifest entries check themselves when
built (ValueError) and cannot change after; the readers report a broken
rule as DataError naming the file, so the writer and the reader share
every rule.

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
import posixpath
import struct
from dataclasses import dataclass
from functools import cached_property
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


def _read_only(samples: np.ndarray) -> np.ndarray:
    """samples, marked read-only: a fresh array handed to SignalRecord,
    which keeps such an array without a copy."""
    samples.setflags(write=False)
    return samples


@dataclass(frozen=True, eq=False)
class SignalRecord:
    """One recording: samples, rate, target and rhythm annotation.
    A record compares and hashes by identity, as its array field cannot
    be compared as a truth value.

    A record built without an annotation (`rhythm=None`) carries its
    class's constant one, `RhythmAnnotation(hard_label(target))`, the
    annotation its file stores, so it equals its own round trip through
    `write_record` and `read_record`. The filled-in annotation is then
    the record's own: `dataclasses.replace(r, target=...)` keeps it.

    `samples` is a read-only C-contiguous float32 array that the record
    owns. A writable array is copied, so its owner may go on writing into
    it; an array already marked read-only is kept without a copy when it
    is float32 and contiguous (read_record and the generators hand over
    such fresh arrays), marking it read-only being its owner's promise
    not to write into it.
    """

    id: str
    sampling_rate: float
    samples: np.ndarray
    target: float
    rhythm: RhythmAnnotation | None = None

    def __post_init__(self):
        given = self.samples
        owned = isinstance(given, np.ndarray) and not given.flags.writeable
        samples = np.array(given, dtype=np.float32, order="C",
                           copy=None if owned else True)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"record {self.id!r}: samples must be 1-D, "
                             f"got shape {samples.shape}")
        if samples.size == 0:
            raise ValueError(f"record {self.id!r}: samples are empty")
        # A NaN makes both extremes NaN, so the peak is NaN too.
        peak = max(-samples.min(), samples.max())
        if not np.isfinite(peak):
            raise ValueError(f"record {self.id!r}: samples hold NaN or inf")
        if peak > MAX_ABS_SAMPLE:
            raise ValueError(f"record {self.id!r}: sample magnitude {peak:.3g} "
                             f"exceeds {MAX_ABS_SAMPLE:.0e}")
        if not (0 < self.sampling_rate < math.inf):
            raise ValueError(f"record {self.id!r}: sampling rate must be finite "
                             f"and positive, got {self.sampling_rate}")
        if not (0.0 <= self.target <= 1.0):
            raise ValueError(f"record {self.id!r}: target {self.target} outside [0,1]")
        if self.rhythm is None:
            object.__setattr__(self, "rhythm",
                               RhythmAnnotation(hard_label(self.target)))
        cps = self.rhythm.changepoints
        if cps and (cps[0][0] < 0 or cps[-1][0] >= samples.size):
            raise ValueError(
                f"record {self.id!r}: changepoint outside [0, {samples.size})"
            )

    def __len__(self) -> int:
        return int(self.samples.size)

    @cached_property
    def orientation(self) -> tuple[np.float32, bool]:
        """(median, flipped): the float32 sample median, and whether the
        median-removed samples are negated so the dominant peak points up
        (|min| > |max| after removing the median; ties stay unflipped)."""
        samples = self.samples
        med = np.float32(np.median(samples))
        # Subtracting a constant rounds monotonically, so the extremes
        # of the centered samples are the centered extremes.
        return med, bool(abs(samples.min() - med) > abs(samples.max() - med))

    def oriented(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The oriented samples[lo:hi]: median removed, negated if flipped."""
        med, flipped = self.orientation
        window = self.samples[lo:hi] - med
        if flipped:
            np.negative(window, out=window)
        return window


@dataclass(frozen=True)
class ManifestEntry:
    """A record's place in a dataset; its target lives on the record.
    It checks the rules its manifest row needs to load back as itself."""

    id: str
    path: str
    split: str

    def __post_init__(self):
        if self.id.startswith("#"):
            raise ValueError(f"record id {self.id!r} starts with '#', so its "
                             f"manifest row would read as a comment")
        if "\n" in self.id or "\r" in self.id:
            raise ValueError(f"record id {self.id!r} holds a line break")
        if "\n" in self.path or "\r" in self.path:
            raise ValueError(f"record path {self.path!r} for {self.id!r} "
                             f"holds a line break")
        # A string check, so no filesystem call per record.
        if (os.path.isabs(self.path)
                or ".." in self.path.replace("\\", "/").split("/")):
            raise ValueError(f"record path {self.path!r} for {self.id!r} "
                             f"leaves the dataset directory")
        if self.split not in ("train", "val"):
            raise ValueError(f"unknown split {self.split!r} for {self.id!r}")


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset's entries, each id and each record file once, and the
    seed that split them.
    `write_dataset` writes the seed as a comment, a note for people that
    `load_dataset` does not read, so a loaded manifest's seed is None."""

    entries: tuple[ManifestEntry, ...]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        ids = set()
        owners = {}
        for entry in self.entries:
            if entry.id in ids:
                raise ValueError(f"duplicate record id {entry.id!r}")
            ids.add(entry.id)
            # Two spellings of one file ("r.bgs", "./r.bgs", "x//r.bgs")
            # would have the later record written over the earlier one. A
            # string check, so no filesystem call per record.
            key = posixpath.normpath(entry.path.replace("\\", "/"))
            if key in owners:
                raise ValueError(f"records {owners[key]!r} and {entry.id!r} "
                                 f"share the record file {key!r}")
            owners[key] = entry.id


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


@dataclass(eq=False)
class CropBatch:
    crops: np.ndarray          # (batch, 1, crop_len) float32
    targets: np.ndarray        # (batch,) float64


@dataclass(frozen=True)
class AugmentConfig:
    """The range of the random resampling factor of training crops."""

    resample_min: float = 0.8
    resample_max: float = 1.25


# -- record I/O --------------------------------------------------------------

# The record layout: the fixed fields before the samples (magic, version,
# sampling rate, sample count), the two after them (initial tag,
# changepoint count) and one changepoint (index, tag).
_RECORD_HEAD = struct.Struct("<4sIdQ")
_RECORD_TAIL = struct.Struct("<BI")
_CHANGEPOINT = struct.Struct("<QB")


def write_record(path, record: SignalRecord) -> None:
    """Write one record file, annotation included (a record built without
    one carries its class's constant annotation, so that is what its file
    stores)."""
    rhythm = record.rhythm
    with open(path, "wb") as fh:
        fh.write(_RECORD_HEAD.pack(RECORD_MAGIC, RECORD_VERSION,
                                   float(record.sampling_rate),
                                   record.samples.size))
        fh.write(np.ascontiguousarray(record.samples, dtype="<f4").tobytes())
        fh.write(_RECORD_TAIL.pack(rhythm.initial_tag, len(rhythm.changepoints)))
        for changepoint in rhythm.changepoints:
            fh.write(_CHANGEPOINT.pack(*changepoint))


def open_input(path, what: str,
               error: type[DataError | UsageError] = DataError, *,
               mode: str = "rb", newline: str | None = None):
    """Open a file the user named (a record, a manifest, a checkpoint, a
    config file); a text-mode file is decoded as UTF-8, skipping a leading
    byte-order mark.

    Every reason the file cannot be opened raises `error`: a missing file
    as "<what> missing: <path>", anything else (a directory, no
    permission, a NUL byte in the path) with the system's reason.
    """
    encoding = None if "b" in mode else "utf-8-sig"
    try:
        return open(path, mode, encoding=encoding, newline=newline)
    except FileNotFoundError as exc:
        raise error(f"{what} missing: {path}") from exc
    except OSError as exc:
        raise error(f"cannot open {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise error(f"cannot open {what} {str(path)!r}: {exc}") from exc


class BinaryReader:
    """Little-endian fields from a binary file opened at byte 0, for both
    binary formats: the record (`read_record`) and the checkpoint
    (`model.load_checkpoint`).

    Every declared length is checked against the bytes left in the file
    before it is read, because fh.read(n) allocates n bytes up front: a
    corrupt length field raises DataError naming the file instead of
    exhausting memory. `end` checks that nothing follows the last field.
    """

    def __init__(self, fh):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size

    def _claim(self, n: int, what: str) -> None:
        if n > self._left:
            raise DataError(f"{self._fh.name}: truncated while reading {what}")
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
            raise DataError(f"{self._fh.name}: truncated while reading {what}")
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def end(self, what: str) -> None:
        """Raise DataError unless the file ends here, after what."""
        if self._left:
            raise DataError(
                f"{self._fh.name}: {self._left} trailing bytes after {what}")


def read_record(path, record_id: str, target: float) -> SignalRecord:
    """Read one record file. The file must end at its last changepoint:
    a file too short for the counts its fields declare, or with bytes
    after its last field, raises DataError, as does a bad magic, version
    or field value. Each declared count is checked against the bytes
    left in the file before anything is allocated for it."""
    with open_input(path, "record file") as fh:
        reader = BinaryReader(fh)
        magic, version, rate, count = reader.unpack(_RECORD_HEAD.format, "header")
        if magic != RECORD_MAGIC:
            raise DataError(f"{path}: malformed header (magic {magic!r})")
        if version != RECORD_VERSION:
            raise DataError(f"{path}: unsupported record version {version}")
        samples = _read_only(reader.read_f32(count, f"{count} samples"))
        initial_tag, n_cp = reader.unpack(_RECORD_TAIL.format,
                                        "the changepoint count")
        what = f"{n_cp} changepoints"
        cps = tuple(_CHANGEPOINT.iter_unpack(
            reader.read(n_cp * _CHANGEPOINT.size, what)))
        reader.end(what)
    try:
        rhythm = RhythmAnnotation(initial_tag, cps)
        return SignalRecord(record_id, rate, samples, target, rhythm)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_dataset(records: list[SignalRecord], manifest: DatasetManifest,
                  out_dir) -> None:
    """Write each entry's record file, then out_dir/manifest.csv, so a
    failed write leaves no manifest naming missing files. An entry with
    no record raises UsageError before anything is written."""
    by_id = {r.id: r for r in records}
    for entry in manifest.entries:
        if entry.id not in by_id:
            raise UsageError(f"manifest entry {entry.id!r} has no record")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for parent in {(out_dir / entry.path).parent for entry in manifest.entries}:
        parent.mkdir(parents=True, exist_ok=True)
    for entry in manifest.entries:
        write_record(out_dir / entry.path, by_id[entry.id])
    with open(out_dir / "manifest.csv", "w", encoding="utf-8", newline="") as fh:
        if manifest.seed is not None:
            fh.write(f"# split_seed={manifest.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "target", "split"])
        for entry in manifest.entries:
            writer.writerow([entry.id, entry.path,
                             _format_target(by_id[entry.id].target), entry.split])


def _format_target(t: float) -> str:
    if t == 0.0:
        return "0"
    if t == 1.0:
        return "1"
    return repr(float(t))


def load_dataset(manifest_path) -> Dataset:
    """Parse a UTF-8 manifest into its entries, then read every record
    they reference. Lines starting with "#" and blank lines are skipped
    unread."""
    manifest_path = Path(manifest_path)
    with open_input(manifest_path, "manifest", mode="r", newline="") as fh:
        try:
            lines = [line for line in fh if not line.startswith("#")]
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{manifest_path}: not UTF-8 text ({exc.reason})") from exc
    try:
        rows = [row for row in csv.reader(lines) if row]
    except csv.Error as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["id", "path", "target", "split"]:
        raise DataError(
            f"{manifest_path}: expected header id,path,target,split, got {header}"
        )
    if len(rows) == 1:
        raise UsageError(f"{manifest_path}: no records in manifest")
    entries = []
    targets = []
    try:
        for row in rows[1:]:
            if len(row) != 4:
                raise DataError(f"{manifest_path}: malformed row {row!r}")
            rec_id, rel_path, target_s, split = row
            try:
                target = float(target_s)
            except ValueError as exc:
                raise DataError(f"{manifest_path}: bad target {target_s!r} "
                                f"for {rec_id!r}") from exc
            if not (0.0 <= target <= 1.0):
                raise DataError(f"{manifest_path}: target {target} for "
                                f"{rec_id!r} outside [0,1]")
            entries.append(ManifestEntry(rec_id, rel_path, split))
            targets.append(target)
        manifest = DatasetManifest(entries)
    except ValueError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    records = [read_record(manifest_path.parent / entry.path, entry.id, target)
               for entry, target in zip(manifest.entries, targets)]
    return Dataset(records, manifest)


# -- signal operations -------------------------------------------------------


def orient_signal(r: SignalRecord) -> np.ndarray:
    """The record's samples with dominant peaks pointing up, as a new
    float32 array; the record is left as it is.

    Removes the sample median, then negates iff |min| > |max| afterwards
    (ties stay unflipped). The median and the flip are computed once per
    record, on first use, and shared with the crop samplers. It stays a
    module-level function rather than a bare `r.oriented()` call in
    `predict` because perfbench wraps it to time orientation (`data.orient`).
    """
    return r.oriented()


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
    are symmetric-edge-padded.

    Every crop is byte-identical to orienting the whole record, resampling
    all of it and cutting the window, but only the window is computed: the
    record's orientation is computed once, on first use, and each crop
    interpolates just its own positions. At factor 1 those positions are
    the knots themselves, which interpolation returns exactly.
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
    half = batch_size // 2
    for i in range(batch_size):
        pool = by_class[0] if i < half else by_class[1]
        record = pool[int(rng.integers(len(pool)))]
        n = len(record)
        factor = 1.0
        if augment is not None:
            factor = float(rng.uniform(augment.resample_min, augment.resample_max))
        new_n = max(1, int(round(n * factor)))
        start = int(rng.integers(max(new_n - crop_len, 0) + 1))
        window = _resample_window(record, factor, start, min(new_n, crop_len))
        crops[i, 0, :] = pad_to_length(window, crop_len)
        targets[i] = record.target
    return CropBatch(crops, targets)


def soft_target_for_segment(r: SignalRecord, start: int, length: int) -> float:
    """Fraction of samples in [start, start+length) whose rhythm tag is AF.
    A record built without an annotation has its class's constant one, so
    every segment of it reads 0.0 or 1.0, as after a file round trip."""
    if length < 1 or start < 0 or start + length > len(r):
        raise UsageError(
            f"segment [{start}, {start + length}) outside record of length {len(r)}"
        )
    return _af_fraction(r.rhythm, len(r), start, length)


def _af_fraction(rhythm: RhythmAnnotation, n: int, start: int,
                 length: int) -> float:
    """Fraction of samples in [start, start+length) of an n-sample record
    whose rhythm tag is AF."""
    boundaries = [0] + [idx for idx, _ in rhythm.changepoints] + [n]
    tags = [rhythm.initial_tag] + [tag for _, tag in rhythm.changepoints]
    end = start + length
    af = 0
    for seg_start, seg_end, tag in zip(boundaries[:-1], boundaries[1:], tags):
        if tag == 1:
            af += max(0, min(end, seg_end) - max(start, seg_start))
    return af / length


def has_changepoint_crops(r: SignalRecord, crop_len: int) -> bool:
    """Whether the changepoint sampler can draw crop_len windows from r:
    it has annotated changepoints and is at least one crop long."""
    return bool(r.rhythm.changepoints) and len(r) >= crop_len


def sample_changepoint_batch(records: list[SignalRecord], batch_size: int,
                             crop_len: int, rng: np.random.Generator) -> CropBatch:
    """Batch of soft-labeled crop_len windows drawn around rhythm
    changepoints, from the records that `has_changepoint_crops` admits.

    Each window draws, in this order, a record uniformly from those
    records, one of its changepoints uniformly, and the changepoint's
    offset inside the window uniformly from [0, crop_len). The start is
    then clamped so the window stays within the record. A crop is the
    oriented window, and its target is the window's AF fraction
    (`soft_target_for_segment`).
    """
    usable = [r for r in records if has_changepoint_crops(r, crop_len)]
    if not usable:
        raise UsageError("no records with changepoint annotations and enough length")
    crops = np.empty((batch_size, 1, crop_len), dtype=np.float32)
    targets = np.empty(batch_size, dtype=np.float64)
    for i in range(batch_size):
        record = usable[int(rng.integers(len(usable)))]
        cps = record.rhythm.changepoints
        cp = cps[int(rng.integers(len(cps)))][0]
        offset = int(rng.integers(crop_len))
        start = min(max(cp - offset, 0), len(record) - crop_len)
        crops[i, 0, :] = record.oriented(start, start + crop_len)
        targets[i] = soft_target_for_segment(record, start, crop_len)
    return CropBatch(crops, targets)


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
    entries = [ManifestEntry(r.id, f"records/{r.id}.bgs", split_of[r.id])
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
    This is a contract: the ambiguous records are the first
    round(ambiguous_fraction * n_per_class) of each class, in id order
    (no0000, no0001, ... and af0000, af0001, ...).
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
                samples=_read_only(x.astype(np.float32)),
                target=float(cls),
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
        rhythm = RhythmAnnotation(initial, changepoints)
        records.append(SignalRecord(
            id=f"cp{i:04d}",
            sampling_rate=fs,
            samples=_read_only(x.astype(np.float32)),
            target=_af_fraction(rhythm, n, 0, n),
            rhythm=rhythm,
        ))
    return records
