"""End-to-end CLI behavior: artifact layout, determinism, exit codes.

Commands run in-process through main(argv) so exit codes and file output
are observable without subprocess overhead.
"""

import dataclasses
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from betamix.betadist import BetaParams, beta_log_pdf
from betamix.cli import DENSITY_GRID_EPS, DENSITY_MAX_CONCENTRATION, main
from betamix.config import RunConfig, parse_config
from betamix.data import (
    DatasetManifest,
    ManifestEntry,
    load_dataset,
    split_dataset,
    synth_generate,
    synth_generate_changepoints,
    write_dataset,
)
from betamix.model import load_checkpoint, save_checkpoint
from conftest import rewrite_checkpoint_header

TINY_SEED0_CHECKPOINT = Path(__file__).parent / "data" / "tiny_seed0.bgc"

TRAIN_CONFIG = """
arch_preset = tiny
batch_size = 8
learning_rate = 0.003
epochs = 2
seed = 7
augment = true
"""


def write_config(tmp_path, text=TRAIN_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def synth_dataset(tmp_path, name="data", n=3, seed=7):
    out = tmp_path / name
    code = main(["synth", "--out", str(out), "--n-per-class", str(n),
                 "--seed", str(seed)])
    assert code == 0
    return out


def dir_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynth:
    def test_manifest_row_count(self, tmp_path):
        data = synth_dataset(tmp_path, n=10)
        lines = (data / "manifest.csv").read_text().strip().split("\n")
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 20

    def test_same_seed_byte_identical(self, tmp_path):
        a = synth_dataset(tmp_path, name="a", seed=3)
        b = synth_dataset(tmp_path, name="b", seed=3)
        assert dir_bytes(a) == dir_bytes(b)

    def test_zero_records_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d"),
                     "--n-per-class", "0", "--seed", "1"]) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"),
                     "--n-per-class", "3", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestTrain:
    def test_smoke_writes_loadable_checkpoint_and_log(self, tmp_path):
        data = synth_dataset(tmp_path)
        config = write_config(tmp_path)
        ckpt = tmp_path / "model.bgc"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(ckpt)]) == 0
        model = load_checkpoint(ckpt)
        assert model.spec.preset_name == "tiny"
        log = json.loads((tmp_path / "model.bgc.train_log.json").read_text())
        assert len(log["epochs"]) == 2
        assert log["config"]["seed"] == 7

    def test_zero_epochs_writes_initialized_model(self, tmp_path):
        data = synth_dataset(tmp_path)
        config = write_config(tmp_path, TRAIN_CONFIG.replace("epochs = 2",
                                                             "epochs = 0"))
        ckpt = tmp_path / "init.bgc"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(ckpt)]) == 0
        log = json.loads((tmp_path / "init.bgc.train_log.json").read_text())
        assert log["epochs"] == []
        load_checkpoint(ckpt)

    def test_same_seed_identical_checkpoint_bytes(self, tmp_path):
        data = synth_dataset(tmp_path)
        config = write_config(tmp_path)
        c1, c2 = tmp_path / "m1.bgc", tmp_path / "m2.bgc"
        main(["train", "--config", str(config), "--data", str(data),
              "--out", str(c1)])
        main(["train", "--config", str(config), "--data", str(data),
              "--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path):
        data = synth_dataset(tmp_path)
        config = write_config(tmp_path, "arch_preset = tiny\nbogus_key = 1\n")
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "m.bgc")]) == 1

    def test_config_byte_order_mark_accepted(self, tmp_path):
        """A config saved with a leading UTF-8 byte-order mark, as some
        editors save it, parses equal to the plain file, as a manifest
        with one loads; it exited 1 with unknown config key
        '\\ufeffarch_preset'."""
        plain = write_config(tmp_path, TRAIN_CONFIG.lstrip())
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(marked) == parse_config(plain)

    def test_soft_target_dataset_round_trips_and_trains(self, tmp_path):
        """A changepoint dataset's fractional targets are written with
        repr, so every target reads back bit for bit, and `train` with
        soft_targets = true runs on the directory."""
        records = synth_generate_changepoints(10, seed=3)
        assert any(0.0 < r.target < 1.0 for r in records)
        data = tmp_path / "data"
        write_dataset(records, split_dataset(records, 0.8, seed=3), data)
        loaded = load_dataset(data / "manifest.csv").records
        assert [struct.pack("<d", r.target) for r in loaded] == \
               [struct.pack("<d", r.target) for r in records]
        config = write_config(tmp_path, "arch_preset = tiny\nbatch_size = 8\n"
                                        "epochs = 1\nsoft_targets = true\n")
        ckpt = tmp_path / "m.bgc"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(ckpt)]) == 0
        log = json.loads((tmp_path / "m.bgc.train_log.json").read_text())
        assert log["config"]["soft_targets"] is True
        assert len(log["epochs"]) == 1

    def test_missing_data_is_data_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "m.bgc")]) == 2

    def test_missing_out_directory_fails_before_training(self, tmp_path, capsys,
                                                         monkeypatch):
        """An --out in a directory that does not exist, naming an existing
        directory, or whose training log path is an existing directory,
        exits 2 naming that directory, before the dataset is read or a
        step is trained; each once exited 2 only at the save or the log
        write, after the whole run."""
        def no_train(*args, **kwargs):
            raise AssertionError("train ran")
        monkeypatch.setattr("betamix.cli.train", no_train)
        data = synth_dataset(tmp_path)
        config = write_config(tmp_path)
        (tmp_path / "taken").mkdir()
        (tmp_path / "m.bgc.train_log.json").mkdir()
        for out, named in ((tmp_path / "nodir" / "m.bgc", tmp_path / "nodir"),
                           (tmp_path / "taken", tmp_path / "taken"),
                           (tmp_path / "m.bgc", tmp_path / "m.bgc.train_log.json")):
            assert main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1, err
            assert str(named) in err

    HOSTILE_CONFIGS = {
        "not_utf8": TRAIN_CONFIG.encode() + b"# \xff\n",
        "learning_rate_nan": TRAIN_CONFIG.replace(
            "learning_rate = 0.003", "learning_rate = nan").encode(),
        "learning_rate_inf": TRAIN_CONFIG.replace(
            "learning_rate = 0.003", "learning_rate = inf").encode(),
        "learning_rate_1e30": TRAIN_CONFIG.replace(
            "learning_rate = 0.003", "learning_rate = 1e30").encode(),
        "label_eps_1e-300": f"{TRAIN_CONFIG}label_eps = 1e-300\n".encode(),
        "batch_size_10**12": TRAIN_CONFIG.replace(
            "batch_size = 8", "batch_size = 1000000000000").encode(),
        "seed_twice": f"{TRAIN_CONFIG}seed = 7\n".encode(),
        "line_without_equals": f"{TRAIN_CONFIG}epochs 2\n".encode(),
        "augment_maybe": TRAIN_CONFIG.replace(
            "augment = true", "augment = maybe").encode(),
        "arch_preset_huge": TRAIN_CONFIG.replace(
            "arch_preset = tiny", "arch_preset = huge").encode(),
    }

    # What each message must name, where the case names something. A
    # non-finite rate is refused as text, before its domain check.
    HOSTILE_CONFIG_MESSAGES = {
        "learning_rate_nan": ["run.cfg:4: bad value 'nan' for key 'learning_rate'"],
        "learning_rate_inf": ["run.cfg:4: bad value 'inf' for key 'learning_rate'"],
        "learning_rate_1e30": ["learning_rate must be in [0, 1], got 1e+30"],
        "label_eps_1e-300": ["run.cfg:8: unknown config key 'label_eps'"],
        "seed_twice": ["run.cfg:8: duplicate config key 'seed'"],
        "line_without_equals": ["run.cfg:8: expected key=value, got 'epochs 2'"],
        "augment_maybe": ["'augment'", "'maybe'"],
        "arch_preset_huge": ["arch_preset must be one of ['paper', 'tiny'], "
                             "got 'huge'"],
    }

    @pytest.mark.parametrize("case", HOSTILE_CONFIGS)
    def test_hostile_config_is_usage_error(self, tmp_path, capsys, case):
        """A config file that does not decode, holds a non-finite number,
        asks for a learning rate above 1, names a key that is no longer a
        setting, asks for a batch larger than an epoch's worth of crops,
        repeats a key, has a line without `=`, gives a boolean setting a
        value that is no boolean or names an unknown preset exits 1 before
        any compute: no traceback, MemoryError or internal error."""
        data = synth_dataset(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_bytes(self.HOSTILE_CONFIGS[case])
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "m.bgc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for named in self.HOSTILE_CONFIG_MESSAGES.get(case, []):
            assert named in err, err

    @pytest.mark.parametrize("line, setting", [
        ("learning_rate = 1", {"learning_rate": 1.0}),
        ("learning_rate = 1e-3", {"learning_rate": 0.001}),
        ("learning_rate = 0.5", {"learning_rate": 0.5}),
        ("batch_size = 8", {"batch_size": 8}),
        ("epochs = 0", {"epochs": 0}),
        ("arch_preset = tiny", {"arch_preset": "tiny"}),
        *((f"soft_targets = {text}", {"soft_targets": True})
          for text in ("true", "1", "yes", "on", "TRUE", " On ")),
        *((f"augment = {text}", {"augment": False})
          for text in ("false", "0", "no", "off", "FALSE", " Off "))])
    def test_accepted_values_parse(self, tmp_path, line, setting):
        """Every accepted spelling of each setting's type reads as that
        value, with the setting's type: an int learning rate is a float,
        and the false spellings read as False."""
        config = parse_config(write_config(tmp_path, f"{line}\n"))
        assert config == RunConfig(**setting)
        for name, value in setting.items():
            assert type(getattr(config, name)) is type(value)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One dataset + checkpoint shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = synth_dataset(root)
    config = write_config(root)
    ckpt = root / "model.bgc"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(ckpt)]) == 0
    return root, data, ckpt


class TestPredict:
    def test_line_count_and_schema(self, trained, tmp_path):
        root, data, ckpt = trained
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        for line in lines:
            obj = json.loads(line)
            assert obj["uncertainty"] == pytest.approx(4.0 * obj["variance"],
                                                       rel=1e-12)
            assert obj["class"] in (0, 1)

    def test_id_filter(self, trained, tmp_path):
        root, data, ckpt = trained
        out = tmp_path / "one.jsonl"
        assert main(["predict", "--model", str(ckpt), "--data", str(data),
                     "--ids", "no0000", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == "no0000"

    def test_rerun_byte_identical(self, trained, tmp_path):
        root, data, ckpt = trained
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        main(["predict", "--model", str(ckpt), "--data", str(data),
              "--out", str(out1)])
        main(["predict", "--model", str(ckpt), "--data", str(data),
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_id_is_data_error(self, trained, tmp_path):
        root, data, ckpt = trained
        assert main(["predict", "--model", str(ckpt), "--data", str(data),
                     "--ids", "ghost", "--out", str(tmp_path / "x.jsonl")]) == 2

    # Checkpoints that parse but must be refused: the format version 1,
    # and a negative running variance in the stem's and in a block's
    # batch norm (which made the head emit NaN and exit 3).
    CHECKPOINT_REFUSALS = ("version_1", "stem_running_var_-1",
                           "block_running_var_-2")

    HEADER_EDITS = {
        "header_bn_momentum_9.1": lambda m: {**m, "bn_momentum": 9.1},
        "header_stem_kernel_0": lambda m: {
            **m, "spec": {**m["spec"], "stem": [0, *m["spec"]["stem"][1:]]}},
        "header_not_object": lambda m: [m],
        # float() of a 400-digit integer raises OverflowError.
        "header_bn_eps_10**400": lambda m: {**m, "bn_eps": 10**400},
        "header_bn_eps_-1": lambda m: {**m, "bn_eps": -1.0},
        "header_bn_eps_1e-3": lambda m: {**m, "bn_eps": 1e-3},
        "header_stem_channels_2**40": lambda m: {
            **m, "spec": {**m["spec"], "stem": [5, 2**40, 2]}},
        "header_group_channels_3000": lambda m: {
            **m, "spec": {**m["spec"],
                          "groups": [[1, 4, 3], [1, 3000, 3]]}},
        "header_preset_unknown": lambda m: {
            **m, "spec": {**m["spec"], "preset_name": "custom"}},
    }

    @pytest.mark.parametrize("case", [
        "missing_model", "dim_2**31", "count_2**34", "count_2**61",
        "model_is_directory", "record_is_directory", "nan_sample",
        "sample_3e38", "rate_inf", "nan_weight", "manifest_not_utf8",
        "manifest_path_parent", "manifest_path_absolute", "manifest_path_nul",
        "manifest_path_shared", "manifest_field_200000", "model_twice",
        "record_trailing_garbage", "record_version_2", "manifest_row_5_fields",
        "header_nested_100000", *HEADER_EDITS, *CHECKPOINT_REFUSALS])
    def test_hostile_files_are_data_errors(self, trained, tmp_path, capsys,
                                           case):
        """A missing or directory input, a length field declaring far more
        bytes than the file holds, a NaN sample or weight, an infinite
        sampling rate, a finite sample
        above MAX_ABS_SAMPLE (one that overflowed the network), a malformed
        checkpoint header (including one that names no preset, changes a
        preset's sizes or nests too deeply to parse), a manifest that is not UTF-8, a manifest path
        leading out of the dataset directory or holding a NUL byte, two manifest rows naming
        one record file, a manifest field beyond the
        csv module's 131072-character limit, a manifest row with a fifth
        field, a record of an unsupported version, or a checkpoint or record
        with bytes after its last field exits 2 with a one-line data
        error: no traceback, MemoryError, OverflowError or internal
        error. A version-1 checkpoint or a negative batch-norm running
        variance exits 2 from eval and density too."""
        _, data, ckpt = trained
        model = Path(shutil.copy(ckpt, tmp_path / "model.bgc"))
        data = Path(shutil.copytree(data, tmp_path / "data"))
        record = sorted((data / "records").iterdir())[0]
        if case == "missing_model":
            model.unlink()
        elif case.endswith("_is_directory"):
            path = model if case == "model_is_directory" else record
            path.unlink()
            path.mkdir()
        elif case in ("dim_2**31", "nan_weight"):
            blob = bytearray(model.read_bytes())
            (meta_len,) = struct.unpack_from("<I", blob, 8)
            (name_len,) = struct.unpack_from("<I", blob, 12 + meta_len + 4)
            rank_at = 12 + meta_len + 4 + 4 + name_len
            if case == "dim_2**31":
                struct.pack_into("<I", blob, rank_at + 4, 2**31)
            else:
                (rank,) = struct.unpack_from("<I", blob, rank_at)
                struct.pack_into("<f", blob, rank_at + 4 + 4 * rank, float("nan"))
            model.write_bytes(bytes(blob))
        elif case == "version_1":
            blob = bytearray(model.read_bytes())
            struct.pack_into("<I", blob, 4, 1)
            model.write_bytes(bytes(blob))
        elif "_running_var_" in case:
            net = load_checkpoint(model)
            bn = net.stem_bn if case.startswith("stem") else net.groups[0][0].bn1
            bn.running_var[0] = float(case.rsplit("_", 1)[1])
            save_checkpoint(net, model)
        elif case in self.HEADER_EDITS:
            rewrite_checkpoint_header(model, self.HEADER_EDITS[case])
        elif case == "header_nested_100000":
            # json.dumps cannot build this header, so write its bytes.
            blob = model.read_bytes()
            (meta_len,) = struct.unpack_from("<I", blob, 8)
            model.write_bytes(blob[:8] + struct.pack("<I", 100000) + b"[" * 100000
                              + blob[12 + meta_len:])
        elif case == "model_twice":
            model.write_bytes(model.read_bytes() * 2)
        elif case == "record_trailing_garbage":
            record.write_bytes(record.read_bytes() + b"garbage")
        elif case == "manifest_row_5_fields":
            manifest = data / "manifest.csv"
            lines = manifest.read_text(encoding="utf-8").splitlines()
            (row,) = [i for i, line in enumerate(lines) if line.startswith("no0000,")]
            lines[row] += ",extra"
            manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        elif case == "manifest_field_200000":
            manifest = data / "manifest.csv"
            text = manifest.read_text(encoding="utf-8")
            assert "\nno0000," in text
            manifest.write_text(text.replace("\nno0000,", "\n" + "x" * 200000 + "no0000,"),
                                encoding="utf-8")
        elif case == "manifest_not_utf8":
            (data / "manifest.csv").write_bytes(b"\xff\xfe\x00garbage")
        elif case.startswith("manifest_path_"):
            # The named file exists, so only the containment check stops it;
            # a NUL byte makes open() raise ValueError, not OSError.
            rel = record.relative_to(data).as_posix()
            if case == "manifest_path_parent":
                shutil.copytree(record.parent, tmp_path / "secret")
                path = f"../secret/{record.name}"
            elif case == "manifest_path_nul":
                path = rel.replace(".bgs", "\x00.bgs")
            elif case == "manifest_path_shared":
                # The next record's row names this record's file.
                other = sorted((data / "records").iterdir())[1]
                rel, path = other.relative_to(data).as_posix(), f"./{rel}"
            else:
                path = str(record)
            manifest = data / "manifest.csv"
            text = manifest.read_text(encoding="utf-8")
            assert rel in text
            manifest.write_text(text.replace(rel, path), encoding="utf-8")
        else:
            blob = bytearray(record.read_bytes())
            if case == "nan_sample":
                struct.pack_into("<f", blob, 24, float("nan"))
            elif case == "sample_3e38":
                struct.pack_into("<f", blob, 24, 3e38)
            elif case == "rate_inf":
                struct.pack_into("<d", blob, 8, float("inf"))
            elif case == "record_version_2":
                struct.pack_into("<I", blob, 4, 2)
            else:
                struct.pack_into("<Q", blob, 16, 2 ** int(case.split("**")[1]))
            record.write_bytes(bytes(blob))
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        if case == "manifest_field_200000":
            assert "manifest.csv: field larger than field limit" in err, err
        if case == "manifest_path_shared":
            assert "share the record file" in err, err
        if case in ("model_twice", "record_trailing_garbage"):
            assert "trailing bytes after" in err, err
        if case == "record_version_2":
            assert f"{record}: unsupported record version 2" in err, err
        if case == "manifest_row_5_fields":
            assert "manifest.csv: malformed row ['no0000'," in err, err
        if case == "sample_3e38":
            assert f"record {record.stem!r}: sample magnitude 3e+38" in err, err
        if case == "rate_inf":
            assert "sampling rate must be finite and positive, got inf" in err, err
        if case in self.CHECKPOINT_REFUSALS:
            assert ("retrain" if case == "version_1"
                    else "negative variance") in err, err
            for argv in (["eval", "--keep-fraction", "0.9"],
                         ["density", "--id", record.stem, "--points", "11"]):
                assert main([*argv, "--model", str(model), "--data", str(data),
                             "--out", str(tmp_path / "y.out")]) == 2

    @pytest.mark.parametrize("byte, value, message", [
        (213, 131, "'stem.conv.weight' has rank 131"),
        (236, 0xFF, "the network overflowed")], ids=["rank_131", "weight_byte_236"])
    def test_rewritten_committed_checkpoint_is_a_data_error(
            self, trained, tmp_path, capsys, byte, value, message):
        """The committed tiny checkpoint with the stem weight's rank raised
        to 131 (refused before its dims are read; once a bare ValueError,
        exit 3) or with one stem weight made -3.07e38 (which overflows the
        network; once exit 0 with alpha at the softplus floor for every
        record) exits 2 with a one-line data error."""
        _, data, _ = trained
        blob = bytearray((Path(__file__).parent / "data" / "tiny_seed0.bgc")
                         .read_bytes())
        blob[byte] = value
        model = tmp_path / "model.bgc"
        model.write_bytes(bytes(blob))
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert message in err, err

    @pytest.mark.parametrize("peak, code", [(1e12, 0), (1.1e12, 2)])
    def test_sample_bound_applies_before_centring(self, trained, tmp_path,
                                                   capsys, peak, code):
        """Samples of -peak with every 50th at +peak centre to 2 * peak. A
        record inside MAX_ABS_SAMPLE predicts, however far its median
        removal takes it; a record outside it is still a data error."""
        _, data, ckpt = trained
        data = Path(shutil.copytree(data, tmp_path / "data"))
        record = data / "records" / "no0000.bgs"
        blob = bytearray(record.read_bytes())
        (count,) = struct.unpack_from("<Q", blob, 16)
        samples = np.full(count, -peak, dtype="<f4")
        samples[::50] = peak
        blob[24:24 + 4 * count] = samples.tobytes()
        record.write_bytes(bytes(blob))
        out = tmp_path / "x.jsonl"
        assert main(["predict", "--model", str(ckpt), "--data", str(data),
                     "--ids", "no0000", "--out", str(out)]) == code
        if code == 0:
            (obj,) = [json.loads(line) for line in out.read_text().splitlines()]
            assert np.isfinite([obj["mean"], obj["uncertainty"]]).all()
        else:
            err = capsys.readouterr().err
            assert "'no0000': sample magnitude 1.1e+12 exceeds 1e+12" in err, err

    def test_missing_checkpoint_is_corrupt(self, trained, tmp_path):
        root, data, _ = trained
        missing = tmp_path / "missing.bgc"
        missing.write_bytes(b"JUNKJUNKJUNK")
        assert main(["predict", "--model", str(missing), "--data", str(data),
                     "--out", str(tmp_path / "x.jsonl")]) == 2


class TestEval:
    def test_keep_all_reports_identical(self, trained, tmp_path):
        root, data, ckpt = trained
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--keep-fraction", "1.0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        all_rows = [l.split(",", 1)[1] for l in lines if l.startswith("all,")]
        accepted_rows = [l.split(",", 1)[1] for l in lines
                         if l.startswith("accepted,")]
        assert all_rows == accepted_rows
        # Training validated with predict's own class boundary, so its last
        # epoch's F1 is eval's F1 over all records.
        log = json.loads((root / "model.bgc.train_log.json").read_text())
        overall = all_rows[-1].split(",")
        assert overall[0] == "Overall"
        assert float(overall[-1]) == log["epochs"][-1]["val_macro_f1"]

    def test_layout(self, trained, tmp_path):
        root, data, ckpt = trained
        out = tmp_path / "eval.csv"
        main(["eval", "--model", str(ckpt), "--data", str(data),
              "--keep-fraction", "0.9", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "subset,class,precision,recall,f1"
        classes = [l.split(",")[1] for l in lines[1:7]]
        assert classes == ["A", "NO", "Overall", "A", "NO", "Overall"]
        keys = [l.split(",")[0] for l in lines[7:]]
        assert keys == ["uncertainty_threshold", "n_all", "n_accepted",
                        "misclassified_all", "misclassified_accepted", "aurc",
                        "auroc_uncertainty"]
        assert 0.0 <= float(lines[-2].split(",")[1]) <= 1.0
        auroc = float(lines[-1].split(",")[1])
        assert math.isnan(auroc) or 0.0 <= auroc <= 1.0

    def test_bad_fraction_is_usage_error(self, trained, tmp_path):
        root, data, ckpt = trained
        assert main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--keep-fraction", "0", "--out",
                     str(tmp_path / "e.csv")]) == 1

    def test_no_validation_split_is_usage_error(self, tmp_path, capsys):
        """eval on a dataset whose manifest puts every record in train
        exits 1: there is nothing to evaluate."""
        records = synth_generate(2, crop_budget_s=10.0, seed=1)
        manifest = DatasetManifest([ManifestEntry(r.id, f"records/{r.id}.bgs",
                                                  "train") for r in records])
        write_dataset(records, manifest, tmp_path / "data")
        assert main(["eval", "--model", str(TINY_SEED0_CHECKPOINT),
                     "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "e.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: dataset has no validation split to evaluate\n", err


class TestDensity:
    def test_row_count(self, trained, tmp_path):
        root, data, ckpt = trained
        out = tmp_path / "density.csv"
        assert main(["density", "--model", str(ckpt), "--data", str(data),
                     "--id", "no0000", "--points", "501",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,pdf"
        assert len(lines) == 502

    def test_grid_integrates_to_one(self, trained, tmp_path):
        root, data, ckpt = trained
        out = tmp_path / "density.csv"
        main(["density", "--model", str(ckpt), "--data", str(data),
              "--id", "af0001", "--points", "2001", "--out", str(out)])
        rows = [l.split(",") for l in
                out.read_text().strip().split("\n")[1:]]
        ts = np.array([float(t) for t, _ in rows])
        pdf = np.array([float(p) for _, p in rows])
        assert np.trapezoid(pdf, ts) == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("points", ["1", "100002", "1000000000000"])
    def test_points_out_of_range_is_usage_error(self, tmp_path, capsys,
                                                monkeypatch, points):
        """--points outside [2, 100001] exits 1 with a one-line error
        before any file is read or any grid point computed."""
        def no_grid(*args):
            raise AssertionError("the grid loop started")
        monkeypatch.setattr("betamix.cli.mixture_density_grid", no_grid)
        assert main(["density", "--model", str(tmp_path / "none.bgc"),
                     "--data", str(tmp_path), "--id", "no0000",
                     "--points", points,
                     "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --points") and err.count("\n") == 1, err

    def test_unknown_id_fails(self, trained, tmp_path):
        root, data, ckpt = trained
        assert main(["density", "--model", str(ckpt), "--data", str(data),
                     "--id", "ghost", "--points", "10",
                     "--out", str(tmp_path / "d.csv")]) == 2


class TestCheckpointValues:
    """Values that parse, finite, but that no trained model holds. Where
    they overflow the network, the record they reach is a data error
    (exit 2), never an internal one. The overflow itself is expected, so
    numpy's overflow and invalid-value warnings are silenced here."""

    COMMANDS = (["predict"], ["eval", "--keep-fraction", "0.9"],
                ["density", "--id", "no0000", "--points", "101"])

    @staticmethod
    def run_mutated(trained, tmp_path, edits, argv):
        _, data, ckpt = trained
        net = load_checkpoint(ckpt)
        entries = dict(net.named_entries())
        for name, index, value in edits:
            entries[name][index] = value
        model = tmp_path / "model.bgc"
        save_checkpoint(net, model)
        with np.errstate(over="ignore", invalid="ignore"):
            return main([*argv, "--model", str(model), "--data", str(data),
                         "--out", str(tmp_path / "out")])

    def test_huge_stem_weight_is_a_data_error(self, trained, tmp_path,
                                              capsys):
        """A stem conv weight of 3e38 overflows every record into NaN."""
        edit = [("stem.conv.weight", (0, 0, 0), 3e38)]
        for argv in self.COMMANDS:
            assert self.run_mutated(trained, tmp_path, edit, argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: record ") and \
                "is not finite" in err and err.count("\n") == 1, err

    def test_overflowing_density_is_a_data_error(self, trained, tmp_path,
                                                 capsys):
        """Head biases of 1e30 give alpha = beta = 1e30: the moments are
        finite, but on the default 2001-point grid the log density's
        rounding would overflow exp. The concentration bound refuses the
        record before the grid is built."""
        edits = [("head.dense.bias", (0,), 1e30),
                 ("head.dense.bias", (1,), 1e30)]
        for argv in self.COMMANDS[:2]:
            assert self.run_mutated(trained, tmp_path, edits, argv) == 0
        assert self.run_mutated(trained, tmp_path, edits,
                                ["density", "--id", "no0000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: record 'no0000': a component's "
                              "alpha or beta exceeds 1e+12") and \
            err.count("\n") == 1, err

    def test_density_within_the_bound_cannot_overflow(self):
        """Alpha and beta log-spaced over [1e-6, DENSITY_MAX_CONCENTRATION]:
        a beta density on [eps, 1 - eps] peaks at its mode or at an end, and
        the largest log density there is about 17, far below exp's overflow
        at 709.8. A mixture's density is a mean of these, so a grid that
        passes the concentration check cannot overflow."""
        eps = DENSITY_GRID_EPS
        values = np.logspace(-6, math.log10(DENSITY_MAX_CONCENTRATION), 37)
        largest = -math.inf
        for alpha in values:
            for beta in values:
                p = BetaParams(float(alpha), float(beta))
                ts = [eps, 0.5, 1.0 - eps]
                if alpha > 1.0 and beta > 1.0:
                    mode = (alpha - 1.0) / (alpha + beta - 2.0)
                    ts.append(min(max(float(mode), eps), 1.0 - eps))
                largest = max(largest, *(beta_log_pdf(t, p) for t in ts))
        assert largest < 20.0, largest

    def test_absurd_concentration_density_is_a_data_error(self, trained,
                                                          tmp_path, capsys):
        """Head biases of 1e18 give alpha = beta = 1e18: the grid does not
        overflow, but its log density is rounding noise (a pdf of 1.0 at
        t = 0.5, where the true peak is 1.1e9)."""
        edits = [("head.dense.bias", (0,), 1e18),
                 ("head.dense.bias", (1,), 1e18)]
        for argv in self.COMMANDS[:2]:
            assert self.run_mutated(trained, tmp_path, edits, argv) == 0
        capsys.readouterr()
        assert self.run_mutated(trained, tmp_path, edits,
                                self.COMMANDS[2]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: record 'no0000': a component's "
                              "alpha or beta exceeds 1e+12") and \
            err.count("\n") == 1, err

    # Entries of every kind: conv weights, a projection bias, batch-norm
    # scale, shift and running statistics, and the head.
    ENTRIES = ("stem.conv.weight", "stem.bn.shift", "stem.bn.running_mean",
               "g0.b0.conv1.weight", "g0.b0.bn2.scale", "g0.b0.bn2.shift",
               "g1.b0.proj.bias", "g1.b0.bn1.running_var",
               "head.dense.weight", "head.dense.bias")
    VALUES = (-1.0, -3e38, 3e38, 1e30, 1e-45)

    def test_seeded_value_mutations_never_exit_3(self, trained, tmp_path):
        """Each named entry gets each value at a seeded element; predict,
        eval and density exit 0 or 2. A negative running variance is
        refused at load (exit 2); a huge weight or shift can overflow."""
        rng = np.random.default_rng(2024)
        shapes = {name: value.shape for name, value
                  in load_checkpoint(trained[2]).named_entries()}
        codes = {}
        for name in self.ENTRIES:
            for value in self.VALUES:
                index = tuple(int(rng.integers(n)) for n in shapes[name])
                for argv in self.COMMANDS:
                    codes[name, value, argv[0]] = self.run_mutated(
                        trained, tmp_path, [(name, index, value)], argv)
        assert {k: c for k, c in codes.items() if c not in (0, 2)} == {}
        assert set(codes.values()) == {0, 2}


class TestOutputs:
    @pytest.mark.parametrize("command", [
        "synth", "train", "predict", "eval", "density"])
    def test_unwritable_output_is_data_error(self, trained, tmp_path, capsys,
                                             command):
        """An output that cannot be written (an existing directory, or an
        existing file where synth makes its dataset directory) exits 2
        with a one-line data error."""
        root, data, ckpt = trained
        out = tmp_path / "taken"
        if command == "synth":
            out.write_text("")
            argv = ["synth", "--n-per-class", "1"]
        else:
            out.mkdir()
            if command == "train":
                argv = ["train", "--config", str(write_config(tmp_path)),
                        "--data", str(data)]
            else:
                argv = [command, "--model", str(ckpt), "--data", str(data)]
                if command == "density":
                    argv += ["--id", "no0000", "--points", "11"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err


class TestArgumentHandling:
    def test_unknown_command(self):
        assert main(["conjure"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth", "--out", "somewhere"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def test_readme_configuration_table_matches_run_config():
    """The README's configuration table lists every RunConfig key and no
    other, so a key added to or dropped from the code but not from the
    README fails."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_0-9]+)` \|", table, re.M))
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    assert documented == keys, (
        f"README lists {sorted(documented)}, RunConfig has {sorted(keys)}")


def test_readme_library_use_runs(tmp_path):
    """The README's library example, the fenced python block under
    "Library use", runs as written in a fresh process with `src` on the
    path, so a public name the README still shows but the code dropped
    fails."""
    root = Path(__file__).resolve().parent.parent
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    section = lines[lines.index("## Library use") + 1:]
    section = section[:next((i for i, line in enumerate(section)
                             if line.startswith("## ")), len(section))]
    body = section[section.index("```python") + 1:]
    block = "\n".join(body[:body.index("```")]) + "\n"
    subprocess.run([sys.executable, "-c", block], cwd=tmp_path, check=True,
                   env={**os.environ, "PYTHONPATH": str(root / "src")},
                   stdout=subprocess.DEVNULL)
