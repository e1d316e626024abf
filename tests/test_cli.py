"""End-to-end CLI behavior: artifact layout, determinism, exit codes.

Commands run in-process through main(argv) so exit codes and file output
are observable without subprocess overhead.
"""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from betamix.cli import main
from betamix.model import load_checkpoint
from conftest import rewrite_checkpoint_header

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

    def test_missing_data_is_data_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "m.bgc")]) == 2

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
    }

    @pytest.mark.parametrize("case", HOSTILE_CONFIGS)
    def test_hostile_config_is_usage_error(self, tmp_path, capsys, case):
        """A config file that does not decode, holds a non-finite number,
        asks for a learning rate above 1, names a key that is no longer a
        setting or asks for a batch larger than an epoch's worth of crops
        exits 1 before any compute: no traceback, MemoryError or internal
        error."""
        data = synth_dataset(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_bytes(self.HOSTILE_CONFIGS[case])
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / "m.bgc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


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

    HEADER_EDITS = {
        "header_bn_momentum_9.1": lambda m: {**m, "bn_momentum": 9.1},
        "header_stem_kernel_0": lambda m: {
            **m, "spec": {**m["spec"], "stem": [0, *m["spec"]["stem"][1:]]}},
        "header_not_object": lambda m: [m],
        "header_step_count_inf": lambda m: {**m, "step_count": float("inf")},
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
        "sample_3e38", "nan_weight", "manifest_not_utf8",
        "manifest_path_parent", "manifest_path_absolute",
        "header_nested_100000", *HEADER_EDITS])
    def test_hostile_files_are_data_errors(self, trained, tmp_path, capsys,
                                           case):
        """A missing or directory input, a length field declaring far more
        bytes than the file holds, a NaN sample or weight, a finite sample
        above MAX_ABS_SAMPLE (one that overflowed the network), a malformed
        checkpoint header (including one that names no preset, changes a
        preset's sizes or nests too deeply to parse), a manifest that is not UTF-8 or a manifest path
        leading out of the dataset directory exits 2 with a one-line data
        error: no traceback, MemoryError, OverflowError or internal
        error."""
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
        elif case in self.HEADER_EDITS:
            rewrite_checkpoint_header(model, self.HEADER_EDITS[case])
        elif case == "header_nested_100000":
            # json.dumps cannot build this header, so write its bytes.
            blob = model.read_bytes()
            (meta_len,) = struct.unpack_from("<I", blob, 8)
            model.write_bytes(blob[:8] + struct.pack("<I", 100000) + b"[" * 100000
                              + blob[12 + meta_len:])
        elif case == "manifest_not_utf8":
            (data / "manifest.csv").write_bytes(b"\xff\xfe\x00garbage")
        elif case.startswith("manifest_path_"):
            # The named file exists, so only the containment check stops it.
            if case == "manifest_path_parent":
                shutil.copytree(record.parent, tmp_path / "secret")
                path = f"../secret/{record.name}"
            else:
                path = str(record)
            manifest = data / "manifest.csv"
            text = manifest.read_text(encoding="utf-8")
            rel = record.relative_to(data).as_posix()
            assert rel in text
            manifest.write_text(text.replace(rel, path), encoding="utf-8")
        else:
            blob = bytearray(record.read_bytes())
            if case == "nan_sample":
                struct.pack_into("<f", blob, 24, float("nan"))
            elif case == "sample_3e38":
                struct.pack_into("<f", blob, 24, 3e38)
            else:
                struct.pack_into("<Q", blob, 16, 2 ** int(case.split("**")[1]))
            record.write_bytes(bytes(blob))
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        if case == "sample_3e38":
            assert f"record {record.stem!r}: sample magnitude 3e+38" in err, err

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
                        "misclassified_all", "misclassified_accepted", "aurc"]
        assert 0.0 <= float(lines[-1].split(",")[1]) <= 1.0

    def test_bad_fraction_is_usage_error(self, trained, tmp_path):
        root, data, ckpt = trained
        assert main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--keep-fraction", "0", "--out",
                     str(tmp_path / "e.csv")]) == 1


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
