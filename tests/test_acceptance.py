"""Acceptance gate: one test per exit criterion, each printing a
[PASS]/[FAIL] line (visible with `pytest -s`).

Criteria 1-5 and 10 are exact numerical gates. Criteria 6-8 are the
desk-scale experiments: a tiny model trained on seeded synthetic data must
classify well, its uncertainty must single out the misclassified records,
rejection must strictly reduce errors, and soft-label training must
produce interior bell densities; each is judged by majority over five
fixed seeds. The run and the predicates of criteria 6 and 7 live in
tests/desk.py, which tools/desk_study.py runs over 20 seeds. Criterion 9
replays the whole pipeline twice and compares artifact bytes.
"""

import time

import numpy as np
import pytest

from betamix.betadist import (
    BetaMixture,
    BetaParams,
    beta_log_pdf,
    beta_nll_grad,
    mixture_density_grid,
    mixture_summary,
)
from betamix.cli import main
from betamix.config import RunConfig
from betamix.data import (
    Dataset,
    soft_target_for_segment,
    split_dataset,
    synth_generate_changepoints,
    write_dataset,
)
from betamix.model import build_model, load_checkpoint, save_checkpoint, train
from betamix.nn import BatchNorm1D, Conv1D, Dense, GlobalMaxPool, MaxPool1D, ReLU, Softplus
from conftest import (mixture_moments_by_quadrature, numeric_grad, rel_err,
                      stage_sizes)
from desk import (DESK_CONFIG, KEEP_FRACTION, N_SEEDS, criterion_6,
                  criterion_7, desk_dataset, desk_run)

SOFT_CONFIG = dict(arch_preset="tiny", batch_size=32,
                   learning_rate=3e-3, epochs=20, augment=False,
                   soft_targets=True)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_runs():
    """Criterion 6/7 experiment: five seeded end-to-end trainings."""
    return [desk_run(seed) for seed in range(N_SEEDS)]


class TestAcceptance:
    def test_criterion_01_beta_gradient_oracle(self, rng):
        """Analytic beta NLL gradient vs central finite differences:
        1000 random draws, relative error < 1e-4, runtime < 1 s."""
        start = time.monotonic()
        h = 1e-5
        worst = 0.0
        for _ in range(1000):
            a = float(rng.uniform(0.1, 100.0))
            b = float(rng.uniform(0.1, 100.0))
            t = float(rng.uniform(0.01, 0.99))
            d_alpha, d_beta = beta_nll_grad(t, BetaParams(a, b))
            fd_a = -(beta_log_pdf(t, BetaParams(a + h, b))
                     - beta_log_pdf(t, BetaParams(a - h, b))) / (2 * h)
            fd_b = -(beta_log_pdf(t, BetaParams(a, b + h))
                     - beta_log_pdf(t, BetaParams(a, b - h))) / (2 * h)
            worst = max(worst,
                        abs(d_alpha - fd_a) / max(abs(fd_a), 1e-3),
                        abs(d_beta - fd_b) / max(abs(fd_b), 1e-3))
        elapsed = time.monotonic() - start
        verdict("criterion 1: beta gradient oracle",
                worst < 1e-4 and elapsed < 1.0,
                f"worst rel err {worst:.2e}, {elapsed:.2f}s")

    def test_criterion_02_mixture_moment_oracle(self, rng):
        """mixture_summary vs Gauss-Legendre integration of the explicit
        mixture pdf: 200 mixtures of up to 10 components, abs < 1e-6,
        runtime < 5 s. Node generation is amortized setup, not part of
        the timed check."""
        from conftest import gauss_legendre_01
        gauss_legendre_01(2000)
        start = time.monotonic()
        worst = 0.0
        for _ in range(200):
            comps = [(float(10 ** rng.uniform(0, 1.7)),
                      float(10 ** rng.uniform(0, 1.7)))
                     for _ in range(int(rng.integers(1, 11)))]
            summary = mixture_summary(
                BetaMixture(tuple(BetaParams(a, b) for a, b in comps)))
            mean_q, var_q = mixture_moments_by_quadrature(comps, n_nodes=2000)
            worst = max(worst, abs(summary.mean - mean_q),
                        abs(summary.variance - var_q))
        elapsed = time.monotonic() - start
        verdict("criterion 2: mixture moment oracle",
                worst < 1e-6 and elapsed < 5.0,
                f"worst abs err {worst:.2e}, {elapsed:.2f}s")

    def test_criterion_03_uncertainty_bounds(self, rng):
        """10^4 random mixtures: uncertainty in [0,1] and
        variance <= mean(1-mean), zero violations."""
        violations = 0
        for _ in range(10_000):
            comps = tuple(
                BetaParams(float(10 ** rng.uniform(-2, 3)),
                           float(10 ** rng.uniform(-2, 3)))
                for _ in range(int(rng.integers(1, 21))))
            s = mixture_summary(BetaMixture(comps))
            if not (0.0 <= s.uncertainty <= 1.0):
                violations += 1
            elif s.variance > s.mean * (1.0 - s.mean) + 1e-15:
                violations += 1
        verdict("criterion 3: uncertainty bounds", violations == 0,
                f"{violations} violations in 10000 mixtures")

    def test_criterion_04_layer_gradient_suite(self):
        """Finite-difference checks for every layer on small shapes:
        rel err < 1e-3 in float32 (h=1e-2), < 1e-6 on the float64 shadow
        (h=1e-6); runtime < 30 s."""
        start = time.monotonic()

        def layer_cases(dtype):
            gen = np.random.default_rng(42)
            return [
                ("conv", Conv1D(2, 3, 3, stride=2, rng=gen, dtype=dtype),
                 (2, 2, 12), (2, 3, 6), True),
                ("batchnorm", BatchNorm1D(2, dtype=dtype),
                 (4, 2, 6), (4, 2, 6), True),
                ("relu", ReLU(), (2, 3, 8), (2, 3, 8), False),
                ("maxpool", MaxPool1D(2), (2, 2, 12), (2, 2, 6), False),
                ("gpool", GlobalMaxPool(), (2, 3, 9), (2, 3, 1), False),
                ("dense", Dense(8, 3, rng=gen, dtype=dtype),
                 (2, 4, 2), (2, 3), True),
                ("softplus", Softplus(), (3, 4), (3, 4), False),
            ]

        failures = []
        for dtype, h, tol in ((np.float32, 1e-2, 1e-3),
                              (np.float64, 1e-6, 1e-6)):
            gen = np.random.default_rng(7)
            for name, layer, in_shape, out_shape, has_params in layer_cases(dtype):
                x = gen.normal(size=in_shape).astype(dtype)
                projection = gen.normal(size=out_shape).astype(dtype)

                def loss():
                    return float(np.sum(
                        layer.forward(x, True).astype(np.float64)
                        * projection.astype(np.float64)))

                layer.forward(x, True)
                dx = layer.backward(projection)
                checks = [(f"{name}.x", dx,
                           numeric_grad(loss, x, h))]
                if has_params:
                    analytic = {p.name: p.grad.copy() for p in layer.params()}
                    for p in layer.params():
                        checks.append((p.name, analytic[p.name],
                                       numeric_grad(loss, p.value, h)))
                for label, got, expected in checks:
                    err = rel_err(got, expected, floor=0.05)
                    if err >= tol:
                        failures.append(f"{dtype.__name__}:{label}={err:.1e}")
        elapsed = time.monotonic() - start
        verdict("criterion 4: layer gradient suite",
                not failures and elapsed < 30.0,
                f"{len(failures)} failures {failures[:3]}, {elapsed:.1f}s")

    def test_criterion_05_architecture_shape_chain(self):
        """Full-preset forward on a 2048-sample batch walks the spatial
        sizes 1024, 512, 256, 128, 64, 32, 16, 8, 1 exactly."""
        model = build_model("paper", seed=0)
        sizes = stage_sizes(model, np.zeros((2, 1, 2048), dtype=np.float32))
        expected = [1024, 512, 256, 128, 64, 32, 16, 8, 1]
        verdict("criterion 5: architecture shape chain",
                sizes == expected, f"got {sizes}")

    def test_criterion_06_desk_scale_end_to_end(self, desk_runs):
        """Majority of five seeds: validation macro F1 >= 0.9; at keep
        fraction 0.9 the accepted-only macro F1 is within 0.01 of the
        all-data value and strictly fewer accepted records are
        misclassified; each run under 5 CPU minutes."""
        details = [
            f"seed {run['seed']}: F1 {run['f1']:.3f} "
            f"mis {run['misclassified']}->{run['accepted_misclassified']} "
            f"{run['elapsed_s']:.0f}s {'ok' if criterion_6(run) else 'FAIL'}"
            for run in desk_runs]
        passes = sum(map(criterion_6, desk_runs))
        verdict("criterion 6: desk-scale end-to-end",
                passes >= (N_SEEDS // 2 + 1),
                f"{passes}/{N_SEEDS} seeds; " + "; ".join(details))

    def test_criterion_07_uncertainty_discriminates(self, desk_runs):
        """Majority of five seeds: mean uncertainty of misclassified
        validation records exceeds that of correctly classified ones."""
        details = []
        for run in desk_runs:
            wrong = ("none" if run["mean_u_misclassified"] is None
                     else f"{run['mean_u_misclassified']:.3f}")
            details.append(f"seed {run['seed']}: wrong {wrong} vs "
                           f"right {run['mean_u_correct']:.3f}")
        passes = sum(map(criterion_7, desk_runs))
        verdict("criterion 7: uncertainty discriminates",
                passes >= (N_SEEDS // 2 + 1),
                f"{passes}/{N_SEEDS} seeds; " + "; ".join(details))

    def test_criterion_08_soft_label_path(self):
        """Majority of five seeds: after training on changepoint segments
        with soft targets, a held-out segment with true fraction 0.5 gets
        a predictive mean in [0.3, 0.7] and more density mass inside
        (0.2, 0.8) than outside."""
        passes = 0
        details = []
        for seed in range(N_SEEDS):
            records = synth_generate_changepoints(60, seed=seed)
            dataset = Dataset(records, split_dataset(records, 0.8, seed=seed))
            config = RunConfig(seed=seed, **SOFT_CONFIG)
            model = build_model("tiny", config.seed)
            train(model, dataset, config)

            crop = self._centered_half_fraction_segment(
                synth_generate_changepoints(8, seed=seed + 1000),
                model.spec.input_length)
            out = model.forward(crop[None, None, :], train=False)
            mixture = BetaMixture((BetaParams(float(out[0, 0]),
                                              float(out[0, 1])),))
            mean = mixture_summary(mixture).mean
            grid = mixture_density_grid(mixture, 2001, 1e-4)
            ts = np.array([t for t, _ in grid])
            pdf = np.array([p for _, p in grid])
            interior = (ts > 0.2) & (ts < 0.8)
            mass_in = float(np.trapezoid(pdf[interior], ts[interior]))
            mass_out = float(np.trapezoid(pdf, ts)) - mass_in
            ok = (0.3 <= mean <= 0.7) and (mass_in > mass_out)
            passes += ok
            details.append(f"seed {seed}: mean {mean:.3f} "
                           f"mass {mass_in:.2f}/{mass_out:.2f}")
        verdict("criterion 8: soft-label path",
                passes >= (N_SEEDS // 2 + 1),
                f"{passes}/{N_SEEDS} seeds; " + "; ".join(details))

    @staticmethod
    def _centered_half_fraction_segment(records, crop_len):
        half = crop_len // 2
        for r in records:
            oriented = r.oriented()
            for cp, _tag in r.rhythm.changepoints:
                if cp - half < 0 or cp + half > len(r):
                    continue
                if soft_target_for_segment(r, cp - half, crop_len) == 0.5:
                    return oriented[cp - half:cp + half]
        raise AssertionError("no centered changepoint segment found")

    def test_criterion_09_pipeline_determinism(self, tmp_path):
        """Two complete runs (dataset, training, predictions, evaluation)
        with the same seeds produce byte-identical artifacts."""

        def one_run(root):
            root.mkdir()
            data_dir = root / "data"
            dataset = desk_dataset(0)
            write_dataset(dataset.records, dataset.manifest, data_dir)
            config_path = root / "run.cfg"
            config_path.write_text("".join(
                f"{key} = {str(value).lower()}\n"
                for key, value in {**DESK_CONFIG, "seed": 0}.items()))
            ckpt = root / "model.bgc"
            assert main(["train", "--config", str(config_path),
                         "--data", str(data_dir), "--out", str(ckpt)]) == 0
            preds = root / "preds.jsonl"
            assert main(["predict", "--model", str(ckpt),
                         "--data", str(data_dir), "--out", str(preds)]) == 0
            report = root / "eval.csv"
            assert main(["eval", "--model", str(ckpt), "--data", str(data_dir),
                         "--keep-fraction", str(KEEP_FRACTION),
                         "--out", str(report)]) == 0
            return {
                "manifest": (data_dir / "manifest.csv").read_bytes(),
                "checkpoint": ckpt.read_bytes(),
                "predictions": preds.read_bytes(),
                "report": report.read_bytes(),
            }

        first = one_run(tmp_path / "run1")
        second = one_run(tmp_path / "run2")
        mismatched = [k for k in first if first[k] != second[k]]
        verdict("criterion 9: pipeline determinism", not mismatched,
                f"mismatched artifacts: {mismatched or 'none'}")

    def test_criterion_10_checkpoint_round_trip(self, tmp_path, rng):
        """save -> load reproduces inference outputs bitwise on 100
        random inputs."""
        model = build_model("tiny", seed=33)
        path = tmp_path / "model.bgc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        inputs = rng.normal(size=(100, 1, 256)).astype(np.float32)
        mismatches = 0
        for i in range(100):
            a = model.forward(inputs[i:i + 1])
            b = loaded.forward(inputs[i:i + 1])
            if not np.array_equal(a, b):
                mismatches += 1
        verdict("criterion 10: checkpoint round trip", mismatches == 0,
                f"{mismatches} mismatched inputs of 100")
