"""The desk experiment's criteria and summary on hand-made runs, with no
training: what criteria 6 and 7 and the desk study count as a pass, a
collapse and a perfect seed."""

from desk import MIN_F1, N_SEEDS, criterion_6, criterion_7, summarize


def make_run(seed, *, f1=0.95, misclassified=2, accepted_misclassified=0,
             mean_u_misclassified=0.4, mean_u_correct=0.1):
    run = {
        "seed": seed,
        "elapsed_s": 5.0,
        "f1": f1,
        "final_val_f1": f1,
        "misclassified": misclassified,
        "accepted_f1": f1,
        "accepted_misclassified": accepted_misclassified,
        "aurc": 0.01,
        "mean_u_misclassified": mean_u_misclassified,
        "mean_u_correct": mean_u_correct,
    }
    run["criterion_6"] = criterion_6(run)
    run["criterion_7"] = criterion_7(run)
    return run


def test_good_run_passes_both_criteria():
    run = make_run(0)
    assert run["criterion_6"] and run["criterion_7"]


def test_perfect_seed_fails_both_criteria_and_is_listed():
    """No misclassified record: rejection cannot strictly reduce errors,
    and there is no wrong-record uncertainty to compare."""
    perfect = make_run(1, f1=1.0, misclassified=0, mean_u_misclassified=None)
    assert not criterion_6(perfect)
    assert not criterion_7(perfect)
    summary = summarize([make_run(0), perfect])
    assert summary["perfect_seeds"] == [1]
    for criterion in ("criterion_6", "criterion_7"):
        assert summary[criterion]["failed_seeds"] == [1]
        assert summary[criterion]["failed_perfect_seeds"] == [1]


def test_f1_floor_is_inclusive():
    assert MIN_F1 == 0.9
    at_floor, below = make_run(0, f1=0.9), make_run(1, f1=0.8999)
    assert criterion_6(at_floor) and not criterion_6(below)
    summary = summarize([at_floor, below])
    assert summary["collapsed_seeds"] == [1]
    assert summary["min_f1"] == 0.8999


def test_acceptance_seed_and_all_seed_counts_are_kept_apart():
    """Seeds 0-4 pass criterion 6 except seed 2; of seeds 5-9 only seed 7
    passes. Criterion 7 fails only seed 8."""
    runs = [make_run(seed, accepted_misclassified=(
                0 if seed in (0, 1, 3, 4, 7) else 2),
                mean_u_misclassified=(0.05 if seed == 8 else 0.4))
            for seed in range(10)]
    summary = summarize(runs)
    assert N_SEEDS == 5
    assert summary["criterion_6"]["passes_seeds_0_4"] == 4
    assert summary["criterion_6"]["passes"] == 5
    assert summary["criterion_6"]["failed_seeds"] == [2, 5, 6, 8, 9]
    assert summary["criterion_7"]["passes_seeds_0_4"] == 5
    assert summary["criterion_7"]["passes"] == 9
    assert summary["perfect_seeds"] == []
    assert summary["misclassified"] == 20
    assert summary["accepted_misclassified"] == 10
