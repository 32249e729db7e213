"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a short PASS line with the measured quantities; the
conftest terminal hook repeats one line per criterion at the end of the run.
The dissociation and sanity protocols (criteria 6 and 7) share one frozen
universe and differ only in the annotator/evaluator misalignment.
"""

import json
import math
import time

import numpy as np
import pytest

from preflab import (
    DpoConfig,
    Judge,
    JudgeSpec,
    OpCounters,
    Policy,
    PreferenceTriple,
    SelectionConfig,
    SftConfig,
    TrainConfig,
    UniverseConfig,
    aggregate_summary,
    capability_delta,
    counters_report,
    dpo_batch_grad,
    dpo_example_loss,
    entropy_estimate,
    estimate_win_rate,
    exact_entropy,
    form_pairs,
    generate_universe,
    implicit_reward,
    log_prob_vector,
    parse_config,
    preference_deltas,
    run_grid,
    run_online_dpo,
    select_apl,
    select_random,
    sft_fit,
    write_summary,
)
from preflab.selection import degenerate_rows

LN2 = math.log(2.0)


# --------------------------------------------------------------------------
# criterion 1: analytic DPO gradient vs central finite differences
# --------------------------------------------------------------------------


def _draw_dpo_instance(gen):
    """Random instance with every example kept out of sigmoid saturation
    (|h| <= 4), so finite-difference noise stays far below the tolerance."""
    while True:
        d = int(gen.integers(2, 17))
        v = int(gen.integers(2, 9))
        features = gen.normal(size=(v, d))
        policy, ref = Policy(gen.normal(size=d)), Policy(gen.normal(size=d))
        beta = float(gen.uniform(0.05, 2.0))
        batch = []
        saturated = False
        for _ in range(int(gen.integers(1, 5))):
            w, l = gen.choice(v, 2, replace=False)
            triple = PreferenceTriple(0, int(w), int(l))
            h = implicit_reward(policy, ref, features, triple.winner, beta) - implicit_reward(
                policy, ref, features, triple.loser, beta
            )
            saturated = saturated or abs(h) > 4.0
            batch.append(triple)
        if not saturated:
            dphi = preference_deltas(
                features[None],
                [0] * len(batch),
                [t.winner for t in batch],
                [t.loser for t in batch],
            )
            return policy, ref, dphi, beta


def test_criterion_01_gradient_correctness():
    gen = np.random.default_rng(20260801)
    step = 1e-5
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        policy, ref, dphi, beta = _draw_dpo_instance(gen)
        _, grad = dpo_batch_grad(policy, ref, dphi, beta)
        d = policy.feature_dim
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            lp, _ = dpo_batch_grad(Policy(policy.theta + e), ref, dphi, beta)
            lm, _ = dpo_batch_grad(Policy(policy.theta - e), ref, dphi, beta)
            fd[i] = (lp - lm) / (2 * step)
        assert np.linalg.norm(fd) > 1e-3  # conditioning filter never binds
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: worst rel err {worst:.2e} over 100 instances in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: loss identity at the reference policy
# --------------------------------------------------------------------------


def test_criterion_02_loss_identity_at_reference():
    gen = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(2, 12))
        v = int(gen.integers(2, 7))
        features = gen.normal(size=(v, d))
        theta = gen.normal(size=d)
        policy, ref = Policy(theta), Policy(theta.copy())
        w, l = gen.choice(v, 2, replace=False)
        beta = float(gen.uniform(0.05, 2.0))
        loss = dpo_example_loss(policy, ref, features, PreferenceTriple(0, int(w), int(l)), beta)
        worst = max(worst, abs(loss - LN2))
        assert abs(loss - LN2) <= 1e-12
    print(f"PASS criterion 2: max |loss - ln2| = {worst:.2e} over 200 reference triples")


# --------------------------------------------------------------------------
# criterion 3: entropy estimator calibration
# --------------------------------------------------------------------------


def test_criterion_03_entropy_estimator_calibration():
    gen = np.random.default_rng(33)
    m = 4
    resamples = 10_000
    for trial in range(20):
        v = int(gen.integers(2, 7))
        policy = Policy(gen.normal(size=v))
        lp = log_prob_vector(policy, np.eye(v))
        p = np.exp(lp)
        exact = exact_entropy(policy, np.eye(v))
        cdf = np.cumsum(p)
        idx = np.minimum((gen.random((resamples, m))[..., None] > cdf[:-1]).sum(-1), v - 1)
        estimates = entropy_estimate(lp[idx])  # one estimate per resample
        var_single = float(np.sum(p * lp**2) - exact**2)
        se = math.sqrt(var_single / (m * resamples))
        assert abs(np.mean(estimates) - exact) <= 3 * se

    for v in (3, 4, 7):
        uniform = Policy(np.zeros(v))
        lp = log_prob_vector(uniform, np.eye(v))
        assert entropy_estimate(lp[[0] * m]) == math.log(v)  # exact, not approximate
    print("PASS criterion 3: 20 policies within 3 SE; uniform estimate exactly ln V")


# --------------------------------------------------------------------------
# criterion 4: self-play neutrality with slot randomization
# --------------------------------------------------------------------------


class _SlotBiasedJudge:
    label = "slot-biased"

    def prefer_batch(self, prompt_ids, y1, y2):
        return y1


def test_criterion_04_self_play_neutrality():
    universe = generate_universe(
        UniverseConfig(
            num_train_prompts=4,
            num_eval_prompts=16,
            num_probe_prompts=4,
            responses_per_prompt=6,
            feature_dim=10,
            seed=12,
        )
    )
    policy = Policy(np.random.default_rng(1).normal(size=10))
    n = 10_000
    sigma = math.sqrt(0.25 / n)

    bt_judge = Judge(JudgeSpec(label="bt-eval", noise_temperature=0.7, seed=5), universe)
    eval_ids = universe.role_ids("eval")
    est_bt = estimate_win_rate(
        policy, policy, bt_judge, universe.features, eval_ids, n, np.random.default_rng(51)
    )
    assert abs(est_bt.rate - 0.5) <= 3 * sigma

    est_biased = estimate_win_rate(
        policy,
        policy,
        _SlotBiasedJudge(),
        universe.features,
        eval_ids,
        n,
        np.random.default_rng(52),
    )
    assert abs(est_biased.rate - 0.5) <= 3 * sigma
    print(
        f"PASS criterion 4: self-play {est_bt.rate:.4f}, slot-biased {est_biased.rate:.4f} "
        f"(band 0.5 +/- {3 * sigma:.4f})"
    )


# --------------------------------------------------------------------------
# criterion 5: budget matching over a full run
# --------------------------------------------------------------------------


def test_criterion_05_budget_matching(stream_run):
    universe = generate_universe(
        UniverseConfig(
            num_train_prompts=64,
            num_eval_prompts=16,
            num_probe_prompts=16,
            responses_per_prompt=16,
            feature_dim=24,
            true_reward_scale=2.0,
            misalignment_rho=-0.5,
            seed=55,
        )
    )
    results = {}
    for selector in ("random", "apl"):
        cfg = TrainConfig(
            dpo=DpoConfig(beta=0.1, learning_rate=0.005, max_steps=50, updates_per_sample=4),
            selection=SelectionConfig(
                batch_prompts=8, candidates_per_prompt=4, apl_top_prompts=4, label_budget=8
            ),
            selector=selector,
            annotator=JudgeSpec(label="annotator", misalignment=0.0, noise_temperature=1.0, seed=3),
            sft=SftConfig(learning_rate=0.02, epochs=4, batch=32),
            run_seed=42,
        )
        result, lines = stream_run(universe, sft_fit(universe, cfg), cfg)
        shortfalls = [e for e in map(json.loads, lines) if e["type"] == "budget_shortfall"]
        assert shortfalls == [], f"{selector} run hit a budget shortfall"
        assert result.counters.judge_queries == result.metrics["labeled_pairs"].sum()
        results[selector] = result

    random_queries = results["random"].counters.judge_queries
    apl_queries = results["apl"].counters.judge_queries
    assert random_queries == apl_queries == 50 * 8
    print(f"PASS criterion 5: both selectors consumed exactly {random_queries} judge queries")


# --------------------------------------------------------------------------
# criteria 6 and 7: Goodhart dissociation and faithful-judge sanity
# --------------------------------------------------------------------------

DISSOCIATION_SEEDS = (42, 43, 44)


@pytest.fixture(scope="module")
def dissociation_universe():
    return generate_universe(
        UniverseConfig(
            num_train_prompts=512,
            num_eval_prompts=64,
            num_probe_prompts=256,
            responses_per_prompt=8,
            feature_dim=32,
            feature_scale=1.0,
            true_reward_scale=3.0,
            misalignment_rho=-0.8,
            seed=2026,
        )
    )


def _dissociation_protocol(universe, annotator_misalignment):
    """Three seeded runs; returns per-seed proxy win-rates (evaluator drawn
    from the annotator family), truth-side win-rates, and capability deltas."""
    proxy_rates, truth_rates, deltas = [], [], []
    truth_judge = Judge(
        JudgeSpec(label="truth-eval", kind="deterministic", misalignment=0.0), universe
    )
    eval_ids = universe.role_ids("eval")
    for seed in DISSOCIATION_SEEDS:
        cfg = TrainConfig(
            dpo=DpoConfig(beta=0.1, learning_rate=0.02, max_steps=300, updates_per_sample=4),
            selection=SelectionConfig(
                batch_prompts=16, candidates_per_prompt=4, apl_top_prompts=8, label_budget=16
            ),
            selector="random",
            annotator=JudgeSpec(
                label="annotator",
                misalignment=annotator_misalignment,
                noise_temperature=1.0,
                seed=7,
            ),
            sft=SftConfig(learning_rate=0.02, epochs=6, batch=64),
            run_seed=seed,
        )
        sft = sft_fit(universe, cfg)
        result = run_online_dpo(universe, sft, cfg)
        proxy_eval = Judge(
            JudgeSpec(
                label="proxy-eval",
                misalignment=annotator_misalignment,
                noise_temperature=1.0,
                seed=9,
            ),
            universe,
        )
        rng = np.random.default_rng(seed + 1000)
        proxy_rates.append(
            estimate_win_rate(
                result.final_policy, sft, proxy_eval, universe.features, eval_ids, 2000, rng
            ).rate
        )
        truth_rates.append(
            estimate_win_rate(
                result.final_policy,
                sft,
                truth_judge,
                universe.features,
                eval_ids,
                2000,
                np.random.default_rng(seed + 2000),
            ).rate
        )
        deltas.append(capability_delta(result.final_policy, sft, universe))
    return proxy_rates, truth_rates, deltas


def test_criterion_06_goodhart_dissociation(dissociation_universe):
    started = time.perf_counter()
    proxy, truth, deltas = _dissociation_protocol(dissociation_universe, 0.9)
    elapsed = time.perf_counter() - started
    assert float(np.mean(proxy)) >= 0.70
    assert float(np.mean(deltas)) <= -10.0
    assert elapsed < 120.0
    print(
        f"PASS criterion 6: weak-judge proxy win {np.mean(proxy):.3f} "
        f"(truth-side {np.mean(truth):.3f}) with capability delta "
        f"{np.mean(deltas):+.1f}pp in {elapsed:.1f}s"
    )


def test_criterion_07_faithful_judge_sanity(dissociation_universe):
    proxy, _, deltas = _dissociation_protocol(dissociation_universe, 0.0)
    assert float(np.mean(proxy)) >= 0.6
    assert abs(float(np.mean(deltas))) <= 2.0
    print(
        f"PASS criterion 7: faithful win {np.mean(proxy):.3f} with capability delta "
        f"{np.mean(deltas):+.2f}pp"
    )


# --------------------------------------------------------------------------
# criterion 8: random-vs-uncertainty parity pipeline
# --------------------------------------------------------------------------


def test_criterion_08_parity_harness(tmp_path):
    out = tmp_path / "parity"
    config = {
        "universe": {
            "num_train_prompts": 64,
            "num_eval_prompts": 32,
            "num_probe_prompts": 64,
            "responses_per_prompt": 8,
            "feature_dim": 16,
            "true_reward_scale": 3.0,
            "misalignment_rho": -0.8,
            "seed": 404,
        },
        "train": {
            "dpo": {"beta": 0.1, "learning_rate": 0.02, "max_steps": 40, "updates_per_sample": 4},
            "selection": {
                "batch_prompts": 8,
                "candidates_per_prompt": 4,
                "apl_top_prompts": 4,
                "label_budget": 8,
            },
            "sft": {"learning_rate": 0.02, "epochs": 6, "batch": 32},
        },
        "selectors": ["random", "apl"],
        "annotators": [
            {"label": "strong", "misalignment": 0.05, "noise_temperature": 0.5, "seed": 1}
        ],
        "evaluators": [
            {"label": "strong-eval", "misalignment": 0.05, "noise_temperature": 0.5, "seed": 2}
        ],
        "seeds": [42, 43, 44, 45, 46],
        "eval": {"n_trials": 500, "collapse_fraction": 0.1},
        "output_dir": str(out),
    }
    config_path = tmp_path / "parity.json"
    config_path.write_text(json.dumps(config))
    grid, manifest = parse_config(config_path)
    run_dirs = run_grid(grid, grid_manifest=manifest)
    assert len(run_dirs) == 10

    summary, welch, pareto = aggregate_summary(run_dirs)
    write_summary(summary, welch, pareto, out)
    assert (out / "summary.csv").exists() and (out / "welch.csv").exists()

    by_selector = {row.selector: row for row in summary}
    assert set(by_selector) == {"random", "apl"}
    for row in by_selector.values():
        assert row.n_seeds == 5 and row.win_rate_std >= 0.0
    win_test = next(r for r in welch if r.metric == "win_rate")
    delta_test = next(r for r in welch if r.metric == "delta_acc_pp")
    for record in (win_test, delta_test):
        assert record.note == "" and 0.0 <= record.p_value <= 1.0
    print(
        "PASS criterion 8: parity table emitted; "
        f"win-rate random {by_selector['random'].win_rate_mean:.3f}"
        f"+/-{by_selector['random'].win_rate_std:.3f} vs apl "
        f"{by_selector['apl'].win_rate_mean:.3f}+/-{by_selector['apl'].win_rate_std:.3f}; "
        f"Welch p: win {win_test.p_value:.3f}, delta {delta_test.p_value:.3f} "
        "(observed outcome, reported not asserted)"
    )


# --------------------------------------------------------------------------
# criterion 9: overhead accounting closed form
# --------------------------------------------------------------------------


def test_criterion_09_overhead_accounting():
    b, m, n_keep, budget = 4, 4, 2, 12
    gen = np.random.default_rng(2)
    features = gen.normal(size=(b, m, 8))
    policy, ref = Policy(gen.normal(size=8)), Policy(gen.normal(size=8))
    prompt_ids = np.arange(b)
    candidates = np.tile([0, 1, 2, 3], (b, 1))  # all distinct: no degenerate prompts
    entropies = entropy_estimate(np.array([[-0.3 - 0.05 * i] * m for i in range(b)]))
    columns = form_pairs(candidates)
    pairs = np.stack(columns, axis=1)
    assert not degenerate_rows(candidates).any()
    cfg = SelectionConfig(b, m, n_keep, budget)

    random_counters = OpCounters(generated_samples=b * m)
    selected_random = select_random(pairs, budget, np.random.default_rng(0))
    random_counters.judge_queries += len(selected_random)

    apl_counters = OpCounters(generated_samples=b * m)
    selected_apl, _ = select_apl(
        policy, ref, features, prompt_ids, entropies, *columns, cfg, 0.1, apl_counters
    )
    apl_counters.judge_queries += len(selected_apl)

    report = counters_report(apl_counters, random_counters)
    pairs_per_prompt = m * (m - 1) // 2
    closed_form = 4 * n_keep * pairs_per_prompt  # 2 policy + 2 ref evals per scored pair
    assert closed_form == 48
    assert report["extra_scoring_evals"] == closed_form
    assert apl_counters.policy_logprob_evals == 24
    assert apl_counters.ref_logprob_evals == 24
    assert report["judge_queries_delta"] == 0  # budget-matched at equal L
    assert report["generated_samples_delta"] == 0
    assert "not a reproduction" in report["wallclock_reference"]
    print(
        "PASS criterion 9: extra scoring evals = 48 = 4*N*C(M,2); wall-clock ratio "
        "documented as qualitative reference only"
    )


# --------------------------------------------------------------------------
# criterion 10: sweep determinism, byte-for-byte
# --------------------------------------------------------------------------


def test_criterion_10_sweep_determinism(tmp_path):
    def config_for(out):
        return {
            "universe": {
                "num_train_prompts": 32,
                "num_eval_prompts": 16,
                "num_probe_prompts": 16,
                "responses_per_prompt": 6,
                "feature_dim": 12,
                "true_reward_scale": 2.0,
                "misalignment_rho": -0.5,
                "seed": 77,
            },
            "train": {
                "dpo": {"beta": 0.1, "learning_rate": 0.02, "max_steps": 15, "updates_per_sample": 2},
                "selection": {
                    "batch_prompts": 6,
                    "candidates_per_prompt": 4,
                    "apl_top_prompts": 3,
                    "label_budget": 6,
                },
                "sft": {"learning_rate": 0.03, "epochs": 3, "batch": 16},
            },
            "selectors": ["random", "apl"],
            "annotators": [
                {"label": "weak", "misalignment": 0.9, "noise_temperature": 1.0, "seed": 4}
            ],
            "evaluators": [
                {"label": "weak-eval", "misalignment": 0.9, "noise_temperature": 1.0, "seed": 5},
                {"label": "oracle", "kind": "deterministic", "misalignment": 0.0, "seed": 6},
            ],
            "seeds": [42, 43],
            "eval": {"n_trials": 300, "collapse_fraction": 0.1},
            "output_dir": str(out),
        }

    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config_for(out)))
        grid, manifest = parse_config(config_path)
        run_dirs = run_grid(grid, grid_manifest=manifest)
        summary, welch, pareto = aggregate_summary(run_dirs)
        write_summary(summary, welch, pareto, out)
        outputs.append((out, run_dirs))

    (out_a, dirs_a), (out_b, dirs_b) = outputs
    for dir_a, dir_b in zip(dirs_a, dirs_b):
        assert dir_a.name == dir_b.name
        for name in ("metrics.csv", "eval.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (
                f"{dir_a.name}/{name} differs between reruns"
            )
    assert (out_a / "pareto.csv").read_bytes() == (out_b / "pareto.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    print("PASS criterion 10: reruns byte-identical across metrics, eval, pareto, summary")
