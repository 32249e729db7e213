"""Supervised fit and the online loop: determinism, budgets, aborts."""

import io
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preflab import (
    ConfigurationError,
    DpoConfig,
    Judge,
    JudgeSpec,
    OpCounters,
    OptimizerState,
    Policy,
    SelectionConfig,
    SftConfig,
    TrainConfig,
    TrainingError,
    UniverseConfig,
    dpo_batch_grad,
    dpo_updates,
    form_pairs,
    generate_universe,
    log_prob,
    lr_at_step,
    optimizer_step,
    parse_config,
    preference_deltas,
    reference_preset,
    response_probabilities,
    probe_accuracy,
    run_online_dpo,
    sft_fit,
)
from preflab import policy as policy_module
from preflab import selection, trainer
from preflab.harness import _json_floats, write_events
from preflab.rng import substream
from preflab.trainer import IterationLog, RunResult


def mean_chosen_log_prob(policy, universe):
    """Mean log-likelihood of the best response over train prompts."""
    train = universe.role_ids("train")
    chosen = universe.true_reward[train].argmax(axis=1).tolist()
    total = sum(log_prob(policy, universe.features[i], y) for i, y in zip(train, chosen))
    return total / len(train)


def dense_universe(seed=5):
    return generate_universe(
        UniverseConfig(
            num_train_prompts=32,
            num_eval_prompts=8,
            num_probe_prompts=16,
            responses_per_prompt=6,
            feature_dim=12,
            true_reward_scale=2.0,
            misalignment_rho=-0.5,
            seed=seed,
        )
    )


def replay_updates(universe, sft_policy, cfg, lines):
    """The per-update path (``dpo_batch_grad``, ``lr_at_step``,
    ``optimizer_step``, one call each per update) over each iteration's
    labelled pairs, read back from the run's selection events. Returns the
    parameters and step it ends at, each iteration's (first-update loss, last
    learning rate tried) and the error that stopped it, if any."""
    events = [json.loads(line) for line in lines]
    ref = Policy(sft_policy.theta)
    theta, state, rows = ref.theta, OptimizerState.initial(ref.feature_dim), []
    for t in range(1, cfg.dpo.max_steps + 1):
        picked = [e for e in events if e["type"] == "selection" and e["iteration"] == t]
        loss, lr = math.nan, lr_at_step(cfg.dpo, state.step)
        if picked:
            prompt_ids = [e["prompt_id"] for e in picked]
            winners = [e["winner"] for e in picked]
            losers = [sum(e["pair"]) - e["winner"] for e in picked]
            dphi = preference_deltas(universe.features, prompt_ids, winners, losers)
            try:
                for update in range(cfg.dpo.updates_per_sample):
                    update_loss, grad = dpo_batch_grad(Policy(theta), ref, dphi, cfg.dpo.beta)
                    if update == 0:
                        loss = update_loss
                    lr = lr_at_step(cfg.dpo, state.step)
                    theta, state = optimizer_step(state, theta, grad, lr)
            except TrainingError as exc:
                return theta, state.step, rows + [(loss, lr)], str(exc)
        rows.append((loss, lr))
    return theta, state.step, rows, None


def reference_loop(universe, sft_policy, cfg):
    """The online loop composed of the public, checked stages, each looked up
    on its module or class at call time so that a test can wrap it: the
    reference that ``run_online_dpo``, which calls the checking stages'
    unchecked kernels, must equal bit for bit. Its record keeps the stages'
    own dtypes."""
    sel = cfg.selection
    train_ids = trainer.batch_train_ids(universe, sel)
    ref = policy = sft_policy
    opt_state = OptimizerState.initial(policy.feature_dim)
    counters = OpCounters()
    prompt_rng = substream(cfg.run_seed, "prompts")
    gen_rng = substream(cfg.run_seed, "generation")
    select_rng = substream(cfg.run_seed, "random-selector")
    annotator = Judge.for_run(cfg.annotator, universe, cfg.run_seed)
    features = universe.features
    logs, prompt_record, candidate_record, selections, scores = [], [], [], [], []
    abort_reason = None
    for t in range(1, cfg.dpo.max_steps + 1):
        prompt_ids = train_ids[prompt_rng.permutation(train_ids.size)[: sel.batch_prompts]]
        batch_features = features[prompt_ids]
        candidates, log_probs = selection.generate_candidates(
            policy, batch_features, sel, gen_rng, counters
        )
        prompt_record.append(prompt_ids)
        candidate_record.append(candidates)
        pairs = np.stack(selection.form_pairs(candidates), axis=1)
        entropies = selection.entropy_estimate(log_probs)
        if cfg.selector == "random":
            picked = selection.select_random(pairs, sel.label_budget, select_rng)
        else:
            picked, margins = selection.select_apl(
                policy, ref, batch_features, prompt_ids, entropies, *pairs.T, sel, cfg.dpo.beta,
                counters,
            )
            scores.append(margins)
        rows, y1, y2 = pairs[picked].T
        pair_prompts = prompt_ids[rows]
        winners = annotator.prefer_batch(pair_prompts, y1, y2)
        counters.judge_queries += picked.size
        selections.append(np.stack([pair_prompts, y1, y2, winners], axis=1))
        mean_loss, last_lr = math.nan, lr_at_step(cfg.dpo, opt_state.step)
        if picked.size:
            losers = np.where(winners == y1, y2, y1)
            dphi = preference_deltas(features, pair_prompts, winners, losers)
            batch = dpo_updates(policy, ref, opt_state, dphi, cfg.dpo)
            opt_state, mean_loss, last_lr = batch.state, batch.loss, batch.lr
            policy = Policy(batch.theta)
            abort_reason = batch.abort_reason
        logs.append(IterationLog(
            iteration=t, mean_loss=mean_loss, labeled_pairs=picked.size, lr=last_lr,
            entropy_min=float(entropies.min()),
            entropy_mean=float(entropies.sum() / entropies.size),
            entropy_max=float(entropies.max()),
        ))
        if abort_reason is not None:
            break
    return RunResult(
        final_policy=policy, sft_policy=ref, per_iteration=logs, counters=counters,
        abort_reason=abort_reason, prompt_ids=np.array(prompt_record),
        candidates=np.array(candidate_record), selections=np.concatenate(selections),
        scores=np.concatenate(scores) if cfg.selector == "apl" else None,
    )


def four_runs(stream_run):
    """APL, random, collapsed and aborted runs on ``dense_universe()``, each as
    (cfg, result, event lines)."""
    u = dense_universe()
    apl_cfg, random_cfg = train_config(selector="apl"), train_config()
    diverging = train_config(
        dpo=DpoConfig(beta=50.0, learning_rate=1e308, warmup_ratio=0.0, max_steps=6)
    )
    runs = {
        "apl": (apl_cfg, sft_fit(u, apl_cfg)),
        "random": (random_cfg, sft_fit(u, random_cfg)),
        # a point-mass sampler: degenerate prompts and budget shortfalls
        "collapsed": (apl_cfg, Policy(1e4 * u.probe_direction)),
        "aborted": (diverging, sft_fit(u, diverging)),
    }
    with np.errstate(over="ignore", invalid="ignore"):
        return {name: (cfg, *stream_run(u, sft, cfg)) for name, (cfg, sft) in runs.items()}


def train_config(**overrides):
    base = dict(
        dpo=DpoConfig(beta=0.1, learning_rate=0.02, max_steps=10, updates_per_sample=4),
        selection=SelectionConfig(
            batch_prompts=8, candidates_per_prompt=4, apl_top_prompts=4, label_budget=8
        ),
        selector="random",
        annotator=JudgeSpec(label="annotator", misalignment=0.0, noise_temperature=1.0, seed=1),
        sft=SftConfig(learning_rate=0.05, epochs=4, batch=16),
        run_seed=42,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSftFit:
    def test_improves_chosen_log_likelihood(self):
        u = dense_universe()
        cfg = train_config()
        fitted = sft_fit(u, cfg)
        baseline = mean_chosen_log_prob(Policy(np.zeros(u.config.feature_dim)), u)
        assert mean_chosen_log_prob(fitted, u) > baseline

    def test_tabular_long_fit_approaches_point_mass(self):
        cfg_u = UniverseConfig(
            num_train_prompts=6,
            num_eval_prompts=2,
            num_probe_prompts=2,
            responses_per_prompt=4,
            feature_dim=10 * 4,
            tabular_mode=True,
            seed=3,
        )
        u = generate_universe(cfg_u)
        cfg = train_config(sft=SftConfig(learning_rate=0.2, epochs=200, batch=6))
        fitted = sft_fit(u, cfg)
        for prompt_id in u.role_ids("train"):
            chosen = int(np.argmax(u.true_reward[prompt_id]))
            assert response_probabilities(fitted, u.features[prompt_id])[chosen] > 0.9

    def test_same_seed_identical_theta(self):
        u = dense_universe()
        a = sft_fit(u, train_config(run_seed=7))
        b = sft_fit(u, train_config(run_seed=7))
        np.testing.assert_array_equal(a.theta, b.theta)


class TestReferencePreset:
    def test_headline_values(self):
        preset = reference_preset()
        assert preset.dpo.max_steps == 625
        assert preset.selection.batch_prompts == 64
        assert preset.dpo.updates_per_sample == 4
        assert preset.dpo.warmup_ratio == 0.05
        # artifact defaults, not protocol constants
        assert preset.dpo.beta == 0.1
        assert preset.selection.candidates_per_prompt == 4
        assert preset.selection.apl_top_prompts == 32
        assert preset.selection.label_budget == 64


class TestOnlineLoop:
    def test_zero_iterations_returns_sft(self, stream_run):
        u = dense_universe()
        cfg = train_config(dpo=DpoConfig(max_steps=0))
        sft = sft_fit(u, cfg)
        result, _ = stream_run(u, sft, cfg)
        np.testing.assert_array_equal(result.final_policy.theta, sft.theta)
        assert result.per_iteration == []
        assert result.counters.judge_queries == 0

    def test_reference_is_bitwise_sft(self, stream_run):
        u = dense_universe()
        cfg = train_config()
        sft = sft_fit(u, cfg)
        result, _ = stream_run(u, sft, cfg)
        np.testing.assert_array_equal(result.sft_policy.theta, sft.theta)

    def test_judge_queries_match_labeled_pairs(self, stream_run):
        u = dense_universe()
        cfg = train_config()
        sft = sft_fit(u, cfg)
        result, _ = stream_run(u, sft, cfg)
        total = sum(log.labeled_pairs for log in result.per_iteration)
        assert result.counters.judge_queries == total
        assert total <= cfg.dpo.max_steps * cfg.selection.label_budget

    def test_tabular_faithful_judge_preserves_probe_accuracy(self, stream_run):
        # tabular blocks are disjoint, so training cannot move probe prompts
        cfg_u = UniverseConfig(
            num_train_prompts=8,
            num_eval_prompts=2,
            num_probe_prompts=4,
            responses_per_prompt=4,
            feature_dim=14 * 4,
            tabular_mode=True,
            seed=13,
        )
        u = generate_universe(cfg_u)
        cfg = train_config(
            annotator=JudgeSpec(label="annotator", kind="deterministic", misalignment=0.0),
            selection=SelectionConfig(
                batch_prompts=4, candidates_per_prompt=4, apl_top_prompts=2, label_budget=4
            ),
        )
        sft = sft_fit(u, cfg)
        result, _ = stream_run(u, sft, cfg)
        drop = probe_accuracy(sft, u) - probe_accuracy(result.final_policy, u)
        assert drop <= 0.01

    def test_run_result_serialization_deterministic(self, stream_run):
        u = dense_universe()
        cfg = train_config(selector="apl")
        a, a_lines = stream_run(u, sft_fit(u, cfg), cfg)
        b, b_lines = stream_run(u, sft_fit(u, cfg), cfg)
        assert a_lines == b_lines
        # through json.dumps, so that a NaN mean_loss compares equal to itself
        for run_a, run_b in (
            ([vars(log) for log in a.per_iteration], [vars(log) for log in b.per_iteration]),
            (asdict(a.counters), asdict(b.counters)),
        ):
            assert json.dumps(run_a, sort_keys=True) == json.dumps(run_b, sort_keys=True)
        for name in ("final_policy", "sft_policy"):
            assert getattr(a, name).theta.tobytes() == getattr(b, name).theta.tobytes()
        for name in ("prompt_ids", "candidates", "selections", "scores"):
            record_a, record_b = getattr(a, name), getattr(b, name)
            assert record_a.dtype == record_b.dtype, name
            assert record_a.tobytes() == record_b.tobytes(), name
        assert a.abort_reason is b.abort_reason is None

    def test_every_event_line_is_canonical_json(self, stream_run):
        runs = four_runs(stream_run)
        _, aborted, aborted_lines = runs["aborted"]
        assert runs["apl"][1].abort_reason is None
        # the abort event, the stream's last line, carries the result's reason
        assert json.loads(aborted_lines[-1])["reason"] == aborted.abort_reason
        assert aborted.abort_reason.startswith("non-finite parameters at update ")

        kinds = set()
        for _, _, lines in runs.values():
            for line in lines:
                # one line, newline-terminated, sorted keys, the encoder's own text
                assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
                kinds.add(json.loads(line)["type"])
        assert kinds == {"candidates", "degenerate_prompt", "budget_shortfall", "selection", "abort"}
        random_events = [json.loads(line) for line in runs["random"][2]]
        scores = [e["score"] for e in random_events if e["type"] == "selection"]
        assert scores and all(score is None for score in scores)

    def test_the_rendered_events_give_back_the_record(self, stream_run):
        u = dense_universe()
        n_prompts, n_responses = u.features.shape[:2]
        for name, (cfg, result, lines) in four_runs(stream_run).items():
            events = [json.loads(line) for line in lines]
            of_type = lambda kind: [e for e in events if e["type"] == kind]
            candidates, selections = of_type("candidates"), of_type("selection")
            assert [e["prompt_ids"] for e in candidates] == result.prompt_ids.tolist(), name
            assert [e["candidates"] for e in candidates] == result.candidates.tolist(), name
            assert [[e["prompt_id"], *e["pair"], e["winner"]] for e in selections] == (
                result.selections.tolist()
            ), name
            scores = [e["score"] for e in selections]
            if result.scores is None:
                assert cfg.selector == "random" and scores == [None] * len(selections)
            else:
                assert result.scores.dtype == np.float64 and scores == result.scores.tolist()
            # the prompts form_pairs forms no pair for, per iteration, in batch order
            degenerate = [(e["iteration"], e["prompt_id"]) for e in of_type("degenerate_prompt")]
            assert degenerate == [
                (t, prompt_id)
                for t, (prompt_ids, rows) in enumerate(zip(result.prompt_ids, result.candidates), 1)
                for prompt_id in prompt_ids[
                    np.bincount(form_pairs(rows)[0], minlength=len(rows)) == 0
                ].tolist()
            ], name
            budget = cfg.selection.label_budget
            shortfalls = [(e["iteration"], e["budget"], e["selected"])
                          for e in of_type("budget_shortfall")]
            assert shortfalls == [
                (t, budget, log.labeled_pairs)
                for t, log in enumerate(result.per_iteration, 1)
                if log.labeled_pairs < budget
            ], name
            aborts = of_type("abort")
            if result.abort_reason is None:
                assert aborts == []
            else:
                assert events[-1] == aborts[0] == {
                    "type": "abort", "iteration": len(result.per_iteration),
                    "reason": result.abort_reason,
                }
            assert len(result.selections) == sum(log.labeled_pairs for log in result.per_iteration)
            for array, bound in (
                (result.prompt_ids, n_prompts),
                (result.candidates, n_responses),
                (result.selections, max(n_prompts, n_responses)),
            ):
                assert array.dtype == np.min_scalar_type(bound), name

    @pytest.mark.parametrize(
        "values", [[], [0.0], [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -1.5e-7]]
    )
    def test_score_text_is_the_encoders(self, values):
        assert _json_floats(values) == [json.dumps(v) for v in values]

    def test_candidate_streams_paired_across_selectors(self, stream_run):
        u = dense_universe()
        sft_a = sft_fit(u, train_config(selector="random"))
        _, random_lines = stream_run(u, sft_a, train_config(selector="random"))
        sft_b = sft_fit(u, train_config(selector="apl"))
        _, apl_lines = stream_run(u, sft_b, train_config(selector="apl"))
        first = lambda lines: next(e for e in map(json.loads, lines) if e["type"] == "candidates")
        assert first(random_lines) == first(apl_lines)

    def test_divergence_aborts_with_partial_result(self, stream_run):
        u = dense_universe()
        # Adam's first step moves each parameter by about the learning rate,
        # which is at the float ceiling; the second overflows
        cfg = train_config(
            dpo=DpoConfig(
                beta=50.0,
                learning_rate=1e308,
                warmup_ratio=0.0,
                max_steps=6,
                updates_per_sample=2,
            )
        )
        sft = sft_fit(u, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            result, lines = stream_run(u, sft, cfg)
        aborts = [e for e in map(json.loads, lines) if e["type"] == "abort"]
        assert len(aborts) == 1
        assert aborts[0]["reason"] == "non-finite parameters at update 2"
        assert len(result.per_iteration) <= 6
        assert np.all(np.isfinite(result.final_policy.theta))

    def test_mid_batch_abort_keeps_the_updates_before_it(self, stream_run):
        # warmup puts the first update's rate at 0 and the third's at inf, so
        # update 3 of the first batch is the first non-finite one
        cfg = train_config(
            dpo=DpoConfig(
                beta=50.0, learning_rate=1e308, warmup_ratio=0.1, max_steps=8, updates_per_sample=4
            )
        )
        u = dense_universe()
        sft = sft_fit(u, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            result, lines = stream_run(u, sft, cfg)
            theta, step, rows, reason = replay_updates(u, sft, cfg, lines)
        assert reason == result.abort_reason == "non-finite parameters at update 3"
        assert lines[-1] == (
            '{"iteration": 1, "reason": "non-finite parameters at update 3", "type": "abort"}\n'
        )
        # the policy of update 2, the last finite one
        assert step == 2
        assert result.final_policy.theta.tobytes() == theta.tobytes()
        assert not np.array_equal(theta, sft.theta)
        # the metrics row: the loss of the batch's first update, the rate of
        # the update that failed
        logged = [(log.mean_loss, log.lr) for log in result.per_iteration]
        assert logged == rows == [(math.log(2.0), math.inf)]

    def test_supervised_divergence_names_the_fit(self):
        u = dense_universe()
        cfg = train_config(sft=SftConfig(learning_rate=1e308, epochs=3, batch=8))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="supervised fit diverged at update 3"):
                sft_fit(u, cfg)

    @pytest.mark.parametrize("seed", [42, 43])
    def test_supervised_divergence_warns_nothing(self, seed):
        # a smoke-sized fit at a learning rate at the float ceiling stops at
        # its first non-finite logits, before numpy warns
        u = dense_universe(seed=7)
        cfg = train_config(sft=SftConfig(learning_rate=1e308, epochs=3, batch=16), run_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                TrainingError,
                match=r"^supervised fit diverged at update 3; reduce sft.learning_rate$",
            ):
                sft_fit(u, cfg)

    def test_every_update_policy_is_checked(self, monkeypatch, stream_run):
        # the SFT policy is the reference and the starting policy as it is; each
        # labelled batch's update builds one Policy, through its checks
        u = dense_universe()
        cfg = train_config()
        sft = sft_fit(u, cfg)
        validations = []
        post_init = Policy.__post_init__

        def counting_post_init(self):
            validations.append(self.theta)
            post_init(self)

        monkeypatch.setattr(Policy, "__post_init__", counting_post_init)
        result, _ = stream_run(u, sft, cfg)
        updating = [log for log in result.per_iteration if log.labeled_pairs > 0]
        assert updating and len(validations) == len(updating)
        assert validations[-1] is result.final_policy.theta
        assert result.sft_policy is sft
        assert not result.final_policy.theta.flags.writeable

    def test_batch_larger_than_pool_rejected(self, stream_run):
        u = dense_universe()
        cfg = train_config(
            selection=SelectionConfig(
                batch_prompts=64, candidates_per_prompt=4, apl_top_prompts=4, label_budget=8
            )
        )
        sft = sft_fit(u, cfg)
        with pytest.raises(ConfigurationError, match="train prompts"):
            stream_run(u, sft, cfg)

    def test_the_run_record_stays_compact(self, tmp_path):
        # a reference_preset() cell renders 42.8k event lines (4.1 MB); the
        # loop holds its record as arrays sized by the labels it bought, and
        # write_events renders one iteration at a time
        config = Path(__file__).resolve().parent.parent / "configs" / "goodhart_weak.json"
        grid, _ = parse_config(config)
        u = generate_universe(grid.universe)
        path = tmp_path / "events.jsonl"
        for selector in ("random", "apl"):
            cfg = replace(reference_preset(), selector=selector)
            sft = sft_fit(u, cfg)
            tracemalloc.start()
            try:
                result = run_online_dpo(u, sft, cfg)
                _, loop_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            tracemalloc.start()
            try:
                with open(path, "w", encoding="utf-8") as events:
                    write_events(events, result, cfg)
                _, write_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.abort_reason is None and len(result.per_iteration) == cfg.dpo.max_steps
            assert path.stat().st_size > 4_000_000
            assert loop_peak < 1_000_000 and write_peak < 1_000_000, (selector, loop_peak, write_peak)

    def test_collapsed_policy_logs_degenerate_and_shortfall(self, stream_run):
        u = dense_universe()
        cfg = train_config()
        # a huge theta makes every prompt's sampler a point mass
        sharp = Policy(1e4 * u.probe_direction)
        _, lines = stream_run(u, sharp, cfg)
        kinds = {json.loads(line)["type"] for line in lines}
        assert "degenerate_prompt" in kinds
        assert "budget_shortfall" in kinds


@pytest.fixture(scope="module")
def wide_universe():
    """Prompt ids past 1000 and response indices past 100."""
    return generate_universe(
        UniverseConfig(
            num_train_prompts=2000,
            num_eval_prompts=2,
            num_probe_prompts=2,
            responses_per_prompt=120,
            feature_dim=3,
            misalignment_rho=-0.5,
            seed=3,
        )
    )


def recording(fn, name, calls):
    """``fn``, appending (name, args, result) to ``calls`` at each call."""

    def wrapper(*args):
        result = fn(*args)
        calls.append((name, args, result))
        return result

    return wrapper


def expected_events(calls, cfg, result):
    """Each event of the run as a dict, rebuilt from what its stages returned."""
    events = []
    steps = iter(calls)
    for t, prompt_ids in enumerate(result.prompt_ids, 1):
        _, _, (candidates, _) = next(steps)
        events.append(
            {"type": "candidates", "iteration": t, "prompt_ids": prompt_ids.tolist(),
             "candidates": candidates.tolist()}
        )
        _, _, (rows, _, _) = next(steps)
        degenerate = np.bincount(rows, minlength=len(candidates)) == 0
        events += [
            {"type": "degenerate_prompt", "iteration": t, "prompt_id": prompt_id}
            for prompt_id in prompt_ids[degenerate].tolist()
        ]
        name, _, picked = next(steps)
        scores = [None] * len(picked)
        if name == "select_apl":
            picked, margins = picked
            scores = margins.tolist()
        if len(picked) < cfg.selection.label_budget:
            events.append(
                {"type": "budget_shortfall", "iteration": t,
                 "budget": cfg.selection.label_budget, "selected": len(picked)}
            )
        _, (_, pair_prompts, y1, y2), winners = next(steps)
        events += [
            {"type": "selection", "iteration": t, "pair": [a, b], "prompt_id": prompt_id,
             "score": score, "strategy": cfg.selector, "winner": winner}
            for prompt_id, a, b, score, winner in zip(
                pair_prompts.tolist(), y1.tolist(), y2.tolist(), scores, winners.tolist()
            )
        ]
    if result.abort_reason is not None:
        events.append(
            {"type": "abort", "iteration": len(result.per_iteration),
             "reason": result.abort_reason}
        )
    return events


# sharpness scales the starting policy along the probe direction: 0 samples
# uniformly over 120 responses (no degenerate prompt), 1e4 is a point mass
# (every prompt of the first batch degenerate). A learning rate of 1e-15 moves
# theta so little that APL margins read like 1.2e-17.
@settings(max_examples=16, deadline=None, database=None, derandomize=True)
@given(
    selector=st.sampled_from(["random", "apl"]),
    sharpness=st.sampled_from([0.0, 3.0, 1e4]),
    learning_rate=st.sampled_from([1e-15, 0.05]),
    run_seed=st.integers(0, 2**16),
)
@example(selector="apl", sharpness=0.0, learning_rate=1e-15, run_seed=0)
@example(selector="random", sharpness=1e4, learning_rate=0.05, run_seed=0)
def test_each_event_line_is_the_encoders_text_of_its_event(
    wide_universe, selector, sharpness, learning_rate, run_seed
):
    u = wide_universe
    cfg = train_config(
        dpo=DpoConfig(
            beta=0.1, learning_rate=learning_rate, warmup_ratio=0.0, max_steps=3,
            updates_per_sample=2,
        ),
        selector=selector,
        run_seed=run_seed,
    )
    calls = []
    sink = io.StringIO()
    sft = Policy(sharpness * u.probe_direction)
    # the stages' returns come from the reference loop of public stages, which
    # test_the_loop_is_its_public_stages holds run_online_dpo to
    with pytest.MonkeyPatch.context() as patch:
        for name in ("generate_candidates", "form_pairs", "select_random", "select_apl"):
            patch.setattr(selection, name, recording(getattr(selection, name), name, calls))
        patch.setattr(Judge, "prefer_batch", recording(Judge.prefer_batch, "prefer_batch", calls))
        reference = reference_loop(u, sft, cfg)
    result = run_online_dpo(u, sft, cfg)
    write_events(sink, result, cfg)
    events = expected_events(calls, cfg, reference)
    lines = sink.getvalue().splitlines(keepends=True)
    assert lines == [json.dumps(event, sort_keys=True) + "\n" for event in events]

    kinds = [event["type"] for event in events]
    if sharpness == 0.0:
        assert max(max(e.get("prompt_ids", [0])) for e in events) > 1000
        assert max(max(max(e.get("candidates", [[0]]))) for e in events) > 100
        assert "degenerate_prompt" not in kinds
    if sharpness == 1e4:
        # the first batch samples from the point mass: nothing to select
        first = [e for e in events if e["iteration"] == 1]
        assert {"type": "budget_shortfall", "iteration": 1, "budget": 8, "selected": 0} in first
        assert "selection" not in {e["type"] for e in first}
    if selector == "apl" and learning_rate == 1e-15 and "selection" in kinds:
        assert any("e-" in line for line in lines if '"selection"' in line)



def assert_same_run(result, reference):
    """θ, counters, logs, record and scores of two runs are equal bit for bit."""
    for name in ("final_policy", "sft_policy"):
        assert getattr(result, name).theta.tobytes() == getattr(reference, name).theta.tobytes()
    assert result.counters == reference.counters
    assert result.abort_reason == reference.abort_reason
    # repr, so that a NaN loss equals itself and every float is compared exactly
    assert repr(result.per_iteration) == repr(reference.per_iteration)
    for name in ("prompt_ids", "candidates", "selections"):
        got, want = getattr(result, name), getattr(reference, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
    if reference.scores is None:
        assert result.scores is None
    else:
        assert result.scores.tobytes() == reference.scores.tobytes()


@pytest.fixture(scope="module")
def goodhart_universe():
    config = Path(__file__).resolve().parent.parent / "configs" / "goodhart_weak.json"
    return generate_universe(parse_config(config)[0].universe)


def smoke_run():
    """configs/smoke.json's universe and its cell at seed 42."""
    grid, _ = parse_config(Path(__file__).resolve().parent.parent / "configs" / "smoke.json")
    cfg = TrainConfig(**vars(grid.train), annotator=grid.annotators[0], run_seed=42)
    return generate_universe(grid.universe), cfg


@pytest.mark.parametrize("selector", ["random", "apl"])
@pytest.mark.parametrize("shape", ["smoke", "reference", "aborted"])
def test_the_loop_is_its_public_stages(goodhart_universe, selector, shape):
    if shape == "smoke":
        u, cfg = smoke_run()
    elif shape == "reference":
        # reference_preset()'s B = 64 prompts and L = 64 labels, for a few steps
        u, preset = goodhart_universe, reference_preset()
        cfg = replace(preset, dpo=replace(preset.dpo, max_steps=12))
    else:
        u, cfg = dense_universe(), train_config(
            dpo=DpoConfig(beta=50.0, learning_rate=1e308, warmup_ratio=0.0, max_steps=6)
        )
    cfg = replace(cfg, selector=selector)
    sft = sft_fit(u, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_online_dpo(u, sft, cfg)
        reference = reference_loop(u, sft, cfg)
    assert (result.abort_reason is not None) == (shape == "aborted")
    assert len(result.selections) > 0
    assert_same_run(result, reference)


@pytest.mark.parametrize("selector", ["random", "apl"])
@pytest.mark.parametrize("shape", ["smoke", "aborted"])
def test_the_loop_looks_its_stages_up_where_a_tracer_wraps_them(monkeypatch, selector, shape):
    # bench/spans.py times a stage by rebinding its name in the trainer module:
    # the loop must call each wrapped stage once per iteration it runs
    calls = []
    for name in ("generate_candidates", "form_pairs"):
        monkeypatch.setattr(trainer, name, recording(getattr(trainer, name), name, calls))
    if shape == "smoke":
        u, cfg = smoke_run()
    else:
        u, cfg = dense_universe(), train_config(
            dpo=DpoConfig(beta=50.0, learning_rate=1e308, warmup_ratio=0.0, max_steps=6)
        )
    cfg = replace(cfg, selector=selector)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_online_dpo(u, sft_fit(u, cfg), cfg)
    steps = len(result.per_iteration)
    assert (result.abort_reason is not None) == (shape == "aborted")
    assert 0 < steps and (steps < cfg.dpo.max_steps) == (shape == "aborted")
    assert [name for name, _, _ in calls] == ["generate_candidates", "form_pairs"] * steps


def test_the_loop_checks_indices_a_fixed_number_of_times(monkeypatch):
    # every index the loop builds is in range by construction: its checks run
    # once per run, not once per iteration
    calls = []
    check = policy_module.check_indices

    def counting_check(*args):
        calls.append(args[-1])
        check(*args)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "preflab"]
    for module in modules:
        if getattr(module, "check_indices", None) is check:
            monkeypatch.setattr(module, "check_indices", counting_check)
    u = dense_universe()
    counts = []
    for selector in ("random", "apl"):
        for steps in (2, 12):
            cfg = train_config(selector=selector, dpo=DpoConfig(max_steps=steps))
            sft = sft_fit(u, cfg)
            del calls[:]
            result = run_online_dpo(u, sft, cfg)
            assert len(result.per_iteration) == steps
            counts.append(len(calls))
    assert counts[0] == counts[1] and counts[2] == counts[3], counts
    assert counts == [0, 0, 0, 0]  # the feature check is check_feature_dim's
