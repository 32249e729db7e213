"""The batched closed-form paths against per-pair and per-prompt oracles.

Each oracle is the loop the batched code replaced, written with the public
per-prompt functions (``implicit_reward``, ``grad_log_prob``,
``log_prob_vector``, ``sample_response``, ``Judge.prefer``) or plain Python
(``itertools.combinations``). Inputs are Gaussian features drawn from a
hypothesis-chosen seed, so exact ties occur only where both forms tie exactly
(at the reference policy).
"""

import dataclasses
import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preflab import (
    ContractError,
    DpoConfig,
    Judge,
    JudgeSpec,
    OpCounters,
    OptimizerState,
    Policy,
    PreferenceTriple,
    SelectionConfig,
    UniverseConfig,
    TrainingError,
    collapse_metrics,
    dpo_batch_grad,
    dpo_updates,
    entropy_estimate,
    estimate_win_rate,
    form_pairs,
    generate_candidates,
    generate_universe,
    grad_log_prob,
    implicit_reward,
    log_prob_vector,
    lr_at_step,
    optimizer_step,
    preference_deltas,
    sample_response,
    select_apl,
    select_random,
)
from preflab.selection import degenerate_rows

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def gaussian_features(gen, n, v, d):
    """(n, v, d) features: prompt by prompt, the draws of n (v, d) calls."""
    return gen.normal(size=(n, v, d))


# --------------------------------------------------------------------------
# DPO: h = beta * (theta - theta_ref) . (phi_w - phi_l)
# --------------------------------------------------------------------------


def dpo_oracle(policy, ref, batch, beta):
    """Per-pair loss and gradient, plus the largest summand magnitude."""
    loss, grad, scale = 0.0, np.zeros(policy.feature_dim), 0.0
    for rows, t in batch:
        h = implicit_reward(policy, ref, rows, t.winner, beta) - implicit_reward(
            policy, ref, rows, t.loser, beta
        )
        loss += float(np.logaddexp(0.0, -h))
        term = -beta * math.exp(-np.logaddexp(0.0, h)) * (
            grad_log_prob(policy, rows, t.winner) - grad_log_prob(policy, rows, t.loser)
        )
        grad += term
        scale = max(scale, float(np.max(np.abs(term))))
    return loss / len(batch), grad / len(batch), scale


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(2, 8),
    d=st.integers(1, 16),
    n=st.integers(1, 32),
    theta_scale=st.sampled_from([0.1, 1.0, 10.0]),
    beta=st.sampled_from([0.05, 0.5, 5.0]),
)
def test_dpo_batch_grad_matches_per_pair_oracle(seed, v, d, n, theta_scale, beta):
    # theta_scale 10 with beta 5 puts |h| in the hundreds: softplus and the
    # sigmoid weight both sit deep in their tails
    gen = np.random.default_rng(seed)
    features = gaussian_features(gen, 4, v, d)
    policy = Policy(gen.normal(scale=theta_scale, size=d))
    ref = Policy(gen.normal(scale=theta_scale, size=d))
    batch = []
    for _ in range(n):
        prompt_id = int(gen.integers(4))
        w, l = gen.choice(v, size=2, replace=False)
        batch.append((features[prompt_id], PreferenceTriple(prompt_id, int(w), int(l))))
    ids, winners, losers = zip(*((t.prompt_id, t.winner, t.loser) for _, t in batch))
    dphi = preference_deltas(features, ids, winners, losers)

    loss, grad = dpo_batch_grad(policy, ref, dphi, beta)
    want_loss, want_grad, scale = dpo_oracle(policy, ref, batch, beta)
    assert math.isclose(loss, want_loss, rel_tol=1e-12, abs_tol=0.0)
    # a mean of signed terms can cancel, so the bound scales with the terms
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * scale)


# max_steps 10 with warmup_ratio 0.1 ends the warmup at update k <= 5, so
# start steps in [0, 10] fall before, across and after its end
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    n=st.integers(1, 64),
    d=st.integers(1, 16),
    start=st.integers(0, 10),
    beta=st.sampled_from([0.05, 0.5, 5.0]),
    learning_rate=st.sampled_from([1e-3, 0.1, 1e308]),
    zero_moments=st.booleans(),
)
@example(
    seed=9, k=2, n=3, d=2, start=4, beta=0.5, learning_rate=1e308, zero_moments=False
).via("an abort at the batch's first update")
def test_dpo_updates_is_successive_single_updates(
    seed, k, n, d, start, beta, learning_rate, zero_moments
):
    # at a learning rate at the float ceiling, zero moments move each parameter
    # by about the rate per update, so most such batches overflow part-way: the
    # kernel then keeps what the per-update path had before it raised
    cfg = DpoConfig(
        beta=beta, learning_rate=learning_rate, warmup_ratio=0.1, updates_per_sample=k,
        max_steps=10,
    )
    gen = np.random.default_rng(seed)
    policy, ref = Policy(gen.normal(size=d)), Policy(gen.normal(size=d))
    dphi = gen.normal(size=(n, d))
    moments = (np.zeros(d), np.zeros(d)) if zero_moments else (gen.normal(size=d), gen.random(d))
    state = OptimizerState(start, *moments)
    arrays = (policy.theta, ref.theta, dphi, state.first_moment, state.second_moment)
    inputs = [a.tobytes() for a in arrays]

    theta, want_state, losses, lr, reason = policy.theta, state, [], None, None
    with np.errstate(over="ignore", invalid="ignore"):
        batch = dpo_updates(policy, ref, state, dphi, cfg)
        try:
            for _ in range(k):
                loss, grad = dpo_batch_grad(Policy(theta), ref, dphi, beta)
                losses.append(loss)
                lr = lr_at_step(cfg, want_state.step)
                theta, want_state = optimizer_step(want_state, theta, grad, lr)
        except TrainingError as exc:
            reason = str(exc)

    assert batch.abort_reason == reason
    assert batch.theta.tobytes() == theta.tobytes()
    assert batch.state.step == want_state.step
    assert batch.state.first_moment.tobytes() == want_state.first_moment.tobytes()
    assert batch.state.second_moment.tobytes() == want_state.second_moment.tobytes()
    assert np.float64(batch.loss).tobytes() == np.float64(losses[0]).tobytes()
    assert batch.lr == lr
    # the kernel works on new arrays: its inputs, the start state's included, are untouched
    assert [a.tobytes() for a in arrays] == inputs


def test_dpo_updates_contract_errors():
    policy, state, cfg = Policy(np.ones(3)), OptimizerState.initial(3), DpoConfig()
    with pytest.raises(ContractError, match="non-empty"):
        dpo_updates(policy, policy, state, np.zeros((0, 3)), cfg)
    with pytest.raises(ContractError, match="feature dim"):
        dpo_updates(policy, Policy(np.ones(4)), state, np.ones((2, 3)), cfg)


# --------------------------------------------------------------------------
# APL: margin(a, b) = beta * |z_a - z_b|, z = F (theta - theta_ref)
# --------------------------------------------------------------------------


def pools_oracle(candidates):
    """Each prompt's pool: itertools.combinations over its sorted distinct values."""
    return [list(itertools.combinations(sorted(set(row)), 2)) for row in candidates.tolist()]


def as_tuples(pairs, picked, prompt_ids):
    return [(int(prompt_ids[r]), (int(a), int(b))) for r, a, b in pairs[picked]]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1), b=st.integers(1, 12), m=st.integers(2, 7), v=st.integers(1, 9)
)
def test_form_pairs_matches_combinations_oracle(seed, b, m, v):
    candidates = np.random.default_rng(seed).integers(v, size=(b, m))
    pairs, degenerate = np.stack(form_pairs(candidates), axis=1), degenerate_rows(candidates)
    pools = pools_oracle(candidates)
    assert [(r, (a, c)) for r, a, c in pairs.tolist()] == [
        (row, pair) for row, pool in enumerate(pools) for pair in pool
    ]
    assert degenerate.tolist() == [not pool for pool in pools]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 10),
    m=st.integers(2, 6),
    v=st.integers(1, 6),
    data=st.data(),
)
def test_selectors_return_at_most_budget_distinct_pairs(seed, b, m, v, data):
    n_keep = data.draw(st.integers(1, b))
    budget = data.draw(st.integers(1, n_keep * m * (m - 1) // 2))
    cfg = SelectionConfig(b, m, n_keep, budget)
    gen = np.random.default_rng(seed)
    candidates = gen.integers(v, size=(b, m))
    columns = form_pairs(candidates)
    pairs, degenerate = np.stack(columns, axis=1), degenerate_rows(candidates)
    policy, ref = Policy(gen.normal(size=3)), Policy(gen.normal(size=3))
    features, prompt_ids = gen.normal(size=(b, v, 3)), gen.permutation(4 * b)[:b]
    apl_picked, _ = select_apl(
        policy, ref, features, prompt_ids, -gen.normal(size=(b, m)).mean(axis=1), *columns,
        cfg, 0.2, OpCounters(),
    )
    for picked in (select_random(pairs, budget, gen), apl_picked):
        assert len(picked) <= budget and len(set(picked.tolist())) == len(picked)
        assert not degenerate[pairs[picked, 0]].any()


def apl_oracle(policy, ref, features, candidates, log_probs, cfg, beta):
    """Per-prompt pools, entropy ranking and a per-pair implicit_reward sort;
    batch row i is prompt id i."""
    pools = pools_oracle(candidates)
    ranked = sorted(
        (float(np.mean(lp)), prompt_id)
        for prompt_id, lp in enumerate(log_probs.tolist())
        if pools[prompt_id]
    )
    counters = OpCounters()
    scored = []
    for _, prompt_id in ranked[: cfg.apl_top_prompts]:
        for y1, y2 in pools[prompt_id]:
            margin = abs(
                implicit_reward(policy, ref, features[prompt_id], y1, beta)
                - implicit_reward(policy, ref, features[prompt_id], y2, beta)
            )
            counters.policy_logprob_evals += 2
            counters.ref_logprob_evals += 2
            scored.append((-margin, prompt_id, (y1, y2)))
    scored = sorted(scored)[: cfg.label_budget]
    return [(prompt_id, pair) for _, prompt_id, pair in scored], [-s for s, _, _ in scored], counters


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(2, 8),
    d=st.integers(1, 16),
    b=st.integers(1, 12),
    m=st.integers(2, 6),
    at_reference=st.booleans(),
    data=st.data(),
)
def test_select_apl_picks_the_oracle_pairs(seed, v, d, b, m, at_reference, data):
    n_keep = data.draw(st.integers(1, b))
    budget = data.draw(st.integers(1, n_keep * m * (m - 1) // 2))
    cfg = SelectionConfig(b, m, n_keep, budget)
    gen = np.random.default_rng(seed)
    features = gaussian_features(gen, b, v, d)
    policy = Policy(gen.normal(size=d))
    ref = Policy(policy.theta.copy() if at_reference else gen.normal(size=d))
    candidates, log_probs = gen.integers(v, size=(b, m)), gen.normal(size=(b, m))
    columns = form_pairs(candidates)
    pairs, prompt_ids = np.stack(columns, axis=1), np.arange(b)

    counters = OpCounters()
    picked, margins = select_apl(
        policy, ref, features, prompt_ids, entropy_estimate(log_probs), *columns, cfg,
        0.3, counters,
    )
    want, want_scores, want_counters = apl_oracle(
        policy, ref, features, candidates, log_probs, cfg, 0.3
    )
    assert as_tuples(pairs, picked, prompt_ids) == want
    assert counters == want_counters
    np.testing.assert_allclose(margins, want_scores, rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------------
# generation and win-rate: same rng stream as the per-prompt loops
# --------------------------------------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(2, 8),
    d=st.integers(1, 16),
    b=st.integers(1, 12),
    m=st.integers(2, 6),
    theta_scale=st.sampled_from([0.1, 1.0, 30.0]),
)
def test_generate_candidates_matches_per_prompt_draws(seed, v, d, b, m, theta_scale):
    gen = np.random.default_rng(seed)
    features = gaussian_features(gen, b, v, d)
    policy = Policy(gen.normal(scale=theta_scale, size=d))
    candidates, log_probs = generate_candidates(
        policy, features, SelectionConfig(b, m, 1, 1), np.random.default_rng(seed), OpCounters()
    )
    rng = np.random.default_rng(seed)
    for rows, row, row_lp in zip(features, candidates, log_probs):
        lp = log_prob_vector(policy, rows)
        cdf = np.cumsum(np.exp(lp))
        idx = np.minimum(np.searchsorted(cdf, rng.random(m), side="right"), v - 1)
        assert row.tolist() == idx.tolist()
        np.testing.assert_allclose(row_lp, lp[idx], rtol=0.0, atol=1e-12)


def win_rate_oracle(policy, ref, evaluator, features, prompt_ids, n_trials, rng):
    wins = 0.0
    for i in range(n_trials):
        prompt_id = int(prompt_ids[i % len(prompt_ids)])
        y_policy = sample_response(policy, features[prompt_id], rng)
        y_ref = sample_response(ref, features[prompt_id], rng)
        if y_policy == y_ref:
            wins += 0.5
            continue
        if rng.random() < 0.5:
            winner = evaluator.prefer(prompt_id, y_policy, y_ref)
        else:
            winner = evaluator.prefer(prompt_id, y_ref, y_policy)
        wins += winner == y_policy
    return wins


def stream_state(rng):
    """The bit generator's state as text (MT19937's key is an array)."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


WIN_RATE_UNIVERSE = generate_universe(
    UniverseConfig(20, 7, 3, 5, 6, misalignment_rho=0.2, seed=13)
)


@pytest.mark.parametrize("kind", ["bradley_terry", "deterministic"])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(1, 3000),
    misalignment=st.sampled_from([0.0, 0.4, 1.0]),
    point_mass_self_play=st.booleans(),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]),
)
@example(
    seed=5, n_trials=700, misalignment=0.4, point_mass_self_play=False,
    bit_generator=np.random.MT19937,
)
def test_win_rate_matches_per_trial_sampling(
    kind, seed, n_trials, misalignment, point_mass_self_play, bit_generator
):
    # one prefer_batch call over the judged trials equals a scalar prefer per
    # trial: same wins, and both the eval and the judge streams end in step;
    # the eval stream's end state holds for any bit generator, not just PCG64
    universe, gen = WIN_RATE_UNIVERSE, np.random.default_rng(seed)
    if point_mass_self_play:
        # every prompt's sampler is a point mass: all trials tie, none is judged
        policy = ref = Policy(1e6 * gen.normal(size=6))
    else:
        policy, ref = Policy(gen.normal(size=6)), Policy(gen.normal(size=6))
    spec = JudgeSpec(label="eval", kind=kind, misalignment=misalignment, seed=seed % 89)
    batched, scalar = Judge(spec, universe), Judge(spec, universe)
    rng, oracle_rng = (np.random.Generator(bit_generator(seed + 1)) for _ in range(2))
    eval_ids = universe.role_ids("eval")
    est = estimate_win_rate(policy, ref, batched, universe.features, eval_ids, n_trials, rng)
    assert est.wins == win_rate_oracle(
        policy, ref, scalar, universe.features, eval_ids, n_trials, oracle_rng
    )
    if point_mass_self_play:
        assert est.rate == 0.5
    assert stream_state(rng) == stream_state(oracle_rng)
    assert batched._rng.bit_generator.state == scalar._rng.bit_generator.state


# --------------------------------------------------------------------------
# judges: one batch call equals the sequential scalar calls
# --------------------------------------------------------------------------

JUDGE_UNIVERSE = generate_universe(UniverseConfig(24, 6, 4, 5, 7, misalignment_rho=-0.4, seed=8))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    kind=st.sampled_from(["bradley_terry", "deterministic"]),
    misalignment=st.sampled_from([0.0, 0.3, 1.0]),
    temperature=st.sampled_from([0.05, 1.0, 20.0]),
)
def test_prefer_batch_matches_sequential_prefer(seed, n, kind, misalignment, temperature):
    universe = JUDGE_UNIVERSE
    gen = np.random.default_rng(seed)
    prompt_ids = gen.integers(len(universe.features), size=n)
    y1 = gen.integers(5, size=n)
    y2 = (y1 + gen.integers(1, 5, size=n)) % 5
    spec = JudgeSpec(
        label="annotator", kind=kind, misalignment=misalignment,
        noise_temperature=temperature, seed=seed % 97,
    )
    batched, sequential = Judge(spec, universe), Judge(spec, universe)
    got = batched.prefer_batch(prompt_ids, y1, y2)
    want = [
        sequential.prefer(p, a, b)
        for p, a, b in zip(prompt_ids.tolist(), y1.tolist(), y2.tolist())
    ]
    assert got.tolist() == want
    assert batched._rng.bit_generator.state == sequential._rng.bit_generator.state


def test_bias_score_table_is_the_per_response_dot():
    universe = generate_universe(UniverseConfig(20, 7, 3, 5, 6, misalignment_rho=0.2, seed=13))
    table = universe.bias_scores()
    g = universe.proxy_bias_direction
    for n in range(len(universe.features)):
        for y in range(5):
            assert table[n, y] == g @ universe.features[n, y]  # bit for bit
    assert universe.bias_scores() is table  # cached
    flipped = dataclasses.replace(universe, proxy_bias_direction=-g)
    assert np.array_equal(flipped.bias_scores(), -table)
    assert universe.bias_scores() is table


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4)),
    v=st.integers(2, 7),
    d=st.integers(2, 64),
    rho=st.sampled_from([-0.9, 0.0, 0.3]),
    feature_scale=st.sampled_from([1e-3, 1.0, 1e3]),
    tabular=st.booleans(),
)
def test_bias_score_table_matches_the_per_row_loop(
    seed, counts, v, d, rho, feature_scale, tabular
):
    # the stacked (N, V, 1, d) @ (d, 1) product against the loop it replaced,
    # bit for bit (signed zeros of the one-hot tabular features included)
    if tabular:
        d = sum(counts) * v
    universe = generate_universe(
        UniverseConfig(
            *counts, v, d, feature_scale=feature_scale, misalignment_rho=rho,
            tabular_mode=tabular, seed=seed % 1000,
        )
    )
    g = universe.proxy_bias_direction
    loop = np.array([[g @ phi for phi in rows] for rows in universe.features])
    table = universe.bias_scores()
    assert table.shape == loop.shape and table.dtype == loop.dtype
    assert table.tobytes() == loop.tobytes()


def test_prefer_batch_contract_errors():
    judge = Judge(JudgeSpec(label="annotator"), JUDGE_UNIVERSE)
    with pytest.raises(ContractError, match="identical"):
        judge.prefer_batch(np.array([0, 1]), np.array([0, 2]), np.array([1, 2]))
    with pytest.raises(ContractError, match="out of range"):
        judge.prefer_batch(np.array([0]), np.array([0]), np.array([5]))
    # a response of -1 must not wrap to the last one either, in either slot
    for y1, y2 in ((-1, 1), (0, -1)):
        with pytest.raises(ContractError, match="out of range"):
            judge.prefer_batch(np.array([0]), np.array([y1]), np.array([y2]))
    # prompt ids index the judge's own table: -1 must not wrap to the last row
    n = len(JUDGE_UNIVERSE.features)
    for bad in (-1, n):
        with pytest.raises(ContractError, match="prompt_id out of range"):
            judge.prefer_batch(np.array([0, bad]), np.array([0, 1]), np.array([1, 2]))


# --------------------------------------------------------------------------
# contract errors still fire from the batched code
# --------------------------------------------------------------------------


def _batch_with(bad_triple, record_dim=3):
    """preference_deltas arguments for a good pair on prompt 0 and ``bad_triple``."""
    features = np.random.default_rng(1).normal(size=(2, 4, record_dim))
    triples = (PreferenceTriple(0, 0, 1), bad_triple)
    return features, *(
        np.array([getattr(t, name) for t in triples]) for name in ("prompt_id", "winner", "loser")
    )


EMPTY = (np.zeros((1, 4, 3)), *[np.zeros(0, dtype=int)] * 3)


@pytest.mark.parametrize(
    "batch,beta,ref_dim,fragment",
    [
        (EMPTY, 0.1, 3, "non-empty"),
        (_batch_with(PreferenceTriple(1, 2, 3)), 0.0, 3, "beta"),
        (_batch_with(PreferenceTriple(1, 2, 3)), -1.0, 3, "beta"),
        (_batch_with(PreferenceTriple(1, 2, 2)), 0.1, 3, "winner == loser"),
        (_batch_with(PreferenceTriple(1, 4, 0)), 0.1, 3, "out of range"),
        (_batch_with(PreferenceTriple(1, 0, -1)), 0.1, 3, "out of range"),
        (_batch_with(PreferenceTriple(7, 0, 1)), 0.1, 3, "prompt_id"),
        (_batch_with(PreferenceTriple(1, 0, 1), record_dim=5), 0.1, 3, "feature"),
        (_batch_with(PreferenceTriple(1, 0, 1)), 0.1, 4, "feature dim"),
    ],
)
def test_dpo_batch_grad_contract_errors(batch, beta, ref_dim, fragment):
    with pytest.raises(ContractError, match=fragment):
        dphi = preference_deltas(*batch)
        dpo_batch_grad(Policy(np.ones(3)), Policy(np.zeros(ref_dim)), dphi, beta)


def test_batched_selection_and_eval_contract_errors():
    gen = np.random.default_rng(2)
    features, prompt_ids, entropies = gaussian_features(gen, 2, 4, 3), np.arange(2), np.ones(2)
    policy, wrong_dim = Policy(np.ones(3)), Policy(np.ones(5))
    pairs = np.array([[0, 0, 1], [1, 0, 1]])
    cfg = SelectionConfig(2, 2, 2, 1)

    def apl(ref, beta, pairs=pairs, prompt_ids=prompt_ids):
        select_apl(
            policy, ref, features, prompt_ids, entropies, *pairs.T, cfg, beta, OpCounters()
        )

    with pytest.raises(ContractError, match="beta"):
        apl(policy, 0.0)
    with pytest.raises(ContractError, match="feature dim"):
        apl(wrong_dim, 0.1)
    for bad in ([[0, 0, 4], [1, 0, 1]], [[0, -1, 1], [1, 0, 1]]):
        with pytest.raises(ContractError, match="out of range"):
            apl(policy, 0.1, np.array(bad))
    # a pair's batch row must name one of the 2 prompts: -1 must not wrap
    for row in (2, -1):
        with pytest.raises(ContractError, match="pair batch row out of range"):
            apl(policy, 0.1, np.array([[0, 0, 1], [row, 0, 1]]))
    # one prompt id per batch row: the ids break stage-1 and stage-2 ties
    for ids in (np.arange(1), np.arange(3)):
        with pytest.raises(ContractError, match="prompt ids for 2 prompts"):
            apl(policy, 0.1, prompt_ids=ids)
    with pytest.raises(ContractError, match="feature dim"):
        generate_candidates(wrong_dim, features, cfg, np.random.default_rng(0), OpCounters())
    with pytest.raises(ContractError, match="feature dim"):
        estimate_win_rate(
            policy, wrong_dim, None, features, prompt_ids, 10, np.random.default_rng(0)
        )
    # -1 must not read the last prompt: the eval metrics check their ids first,
    # even when every win-rate trial ties and no pair reaches the evaluator
    point_mass = Policy(1e4 * np.ones(3))
    evaluator = types.SimpleNamespace(prefer_batch=lambda ids, y1, y2: y1)
    for bad in (-1, 2):
        with pytest.raises(ContractError, match="prompt_id out of range for 2"):
            estimate_win_rate(
                point_mass, point_mass, evaluator, features, np.array([bad]), 10,
                np.random.default_rng(0),
            )
        with pytest.raises(ContractError, match="prompt_id out of range for 2"):
            collapse_metrics(policy, policy, features, np.array([bad, 1]), 0.1)


def test_select_apl_checks_its_arguments_on_an_empty_pool():
    # every prompt degenerate, so no pair is scored: beta and the reference's
    # feature dimension are still refused
    features = gaussian_features(np.random.default_rng(2), 2, 4, 3)
    policy, empty = Policy(np.ones(3)), np.zeros(0, dtype=int)

    def apl(ref, beta):
        select_apl(
            policy, ref, features, np.arange(2), np.ones(2), empty, empty, empty,
            SelectionConfig(2, 2, 2, 1), beta, OpCounters(),
        )

    for beta in (0.0, -1.0):
        with pytest.raises(ContractError, match="beta"):
            apl(policy, beta)
    with pytest.raises(ContractError, match="feature dim"):
        apl(Policy(np.ones(5)), 0.1)
    apl(policy, 0.1)
