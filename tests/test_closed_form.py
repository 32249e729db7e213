"""The batched closed-form paths against per-pair and per-prompt oracles.

Each oracle is the loop the batched code replaced, written with the public
per-record functions (``implicit_reward``, ``grad_log_prob``,
``margin_score``, ``log_prob_vector``, ``sample_response``). Inputs are
Gaussian features drawn from a hypothesis-chosen seed, so exact ties occur
only where both forms tie exactly (at the reference policy).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflab import (
    CandidateSet,
    ContractError,
    Judge,
    JudgeSpec,
    OpCounters,
    PairPool,
    Policy,
    PreferenceTriple,
    PromptRecord,
    SelectionConfig,
    UniverseConfig,
    dpo_batch_grad,
    entropy_estimate,
    estimate_win_rate,
    form_pairs,
    generate_candidates,
    generate_universe,
    grad_log_prob,
    implicit_reward,
    log_prob_vector,
    margin_score,
    sample_response,
    select_apl,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def gaussian_records(gen, n, v, d):
    return [
        PromptRecord(i, "train", gen.normal(size=(v, d)), np.zeros(v)) for i in range(n)
    ]


# --------------------------------------------------------------------------
# DPO: h = beta * (theta - theta_ref) . (phi_w - phi_l)
# --------------------------------------------------------------------------


def dpo_oracle(policy, ref, batch, beta):
    """Per-pair loss and gradient, plus the largest summand magnitude."""
    loss, grad, scale = 0.0, np.zeros(policy.feature_dim), 0.0
    for record, t in batch:
        h = implicit_reward(policy, ref, record, t.winner, beta) - implicit_reward(
            policy, ref, record, t.loser, beta
        )
        loss += float(np.logaddexp(0.0, -h))
        term = -beta * math.exp(-np.logaddexp(0.0, h)) * (
            grad_log_prob(policy, record, t.winner) - grad_log_prob(policy, record, t.loser)
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
    records = gaussian_records(gen, 4, v, d)
    policy = Policy(gen.normal(scale=theta_scale, size=d))
    ref = Policy(gen.normal(scale=theta_scale, size=d))
    batch = []
    for _ in range(n):
        record = records[int(gen.integers(4))]
        w, l = gen.choice(v, size=2, replace=False)
        batch.append((record, PreferenceTriple(record.prompt_id, int(w), int(l))))

    loss, grad = dpo_batch_grad(policy, ref, batch, beta)
    want_loss, want_grad, scale = dpo_oracle(policy, ref, batch, beta)
    assert math.isclose(loss, want_loss, rel_tol=1e-12, abs_tol=0.0)
    # a mean of signed terms can cancel, so the bound scales with the terms
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * scale)


# --------------------------------------------------------------------------
# APL: margin(a, b) = beta * |z_a - z_b|, z = F (theta - theta_ref)
# --------------------------------------------------------------------------


def apl_oracle(policy, ref, csets, pools, records, cfg, beta):
    ranked = sorted(
        (-entropy_estimate(c), c.prompt_id, i) for i, c in enumerate(csets) if pools[i].pairs
    )
    counters = OpCounters()
    scored = sorted(
        (-margin_score(policy, ref, records[i], pair, beta, counters), prompt_id, pair)
        for _, prompt_id, i in ranked[: cfg.apl_top_prompts]
        for pair in pools[i].pairs
    )[: cfg.label_budget]
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
    records = gaussian_records(gen, b, v, d)
    policy = Policy(gen.normal(size=d))
    ref = Policy(policy.theta.copy() if at_reference else gen.normal(size=d))
    csets = [
        CandidateSet(r.prompt_id, gen.integers(v, size=m).tolist(), gen.normal(size=m).tolist())
        for r in records
    ]
    pools = [form_pairs(c) for c in csets]

    counters, scores = OpCounters(), {}
    got = select_apl(policy, ref, csets, pools, records, cfg, 0.3, counters, scores)
    want, want_scores, want_counters = apl_oracle(policy, ref, csets, pools, records, cfg, 0.3)
    assert got == want
    assert counters == want_counters
    np.testing.assert_allclose([scores[key] for key in got], want_scores, rtol=0.0, atol=1e-12)


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
    records = gaussian_records(gen, b, v, d)
    policy = Policy(gen.normal(scale=theta_scale, size=d))
    csets = generate_candidates(
        policy, records, SelectionConfig(b, m, 1, 1), np.random.default_rng(seed), OpCounters()
    )
    rng = np.random.default_rng(seed)
    for record, cset in zip(records, csets):
        lp = log_prob_vector(policy, record)
        cdf = np.cumsum(np.exp(lp))
        idx = np.minimum(np.searchsorted(cdf, rng.random(m), side="right"), v - 1)
        assert cset.candidates == idx.tolist()
        np.testing.assert_allclose(cset.candidate_log_probs, lp[idx], rtol=0.0, atol=1e-12)


def win_rate_oracle(policy, ref, evaluator, records, n_trials, rng):
    wins = 0.0
    for i in range(n_trials):
        record = records[i % len(records)]
        y_policy = sample_response(policy, record, rng)
        y_ref = sample_response(ref, record, rng)
        if y_policy == y_ref:
            wins += 0.5
            continue
        if rng.random() < 0.5:
            winner = evaluator.prefer(record, y_policy, y_ref)
        else:
            winner = evaluator.prefer(record, y_ref, y_policy)
        wins += winner == y_policy
    return wins


@pytest.mark.parametrize("kind", ["bradley_terry", "deterministic"])
def test_win_rate_matches_per_trial_sampling(kind):
    universe = generate_universe(UniverseConfig(20, 7, 3, 5, 6, misalignment_rho=0.2, seed=13))
    gen = np.random.default_rng(5)
    policy, ref = Policy(gen.normal(size=6)), Policy(gen.normal(size=6))
    spec = JudgeSpec(label="eval", kind=kind, misalignment=0.4, seed=3)
    prompts, rng = universe.eval_prompts(), np.random.default_rng(9)
    est = estimate_win_rate(policy, ref, Judge(spec, universe), prompts, 700, rng)
    rng = np.random.default_rng(9)
    assert est.wins == win_rate_oracle(policy, ref, Judge(spec, universe), prompts, 700, rng)


# --------------------------------------------------------------------------
# contract errors still fire from the batched code
# --------------------------------------------------------------------------


def _batch_with(bad_triple, record_dim=3):
    gen = np.random.default_rng(1)
    good = PromptRecord(0, "train", gen.normal(size=(4, 3)), np.zeros(4))
    bad = PromptRecord(1, "train", gen.normal(size=(4, record_dim)), np.zeros(4))
    return [(good, PreferenceTriple(0, 0, 1)), (bad, bad_triple)]


@pytest.mark.parametrize(
    "batch,beta,ref_dim,fragment",
    [
        ([], 0.1, 3, "non-empty"),
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
        dpo_batch_grad(Policy(np.ones(3)), Policy(np.zeros(ref_dim)), batch, beta)


def test_batched_selection_and_eval_contract_errors():
    gen = np.random.default_rng(2)
    records = gaussian_records(gen, 2, 4, 3)
    policy, wrong_dim = Policy(np.ones(3)), Policy(np.ones(5))
    csets = [CandidateSet(r.prompt_id, [0, 1], [-1.0, -1.0]) for r in records]
    pools = [form_pairs(c) for c in csets]
    cfg = SelectionConfig(2, 2, 2, 1)
    with pytest.raises(ContractError, match="beta"):
        select_apl(policy, policy, csets, pools, records, cfg, 0.0, OpCounters())
    with pytest.raises(ContractError, match="feature dim"):
        select_apl(policy, wrong_dim, csets, pools, records, cfg, 0.1, OpCounters())
    bad_pools = [PairPool(0, [(0, 4)]), pools[1]]
    with pytest.raises(ContractError, match="out of range"):
        select_apl(policy, policy, csets, bad_pools, records, cfg, 0.1, OpCounters())
    with pytest.raises(ContractError, match="feature dim"):
        generate_candidates(wrong_dim, records, cfg, np.random.default_rng(0), OpCounters())
    with pytest.raises(ContractError, match="feature dim"):
        estimate_win_rate(policy, wrong_dim, None, records, 10, np.random.default_rng(0))
