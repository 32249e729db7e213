"""Candidate generation, pair formation, and the two budget-matched selectors.

Random draws labeled pairs uniformly from the union of per-prompt pair pools.
The uncertainty selector works in two stages: keep the top-N prompts by the
Monte-Carlo entropy estimate

    H(x) ~= -(1/M) * sum_m log pi(y_m | x)

(reusing the log-probs recorded at generation time, so stage 1 costs zero
extra policy evaluations), then score every pair in the kept prompts' pools
by the absolute implicit-reward margin and take the top L. Both selectors
return at most L pairs per iteration; the counts are equal only while no
sampled prompt degenerates (an empty pool) and the pools hold L pairs. The
trainer logs each short iteration as a ``budget_shortfall`` event
(reference_preset() at seed 0: 9,153 random vs 9,041 APL judge queries, out
of 40,000 each).

The margin is exact in closed form for a linear softmax: an implicit reward
beta * (log pi_theta(y|x) - log pi_ref(y|x)) is beta * z_y, z = F (theta -
theta_ref) for the prompt's (V, d) features F, minus the two logsumexps, a
per-prompt constant that cancels in the difference. So the margin of (a, b)
is beta * |z_a - z_b|, one matrix product scores every kept pool, and
candidate generation is one matmul and log-softmax over the stacked batch.

OpCounters track the per-category work so the extra cost of uncertainty-based
selection is reported as operation counts rather than wall-clock time; they
charge what an LLM would spend (2 policy + 2 reference log-prob evaluations
per scored pair), not what the closed form costs here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dpo import implicit_reward
from .errors import ConfigurationError, ContractError
from .policy import Policy, log_softmax, stack_features
from .policy import log_prob_vector  # noqa: F401  (traced by bench/spans.py)
from .universe import PromptRecord

SELECTOR_RANDOM = "random"
SELECTOR_APL = "apl"

Pair = tuple[int, int]
SelectedPair = tuple[int, Pair]  # (prompt_id, (y_lo, y_hi))


@dataclass(frozen=True)
class SelectionConfig:
    batch_prompts: int = 64
    candidates_per_prompt: int = 4
    apl_top_prompts: int = 32
    label_budget: int = 64

    def validate(self) -> None:
        if self.candidates_per_prompt < 2:
            raise ConfigurationError(
                f"candidates_per_prompt must be >= 2, got {self.candidates_per_prompt}"
            )
        if not 1 <= self.apl_top_prompts <= self.batch_prompts:
            raise ConfigurationError(
                f"apl_top_prompts must lie in [1, batch_prompts], got "
                f"{self.apl_top_prompts} with batch_prompts {self.batch_prompts}"
            )
        if self.label_budget < 1:
            raise ConfigurationError(f"label_budget must be >= 1, got {self.label_budget}")
        max_pairs = self.candidates_per_prompt * (self.candidates_per_prompt - 1) // 2
        if self.label_budget > self.batch_prompts * max_pairs:
            raise ConfigurationError(
                f"label_budget {self.label_budget} exceeds the random-selection "
                f"capacity {self.batch_prompts * max_pairs}"
            )
        if self.label_budget > self.apl_top_prompts * max_pairs:
            raise ConfigurationError(
                f"label_budget {self.label_budget} exceeds the uncertainty-selection "
                f"capacity {self.apl_top_prompts * max_pairs}"
            )


@dataclass
class CandidateSet:
    prompt_id: int
    candidates: list[int]
    candidate_log_probs: list[float]


@dataclass
class PairPool:
    prompt_id: int
    pairs: list[Pair]


@dataclass
class OpCounters:
    policy_logprob_evals: int = 0
    ref_logprob_evals: int = 0
    judge_queries: int = 0
    generated_samples: int = 0

    def scoring_evals(self) -> int:
        return self.policy_logprob_evals + self.ref_logprob_evals

    def to_json_dict(self) -> dict:
        return {
            "policy_logprob_evals": self.policy_logprob_evals,
            "ref_logprob_evals": self.ref_logprob_evals,
            "judge_queries": self.judge_queries,
            "generated_samples": self.generated_samples,
        }


def generate_candidates(
    policy: Policy,
    records: Sequence[PromptRecord],
    cfg: SelectionConfig,
    rng: np.random.Generator,
    counters: OpCounters,
) -> list[CandidateSet]:
    """Sample M responses per prompt, recording their log-probs at draw time.

    Inverse CDF over exact probabilities, one uniform per draw; the (B, M)
    uniforms come from the stream in the same order as B draws of M.
    """
    m = cfg.candidates_per_prompt
    lp = log_softmax(stack_features(records, policy) @ policy.theta)
    cdf = np.cumsum(np.exp(lp), axis=1)
    draws = rng.random((len(records), m))
    # searchsorted(cdf, u, side="right") counts the cdf entries <= u
    idx = np.minimum((cdf[:, None, :] <= draws[:, :, None]).sum(axis=2), lp.shape[1] - 1)
    counters.generated_samples += m * len(records)
    picked = np.take_along_axis(lp, idx, axis=1)
    return [
        CandidateSet(record.prompt_id, candidates, log_probs)
        for record, candidates, log_probs in zip(records, idx.tolist(), picked.tolist())
    ]


def form_pairs(cset: CandidateSet) -> PairPool:
    """All unordered pairs of distinct response values among the candidates.

    A prompt whose candidates are all identical yields an empty pool; the
    caller records it as a degenerate-prompt event.
    """
    values = sorted(set(cset.candidates))
    return PairPool(cset.prompt_id, list(itertools.combinations(values, 2)))


def entropy_estimate(cset: CandidateSet) -> float:
    """-(1/M) sum of recorded log-probs; costs no policy evaluations."""
    if not cset.candidate_log_probs:
        raise ContractError("candidate set has no recorded log-probs")
    return float(-np.mean(cset.candidate_log_probs))


def margin_score(
    policy: Policy,
    ref: Policy,
    record: PromptRecord,
    pair: Pair,
    beta: float,
    counters: OpCounters,
) -> float:
    """|implicit_reward(y1) - implicit_reward(y2)|; 2 policy + 2 ref evals."""
    y1, y2 = pair
    counters.policy_logprob_evals += 2
    counters.ref_logprob_evals += 2
    return abs(
        implicit_reward(policy, ref, record, y1, beta)
        - implicit_reward(policy, ref, record, y2, beta)
    )


def select_random(
    pools: Sequence[PairPool], budget: int, rng: np.random.Generator
) -> list[SelectedPair]:
    """Uniform draw without replacement from the union of all pools."""
    universe_pairs: list[SelectedPair] = [
        (pool.prompt_id, pair) for pool in pools for pair in pool.pairs
    ]
    if len(universe_pairs) <= budget:
        return universe_pairs
    order = rng.permutation(len(universe_pairs))[:budget]
    return [universe_pairs[i] for i in order]


def select_apl(
    policy: Policy,
    ref: Policy,
    candidate_sets: Sequence[CandidateSet],
    pools: Sequence[PairPool],
    records: Sequence[PromptRecord],
    cfg: SelectionConfig,
    beta: float,
    counters: OpCounters,
    scores_out: dict | None = None,
) -> list[SelectedPair]:
    """Two-stage uncertainty selection; deterministic, no rng.

    Stage 1 ranks prompts by entropy estimate (ties to the lower prompt_id)
    and keeps the top N with non-empty pools; degenerate prompts drop out of
    both selectors symmetrically. Stage 2 margin-scores every pair in the
    kept pools and takes the top L (ties to lower prompt_id, then the
    lexicographically smaller pair). When ``scores_out`` is given it is
    filled with the margin of every selected pair, for event logging.
    """
    ranked = sorted(
        (
            (-entropy_estimate(cset), cset.prompt_id, i)
            for i, cset in enumerate(candidate_sets)
            if pools[i].pairs
        ),
    )
    kept = ranked[: cfg.apl_top_prompts]
    if not kept:
        return []
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    features = stack_features([records[i] for _, _, i in kept], policy, ref)
    z = (features @ (policy.theta - ref.theta)).tolist()
    if any(not 0 <= y < len(z[0]) for _, _, i in kept for pair in pools[i].pairs for y in pair):
        raise ContractError(f"pair responses out of range for {len(z[0])} responses")
    scored = sorted(
        (-beta * abs(z[row][y1] - z[row][y2]), prompt_id, (y1, y2))
        for row, (_, prompt_id, i) in enumerate(kept)
        for y1, y2 in pools[i].pairs
    )
    counters.policy_logprob_evals += 2 * len(scored)
    counters.ref_logprob_evals += 2 * len(scored)
    selected = scored[: cfg.label_budget]
    if scores_out is not None:
        scores_out.update({(prompt_id, pair): -neg for neg, prompt_id, pair in selected})
    return [(prompt_id, pair) for _, prompt_id, pair in selected]


def counters_report(counters: OpCounters, baseline: OpCounters) -> dict:
    """Per-category deltas of one strategy's counters against a baseline.

    ``extra_scoring_evals`` is the headline figure: log-prob evaluations spent
    on selection scoring beyond what the baseline spent. Wall-clock overhead
    is deliberately not measured; at LLM scale, uncertainty-based selection of
    this shape has been reported at roughly 20x the per-cycle cost of random
    sampling, and the op counts here are the desk-scale analog of that
    accounting, not a reproduction of it.
    """
    deltas = {
        "policy_logprob_evals_delta": counters.policy_logprob_evals
        - baseline.policy_logprob_evals,
        "ref_logprob_evals_delta": counters.ref_logprob_evals - baseline.ref_logprob_evals,
        "judge_queries_delta": counters.judge_queries - baseline.judge_queries,
        "generated_samples_delta": counters.generated_samples - baseline.generated_samples,
    }
    deltas["extra_scoring_evals"] = (
        deltas["policy_logprob_evals_delta"] + deltas["ref_logprob_evals_delta"]
    )
    deltas["wallclock_reference"] = (
        "qualitative context only: at LLM scale this selection shape has been "
        "measured near 20.2x wall-clock per query-update cycle; op counts here "
        "are an analog, not a reproduction"
    )
    return deltas
