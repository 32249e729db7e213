"""Candidate generation, pair formation, and the two budget-matched selectors.

Every stage works on one iteration's batch at once, as index arrays over the
universe's (N, V, d) feature array: B prompt ids, their (B, M) candidates and
log-probs, and a (P, 3) array of pairs, each row (batch row, y1, y2) with
y1 < y2. Selectors return indices into the pairs.

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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .policy import Policy, check_feature_dim, log_softmax
from .policy import log_prob_vector  # noqa: F401  (traced by bench/spans.py)

SELECTOR_RANDOM = "random"
SELECTOR_APL = "apl"


def check_selector(selector: str) -> None:
    if selector not in (SELECTOR_RANDOM, SELECTOR_APL):
        raise ConfigurationError(f"unknown selector {selector!r}")


@dataclass(frozen=True)
class SelectionConfig:
    batch_prompts: int = 64
    candidates_per_prompt: int = 4
    apl_top_prompts: int = 32
    label_budget: int = 64

    def __post_init__(self) -> None:
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
class OpCounters:
    policy_logprob_evals: int = 0
    ref_logprob_evals: int = 0
    judge_queries: int = 0
    generated_samples: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


def generate_candidates(
    policy: Policy,
    features: np.ndarray,
    prompt_ids: np.ndarray,
    cfg: SelectionConfig,
    rng: np.random.Generator,
    counters: OpCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample M responses for each prompt in ``prompt_ids``, rows of the (N, V, d)
    ``features``; returns the (B, M) candidates and their log-probs at draw time.

    Inverse CDF over exact probabilities, one uniform per draw; the (B, M)
    uniforms come from the stream in the same order as B draws of M.
    """
    m = cfg.candidates_per_prompt
    batch = features[prompt_ids]
    check_feature_dim(batch, policy)
    lp = log_softmax(batch @ policy.theta)
    cdf = np.cumsum(np.exp(lp), axis=1)
    draws = rng.random((len(prompt_ids), m))
    # searchsorted(cdf, u, side="right") counts the cdf entries <= u
    idx = np.minimum((cdf[:, None, :] <= draws[:, :, None]).sum(axis=2), lp.shape[1] - 1)
    counters.generated_samples += m * len(prompt_ids)
    return idx, np.take_along_axis(lp, idx, axis=1)


def form_pairs(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs of distinct response values among each row's candidates.

    Returns the (P, 3) pairs, rows (batch row, y1, y2) in prompt order and then
    lexicographic order, and the (B,) mask of degenerate prompts: those whose
    candidates are all identical, so their pool is empty. Each row is sorted
    once; a pair of sorted positions i < j is kept when both hold a value's
    first occurrence.
    """
    b, m = candidates.shape
    values = np.sort(candidates, axis=1)
    first = np.ones((b, m), dtype=bool)
    first[:, 1:] = values[:, 1:] != values[:, :-1]
    upper = np.arange(m)[:, None] < np.arange(m)
    rows, i, j = np.nonzero(first[:, :, None] & first[:, None, :] & upper)
    pairs = np.stack([rows, values[rows, i], values[rows, j]], axis=1)
    return pairs, ~first[:, 1:].any(axis=1)


def entropy_estimate(log_probs: np.ndarray) -> np.ndarray:
    """-(1/M) sum of each row's recorded log-probs; costs no policy evaluations."""
    if log_probs.shape[-1] == 0:
        raise ContractError("candidate set has no recorded log-probs")
    return -log_probs.mean(axis=-1)


def select_random(pairs: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw without replacement from the union of all pools; the rng is
    used only when the pairs outnumber the budget."""
    if len(pairs) <= budget:
        return np.arange(len(pairs))
    return rng.permutation(len(pairs))[:budget]


def select_apl(
    policy: Policy,
    ref: Policy,
    features: np.ndarray,
    prompt_ids: np.ndarray,
    entropies: np.ndarray,
    pairs: np.ndarray,
    cfg: SelectionConfig,
    beta: float,
    counters: OpCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage uncertainty selection; deterministic, no rng.

    Stage 1 ranks the batch's prompts by entropy estimate (ties to the lower
    prompt_id) and keeps the top N with non-empty pools; degenerate prompts
    drop out of both selectors symmetrically. Stage 2 margin-scores every pair
    in the kept pools and takes the top L (ties to lower prompt_id, then the
    lexicographically smaller pair). Returns the selected indices into
    ``pairs`` and their margins.
    """
    rows = np.unique(pairs[:, 0])
    kept = rows[np.lexsort((prompt_ids[rows], -entropies[rows]))][: cfg.apl_top_prompts]
    if kept.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    batch = features[prompt_ids[kept]]
    check_feature_dim(batch, policy, ref)
    z = batch @ (policy.theta - ref.theta)
    slot = np.full(len(prompt_ids), -1)
    slot[kept] = np.arange(kept.size)
    scored = np.flatnonzero(slot[pairs[:, 0]] >= 0)
    row, y1, y2 = pairs[scored].T
    if np.any((pairs[scored, 1:] < 0) | (pairs[scored, 1:] >= z.shape[1])):
        raise ContractError(f"pair responses out of range for {z.shape[1]} responses")
    margin = beta * np.abs(z[slot[row], y1] - z[slot[row], y2])
    counters.policy_logprob_evals += 2 * scored.size
    counters.ref_logprob_evals += 2 * scored.size
    order = np.lexsort((y2, y1, prompt_ids[row], -margin))[: cfg.label_budget]
    return scored[order], margin[order]


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
