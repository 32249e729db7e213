"""Candidate generation, pair formation, and the two budget-matched selectors.

Every stage works on one iteration's batch at once, as the trainer holds it:
the B prompts' gathered (B, V, d) features, their (B, M) candidates and
log-probs, and the pairs as three (P,) columns, batch row, y1 and y2 with
y1 < y2. Selectors return indices into the pairs. ``generate_candidates`` and
``form_pairs`` take no caller index, so they need no check; ``select_apl``
checks the indices it is given and calls the private kernel ``_select_apl``
with the same arguments, which the trainer, whose indices are in range by
construction, calls directly.

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

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .policy import Policy, check_feature_dim, check_indices, log_prob_vector

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


def generate_candidates(
    policy: Policy,
    batch_features: np.ndarray,
    cfg: SelectionConfig,
    rng: np.random.Generator,
    counters: OpCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample M responses for each prompt of the batch's gathered (B, V, d)
    features; returns the (B, M) candidates and their log-probs at draw time.

    Inverse CDF over exact probabilities, one uniform per draw; the (B, M)
    uniforms come from the stream in the same order as B draws of M.
    """
    m, b = cfg.candidates_per_prompt, len(batch_features)
    lp = log_prob_vector(policy, batch_features)
    # searchsorted(cdf, u, side="right") clipped to V - 1 counts the entries
    # <= u among the first V - 1 of the nondecreasing cdf
    cdf = np.exp(lp[:, :-1]).cumsum(axis=1)
    idx = (cdf[:, None, :] <= rng.random((b, m))[:, :, None]).sum(axis=2)
    counters.generated_samples += m * b
    return idx, lp[np.arange(b)[:, None], idx]


def form_pairs(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All unordered pairs of distinct response values among each row's candidates.

    Returns three (P,) columns, batch row, y1 and y2 with y1 < y2, in row order
    and then lexicographic order; a degenerate row (``degenerate_rows``) has
    none. Each row is sorted once; a pair of sorted positions i < j is kept
    when both hold a value's first occurrence.
    """
    b, m = candidates.shape
    values = np.sort(candidates, axis=1)
    first = np.ones((b, m), dtype=bool)
    first[:, 1:] = values[:, 1:] != values[:, :-1]
    i, j = _position_pairs(m)
    rows, k = np.nonzero(first[:, i] & first[:, j])
    return rows, values[rows, i[k]], values[rows, j[k]]


def degenerate_rows(candidates: np.ndarray) -> np.ndarray:
    """The mask of rows whose M candidates (the last axis) are all one response."""
    return (candidates == candidates[..., :1]).all(axis=-1)


@functools.lru_cache(maxsize=16)
def _position_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only position pairs i < j of M candidates, in lexicographic
    order; built once per M, as every iteration of a run shares it."""
    i, j = np.triu_indices(m, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def entropy_estimate(log_probs: np.ndarray) -> np.ndarray:
    """-(1/M) sum of each row's recorded log-probs; costs no policy evaluations."""
    if log_probs.shape[-1] == 0:
        raise ContractError("candidate set has no recorded log-probs")
    return -(log_probs.sum(axis=-1) / log_probs.shape[-1])


def select_random(pairs: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw without replacement from the union of all pools; the rng is
    used only when the pairs outnumber the budget."""
    if len(pairs) <= budget:
        return np.arange(len(pairs))
    return rng.permutation(len(pairs))[:budget]


def select_apl(
    policy: Policy,
    ref: Policy,
    batch_features: np.ndarray,
    prompt_ids: np.ndarray,
    entropies: np.ndarray,
    rows: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    cfg: SelectionConfig,
    beta: float,
    counters: OpCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage uncertainty selection; deterministic, no rng.

    Stage 1 ranks the batch's prompts by entropy estimate (ties to the lower
    prompt_id) and keeps the top N with non-empty pools; degenerate prompts
    drop out of both selectors symmetrically. Stage 2 margin-scores every pair
    in the kept pools and takes the top L (ties to lower prompt_id, then the
    lexicographically smaller pair). Returns the selected indices into the
    pairs and their margins. Checks beta, the feature dimension, the prompt
    count and every pair index first, so an empty pool does not skip them.
    """
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    check_feature_dim(batch_features, policy, ref)
    if len(prompt_ids) != len(batch_features):
        raise ContractError(f"{len(prompt_ids)} prompt ids for {len(batch_features)} prompts")
    check_indices(rows, len(batch_features), "pair batch row")
    check_indices(y1, batch_features.shape[1], "pair response")
    check_indices(y2, batch_features.shape[1], "pair response")
    return _select_apl(
        policy, ref, batch_features, prompt_ids, entropies, rows, y1, y2, cfg, beta, counters
    )


def _select_apl(
    policy: Policy,
    ref: Policy,
    batch_features: np.ndarray,
    prompt_ids: np.ndarray,
    entropies: np.ndarray,
    rows: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    cfg: SelectionConfig,
    beta: float,
    counters: OpCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """``select_apl`` of a batch whose indices are in range; unchecked."""
    pooled = np.flatnonzero(np.bincount(rows, minlength=len(prompt_ids)))
    kept = pooled[np.lexsort((prompt_ids[pooled], -entropies[pooled]))][: cfg.apl_top_prompts]
    if kept.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    z = batch_features[kept] @ (policy.theta - ref.theta)
    slot = np.full(len(prompt_ids), -1)
    slot[kept] = np.arange(kept.size)
    scored = np.flatnonzero(slot[rows] >= 0)
    row, y1, y2 = rows[scored], y1[scored], y2[scored]
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
        f"{name}_delta": value - getattr(baseline, name) for name, value in asdict(counters).items()
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
