"""Win-rate against the frozen reference, probe accuracy, and collapse flags.

Win-rate trials walk the eval prompts round-robin, sample one response from
each side, and ask the evaluator judge which wins. Identical samples count as
half a win (cheap and unbiased on finite response sets), and the pair is
presented to the judge in a coin-flipped slot order so a position-biased
judge cannot tilt the estimate. Each side's inverse CDF is computed once per
eval prompt; a trial then draws the policy uniform, the reference uniform,
and (only when the samples differ) the coin, in that order.

Probe accuracy is the fraction of probe prompts whose policy argmax equals
the constructed correct response; the capability delta against the reference
is reported in percentage points. Entropy collapse is flagged when the mean
exact policy entropy over eval prompts falls below a configured fraction of
the reference policy's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
from .policy import Policy, exact_entropy, log_softmax, stack_features
from .policy import logits, sample_response  # noqa: F401  (traced by bench/spans.py)
from .universe import PromptRecord, PromptUniverse

DEFAULT_COLLAPSE_FRACTION = 0.1


@dataclass
class WinRateEstimate:
    wins: float
    trials: int
    rate: float
    ci_low: float
    ci_high: float


def estimate_win_rate(
    policy: Policy,
    ref: Policy,
    evaluator,
    records: Sequence[PromptRecord],
    n_trials: int,
    rng: np.random.Generator,
) -> WinRateEstimate:
    """Head-to-head win-rate of ``policy`` over ``ref`` under ``evaluator``.

    ``evaluator`` needs only a ``prefer(record, y1, y2) -> winner`` method.
    """
    if n_trials < 1:
        raise ContractError(f"n_trials must be >= 1, got {n_trials}")
    if not records:
        raise ContractError("win-rate estimation needs at least one prompt")
    features = stack_features(records, policy, ref)
    last = features.shape[1] - 1
    # per-prompt inverse CDFs as lists: bisect_right is searchsorted(side="right")
    policy_cdf, ref_cdf = (
        np.cumsum(np.exp(log_softmax(features @ side.theta)), axis=1).tolist()
        for side in (policy, ref)
    )
    wins = 0.0
    for i in range(n_trials):
        j = i % len(records)
        record = records[j]
        y_policy = min(bisect_right(policy_cdf[j], rng.random()), last)
        y_ref = min(bisect_right(ref_cdf[j], rng.random()), last)
        if y_policy == y_ref:
            wins += 0.5
            continue
        if rng.random() < 0.5:
            winner = evaluator.prefer(record, y_policy, y_ref)
        else:
            winner = evaluator.prefer(record, y_ref, y_policy)
        if winner == y_policy:
            wins += 1.0
    rate = wins / n_trials
    half_width = 1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / n_trials)
    return WinRateEstimate(
        wins=wins,
        trials=n_trials,
        rate=rate,
        ci_low=max(rate - half_width, 0.0),
        ci_high=min(rate + half_width, 1.0),
    )


def probe_accuracy(policy: Policy, universe: PromptUniverse) -> float:
    """Fraction of probe prompts whose logit argmax is the correct response.

    Logit ties resolve to the lower index, which counts as correct only if
    that index is the correct response.
    """
    probes = universe.probe_prompts()
    if not probes:
        raise ContractError("universe has no probe prompts")
    best = np.argmax(stack_features(probes, policy) @ policy.theta, axis=1)
    hits = sum(int(y) == record.correct_response for y, record in zip(best, probes))
    return hits / len(probes)


def capability_delta(policy: Policy, sft: Policy, universe: PromptUniverse) -> float:
    """Probe-accuracy change versus the reference, in percentage points."""
    return 100.0 * (probe_accuracy(policy, universe) - probe_accuracy(sft, universe))


def collapse_metrics(
    policy: Policy,
    sft: Policy,
    records: Sequence[PromptRecord],
    collapse_fraction: float = DEFAULT_COLLAPSE_FRACTION,
) -> tuple[float, bool]:
    """Mean exact entropy over ``records`` and whether it signals collapse."""
    if not 0.0 < collapse_fraction < 1.0:
        raise ContractError(
            f"collapse_fraction must lie in (0, 1), got {collapse_fraction}"
        )
    mean_entropy = float(np.mean([exact_entropy(policy, r) for r in records]))
    sft_entropy = float(np.mean([exact_entropy(sft, r) for r in records]))
    return mean_entropy, mean_entropy < collapse_fraction * sft_entropy
