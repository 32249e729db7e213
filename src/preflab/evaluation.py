"""Win-rate against the frozen reference, probe accuracy, and collapse flags.

Each metric reads the universe's (N, V, d) feature array at a set of prompt
ids and passes that stack to ``policy.log_prob_vector``, ``logits`` or
``exact_entropy``, one call per policy. Win-rate trials walk the eval prompt
ids round-robin, sample one response from each side, and ask the evaluator
judge which wins. Identical samples count as half a win (cheap and unbiased
on finite response sets), and the pair is shown to the judge in a coin-flipped
slot order so a position-biased judge cannot tilt the estimate. Each side's
inverse CDF is computed once per eval prompt; a trial takes the policy
uniform, the reference uniform and (only when the samples differ) the coin,
in that order, from one block of 3 per trial. The rng is then reset and
advanced by the count used: it ends where scalar draws would.

The evaluator contract is ``prefer_batch(prompt_ids, y1, y2) -> winners``, one
call per estimate over every judged trial. The judge reads its own table by
prompt id, so the features must be those of the evaluator's universe.

Probe accuracy is the fraction of probe prompts whose policy argmax equals
the universe's ``correct_response``; the capability delta against the
reference is reported in percentage points. Entropy collapse is flagged
when the mean exact policy entropy over eval prompts falls below a configured
fraction of the reference policy's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .policy import Policy, check_indices, exact_entropy, log_prob_vector, logits
from .policy import sample_response  # noqa: F401  (traced by bench/spans.py)
from .universe import ROLE_PROBE, PromptUniverse


@dataclass
class WinRateEstimate:
    wins: float
    rate: float
    ci_low: float
    ci_high: float


def estimate_win_rate(
    policy: Policy,
    ref: Policy,
    evaluator,
    features: np.ndarray,
    prompt_ids: np.ndarray,
    n_trials: int,
    rng: np.random.Generator,
) -> WinRateEstimate:
    """Head-to-head win-rate of ``policy`` over ``ref`` under ``evaluator`` on
    ``prompt_ids``, rows of the (N, V, d) ``features``.

    ``evaluator.prefer_batch`` is called once, with the judged trials in order.
    """
    if n_trials < 1:
        raise ContractError(f"n_trials must be >= 1, got {n_trials}")
    if len(prompt_ids) == 0:
        raise ContractError("win-rate estimation needs at least one prompt")
    check_indices(prompt_ids, len(features), "prompt_id")
    features = features[prompt_ids]
    # per-prompt inverse CDFs as lists, first V - 1 entries: bisect_right
    # is searchsorted(side="right") clipped to V - 1 on a nondecreasing cdf
    policy_cdf, ref_cdf = (
        np.exp(log_prob_vector(side, features)[:, :-1]).cumsum(axis=1).tolist()
        for side in (policy, ref)
    )
    state = rng.bit_generator.state
    draw = iter(rng.random(3 * n_trials).tolist()).__next__  # at most 3 per trial
    ties = 0
    queries = []  # (prompt_ids index, slot 1, slot 2, policy's response) per judged trial
    for i in range(n_trials):
        j = i % len(prompt_ids)
        y_policy = bisect_right(policy_cdf[j], draw())
        y_ref = bisect_right(ref_cdf[j], draw())
        if y_policy == y_ref:
            ties += 1
        elif draw() < 0.5:
            queries.append((j, y_policy, y_ref, y_policy))
        else:
            queries.append((j, y_ref, y_policy, y_policy))
    rng.bit_generator.state = state  # then advance by the uniforms the walk used
    rng.random(3 * n_trials - ties)
    rows, y1, y2, y_policy = np.array(queries, dtype=np.intp).reshape(-1, 4).T
    winners = evaluator.prefer_batch(prompt_ids[rows], y1, y2)
    wins = 0.5 * ties + int(np.count_nonzero(winners == y_policy))
    rate = wins / n_trials
    half_width = 1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / n_trials)
    ci = max(rate - half_width, 0.0), min(rate + half_width, 1.0)
    return WinRateEstimate(wins=wins, rate=rate, ci_low=ci[0], ci_high=ci[1])


def probe_accuracy(policy: Policy, universe: PromptUniverse) -> float:
    """Fraction of probe prompts whose logit argmax is the correct response.

    Logit ties resolve to the lower index, which counts as correct only if
    that index is the correct response.
    """
    probes = universe.role_ids(ROLE_PROBE)
    if probes.size == 0:
        raise ContractError("universe has no probe prompts")
    best = np.argmax(logits(policy, universe.features[probes]), axis=1)
    return int(np.count_nonzero(best == universe.correct_response[probes])) / probes.size


def capability_delta(policy: Policy, sft: Policy, universe: PromptUniverse) -> float:
    """Probe-accuracy change versus the reference, in percentage points."""
    return 100.0 * (probe_accuracy(policy, universe) - probe_accuracy(sft, universe))


def collapse_metrics(
    policy: Policy,
    sft: Policy,
    features: np.ndarray,
    prompt_ids: np.ndarray,
    collapse_fraction: float,
) -> tuple[float, bool]:
    """Mean exact entropy over ``prompt_ids``, rows of the (N, V, d) ``features``,
    and whether it signals collapse."""
    if not 0.0 < collapse_fraction < 1.0:
        raise ContractError(
            f"collapse_fraction must lie in (0, 1), got {collapse_fraction}"
        )
    check_indices(prompt_ids, len(features), "prompt_id")
    features = features[prompt_ids]
    mean_entropy, sft_entropy = (
        float(np.mean(exact_entropy(side, features))) for side in (policy, sft)
    )
    return mean_entropy, mean_entropy < collapse_fraction * sft_entropy
