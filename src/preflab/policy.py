"""Linear softmax policies with analytic log-probabilities and gradients.

A policy is a weight vector theta in R^d shared across prompts; ``Policy(theta)``,
its one constructor, checks that theta is a finite vector and makes it
read-only. For a prompt with features phi(x, y) the response distribution is

    pi(y | x) = exp(z_y) / sum_y' exp(z_y'),   z_y = dot(theta, phi(x, y)).

All log-probabilities use the max-subtracted logsumexp

    log pi(y | x) = z_y - (m + log sum_y' exp(z_y' - m)),   m = max_y' z_y',

which is exact for any finite logits. Sampling is inverse-CDF over the exact
probabilities in index order, so a shared uniform stream reproduces identical
draws on every platform.

``logits``, ``log_prob_vector``, ``response_probabilities`` and ``exact_entropy``
take one prompt's (V, d) features or a (..., V, d) stack such as
``universe.features[prompt_ids]``, and give each prompt's result bit for bit.
``log_prob``, ``sample_response`` and ``grad_log_prob`` take one prompt's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True, eq=False)
class Policy:
    theta: np.ndarray

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if theta.ndim != 1:
            raise ContractError(f"theta must be a vector, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise ContractError("theta contains non-finite values")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def feature_dim(self) -> int:
        return self.theta.size


def check_feature_dim(features: np.ndarray, *policies: Policy) -> None:
    """Raise ContractError unless the last axis of ``features`` has every policy's dim."""
    for policy in policies:
        if features.shape[-1] != policy.feature_dim:
            raise ContractError(
                f"feature dim {features.shape[-1]} does not match policy dim {policy.feature_dim}"
            )


def check_indices(values, bound: int, what: str) -> None:
    """Raise ContractError unless every entry of ``values`` lies in [0, bound);
    NumPy indexing would wrap -1 to the last row without an error."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() >= bound):
        raise ContractError(f"{what} out of range for {bound}")


def logits(policy: Policy, features: np.ndarray) -> np.ndarray:
    """Per-response logits z_y = dot(theta, phi(x, y)); checks the feature dim."""
    check_feature_dim(features, policy)
    return features @ policy.theta


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted log-softmax over the last (response) axis; any leading
    axes are stacked prompts."""
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def log_prob_vector(policy: Policy, features: np.ndarray) -> np.ndarray:
    """log pi(y | x) for every response of each prompt in ``features``."""
    return log_softmax(logits(policy, features))


def log_prob(policy: Policy, features: np.ndarray, y: int) -> float:
    check_indices(y, features.shape[0], "response index")
    return float(log_prob_vector(policy, features)[y])


def response_probabilities(policy: Policy, features: np.ndarray) -> np.ndarray:
    return np.exp(log_prob_vector(policy, features))


def sample_response(policy: Policy, features: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one response by inverse CDF over exact probabilities (one uniform)."""
    cdf = np.cumsum(response_probabilities(policy, features))
    return int(min(np.searchsorted(cdf, rng.random(), side="right"), cdf.size - 1))


def grad_log_prob(policy: Policy, features: np.ndarray, y: int) -> np.ndarray:
    """d/dtheta log pi(y | x) = phi(x, y) - E_pi[phi(x, .)]."""
    check_indices(y, features.shape[0], "response index")
    probs = response_probabilities(policy, features)
    return features[y] - probs @ features


def exact_entropy(policy: Policy, features: np.ndarray) -> np.ndarray:
    """Shannon entropy -sum_y pi log pi per prompt, from exact probabilities; in [0, ln V]."""
    lp = log_prob_vector(policy, features)
    p = np.exp(lp)
    return -np.sum(np.where(p > 0.0, p * lp, 0.0), axis=-1)
