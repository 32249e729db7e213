"""Linear softmax policies with analytic log-probabilities and gradients.

A policy is a weight vector theta in R^d shared across prompts. For a prompt
with features phi(x, y) the response distribution is

    pi(y | x) = exp(z_y) / sum_y' exp(z_y'),   z_y = dot(theta, phi(x, y)).

All log-probabilities use the max-subtracted logsumexp

    log pi(y | x) = z_y - (m + log sum_y' exp(z_y' - m)),   m = max_y' z_y',

which is exact for any finite logits. Sampling is inverse-CDF over the exact
probabilities in index order, so a shared uniform stream reproduces identical
draws on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
from .universe import PromptRecord


@dataclass(frozen=True, eq=False)
class Policy:
    theta: np.ndarray
    label: str = ""

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if theta.ndim != 1:
            raise ContractError(f"theta must be a vector, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ContractError("theta contains non-finite values")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def feature_dim(self) -> int:
        return self.theta.size

    def to_json_dict(self) -> dict:
        return {"label": self.label, "d": self.feature_dim, "theta": self.theta.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Policy":
        policy = cls(theta=np.asarray(data["theta"], dtype=np.float64), label=data["label"])
        if policy.feature_dim != data["d"]:
            raise ContractError(
                f"checkpoint dimension mismatch: d={data['d']} but theta has "
                f"{policy.feature_dim} entries"
            )
        return policy


def _check_dim(features: np.ndarray, policy: Policy) -> None:
    if features.shape[-1] != policy.feature_dim:
        raise ContractError(
            f"feature dim {features.shape[-1]} does not match policy dim {policy.feature_dim}"
        )


def _check_response(record: PromptRecord, y: int) -> None:
    if not 0 <= y < record.features.shape[0]:
        raise ContractError(
            f"response index {y} out of range for {record.features.shape[0]} responses"
        )


def logits(policy: Policy, record: PromptRecord) -> np.ndarray:
    """Per-response logits z_y = dot(theta, phi(x, y))."""
    _check_dim(record.features, policy)
    return record.features @ policy.theta


def stack_features(records: Sequence[PromptRecord], *policies: Policy) -> np.ndarray:
    """Features of ``records`` as one (n, V, d) array, checked against the
    dimension of every policy given."""
    try:
        features = np.stack([record.features for record in records])
    except ValueError as exc:
        raise ContractError(f"records do not share one feature shape: {exc}") from exc
    for policy in policies:
        _check_dim(features, policy)
    return features


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted log-softmax over the last (response) axis; any leading
    axes are stacked prompts."""
    m = np.max(z, axis=-1, keepdims=True)
    return z - (m + np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True)))


def log_prob_vector(policy: Policy, record: PromptRecord) -> np.ndarray:
    """log pi(y | x) for every response of the prompt."""
    return log_softmax(logits(policy, record))


def log_prob(policy: Policy, record: PromptRecord, y: int) -> float:
    _check_response(record, y)
    return float(log_prob_vector(policy, record)[y])


def response_probabilities(policy: Policy, record: PromptRecord) -> np.ndarray:
    return np.exp(log_prob_vector(policy, record))


def sample_response(policy: Policy, record: PromptRecord, rng: np.random.Generator) -> int:
    """Draw one response by inverse CDF over exact probabilities (one uniform)."""
    probs = response_probabilities(policy, record)
    cdf = np.cumsum(probs)
    draw = rng.random()
    return int(min(np.searchsorted(cdf, draw, side="right"), probs.size - 1))


def grad_log_prob(policy: Policy, record: PromptRecord, y: int) -> np.ndarray:
    """d/dtheta log pi(y | x) = phi(x, y) - E_pi[phi(x, .)]."""
    _check_response(record, y)
    probs = response_probabilities(policy, record)
    return record.features[y] - probs @ record.features


def exact_entropy(policy: Policy, record: PromptRecord) -> float:
    """Shannon entropy -sum_y pi log pi, from exact probabilities; in [0, ln V]."""
    lp = log_prob_vector(policy, record)
    p = np.exp(lp)
    mask = p > 0.0
    return float(-np.sum(p[mask] * lp[mask]))
