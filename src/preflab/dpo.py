"""Preference-pair objective, analytic gradient, and the update rule.

For a labeled pair (x, w, l) against a frozen reference policy, the implicit
reward of a response is

    r(x, y) = beta * (log pi_theta(y|x) - log pi_ref(y|x))

and the example loss is -log sigmoid(h) with h = r(x, w) - r(x, l), computed
as softplus(-h) for stability at large |h|.

For a linear softmax the closed form is exact: log pi(w|x) - log pi(l|x) =
theta . (phi_w - phi_l), because both log-probs subtract the same logsumexp
and it cancels. With dphi = phi_w - phi_l,

    h = beta * (theta - theta_ref) . dphi,
    grad = mean(-beta * sigmoid(-h) * dphi),

since grad_log_prob(w) - grad_log_prob(l) = dphi (the expected-feature terms
cancel too). DPO is therefore logistic regression on feature differences,
and a batch is one matrix-vector product over the feature differences,
gathered once per labelled batch (``preference_deltas``) and reused by every
update on it. The gradient is a mean (not a sum) so the learning rate is
batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, TrainingError
from .policy import Policy, check_feature_dim, log_prob
from .policy import grad_log_prob  # noqa: F401  (traced by bench/spans.py)
from .universe import PromptRecord

# Adam is the one optimizer, at its usual constants.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PreferenceTriple:
    prompt_id: int
    winner: int
    loser: int


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1
    learning_rate: float = 0.02
    warmup_ratio: float = 0.05
    updates_per_sample: int = 4
    max_steps: int = 625

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigurationError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        if self.updates_per_sample < 1:
            raise ConfigurationError(
                f"updates_per_sample must be >= 1, got {self.updates_per_sample}"
            )
        if self.max_steps < 0:
            raise ConfigurationError(f"max_steps must be >= 0, got {self.max_steps}")

    @property
    def total_updates(self) -> int:
        return self.max_steps * self.updates_per_sample


@dataclass
class OptimizerState:
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray

    @classmethod
    def initial(cls, dim: int) -> "OptimizerState":
        return cls(step=0, first_moment=np.zeros(dim), second_moment=np.zeros(dim))


def implicit_reward(
    policy: Policy, ref: Policy, record: PromptRecord, y: int, beta: float
) -> float:
    """beta * (log pi_theta(y|x) - log pi_ref(y|x))."""
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    return beta * (log_prob(policy, record, y) - log_prob(ref, record, y))


def preference_deltas(features: np.ndarray, prompt_ids, winners, losers) -> np.ndarray:
    """phi(x, w) - phi(x, l) per labelled pair, gathered from (N, V, d) features."""
    prompt_ids, winners, losers = (np.asarray(a) for a in (prompt_ids, winners, losers))
    if np.any(winners == losers):
        raise ContractError("preference pair has winner == loser")
    n, v = features.shape[:2]
    if np.any((winners < 0) | (winners >= v) | (losers < 0) | (losers >= v)):
        raise ContractError(f"preference responses out of range for V={v}")
    if np.any((prompt_ids < 0) | (prompt_ids >= n)):
        raise ContractError(f"prompt_id out of range for {n} prompts")
    return features[prompt_ids, winners] - features[prompt_ids, losers]


def dpo_example_loss(
    policy: Policy, ref: Policy, record: PromptRecord, triple: PreferenceTriple, beta: float
) -> float:
    """softplus(-h) with h the winner-loser implicit-reward gap; > 0 always."""
    dphi = preference_deltas(record.features[None], [0], [triple.winner], [triple.loser])
    return dpo_batch_grad(policy, ref, dphi, beta)[0]


def dpo_batch_grad(
    policy: Policy, ref: Policy, dphi: np.ndarray, beta: float
) -> tuple[float, np.ndarray]:
    """Mean example loss and its exact gradient with respect to theta, from the
    (n, d) winner-minus-loser feature differences of n labelled pairs."""
    if len(dphi) == 0:
        raise ContractError("dpo_batch_grad requires a non-empty batch")
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    check_feature_dim(dphi, policy, ref)
    h = beta * (dphi @ (policy.theta - ref.theta))
    loss = float(np.mean(np.logaddexp(0.0, -h)))
    coeff = -beta * np.exp(-np.logaddexp(0.0, h))  # -beta * sigmoid(-h)
    return loss, coeff @ dphi / len(dphi)


def lr_at_step(cfg: DpoConfig, step: int) -> float:
    """Linear warmup over the first warmup_ratio of total updates, then constant."""
    warmup = cfg.warmup_ratio * cfg.total_updates
    if warmup > 0 and step < warmup:
        return cfg.learning_rate * step / warmup
    return cfg.learning_rate


def optimizer_step(
    state: OptimizerState, theta: np.ndarray, grad: np.ndarray, lr: float
) -> tuple[np.ndarray, OptimizerState]:
    """One Adam update at learning rate ``lr``; returns new parameters and state,
    inputs untouched. Raises TrainingError for non-finite new parameters, as any
    non-finite gradient gives."""
    if theta.shape != grad.shape:
        raise ContractError(f"theta shape {theta.shape} != grad shape {grad.shape}")
    step = state.step + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    new_theta = theta - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    if not np.all(np.isfinite(new_theta)):
        raise TrainingError(f"non-finite parameters at update {step}")
    return new_theta, OptimizerState(step, m, v)
