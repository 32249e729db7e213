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
and a batch is one matrix-vector product. The gradient is a mean (not a sum)
so the learning rate is batch-size independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, TrainingError
from .policy import Policy, log_prob, stack_features
from .policy import grad_log_prob  # noqa: F401  (traced by bench/spans.py)
from .universe import PromptRecord

OPTIMIZER_SGD = "sgd"
OPTIMIZER_ADAM = "adam"

SCHEDULE_CONSTANT = "constant"
SCHEDULE_COSINE = "cosine"


@dataclass(frozen=True)
class PreferenceTriple:
    prompt_id: int
    winner: int
    loser: int
    annotator: str = ""
    iteration: int = 0


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1
    learning_rate: float = 0.02
    optimizer: str = OPTIMIZER_ADAM
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    warmup_ratio: float = 0.05
    updates_per_sample: int = 4
    max_steps: int = 625
    lr_schedule: str = SCHEDULE_CONSTANT

    def validate(self) -> None:
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in (OPTIMIZER_SGD, OPTIMIZER_ADAM):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigurationError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        if self.updates_per_sample < 1:
            raise ConfigurationError(
                f"updates_per_sample must be >= 1, got {self.updates_per_sample}"
            )
        if self.max_steps < 0:
            raise ConfigurationError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigurationError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigurationError(f"adam_eps must be > 0, got {self.adam_eps}")
        if self.lr_schedule not in (SCHEDULE_CONSTANT, SCHEDULE_COSINE):
            raise ConfigurationError(f"unknown lr_schedule {self.lr_schedule!r}")

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


def _check_triple(record: PromptRecord, triple: PreferenceTriple) -> None:
    if triple.winner == triple.loser:
        raise ContractError("preference triple has winner == loser")
    v = record.features.shape[0]
    if not (0 <= triple.winner < v and 0 <= triple.loser < v):
        raise ContractError(
            f"triple responses ({triple.winner}, {triple.loser}) out of range for V={v}"
        )
    if record.prompt_id != triple.prompt_id:
        raise ContractError(
            f"triple prompt_id {triple.prompt_id} does not match record "
            f"{record.prompt_id}"
        )


def dpo_example_loss(
    policy: Policy, ref: Policy, record: PromptRecord, triple: PreferenceTriple, beta: float
) -> float:
    """softplus(-h) with h the winner-loser implicit-reward gap; > 0 always."""
    return dpo_batch_grad(policy, ref, [(record, triple)], beta)[0]


def dpo_batch_grad(
    policy: Policy,
    ref: Policy,
    batch: Sequence[tuple[PromptRecord, PreferenceTriple]],
    beta: float,
) -> tuple[float, np.ndarray]:
    """Mean example loss and its exact gradient with respect to theta."""
    if len(batch) == 0:
        raise ContractError("dpo_batch_grad requires a non-empty batch")
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    for record, triple in batch:
        _check_triple(record, triple)
    features = stack_features([record for record, _ in batch], policy, ref)
    rows = np.arange(len(batch))
    dphi = (
        features[rows, [triple.winner for _, triple in batch]]
        - features[rows, [triple.loser for _, triple in batch]]
    )
    h = beta * (dphi @ (policy.theta - ref.theta))
    loss = float(np.mean(np.logaddexp(0.0, -h)))
    coeff = -beta * np.exp(-np.logaddexp(0.0, h))  # -beta * sigmoid(-h)
    return loss, coeff @ dphi / len(batch)


def lr_at_step(cfg: DpoConfig, step: int) -> float:
    """Linear warmup over the first warmup_ratio of total updates, then
    constant (or cosine decay to zero when lr_schedule = "cosine")."""
    total = cfg.total_updates
    if total <= 0:
        return cfg.learning_rate
    warmup = cfg.warmup_ratio * total
    if warmup > 0 and step < warmup:
        return cfg.learning_rate * step / warmup
    if cfg.lr_schedule == SCHEDULE_COSINE:
        span = total - warmup
        if span <= 0:
            return cfg.learning_rate
        progress = min(max((step - warmup) / span, 0.0), 1.0)
        return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))
    return cfg.learning_rate


def optimizer_step(
    state: OptimizerState, theta: np.ndarray, grad: np.ndarray, cfg: DpoConfig
) -> tuple[np.ndarray, OptimizerState]:
    """One descent update; returns new parameters and state, inputs untouched."""
    if theta.shape != grad.shape:
        raise ContractError(f"theta shape {theta.shape} != grad shape {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise TrainingError(f"non-finite gradient at update step {state.step}")
    lr = lr_at_step(cfg, state.step)
    step = state.step + 1
    if cfg.optimizer == OPTIMIZER_SGD:
        new_theta = theta - lr * grad
        return new_theta, OptimizerState(step, state.first_moment, state.second_moment)
    m = cfg.adam_beta1 * state.first_moment + (1.0 - cfg.adam_beta1) * grad
    v = cfg.adam_beta2 * state.second_moment + (1.0 - cfg.adam_beta2) * grad * grad
    m_hat = m / (1.0 - cfg.adam_beta1**step)
    v_hat = v / (1.0 - cfg.adam_beta2**step)
    update = m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    new_theta = theta - lr * (update + cfg.weight_decay * theta)
    return new_theta, OptimizerState(step, m, v)
