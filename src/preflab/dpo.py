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
gathered once per labelled batch (``preference_deltas``, or its unchecked
kernel ``_preference_deltas`` in the trainer) and reused by every update on
it. The gradient is a mean (not a sum) so the learning rate is
batch-size independent.

``dpo_updates`` runs all of a labelled batch's Adam updates in one call and
checks the batch once. ``dpo_batch_grad`` and ``optimizer_step`` are the
single-update forms of the same arithmetic (the private ``_margins_and_grad``
and ``_adam``): the supervised fit steps with ``optimizer_step``, and the
tests hold the kernel to both, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError, TrainingError
from .policy import Policy, check_feature_dim, check_indices, log_prob
from .policy import grad_log_prob  # noqa: F401  (traced by bench/spans.py)

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
    policy: Policy, ref: Policy, features: np.ndarray, y: int, beta: float
) -> float:
    """beta * (log pi_theta(y|x) - log pi_ref(y|x)) for one prompt's (V, d) features."""
    if beta <= 0:
        raise ContractError(f"beta must be > 0, got {beta}")
    return beta * (log_prob(policy, features, y) - log_prob(ref, features, y))


def preference_deltas(features: np.ndarray, prompt_ids, winners, losers) -> np.ndarray:
    """phi(x, w) - phi(x, l) per labelled pair from (N, V, d) features; indices checked."""
    prompt_ids, winners, losers = (np.asarray(a) for a in (prompt_ids, winners, losers))
    if (winners == losers).any():
        raise ContractError("preference pair has winner == loser")
    n, v = features.shape[:2]
    check_indices(winners, v, "winner")
    check_indices(losers, v, "loser")
    check_indices(prompt_ids, n, "prompt_id")
    return _preference_deltas(features, prompt_ids, winners, losers)


def _preference_deltas(features: np.ndarray, prompt_ids, winners, losers) -> np.ndarray:
    """``preference_deltas`` of index arrays in range with winners != losers; unchecked."""
    return features[prompt_ids, winners] - features[prompt_ids, losers]


def dpo_example_loss(
    policy: Policy, ref: Policy, features: np.ndarray, triple: PreferenceTriple, beta: float
) -> float:
    """softplus(-h), h the winner-loser implicit-reward gap on (V, d) features; > 0 always."""
    dphi = preference_deltas(features[None], [0], [triple.winner], [triple.loser])
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
    h, grad = _margins_and_grad(policy.theta, ref.theta, dphi, beta)
    return _mean_loss(h), grad


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
    new_theta, m, v = _adam(theta, grad, state.first_moment, state.second_moment, step, lr)
    if not np.isfinite(new_theta).all():
        raise TrainingError(_nonfinite(step))
    return new_theta, OptimizerState(step, m, v)


@dataclass(frozen=True)
class BatchUpdate:
    """What ``dpo_updates`` leaves after one labelled batch.

    ``theta`` and ``state`` are those of the last update whose parameters were
    finite (the inputs when the first update fails); ``loss`` is the mean loss
    at the batch's first update and ``lr`` the rate of the last update tried.
    ``abort_reason`` is None when every update finished."""

    theta: np.ndarray
    state: OptimizerState
    loss: float
    lr: float
    abort_reason: Optional[str]


@np.errstate(over="ignore", invalid="ignore")
def dpo_updates(
    policy: Policy, ref: Policy, state: OptimizerState, dphi: np.ndarray, cfg: DpoConfig
) -> BatchUpdate:
    """``cfg.updates_per_sample`` Adam updates on one labelled batch of (n, d)
    feature differences, at the ``lr_at_step`` schedule; inputs untouched.

    The same arithmetic as that many ``dpo_batch_grad`` + ``lr_at_step`` +
    ``optimizer_step`` calls, bit for bit, with the batch checked once and the
    loss computed only at the first update. An update whose parameters are
    non-finite stops the batch instead of raising: the result keeps the
    updates before it and names the failing one in ``abort_reason``. Overflow
    in a diverging update is checked that way, not warned about.
    """
    if len(dphi) == 0:
        raise ContractError("dpo_updates requires a non-empty batch")
    check_feature_dim(dphi, policy, ref)
    theta, ref_theta = policy.theta, ref.theta
    step, m, v = state.step, state.first_moment, state.second_moment
    for update in range(cfg.updates_per_sample):
        h, grad = _margins_and_grad(theta, ref_theta, dphi, cfg.beta)
        if update == 0:
            loss = _mean_loss(h)
        lr = lr_at_step(cfg, step)
        new_theta, new_m, new_v = _adam(theta, grad, m, v, step + 1, lr)
        if not np.isfinite(new_theta).all():
            return BatchUpdate(theta, OptimizerState(step, m, v), loss, lr, _nonfinite(step + 1))
        theta, m, v, step = new_theta, new_m, new_v, step + 1
    return BatchUpdate(theta, OptimizerState(step, m, v), loss, lr, None)


def _margins_and_grad(
    theta: np.ndarray, ref_theta: np.ndarray, dphi: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (n,) implicit-reward margins h and the mean loss's gradient; unchecked."""
    h = beta * (dphi @ (theta - ref_theta))
    coeff = -beta * np.exp(-np.logaddexp(0.0, h))  # -beta * sigmoid(-h)
    return h, coeff @ dphi / len(dphi)


def _mean_loss(h: np.ndarray) -> float:
    return float(np.logaddexp(0.0, -h).sum() / len(h))


def _adam(
    theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, step: int, lr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam's update number ``step`` (from 1): new parameters and moments, unchecked."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    return theta - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS)), m, v


def _nonfinite(step: int) -> str:
    return f"non-finite parameters at update {step}"
