"""Desk-scale laboratory comparing random and uncertainty-based pair
selection in online preference optimization.

Synthetic prompt universes with exactly solvable softmax policies replace
LLM training, so selection effects (budget-matched win-rates, capability
drift, entropy collapse, selection overhead) can be measured precisely and
reproduced bit-for-bit.
"""

__version__ = "0.1.0"

from .dpo import (
    DpoConfig,
    OptimizerState,
    PreferenceTriple,
    dpo_batch_grad,
    dpo_example_loss,
    dpo_updates,
    implicit_reward,
    lr_at_step,
    optimizer_step,
    preference_deltas,
)
from .errors import ConfigurationError, ContractError, TrainingError
from .evaluation import (
    capability_delta,
    collapse_metrics,
    estimate_win_rate,
    probe_accuracy,
)
from .harness import parse_config, run_grid
from .judges import KIND_BRADLEY_TERRY, KIND_DETERMINISTIC, Judge, JudgeSpec
from .policy import (
    Policy,
    exact_entropy,
    grad_log_prob,
    log_prob,
    log_prob_vector,
    logits,
    response_probabilities,
    sample_response,
)
from .report import aggregate_summary, write_summary
from .selection import (
    OpCounters,
    SelectionConfig,
    counters_report,
    entropy_estimate,
    form_pairs,
    generate_candidates,
    select_apl,
    select_random,
)
from .trainer import (
    SftConfig,
    TrainConfig,
    reference_preset,
    run_online_dpo,
    sft_fit,
)
from .universe import (
    PromptUniverse,
    UniverseConfig,
    generate_universe,
    make_tabular_features,
    validate_universe,
)
