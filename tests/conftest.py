"""Shared fixtures and the acceptance-suite result banner."""

import io

import numpy as np
import pytest

from preflab import UniverseConfig, generate_universe, run_online_dpo
from preflab.harness import write_events


@pytest.fixture(scope="session")
def small_universe():
    """Dense 6-dimensional universe shared by read-only tests."""
    cfg = UniverseConfig(
        num_train_prompts=12,
        num_eval_prompts=6,
        num_probe_prompts=6,
        responses_per_prompt=4,
        feature_dim=6,
        misalignment_rho=0.3,
        seed=101,
    )
    return generate_universe(cfg)


@pytest.fixture(scope="session")
def tabular_universe():
    cfg = UniverseConfig(
        num_train_prompts=4,
        num_eval_prompts=2,
        num_probe_prompts=2,
        responses_per_prompt=4,
        feature_dim=8 * 4,
        tabular_mode=True,
        seed=77,
    )
    return generate_universe(cfg)


@pytest.fixture
def stream_run():
    """``run_online_dpo``, its record rendered by ``write_events`` into an
    in-memory sink: returns the run's result and its events.jsonl lines,
    newline included."""

    def run(universe, sft_policy, cfg):
        result = run_online_dpo(universe, sft_policy, cfg)
        sink = io.StringIO()
        write_events(sink, result, cfg)
        return result, sink.getvalue().splitlines(keepends=True)

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance" not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            lines.append((name, status.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status:6s} {name}")
