"""Experiment grids over (selector x annotator x seed), aggregation, reports.

A grid config is a single JSON document. Parsing is fail-closed: unknown keys
are rejected, and every field left to its default is recorded so the echoed
manifest makes each run self-describing. One run directory is produced per
(selector, annotator, seed) cell, holding the manifest, per-iteration metrics
CSV, the event stream, policy checkpoints, op counters, and one eval row per
evaluator. Runs that share (annotator, seed) differ only in selector and use
identical random streams, so selector comparisons are paired.

Reports: ``summary.csv`` (mean +/- sample std per cell plus collapse counts
and extra scoring ops), ``welch.csv`` (Welch two-sample tests between
selectors per annotator/evaluator/metric), and ``pareto.csv`` (one point per
run and evaluator, plot-ready).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence, get_type_hints

import numpy as np
from scipy import stats

from . import __version__ as _package_version
from .dpo import DpoConfig
from .errors import ConfigurationError, TrainingError
from .evaluation import collapse_metrics, estimate_win_rate, probe_accuracy
from .judges import JudgeSpec, make_judge
from .rng import mix_seeds, substream
from .selection import SELECTOR_APL, SELECTOR_RANDOM, SelectionConfig
from .trainer import RunResult, SftConfig, TrainConfig, run_online_dpo, sft_fit
from .universe import PromptUniverse, UniverseConfig, generate_universe

EVAL_CSV_HEADER = [
    "run_id",
    "selector",
    "annotator_label",
    "evaluator_label",
    "seed",
    "win_rate",
    "ci_low",
    "ci_high",
    "probe_acc",
    "delta_acc_pp",
    "mean_entropy",
    "collapse_flag",
]
METRICS_CSV_HEADER = [
    "iteration",
    "mean_loss",
    "labeled_pairs",
    "lr",
    "entropy_min",
    "entropy_mean",
    "entropy_max",
]
PARETO_CSV_HEADER = [
    "run_id",
    "selector",
    "annotator",
    "evaluator",
    "seed",
    "win_rate",
    "delta_acc_pp",
    "collapse_flag",
]
SUMMARY_CSV_HEADER = [
    "selector",
    "annotator",
    "evaluator",
    "n_seeds",
    "win_rate_mean",
    "win_rate_std",
    "delta_acc_mean",
    "delta_acc_std",
    "collapse_runs",
    "extra_scoring_ops_mean",
]
WELCH_CSV_HEADER = [
    "annotator",
    "evaluator",
    "metric",
    "selector_a",
    "selector_b",
    "n_a",
    "n_b",
    "mean_a",
    "mean_b",
    "t_stat",
    "p_value",
    "note",
]


@dataclass(frozen=True)
class EvalSettings:
    n_trials: int = 2000
    collapse_fraction: float = 0.1

    def validate(self) -> None:
        if self.n_trials < 1:
            raise ConfigurationError(f"eval.n_trials must be >= 1, got {self.n_trials}")
        if not 0.0 < self.collapse_fraction < 1.0:
            raise ConfigurationError(
                f"eval.collapse_fraction must lie in (0, 1), got {self.collapse_fraction}"
            )


@dataclass(frozen=True)
class TrainTemplate:
    dpo: DpoConfig = field(default_factory=DpoConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    sft: SftConfig = field(default_factory=SftConfig)


@dataclass
class ExperimentGrid:
    universe: Optional[UniverseConfig] = None
    universe_path: Optional[str] = None
    train: TrainTemplate = field(default_factory=TrainTemplate)
    selectors: list[str] = field(default_factory=lambda: [SELECTOR_RANDOM, SELECTOR_APL])
    annotators: list[JudgeSpec] = field(default_factory=list)
    evaluators: list[JudgeSpec] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [42, 43, 44])
    eval_settings: EvalSettings = field(default_factory=EvalSettings)
    output_dir: str = "runs"

    def validate(self) -> None:
        if (self.universe is None) == (self.universe_path is None):
            raise ConfigurationError(
                "exactly one of 'universe' and 'universe_path' must be given"
            )
        if self.universe is not None:
            self.universe.validate()
        for name, values in (("selectors", self.selectors), ("seeds", self.seeds)):
            if not values:
                raise ConfigurationError(f"{name} must be non-empty")
        if not self.annotators:
            raise ConfigurationError("annotators must be non-empty")
        if not self.evaluators:
            raise ConfigurationError("evaluators must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds contain duplicates: {self.seeds}")
        for selector in self.selectors:
            if selector not in (SELECTOR_RANDOM, SELECTOR_APL):
                raise ConfigurationError(f"unknown selector {selector!r}")
        if len(set(self.selectors)) != len(self.selectors):
            raise ConfigurationError("selectors contain duplicates")
        for group_name, specs in (("annotators", self.annotators), ("evaluators", self.evaluators)):
            labels = [s.label for s in specs]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(f"{group_name} labels must be distinct: {labels}")
            for spec in specs:
                spec.validate()
        self.train.dpo.validate()
        self.train.selection.validate()
        self.train.sft.validate()
        self.eval_settings.validate()


@dataclass
class SummaryRow:
    selector: str
    annotator: str
    evaluator: str
    n_seeds: int
    win_rate_mean: float
    win_rate_std: float
    delta_acc_mean: float
    delta_acc_std: float
    collapse_runs: int
    extra_scoring_ops_mean: float


# --------------------------------------------------------------------------
# config parsing (fail-closed, defaults recorded)
# --------------------------------------------------------------------------


def _build_dataclass(cls, data: Any, path: str, defaulted: list[str]):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected an object, got {type(data).__name__}")
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(known)}")
    kwargs = {}
    for f in fields(cls):
        key_path = f"{path}.{f.name}" if path else f.name
        if f.name in data:
            value = data[f.name]
            if is_dataclass(hints[f.name]):
                value = _build_dataclass(hints[f.name], value, key_path, defaulted)
            kwargs[f.name] = value
        else:
            defaulted.append(key_path)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


_TOP_LEVEL_KEYS = {
    "universe",
    "universe_path",
    "train",
    "selectors",
    "annotators",
    "evaluators",
    "seeds",
    "eval",
    "output_dir",
}


def parse_config(path) -> tuple[ExperimentGrid, dict]:
    """Load and validate a grid config; returns (grid, manifest echo).

    The manifest echo carries the fully-resolved config plus the list of
    fields that were filled from defaults.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown top-level key(s) {unknown}; allowed: {sorted(_TOP_LEVEL_KEYS)}"
        )

    defaulted: list[str] = []
    universe = None
    if "universe" in data:
        universe = _build_dataclass(UniverseConfig, data["universe"], "universe", [])
    template = (
        _build_dataclass(TrainTemplate, data["train"], "train", defaulted)
        if "train" in data
        else TrainTemplate()
    )
    if "train" not in data:
        defaulted.append("train")

    def _judges(key: str) -> list[JudgeSpec]:
        entries = data.get(key, [])
        if not isinstance(entries, list):
            raise ConfigurationError(f"{key}: expected a list")
        return [
            _build_dataclass(JudgeSpec, entry, f"{key}[{i}]", defaulted)
            for i, entry in enumerate(entries)
        ]

    eval_settings = (
        _build_dataclass(EvalSettings, data["eval"], "eval", defaulted)
        if "eval" in data
        else EvalSettings()
    )
    if "eval" not in data:
        defaulted.append("eval")

    grid = ExperimentGrid(
        universe=universe,
        universe_path=data.get("universe_path"),
        train=template,
        selectors=list(data.get("selectors", [SELECTOR_RANDOM, SELECTOR_APL])),
        annotators=_judges("annotators"),
        evaluators=_judges("evaluators"),
        seeds=list(data.get("seeds", [42, 43, 44])),
        eval_settings=eval_settings,
        output_dir=data.get("output_dir", "runs"),
    )
    for key, default_used in (
        ("selectors", "selectors" not in data),
        ("seeds", "seeds" not in data),
        ("output_dir", "output_dir" not in data),
    ):
        if default_used:
            defaulted.append(key)
    grid.validate()
    manifest = {"config": grid_to_dict(grid), "defaulted_fields": sorted(defaulted)}
    return grid, manifest


def grid_to_dict(grid: ExperimentGrid) -> dict:
    return {
        "universe": asdict(grid.universe) if grid.universe is not None else None,
        "universe_path": grid.universe_path,
        "train": asdict(grid.train),
        "selectors": list(grid.selectors),
        "annotators": [asdict(a) for a in grid.annotators],
        "evaluators": [asdict(e) for e in grid.evaluators],
        "seeds": list(grid.seeds),
        "eval": asdict(grid.eval_settings),
        "output_dir": grid.output_dir,
    }


# --------------------------------------------------------------------------
# deterministic file emission
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_id_for(selector: str, annotator_label: str, seed: int) -> str:
    return f"{selector}__{annotator_label}__seed{seed}"


def _write_run_outputs(
    run_dir: Path,
    result: RunResult,
    eval_rows: list[list],
    manifest: dict,
) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        run_dir / "metrics.csv",
        METRICS_CSV_HEADER,
        [
            [
                log.iteration,
                log.mean_loss,
                log.labeled_pairs,
                log.lr,
                log.entropy_min,
                log.entropy_mean,
                log.entropy_max,
            ]
            for log in result.per_iteration
        ],
    )
    with open(run_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        for event in result.events:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
    _write_json(run_dir / "sft_policy.json", result.sft_policy.to_json_dict())
    _write_json(run_dir / "final_policy.json", result.final_policy.to_json_dict())
    _write_json(run_dir / "counters.json", result.counters.to_json_dict())
    _write_csv(run_dir / "eval.csv", EVAL_CSV_HEADER, eval_rows)
    _write_json(run_dir / "manifest.json", manifest)


def run_cell(
    universe: PromptUniverse,
    template: TrainTemplate,
    selector: str,
    annotator: JudgeSpec,
    seed: int,
    evaluators: Sequence[JudgeSpec],
    eval_settings: EvalSettings,
    run_dir,
    grid_manifest: Optional[dict] = None,
) -> Path:
    """Train one (selector, annotator, seed) cell and write its run directory."""
    run_dir = Path(run_dir)
    cfg = TrainConfig(
        dpo=template.dpo,
        selection=template.selection,
        selector=selector,
        annotator=annotator,
        sft=template.sft,
        run_seed=seed,
    )
    run_id = run_id_for(selector, annotator.label, seed)
    status = "completed"
    error = None
    try:
        sft_policy = sft_fit(universe, cfg)
        result = run_online_dpo(universe, sft_policy, cfg)
    except TrainingError as exc:
        status = "failed"
        error = str(exc)
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_json(
            run_dir / "manifest.json",
            {"run_id": run_id, "status": status, "error": error, "seed": seed},
        )
        return run_dir

    eval_rows = evaluate_run(
        universe, result, evaluators, eval_settings, run_id, selector, annotator.label, seed
    )
    universe_hash = universe.content_hash()
    hash_payload = {
        "config": grid_manifest["config"] if grid_manifest else None,
        "universe_hash": universe_hash,
        "seed": seed,
    }
    manifest = {
        "run_id": run_id,
        "status": status,
        "selector": selector,
        "annotator": asdict(annotator),
        "seed": seed,
        "universe_hash": universe_hash,
        "package_version": _package_version,
        "aborted": any(e.get("type") == "abort" for e in result.events),
        "manifest_hash": hashlib.sha256(
            json.dumps(hash_payload, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }
    if grid_manifest:
        manifest["grid"] = grid_manifest
    _write_run_outputs(run_dir, result, eval_rows, manifest)
    return run_dir


def evaluate_run(
    universe: PromptUniverse,
    result: RunResult,
    evaluators: Sequence[JudgeSpec],
    settings: EvalSettings,
    run_id: str,
    selector: str,
    annotator_label: str,
    seed: int,
) -> list[list]:
    """One eval.csv row per evaluator for a finished run."""
    eval_prompts = universe.eval_prompts()
    final = result.final_policy
    sft = result.sft_policy
    acc = probe_accuracy(final, universe)
    delta_pp = 100.0 * (acc - probe_accuracy(sft, universe))
    mean_entropy, collapse = collapse_metrics(
        final, sft, eval_prompts, settings.collapse_fraction
    )
    rows = []
    for spec in evaluators:
        judge = make_judge(replace(spec, seed=mix_seeds(spec.seed, seed)), universe)
        rng = substream(seed, "eval", spec.label)
        estimate = estimate_win_rate(final, sft, judge, eval_prompts, settings.n_trials, rng)
        rows.append(
            [
                run_id,
                selector,
                annotator_label,
                spec.label,
                seed,
                estimate.rate,
                estimate.ci_low,
                estimate.ci_high,
                acc,
                delta_pp,
                mean_entropy,
                collapse,
            ]
        )
    return rows


def _resolve_universe(grid: ExperimentGrid) -> PromptUniverse:
    if grid.universe_path is not None:
        return PromptUniverse.load(grid.universe_path)
    return generate_universe(grid.universe)


def _cell_worker(args: tuple) -> str:
    universe_path, *cell_args = args
    return str(run_cell(PromptUniverse.load(universe_path), *cell_args))


def run_grid(
    grid: ExperimentGrid,
    grid_manifest: Optional[dict] = None,
    overwrite: bool = False,
    parallel: int = 1,
) -> list[Path]:
    """Execute every (selector, annotator, seed) cell of the grid."""
    grid.validate()
    out = Path(grid.output_dir)
    cells = [
        (selector, annotator, seed)
        for selector in grid.selectors
        for annotator in grid.annotators
        for seed in grid.seeds
    ]
    run_dirs = [
        out / run_id_for(selector, annotator.label, seed) for selector, annotator, seed in cells
    ]
    existing = [d for d in run_dirs if d.exists()]
    if existing and not overwrite:
        raise ConfigurationError(
            f"refusing to overwrite existing run directories (pass overwrite): "
            f"{[str(d) for d in existing]}"
        )

    out.mkdir(parents=True, exist_ok=True)
    universe = _resolve_universe(grid)
    universe_path = out / "universe.json"
    if universe_path.exists() and not overwrite and grid.universe_path is None:
        raise ConfigurationError(f"refusing to overwrite {universe_path} (pass overwrite)")
    universe.save(universe_path)

    if parallel <= 1:
        for (selector, annotator, seed), run_dir in zip(cells, run_dirs):
            run_cell(
                universe,
                grid.train,
                selector,
                annotator,
                seed,
                grid.evaluators,
                grid.eval_settings,
                run_dir,
                grid_manifest,
            )
        return run_dirs

    jobs = [
        (
            universe_path,
            grid.train,
            selector,
            annotator,
            seed,
            grid.evaluators,
            grid.eval_settings,
            run_dir,
            grid_manifest,
        )
        for (selector, annotator, seed), run_dir in zip(cells, run_dirs)
    ]
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        list(pool.map(_cell_worker, jobs))
    return run_dirs


# --------------------------------------------------------------------------
# aggregation and reports
# --------------------------------------------------------------------------


def _warn_skipped_runs(run_dirs: Sequence[Path]) -> None:
    """Name on stderr each run directory without eval.csv (a failed run)."""
    for run_dir in map(Path, run_dirs):
        if (run_dir / "eval.csv").exists():
            continue
        try:
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            status = manifest["status"]
        except (OSError, ValueError, KeyError):
            status = "unreadable manifest"
        print(
            f"warning: {run_dir} has no eval.csv (manifest status {status!r}); "
            "it is left out of the report",
            file=sys.stderr,
        )


def _read_eval_rows(run_dirs: Sequence[Path]) -> list[dict]:
    rows = []
    for run_dir in run_dirs:
        eval_path = Path(run_dir) / "eval.csv"
        if not eval_path.exists():
            continue
        with open(eval_path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                row["seed"] = int(row["seed"])
                for key in ("win_rate", "ci_low", "ci_high", "probe_acc", "delta_acc_pp", "mean_entropy"):
                    row[key] = float(row[key])
                row["collapse_flag"] = row["collapse_flag"] == "true"
                rows.append(row)
    return rows


def _read_scoring_evals(run_dirs: Sequence[Path]) -> dict[str, int]:
    scoring = {}
    for run_dir in run_dirs:
        counters_path = Path(run_dir) / "counters.json"
        if not counters_path.exists():
            continue
        with open(counters_path, "r", encoding="utf-8") as fh:
            counters = json.load(fh)
        scoring[Path(run_dir).name] = (
            counters["policy_logprob_evals"] + counters["ref_logprob_evals"]
        )
    return scoring


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def aggregate_summary(
    run_dirs: Sequence[Path],
) -> tuple[list[SummaryRow], list[dict]]:
    """Mean +/- sample std per (selector, annotator, evaluator) plus Welch tests.

    Welch's unequal-variance t-test compares selector pairs on win_rate and
    delta_acc_pp; cells with fewer than two seeds or zero variance on both
    sides are reported as degenerate rather than fabricating a p-value. A run
    directory without eval.csv (a failed run) is named in a warning on
    stderr, so a shrunken n_seeds never goes unnoticed.
    """
    _warn_skipped_runs(run_dirs)
    rows = _read_eval_rows(run_dirs)
    if not rows:
        raise ConfigurationError("no eval.csv rows found under the given run directories")
    scoring = _read_scoring_evals(run_dirs)

    groups: dict[tuple[str, str, str], list[dict]] = {}
    for row in rows:
        key = (row["selector"], row["annotator_label"], row["evaluator_label"])
        groups.setdefault(key, []).append(row)

    random_scoring: dict[tuple[str, int], int] = {}
    for row in rows:
        if row["selector"] == SELECTOR_RANDOM and row["run_id"] in scoring:
            random_scoring[(row["annotator_label"], row["seed"])] = scoring[row["run_id"]]

    summary: list[SummaryRow] = []
    for key in sorted(groups):
        selector, annotator, evaluator = key
        cell = sorted(groups[key], key=lambda r: r["seed"])
        win_rates = [r["win_rate"] for r in cell]
        deltas = [r["delta_acc_pp"] for r in cell]
        extras = []
        for r in cell:
            own = scoring.get(r["run_id"])
            if own is None:
                continue
            baseline = random_scoring.get((annotator, r["seed"]), own if selector == SELECTOR_RANDOM else 0)
            extras.append(own - baseline)
        summary.append(
            SummaryRow(
                selector=selector,
                annotator=annotator,
                evaluator=evaluator,
                n_seeds=len(cell),
                win_rate_mean=float(np.mean(win_rates)),
                win_rate_std=_sample_std(win_rates),
                delta_acc_mean=float(np.mean(deltas)),
                delta_acc_std=_sample_std(deltas),
                collapse_runs=sum(1 for r in cell if r["collapse_flag"]),
                extra_scoring_ops_mean=float(np.mean(extras)) if extras else 0.0,
            )
        )

    welch_records: list[dict] = []
    pairs_seen = set()
    by_annotator_evaluator: dict[tuple[str, str], dict[str, list[dict]]] = {}
    for row in rows:
        key = (row["annotator_label"], row["evaluator_label"])
        by_annotator_evaluator.setdefault(key, {}).setdefault(row["selector"], []).append(row)
    for (annotator, evaluator), by_selector in sorted(by_annotator_evaluator.items()):
        selectors = sorted(by_selector)
        for i, sel_a in enumerate(selectors):
            for sel_b in selectors[i + 1 :]:
                if (annotator, evaluator, sel_a, sel_b) in pairs_seen:
                    continue
                pairs_seen.add((annotator, evaluator, sel_a, sel_b))
                for metric in ("win_rate", "delta_acc_pp"):
                    a = [r[metric] for r in sorted(by_selector[sel_a], key=lambda r: r["seed"])]
                    b = [r[metric] for r in sorted(by_selector[sel_b], key=lambda r: r["seed"])]
                    record = {
                        "annotator": annotator,
                        "evaluator": evaluator,
                        "metric": metric,
                        "selector_a": sel_a,
                        "selector_b": sel_b,
                        "n_a": len(a),
                        "n_b": len(b),
                        "mean_a": float(np.mean(a)),
                        "mean_b": float(np.mean(b)),
                        "t_stat": "",
                        "p_value": "",
                        "note": "",
                    }
                    if len(a) < 2 or len(b) < 2 or (np.var(a) == 0.0 and np.var(b) == 0.0):
                        record["note"] = "degenerate"
                    else:
                        t_stat, p_value = stats.ttest_ind(a, b, equal_var=False)
                        if math.isnan(t_stat) or math.isnan(p_value):
                            record["note"] = "degenerate"
                        else:
                            record["t_stat"] = float(t_stat)
                            record["p_value"] = float(p_value)
                    welch_records.append(record)
    return summary, welch_records


def emit_pareto(run_dirs: Sequence[Path], path) -> Path:
    """Plot-ready scatter data: one row per (run, evaluator)."""
    rows = _read_eval_rows(run_dirs)
    if not rows:
        raise ConfigurationError("no eval.csv rows found under the given run directories")
    rows.sort(key=lambda r: (r["selector"], r["annotator_label"], r["seed"], r["evaluator_label"]))
    path = Path(path)
    _write_csv(
        path,
        PARETO_CSV_HEADER,
        [
            [
                r["run_id"],
                r["selector"],
                r["annotator_label"],
                r["evaluator_label"],
                r["seed"],
                r["win_rate"],
                r["delta_acc_pp"],
                r["collapse_flag"],
            ]
            for r in rows
        ],
    )
    return path


def write_summary(summary: list[SummaryRow], welch_records: list[dict], out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    summary_path = out_dir / "summary.csv"
    _write_csv(
        summary_path,
        SUMMARY_CSV_HEADER,
        [
            [
                row.selector,
                row.annotator,
                row.evaluator,
                row.n_seeds,
                row.win_rate_mean,
                row.win_rate_std,
                row.delta_acc_mean,
                row.delta_acc_std,
                row.collapse_runs,
                row.extra_scoring_ops_mean,
            ]
            for row in summary
        ],
    )
    welch_path = out_dir / "welch.csv"
    _write_csv(
        welch_path,
        WELCH_CSV_HEADER,
        [[record[key] for key in WELCH_CSV_HEADER] for record in welch_records],
    )
    return summary_path, welch_path


def discover_run_dirs(out_dir) -> list[Path]:
    out_dir = Path(out_dir)
    return sorted(
        d for d in out_dir.iterdir() if d.is_dir() and (d / "manifest.json").exists()
    )
