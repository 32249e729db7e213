"""Reports over run directories, and the CSV row format the lab writes.

Every CSV table is one dataclass: a row is one instance, and the header is
its field names in order. ``_write_csv`` writes any of them; ``eval.csv`` is
read back into ``EvalRow`` by its field types. ``read_outcome`` is the one
reader of a run's manifest and of how the run ended.

``report`` writes, from one read of the run directories: ``summary.csv``
(mean +/- sample std per cell plus collapse counts and extra scoring ops),
``welch.csv`` (Welch two-sample tests between selectors per
annotator/evaluator/metric), and ``pareto.csv`` (one point per run and
evaluator, plot-ready).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .errors import ConfigurationError
from .schema import build_dataclass
from .selection import SELECTOR_RANDOM, OpCounters, counters_report


@dataclass
class EvalRow:
    """One eval.csv row: a finished run scored by one evaluator."""

    run_id: str
    selector: str
    annotator_label: str
    evaluator_label: str
    seed: int
    win_rate: float
    ci_low: float
    ci_high: float
    probe_acc: float
    delta_acc_pp: float
    mean_entropy: float
    collapse_flag: bool


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


@dataclass
class WelchRow:
    """One Welch test between two selectors; t_stat and p_value are None (an
    empty cell) where the test is degenerate."""

    annotator: str
    evaluator: str
    metric: str
    selector_a: str
    selector_b: str
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    t_stat: Optional[float]
    p_value: Optional[float]
    note: str


@dataclass
class ParetoRow:
    """One scatter point: a run scored by one evaluator."""

    run_id: str
    selector: str
    annotator: str
    evaluator: str
    seed: int
    win_rate: float
    delta_acc_pp: float
    collapse_flag: bool


EVAL_CSV_HEADER = [f.name for f in fields(EvalRow)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_bool(text: str) -> bool:
    """A bool as _fmt writes it; ValueError on any text but true and false."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# how _read_eval_csv parses each eval.csv column, in header order
_EVAL_PARSERS = [_parse_bool if t is bool else t for t in get_type_hints(EvalRow).values()]


def _write_csv(path: Path, row_type: type, records) -> None:
    """A header of ``row_type``'s field names, then one row per record."""
    header = [f.name for f in fields(row_type)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(getattr(record, key)) for key in header] for record in records)


def read_outcome(run_dir) -> tuple[dict, str]:
    """A run's manifest.json, and how the run ended from it: "completed",
    "failed" or "aborted"."""
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text(encoding="utf-8"))
    return manifest, "aborted" if manifest.get("aborted") else manifest["status"]


def discover_run_dirs(out_dir) -> list[Path]:
    """Each directory under ``out_dir``, with or without manifest.json (a killed
    run); a missing or empty ``out_dir`` is a ConfigurationError."""
    run_dirs = sorted(path for path in Path(out_dir).glob("*") if path.is_dir())
    if not run_dirs:
        raise ConfigurationError(f"no run directories found under {out_dir}")
    return run_dirs


def _read_runs(
    run_dirs: Sequence[Path],
) -> tuple[list[EvalRow], dict[str, OpCounters], list[tuple[Path, str]]]:
    """From one read of each manifest.json: the eval.csv rows of the runs that
    completed without aborting, the counters.json of each such run that has one
    by its rows' run_id, and every other directory with why it is left out (an
    eval.csv or counters.json that does not parse leaves its run out). It is a
    ConfigurationError when included runs differ in universe_hash,
    grid.config.train or grid.config.eval, give one judge label two specs (the
    manifest's annotator and grid.config.evaluators, where recorded), or report
    the same (selector, annotator, seed)."""
    rows, counters, skipped, first = [], {}, [], None
    judges: dict[str, tuple[dict, Path]] = {}  # label: (spec, the first run that gives it)
    owners: dict[tuple[str, str, int], Path] = {}  # (selector, annotator, seed): its run
    for run_dir in map(Path, run_dirs):
        try:
            manifest, outcome = read_outcome(run_dir)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            skipped.append((run_dir, "unreadable manifest"))
            continue
        if outcome != "completed":
            error = manifest.get("error", "no error recorded")
            skipped.append((run_dir, f"the run {outcome}: {error}"))
            continue
        config = manifest.get("grid", {}).get("config", {})
        grid = (manifest.get("universe_hash"), config.get("train"), config.get("eval"))
        first = first or (run_dir, grid)
        if grid != first[1]:
            raise ConfigurationError(
                f"{run_dir} and {first[0]} differ in universe_hash, grid.config.train "
                "or grid.config.eval; report one grid per directory"
            )
        annotator = [manifest["annotator"]] if "annotator" in manifest else []
        for spec in annotator + config.get("evaluators", []):
            known, where = judges.setdefault(spec["label"], (spec, run_dir))
            if spec != known:
                raise ConfigurationError(
                    f"{run_dir} and {where} give judge {spec['label']!r} different specs; "
                    "a judge label must name one judge"
                )
        path = run_dir / "eval.csv"
        if not path.exists():
            skipped.append((run_dir, "no eval.csv"))
            continue
        try:  # path names the file read last, so the warning names the one that failed
            run_rows = _read_eval_csv(path)
            path = run_dir / "counters.json"
            run_counters = _read_counters(path) if path.exists() else None
        except (OSError, ValueError, csv.Error) as exc:
            skipped.append((run_dir, f"unreadable {path.name}: {exc}"))
            continue
        for row in run_rows:
            owner = owners.setdefault((row.selector, row.annotator_label, row.seed), run_dir)
            if owner != run_dir:
                raise ConfigurationError(
                    f"{run_dir} and {owner} both report selector {row.selector!r}, annotator "
                    f"{row.annotator_label!r}, seed {row.seed}; report one run per cell"
                )
        if run_counters is not None:
            counters.update((row.run_id, run_counters) for row in run_rows)
        rows += run_rows
    return rows, counters, skipped


def _read_eval_csv(path: Path) -> list[EvalRow]:
    """A run's eval.csv rows; ValueError unless its header is EVAL_CSV_HEADER and it
    has at least one row, each with one cell per column that parses as its type."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != EVAL_CSV_HEADER:
            raise ValueError("its header is not the EvalRow fields")
        rows = []
        for record in reader:
            if len(record) != len(_EVAL_PARSERS):
                raise ValueError(f"line {reader.line_num} has {len(record)} cells")
            rows.append(EvalRow(*(parse(cell) for parse, cell in zip(_EVAL_PARSERS, record))))
    if not rows:
        raise ValueError("no rows")
    return rows


def _read_counters(path: Path) -> OpCounters:
    """A run's counters.json; ValueError unless it is an object of every OpCounters
    field as an int, and nothing else."""
    defaulted: list[str] = []
    data = json.loads(path.read_text(encoding="utf-8"))
    counters = build_dataclass(OpCounters, data, "", defaulted)
    if defaulted:
        raise ValueError(f"no {', '.join(defaulted)}")
    return counters


def _welch(a: Sequence[float], b: Sequence[float]) -> Optional[tuple[float, float]]:
    """Welch's t with scipy.stats.ttest_ind(equal_var=False)'s arithmetic, and its
    two-sided p within 1e-12 relative; None where the test is degenerate: fewer than
    two values on a side, zero variance on both, a NaN t or a non-finite df."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2 or (np.var(a) == 0.0 and np.var(b) == 0.0):
        return None
    va, vb = (np.mean((x - x.mean()) ** 2) * (x.size / (x.size - 1)) / x.size for x in (a, b))
    df = float((va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1)))
    t = float((a.mean() - b.mean()) / np.sqrt(va + vb))
    return None if math.isnan(t) or not math.isfinite(df) else (t, _t_two_sided_p(t, df))


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df > 0: the regularized incomplete beta
    I_x(df/2, 1/2) at x = df/(df + t^2). For df <= 1e4 it is within 1e-12
    relative of the exact tail wherever that is >= 1e-300."""
    t2 = t * t
    a, x, y = df / 2.0, df / (df + t2), t2 / (df + t2)
    if math.isinf(t2) or y == 0.0:
        return 0.0 if math.isinf(t2) else 1.0
    if a > 100:  # Stirling's series, where lgamma(a + 1/2) - lgamma(a) would cancel
        log_ratio = a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        log_ratio += (1 / (a + 0.5) - 1 / a) / 12 - ((a + 0.5) ** -3 - a**-3) / 360
    else:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    # x^a y^(1/2) / B(a, 1/2), which is symmetric in (a, x) <-> (1/2, y)
    front = math.exp(0.5 * math.log(y) - a * math.log1p(t2 / df) + log_ratio) / math.sqrt(math.pi)
    # Lentz's continued fraction converges fast below x = (a + 1)/(a + b + 2); above, 1 - I_y(b, a)
    flip = x >= (a + 1.0) / (a + 2.5)
    a, b, x = (0.5, a, y) if flip else (a, 0.5, x)
    c, d, f = 1.0, 0.0, 1.0
    for j in range(1, 20_000):
        m = j // 2
        num = (m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)) * x / ((a + j - 1) * (a + j))
        d = 1.0 / ((1.0 + num * d) or 1e-300)  # a zero denominator becomes tiny
        c = (1.0 + num / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return 1.0 - front / (a * f) if flip else front / (a * f)


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def aggregate_summary(
    run_dirs: Sequence[Path],
) -> tuple[list[SummaryRow], list[WelchRow], list[ParetoRow]]:
    """From one read of the runs: mean +/- sample std per (selector, annotator,
    evaluator), the Welch tests, and the pareto points (one per run and
    evaluator).

    Welch's unequal-variance t-test compares selector pairs on win_rate and
    delta_acc_pp; cells with fewer than two seeds or zero variance on both
    sides are reported as degenerate rather than fabricating a p-value. A run
    left out (see _read_runs) is named in a warning on stderr with its reason,
    so a shrunken n_seeds never goes unnoticed, and so is each (annotator,
    seed) whose selectors bought different numbers of judge queries.
    """
    rows, counters, skipped = _read_runs(run_dirs)
    for run_dir, why in skipped:
        print(f"warning: {run_dir} is left out of the report ({why})", file=sys.stderr)
    if not rows:
        raise ConfigurationError("no eval.csv rows found under the given run directories")

    # runs that share (annotator, seed) differ only in selector: they are the compared pairs
    paired: dict[tuple[str, int], dict[str, OpCounters]] = {}
    for row in rows:
        if row.run_id in counters:
            paired.setdefault((row.annotator_label, row.seed), {})[row.selector] = counters[row.run_id]
    for (annotator, seed), by_selector in sorted(paired.items()):
        bought = {selector: run.judge_queries for selector, run in by_selector.items()}
        if len(set(bought.values())) > 1:
            counts = ", ".join(f"{sel} {n}" for sel, n in sorted(bought.items()))
            print(
                f"warning: annotator {annotator!r} seed {seed}: selectors bought "
                f"different judge-query counts ({counts})",
                file=sys.stderr,
            )

    cells: dict[tuple[str, str], dict[str, list[EvalRow]]] = {}
    for row in sorted(rows, key=lambda r: r.seed):
        key = (row.annotator_label, row.evaluator_label)
        cells.setdefault(key, {}).setdefault(row.selector, []).append(row)

    summary, welch = [], []
    for (annotator, evaluator), by_selector in sorted(cells.items()):
        for selector, cell in by_selector.items():
            win_rates = [r.win_rate for r in cell]
            deltas = [r.delta_acc_pp for r in cell]
            # against the paired random run, or against no scoring without one
            extras = [
                counters_report(
                    counters[r.run_id], paired[annotator, r.seed].get(SELECTOR_RANDOM, OpCounters())
                )["extra_scoring_evals"]
                for r in cell if r.run_id in counters
            ]
            summary.append(SummaryRow(
                selector=selector, annotator=annotator, evaluator=evaluator, n_seeds=len(cell),
                win_rate_mean=float(np.mean(win_rates)), win_rate_std=_sample_std(win_rates),
                delta_acc_mean=float(np.mean(deltas)), delta_acc_std=_sample_std(deltas),
                collapse_runs=sum(1 for r in cell if r.collapse_flag),
                extra_scoring_ops_mean=float(np.mean(extras)) if extras else 0.0,
            ))
        for sel_a, sel_b in combinations(sorted(by_selector), 2):
            for metric in ("win_rate", "delta_acc_pp"):
                a = [getattr(r, metric) for r in by_selector[sel_a]]
                b = [getattr(r, metric) for r in by_selector[sel_b]]
                t_stat, p_value = _welch(a, b) or (None, None)
                welch.append(WelchRow(
                    annotator=annotator, evaluator=evaluator, metric=metric,
                    selector_a=sel_a, selector_b=sel_b, n_a=len(a), n_b=len(b),
                    mean_a=float(np.mean(a)), mean_b=float(np.mean(b)), t_stat=t_stat,
                    p_value=p_value, note="degenerate" if t_stat is None else "",
                ))
    summary.sort(key=lambda row: (row.selector, row.annotator, row.evaluator))
    rows.sort(key=lambda r: (r.selector, r.annotator_label, r.seed, r.evaluator_label))
    pareto = [
        ParetoRow(r.run_id, r.selector, r.annotator_label, r.evaluator_label, r.seed,
                  r.win_rate, r.delta_acc_pp, r.collapse_flag)
        for r in rows
    ]
    return summary, welch, pareto


def write_summary(
    summary: list[SummaryRow], welch: list[WelchRow], pareto: list[ParetoRow], out_dir
) -> tuple[Path, Path, Path]:
    """Write summary.csv, welch.csv and pareto.csv under out_dir; their paths."""
    out_dir = Path(out_dir)
    tables = (
        ("summary.csv", SummaryRow, summary),
        ("welch.csv", WelchRow, welch),
        ("pareto.csv", ParetoRow, pareto),
    )
    for name, row_type, records in tables:
        _write_csv(out_dir / name, row_type, records)
    return tuple(out_dir / name for name, *_ in tables)
