"""Output check and exact counts for the run directories of one repetition.

A cell passes when its manifest says ``completed``, it did not abort, its
``judge_queries`` counter equals the labelled pairs summed over
``metrics.csv``, a random cell spent no scoring evaluations, and ``eval.csv``
has one row per evaluator with ``0 <= ci_low <= win_rate <= ci_high <= 1``.
On workload seed 0 each cell must also match ``reference.json``, recorded from
the unmodified code: counters and the digest of the selection events exactly,
``eval.csv`` floats within 1e-9 relative. That locks behaviour, so a later
speed-up cannot buy time by changing results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
EVAL_FLOATS = ("win_rate", "ci_low", "ci_high", "probe_acc", "delta_acc_pp", "mean_entropy")
REL_TOL = 1e-9


def read_cell(run_dir: Path) -> dict:
    """Everything the check and the counts need from one run directory."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    cell = {"run_id": run_dir.name, "manifest": manifest}
    if manifest.get("status") != "completed":
        return cell
    cell["counters"] = json.loads((run_dir / "counters.json").read_text(encoding="utf-8"))
    with open(run_dir / "metrics.csv", encoding="utf-8", newline="") as fh:
        cell["labeled_pairs"] = [int(row["labeled_pairs"]) for row in csv.DictReader(fh)]
    with open(run_dir / "eval.csv", encoding="utf-8", newline="") as fh:
        cell["eval"] = list(csv.DictReader(fh))
    digest = hashlib.sha256()
    lines = degenerate = 0
    with open(run_dir / "events.jsonl", encoding="utf-8") as fh:
        for line in fh:
            lines += 1
            event = json.loads(line)
            if event["type"] == "selection":
                y1, y2 = event["pair"]
                digest.update(
                    f"{event['iteration']},{event['prompt_id']},{y1},{y2},{event['winner']}\n".encode()
                )
            elif event["type"] == "degenerate_prompt":
                degenerate += 1
    cell["selection_digest"] = digest.hexdigest()
    cell["events_lines"] = lines
    cell["degenerate_prompts"] = degenerate
    cell["output_bytes"] = sum(p.stat().st_size for p in run_dir.iterdir())
    return cell


def _selection(cell: dict) -> dict:
    return cell["manifest"]["grid"]["config"]["train"]["selection"]


def reference_entry(cell: dict) -> dict:
    return {
        "counters": cell["counters"],
        "selection_digest": cell["selection_digest"],
        "eval": {row["evaluator_label"]: [float(row[k]) for k in EVAL_FLOATS] for row in cell["eval"]},
    }


def cell_problems(cell: dict, evaluators: list[str], reference: dict | None) -> list[str]:
    manifest = cell["manifest"]
    if manifest.get("status") != "completed":
        return [f"status {manifest.get('status')!r}"]
    problems = []
    if manifest.get("aborted"):
        problems.append("aborted")
    counters = cell["counters"]
    if counters["judge_queries"] != sum(cell["labeled_pairs"]):
        problems.append("judge_queries differs from the labelled pairs in metrics.csv")
    if manifest["selector"] == "random" and counters["policy_logprob_evals"] + counters["ref_logprob_evals"]:
        problems.append("random cell spent scoring evaluations")
    if sorted(row["evaluator_label"] for row in cell["eval"]) != sorted(evaluators):
        problems.append("eval.csv rows do not match the evaluators")
    for row in cell["eval"]:
        lo, rate, hi = float(row["ci_low"]), float(row["win_rate"]), float(row["ci_high"])
        if not 0.0 <= lo <= rate <= hi <= 1.0:
            problems.append(f"{row['evaluator_label']}: win-rate interval out of order")
    if reference is not None:
        if cell["run_id"] not in reference:
            problems.append("no reference values")
        else:
            expected = reference[cell["run_id"]]
            actual = reference_entry(cell)
            if actual["counters"] != expected["counters"]:
                problems.append("counters differ from the reference")
            if actual["selection_digest"] != expected["selection_digest"]:
                problems.append("selection events differ from the reference")
            for label, values in expected["eval"].items():
                got = actual["eval"].get(label)
                if got is None or not all(
                    math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) for a, b in zip(got, values)
                ):
                    problems.append(f"{label}: eval.csv differs from the reference")
    return problems


def load_reference(workload: str) -> dict:
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    return stored.get(workload, {})


def check_runs(runs: Path, expected_cells: int, evaluators: list[str], reference: dict | None) -> dict:
    """Check every cell under ``runs``; returns failures and exact counts.

    ``reference`` maps run ids to recorded values; None skips that comparison.
    """
    cells = []
    for manifest in sorted(runs.glob("*/manifest.json")):
        try:
            cells.append(read_cell(manifest.parent))
        except (OSError, ValueError, KeyError) as exc:
            cells.append({"run_id": manifest.parent.name, "manifest": {"status": f"unreadable: {exc}"}})
    problems = {c["run_id"]: cell_problems(c, evaluators, reference) for c in cells}
    failed = sum(1 for p in problems.values() if p) + max(expected_cells - len(cells), 0)
    done = [c for c in cells if "counters" in c]
    universe = runs / "universe.json"
    return {
        "attempted": max(expected_cells, len(cells)),
        "failed": failed,
        "problems": {k: v for k, v in problems.items() if v},
        "counts": {
            "scoring_evals": sum(
                c["counters"]["policy_logprob_evals"] + c["counters"]["ref_logprob_evals"] for c in done
            ),
            "margin_score_calls": sum(c["counters"]["policy_logprob_evals"] // 2 for c in done),
            "judge_queries": sum(c["counters"]["judge_queries"] for c in done),
            "iterations": sum(len(c["labeled_pairs"]) for c in done),
            "label_budget": sum(len(c["labeled_pairs"]) * _selection(c)["label_budget"] for c in done),
            "sampled_prompts": sum(len(c["labeled_pairs"]) * _selection(c)["batch_prompts"] for c in done),
            "updating_iterations": sum(sum(1 for n in c["labeled_pairs"] if n) for c in done),
            "degenerate_prompts": sum(c["degenerate_prompts"] for c in done),
            "win_rate_trials": sum(
                len(c["eval"]) * c["manifest"]["grid"]["config"]["eval"]["n_trials"] for c in done
            ),
            "events_lines": sum(c["events_lines"] for c in done),
            "output_bytes": sum(c["output_bytes"] for c in done),
            "universe_json_bytes": universe.stat().st_size if universe.exists() else 0,
        },
        "reference": {c["run_id"]: reference_entry(c) for c in done},
    }
