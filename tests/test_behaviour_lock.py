"""Behaviour lock: the smoke grid must reproduce its recorded fingerprint.

``behaviour_lock_smoke.json`` holds, per run of ``configs/smoke.json`` (both
selectors, both seeds), the op counters, the universe hash, the sha256 of
``events.jsonl``'s bytes, a digest and per-type counts of the event stream, a
digest of the selection events (iteration, prompt, pair, winner), the APL
margin of every selected pair, the sha256 of the SFT and final parameters'
``<f8`` bytes in ``run.npz``, and the floats of ``metrics.csv`` and
``eval.csv``; under ``"report"`` it holds the cells of the ``summary.csv``,
``welch.csv`` and ``pareto.csv`` that ``report`` writes for those runs.
Counters, hashes and digests must match exactly, so the event file's key order
and float text are pinned too; CSV floats within 1e-9 relative; APL scores
within 1e-12 absolute (a margin near zero makes a relative bound meaningless).
A second test runs ``bench/run.py --check-only`` on each benchmark workload,
which holds the benchmark's own seed-0 lock (``bench/reference.json``).

Regenerate the fixture only when results are meant to change:

    PYTHONPATH=src python tests/test_behaviour_lock.py

Regeneration keeps each recorded float that the new run matches within the
lock's tolerance, so at an unchanged commit it leaves the fixture
byte-identical, and after a change only the values that moved are rewritten.
It prints, per run id, the fixture keys whose value changed.
"""

import csv
import hashlib
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from preflab import aggregate_summary, parse_config, run_grid, write_summary

ROOT = Path(__file__).resolve().parent.parent
SMOKE_CONFIG = ROOT / "configs" / "smoke.json"
FIXTURE = Path(__file__).resolve().parent / "behaviour_lock_smoke.json"
CSV_REL_TOL = 1e-9
SCORE_ABS_TOL = 1e-12


def _csv_cells(path: Path) -> list[list]:
    """Data rows with numeric cells as floats and the rest as text."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[_cell(v) for v in row] for row in rows]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def fingerprint(run_dir: Path) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    types, scores = [], []
    selection = hashlib.sha256()
    events = (run_dir / "events.jsonl").read_bytes()
    for line in events.decode("utf-8").splitlines():
        event = json.loads(line)
        types.append(event["type"])
        if event["type"] == "selection":
            y1, y2 = event["pair"]
            selection.update(
                f"{event['iteration']},{event['prompt_id']},{y1},{y2},{event['winner']}\n".encode()
            )
            if event["score"] is not None:
                scores.append(event["score"])
    with np.load(run_dir / "run.npz", allow_pickle=False) as run:
        thetas = {f"{name}_sha256": hashlib.sha256(run[name].astype("<f8").tobytes()).hexdigest()
                  for name in ("sft_theta", "final_theta")}
    return {
        "universe_hash": manifest["universe_hash"],
        "counters": json.loads((run_dir / "counters.json").read_text(encoding="utf-8")),
        "events_sha256": hashlib.sha256(events).hexdigest(),
        "event_types_digest": hashlib.sha256("\n".join(types).encode()).hexdigest(),
        "event_type_counts": dict(sorted(Counter(types).items())),
        "selection_digest": selection.hexdigest(),
        "apl_scores": scores,
        "metrics": _csv_cells(run_dir / "metrics.csv"),
        "eval": _csv_cells(run_dir / "eval.csv"),
        **thetas,
    }


def run_smoke_grid(out_dir: Path) -> dict:
    config = json.loads(SMOKE_CONFIG.read_text(encoding="utf-8"))
    config["output_dir"] = str(out_dir)
    config_path = out_dir.parent / "smoke_lock_config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    grid, manifest = parse_config(config_path)
    run_dirs = run_grid(grid, grid_manifest=manifest)
    fingerprints = {d.name: fingerprint(d) for d in run_dirs}
    fingerprints["report"] = report_tables(run_dirs, out_dir)
    return fingerprints


def report_tables(run_dirs: list[Path], out_dir: Path) -> dict:
    summary, welch, pareto = aggregate_summary(run_dirs)
    write_summary(summary, welch, pareto, out_dir)
    return {name: _csv_cells(out_dir / f"{name}.csv") for name in ("summary", "welch", "pareto")}


def _floats_close(got, want, rel: float, abs_: float) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_)


def _assert_table(name: str, got: list, want: list, rel: float, abs_: float = 0.0) -> None:
    assert len(got) == len(want), f"{name}: {len(got)} entries, recorded {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        g, w = (g, w) if isinstance(w, list) else ([g], [w])
        assert len(g) == len(w), f"{name}[{i}]: row length differs"
        for j, (a, b) in enumerate(zip(g, w)):
            assert _floats_close(a, b, rel, abs_), f"{name}[{i}][{j}]: {a!r} != recorded {b!r}"


def test_smoke_grid_matches_recorded_fingerprint(tmp_path):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = run_smoke_grid(tmp_path / "runs")
    assert sorted(actual) == sorted(recorded)
    for name, want in recorded.pop("report").items():
        _assert_table(f"{name}.csv", actual["report"][name], want, CSV_REL_TOL)
    for run_id, want in recorded.items():
        got = actual[run_id]
        for key in (
            "universe_hash",
            "counters",
            "events_sha256",
            "event_type_counts",
            "event_types_digest",
            "selection_digest",
            "sft_theta_sha256",
            "final_theta_sha256",
        ):
            assert got[key] == want[key], f"{run_id}: {key} differs from the recorded run"
        _assert_table(f"{run_id} metrics.csv", got["metrics"], want["metrics"], CSV_REL_TOL)
        _assert_table(f"{run_id} eval.csv", got["eval"], want["eval"], CSV_REL_TOL)
        _assert_table(f"{run_id} APL scores", got["apl_scores"], want["apl_scores"], 0.0, SCORE_ABS_TOL)


def _settle(got, want, rel: float, abs_: float):
    """``got`` with every cell that matches the recorded ``want`` within the
    tolerance kept as recorded; a table whose shape changed is ``got`` as is."""
    if not isinstance(want, list) or len(got) != len(want):
        return got
    return [
        _settle(g, w, rel, abs_) if isinstance(g, list)
        else w if not isinstance(w, list) and _floats_close(g, w, rel, abs_) else g
        for g, w in zip(got, want)
    ]


def regenerated(actual: dict, recorded: dict) -> dict:
    """The fixture to write for ``actual``: its hashes, counters and digests as
    they are, its floats kept as ``recorded`` where they match within tolerance."""
    report = recorded.get("report", {})
    for name, table in actual["report"].items():
        actual["report"][name] = _settle(table, report.get(name), CSV_REL_TOL, 0.0)
    for run_id, got in actual.items():
        if run_id == "report":
            continue
        want = recorded.get(run_id, {})
        for key in ("metrics", "eval"):
            got[key] = _settle(got[key], want.get(key), CSV_REL_TOL, 0.0)
        got["apl_scores"] = _settle(got["apl_scores"], want.get("apl_scores"), 0.0, SCORE_ABS_TOL)
    return actual


def changed_keys(actual: dict, recorded: dict) -> dict[str, list[str]]:
    """Per run id (and ``"report"``), the fixture keys whose value ``actual``
    changes from ``recorded``; a run on one side only changes all its keys."""
    changes = {}
    for run_id in sorted({*actual, *recorded}):
        got, want = actual.get(run_id, {}), recorded.get(run_id, {})
        changes[run_id] = sorted(key for key in {*got, *want} if got.get(key) != want.get(key))
    return changes


def test_changed_keys_names_each_moved_value_per_run():
    recorded = {"report": {"summary": [[1.0]]}, "r": {"universe_hash": "a", "counters": {"n": 1}}}
    actual = {"report": {"summary": [[1.0]]}, "r": {"universe_hash": "b", "counters": {"n": 1}},
              "s": {"counters": {"n": 2}}}
    assert changed_keys(actual, recorded) == {
        "r": ["universe_hash"], "report": [], "s": ["counters"],
    }


def test_regeneration_rewrites_only_values_beyond_the_tolerance():
    recorded = {
        "report": {"summary": [["apl", 0.5, 2.0]]},
        "r": {"metrics": [[1, 0.25]], "eval": [["x", 1.0]], "apl_scores": [0.1, 0.2]},
    }
    actual = {
        "report": {"summary": [["apl", 0.5 * (1 + 1e-12), 2.5]]},
        "r": {"metrics": [[1, 0.25 * (1 + 2e-9)]], "eval": [["x", 1.0], ["y", 2.0]],
              "apl_scores": [0.1 + 5e-13, 0.2 + 5e-12], "counters": {"judge_queries": 7}},
    }
    assert regenerated(actual, recorded) == {
        "report": {"summary": [["apl", 0.5, 2.5]]},
        "r": {"metrics": [[1, 0.25 * (1 + 2e-9)]], "eval": [["x", 1.0], ["y", 2.0]],
              "apl_scores": [0.1, 0.2 + 5e-12], "counters": {"judge_queries": 7}},
    }


@pytest.mark.parametrize(
    "workload,cells",
    [("goodhart_sweep", 6), ("reference_protocol", 2), ("smoke_grid_parallel", 32)],
)
def test_bench_check_only_holds_the_seed_0_lock(workload, cells):
    # bench/run.py --check-only compares every cell of the workload at seed 0
    # with bench/reference.json: counters, the selection digest, and eval
    # floats within 1e-9
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--check-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.splitlines()[-1])
    assert (line["correct"], line["failed"], line["attempted"]) == (True, 0, cells), result.stderr


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fingerprints = run_smoke_grid(Path(tmp) / "runs")
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    fingerprints = regenerated(fingerprints, recorded)
    for run_id, keys in changed_keys(fingerprints, recorded).items():
        print(f"{run_id}: {', '.join(keys) if keys else 'unchanged'}")
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(fingerprints.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
