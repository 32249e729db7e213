"""Behaviour lock: the smoke grid must reproduce its recorded fingerprint.

``behaviour_lock_smoke.json`` holds, per run of ``configs/smoke.json`` (both
selectors, both seeds), the op counters, the universe hash, the sha256 of
``events.jsonl``'s bytes, a digest and per-type counts of the event stream, a
digest of the selection events (iteration, prompt, pair, winner), the APL
margin of every selected pair, and the floats of ``metrics.csv`` and
``eval.csv``. Counters, hashes and digests must match exactly, so the event
file's key order and float text are pinned too; CSV floats within 1e-9
relative; APL scores within 1e-12 absolute (a margin near zero makes a
relative bound meaningless).

Regenerate the fixture only when results are meant to change:

    PYTHONPATH=src python tests/test_behaviour_lock.py
"""

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from preflab import parse_config, run_grid

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
    }


def run_smoke_grid(out_dir: Path) -> dict:
    config = json.loads(SMOKE_CONFIG.read_text(encoding="utf-8"))
    config["output_dir"] = str(out_dir)
    config_path = out_dir.parent / "smoke_lock_config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    grid, manifest = parse_config(config_path)
    return {d.name: fingerprint(d) for d in run_grid(grid, grid_manifest=manifest)}


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
    for run_id, want in recorded.items():
        got = actual[run_id]
        for key in (
            "universe_hash",
            "counters",
            "events_sha256",
            "event_type_counts",
            "event_types_digest",
            "selection_digest",
        ):
            assert got[key] == want[key], f"{run_id}: {key} differs from the recorded run"
        _assert_table(f"{run_id} metrics.csv", got["metrics"], want["metrics"], CSV_REL_TOL)
        _assert_table(f"{run_id} eval.csv", got["eval"], want["eval"], CSV_REL_TOL)
        _assert_table(f"{run_id} APL scores", got["apl_scores"], want["apl_scores"], 0.0, SCORE_ABS_TOL)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fingerprints = run_smoke_grid(Path(tmp) / "runs")
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(fingerprints.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
