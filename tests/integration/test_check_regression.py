"""``benchmarks/check_regression.py`` gates timed ratios with a tolerance.

Each case writes two small snapshot files and runs the script the way CI
does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "check_regression.py"

COMMITTED = {
    "join_normalize": {"32": {"speedup_vs_reference": 4.0}},
    "lockstep": {"speedup_vs_refhistory": 3.0},
    "reroot": {"speedup_vs_raw": 2.0},
    "codec": {"envelope_vs_json_roundtrip": 5.0},
    "contracts": {"check_vs_compare": 0.5},
    "durability": {"durable_vs_memory_sync": 0.9},
}


def _run(tmp_path, fresh):
    committed_path = tmp_path / "committed.json"
    fresh_path = tmp_path / "fresh.json"
    committed_path.write_text(json.dumps(COMMITTED))
    fresh_path.write_text(json.dumps(fresh))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(committed_path), str(fresh_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _with(section, key, factor):
    fresh = json.loads(json.dumps(COMMITTED))
    fresh[section][key] *= factor
    return fresh


def test_identical_snapshots_pass(tmp_path):
    result = _run(tmp_path, COMMITTED)
    assert result.returncode == 0, result.stdout


def test_timed_ratio_twenty_percent_low_passes(tmp_path):
    result = _run(tmp_path, _with("durability", "durable_vs_memory_sync", 0.8))
    assert result.returncode == 0, result.stdout


def test_timed_ratio_forty_percent_low_fails(tmp_path):
    result = _run(tmp_path, _with("durability", "durable_vs_memory_sync", 0.6))
    assert result.returncode == 1
    assert "REGRESSION: durability.durable_vs_memory_sync" in result.stdout
