"""scripts/ladder.py: one limited subprocess per rung, outcomes as results."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"


def ladder(tmp_path, *args):
    out = tmp_path / "ladder.json"
    subprocess.run([sys.executable, str(SCRIPT), "--rungs", "grid-4",
                    "--out", str(out), *args],
                   check=True, capture_output=True, timeout=120)
    return json.loads(out.read_text())["sides"]["local"]["grid-4"]


def test_a_rung_records_its_solve(tmp_path):
    (rec,) = ladder(tmp_path)
    assert rec["outcome"] == "ok" and rec["certified"]
    assert rec["iterations"] > 0 and rec["oracle_distance"] < 1e-7
    assert rec["wall_s"] > 0 and rec["peak_rss_mb"] > 0
    assert rec["build_s"] > 0
    assert 0 < rec["estimate_mb"] < rec["peak_rss_mb"]  # no interpreter in it
    assert 0 < rec["first_rss_mb"] <= rec["peak_rss_mb"]
    assert isinstance(rec["minflt"], int) and rec["minflt"] >= 0
    # a sub-second rung is timed over several calls, at most five
    assert 2 <= rec["calls"] <= 5


def test_running_out_of_time_is_a_result(tmp_path):
    (rec,) = ladder(tmp_path, "--budget-s", "0.01")
    assert rec["outcome"] == "timeout"
