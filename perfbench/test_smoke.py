"""Smoke test of the benchmark at tiny sizes; finishes in seconds.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

wordeq = run._load_package()

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wordeq.solver import Unsat  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_at_tiny_size(workload, trace):
    result, lines = run.run_workload(workload, 7, 0.1, trace, sizes=workloads.TINY_SIZES)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_same_seed_same_inputs():
    def draw(seed):
        rng = random.Random(seed)
        return gen.differential(rng, 12) + [gen.negations(2, True), gen.conjugacy(rng, 16, False)]

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_a_wrong_answer_fails_the_run(monkeypatch):
    monkeypatch.setattr(wordeq, "check_sat", lambda phi, alphabet: Unsat())
    result, lines = run.run_workload("rewrite", 7, 0.1, False, sizes=workloads.TINY_SIZES)
    assert not result["correct"] and result["failed"] > 0
    assert any(line.startswith("FAILED") for line in lines)


def _run_script(*extra: str, cwd: Path, script: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *extra, str(script), "--workload", "rewrite", "--seed", "1", "--seconds", "0.1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_python_O():
    done = _run_script("-O", cwd=HERE.parent, script=HERE / "run.py")
    assert done.returncode == 2
    assert "correct" not in done.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run_script(cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode == 2
    assert "correct" not in done.stdout
