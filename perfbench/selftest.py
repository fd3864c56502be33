#!/usr/bin/env python3
"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

Runs every workload with --smoke (one case per group), untraced and traced,
and checks that:

* the last line is the result object with exactly the keys correct,
  attempted, failed and metrics, every verdict is right and no case failed;
* every metric named in BENCHMARK.json is emitted with its unit, and no other;
* wrong_verdicts is 0 on every workload;
* the traced run passes the layer checks that run.py makes on every traced
  run from workloads.json: linalg.matmul.calls (all of linalg) is 0 on
  courant_poly and poly.add.calls (all of poly) is 0 on loop_laws, while
  both are nonzero where the expected effects predict work;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, (workload, trace, set(got) ^ set(wanted))
    if not trace:
        assert "# wrong_verdicts 0 count" in lines, (workload, lines)


def check_bare_directory() -> None:
    """Without the package sources the benchmark must refuse, printing no result."""
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "work-*", "__pycache__"))
        proc = run(bare, "loop_laws", 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        check_workload(bench, workload, 0)
        check_workload(bench, workload, 1)
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
