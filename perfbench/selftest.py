#!/usr/bin/env python3
"""Self-test of the benchmark, on small inputs (about half a minute).

    python3 perfbench/selftest.py

Checks that
- every workload's outputs check out on a clean pass;
- one wrong answer injected into one op of each workload is counted, so
  the error rate rises above 0 and the result reads correct = false;
- the self times of a traced pass sum to no more than its wall time;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  nonzero without printing a result.
Exit code 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import MinbaseRandom, Pow2Scan, Pow2Sweep

ROOT = run.ROOT


def small_workloads(pkg):
    return [
        Pow2Scan(pkg, 1, ROOT, exponents=range(16, 20)),
        MinbaseRandom(pkg, 1, ROOT, lo=10**6, hi=10**7,
                      strata={(False, 14): 4, (False, 15): 4, (False, 16): 4, (False, 17): 4, (True, 11): 1}),
        Pow2Sweep(pkg, 1, ROOT, max_n=24),
    ]


def inject(pkg, workload_name: str):
    """Make one op of the workload return a wrong answer; returns an undo."""
    calls = {"n": 0}

    def once(mod, attr, corrupt):
        orig = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            calls["n"] += 1
            result = orig(*args, **kwargs)
            return corrupt(result) if calls["n"] == 2 else result

        setattr(mod, attr, wrapper)
        return lambda: setattr(mod, attr, orig)

    if workload_name == "pow2-scan":
        # drop the last record of the second scan
        return once(pkg.cli, "pow2_complete_scan",
                    lambda r: type(r)(r.target, r.base_range, r.records[:-1], r.min_base, r.exhaustive))
    if workload_name == "minbase-random":
        return once(pkg.palindrome, "min_pal_base",
                    lambda r: (r[0] + 1, r[1]))
    # the second table render gains a stray line
    return once(pkg.cli.tables, "render", lambda text: text + "x\n")


def check(label: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def bare_directory_fails(failures: list[str]) -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pow2-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check("bare directory: nonzero exit, no result printed",
          proc.returncode != 0 and '"correct"' not in proc.stdout, failures)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []
    pkg = run.import_package()
    for workload in small_workloads(pkg):
        name = workload.name
        detail, result, _ = run.run_workload(pkg, workload, 0.0, False)
        check(f"{name}: clean run, error_rate 0", result["correct"] and detail["failed"] == 0, failures)

        undo = inject(pkg, name)
        try:
            detail, result, _ = run.run_workload(pkg, workload, 0.0, False)
        finally:
            undo()
        check(f"{name}: one injected wrong answer, error_rate > 0",
              detail["error_rate"]["value"] > 0 and detail["failed"] == 1 and not result["correct"],
              failures)

        detail, result, passes = run.run_workload(pkg, workload, 0.0, True)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(f"{name}: traced self times sum to <= traced wall "
              f"({metrics['trace.self_sum_s']:.4f} <= {metrics['trace.wall_s']:.4f} s)",
              any(p.get("spans") for p in passes) and metrics["trace.self_sum_s"] <= metrics["trace.wall_s"],
              failures)
    bare_directory_fails(failures)
    print(json.dumps({"selftest_failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
