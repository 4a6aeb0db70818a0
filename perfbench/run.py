#!/usr/bin/env python3
"""palinradix benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload pow2-scan --seed 1 --seconds 30 --trace 0

The package is imported from `src/` of the checkout that holds this file.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced passes and reports the per-layer metrics
(see README.md).  Times are scaled to the calibration reference speed (see
calib.py); raw times go in the detail record.  The last line of stdout is
the result object; the line before it is the detail record: environment,
op counts, error rate, raw times.  Both, with per-op times and any spans,
are also written to `.bench_out/` in the checkout.  Exit code 0 when every
op checked out, 1 when any op failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import calib
import refs
from spans import SpanRecorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "palinradix"
SETUP_REPEATS = 7
# Passes per run at least: on a slow host the time budget alone would leave
# minbase-random with too few calls for a steady op_p95_ms.
MIN_PASSES = 4
BAND_WINDOW = 1 << 16  # bases timed per digit-count band
BAND_REPEATS = 3
SCAN_SPANS = (
    "palindrome.pow2_complete_scan",
    "palindrome.enumerate_palindromes",
    "palindrome.min_pal_base",
)


def import_package() -> SimpleNamespace:
    """Import palinradix afresh from the checkout, dropping any loaded copy."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(cli=cli, palindrome=sys.modules[f"{PACKAGE}.palindrome"])


def run_ops(ops: list) -> list[tuple[float, bool, float]]:
    """Time each (call, check) op and check its output afterwards.

    Returns (seconds, ok, calibration time) per op: the mean of the
    calibration samples taken while the op ran, or of those just before and
    after it when it ran too briefly for any.  An exception in the call or
    the check fails the op.
    """
    results = []
    with calib.Sampler() as sampler:
        before = calib.sample()
        for call, check in ops:
            sampler.begin()
            start = time.perf_counter()
            try:
                out, error = call(), None
            except Exception as exc:
                out, error = None, exc
            seconds = time.perf_counter() - start
            inside = sampler.end()
            try:
                if error is not None:
                    raise error
                ok = bool(check(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            after = calib.sample()
            results.append((seconds, ok, statistics.fmean(inside or (before, after))))
            before = after
    return results


def scaled(results) -> list[float]:
    return [calib.scale(seconds, cal) for seconds, _, cal in results]


def op_latencies(passes: list[dict], repeated: bool, scale: bool = True) -> list[float]:
    """One latency per distinct op of the run.

    A workload that runs the same ops every pass gives each op the median
    over passes; otherwise every op of every pass counts once.
    """
    per_pass = [
        scaled(p["ops"]) if scale else [seconds for seconds, _, _ in p["ops"]]
        for p in passes
    ]
    if repeated:
        return [statistics.median(times) for times in zip(*per_pass)]
    return [t for times in per_pass for t in times]


def setup(workload_cls, seed: int, root: Path):
    """Import, input generation and reference loading, SETUP_REPEATS times.

    Returns the last package and workload with the median raw and scaled
    set-up times.
    """
    state = {}

    def call():
        state["pkg"] = import_package()
        state["workload"] = workload_cls(state["pkg"], seed, root)
        return True

    results = run_ops([(call, bool)] * SETUP_REPEATS)
    raw = statistics.median(seconds for seconds, _, _ in results)
    return state["pkg"], state["workload"], raw, statistics.median(scaled(results))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    VmHWM covers this process image alone; ru_maxrss would also count the
    process that started the benchmark, up to its exec.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def band_split(n: int, lo: int, hi: int) -> tuple[int, int]:
    """How many bases in [lo, hi] give n three digits, and four or more."""
    c, r = refs.iroot(n, 3), math.isqrt(n)
    four = max(0, min(hi, c) - lo + 1)
    three = max(0, min(hi, r) - max(lo, c + 1) + 1)
    return three, four


def layer_metrics(recorder: SpanRecorder, factor: float) -> dict[str, float]:
    """Per-layer self times, calls and scan counts of one traced pass; self
    times are multiplied by the pass's calibration factor."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    three = four = hits = 0
    for (name, _, _, _, attrs), own in zip(recorder.spans, recorder.self_times()):
        self_s[name] += own * factor
        calls[name] += 1
        if name == "palindrome.enumerate_palindromes":
            t, f = band_split(attrs["n"], attrs["lo"], attrs["hi"])
            hits += attrs["hits"]
        elif name == "palindrome.min_pal_base" and attrs["n"] >= 3:
            n, b = attrs["n"], attrs["b"]
            t, f = band_split(n, 2, b)
            hits += b * b <= n
        else:
            continue
        three, four = three + t, four + f
    tested = three + four
    scan_s = sum(self_s[name] for name in SCAN_SPANS)
    return {
        "palindrome.scan_self_s": scan_s,
        "palindrome.bases_tested": tested,
        "palindrome.bases_tested.3digit": three,
        "palindrome.bases_tested.4plus": four,
        "palindrome.ns_per_base": scan_s / tested * 1e9 if tested else 0.0,
        "palindrome.hit_ratio": hits / tested if tested else 0.0,
        "palindrome.make_record_s": self_s["palindrome.make_record"],
        "palindrome.make_record_calls": calls["palindrome.make_record"],
        "binomial.classify_s": self_s["binomial.classify_binomial"],
        "binomial.classify_calls": calls["binomial.classify_binomial"],
        "numtheory.factorize_s": self_s["numtheory.factorize"],
        "numtheory.factorize_calls": calls["numtheory.factorize"],
        "numtheory.divisors_s": self_s["numtheory.divisors"],
        "numtheory.divisors_calls": calls["numtheory.divisors"],
        "theorems.pool_start_s": self_s["theorems.Pool"] + self_s["palindrome.Pool"],
        "theorems.pool_wait_s": self_s["theorems.Pool.map"] + self_s["palindrome.Pool.map"],
        "radix.to_digits_s": self_s["radix.to_digits"],
        "tables.render_s": self_s["tables.render"],
        "cli.self_s": self_s["cli.main"],
        "trace.self_sum_s": sum(self_s.values()),
    }


def band_probe(palindrome, n: int) -> dict[str, dict[str, float]]:
    """Scaled ns per base of enumerate_palindromes on the first BAND_WINDOW
    bases of n's three-digit band and of its four-or-more-digit band."""
    c = refs.iroot(n, 3)
    windows = {
        "3digit": (c + 1, c + min(math.isqrt(n) - c, BAND_WINDOW)),
        "4plus": (2, min(c, BAND_WINDOW + 1)),
    }
    out = {}
    for band, (lo, hi) in windows.items():
        op = (lambda: palindrome.enumerate_palindromes(n, lo, hi), bool)
        results = run_ops([op] * BAND_REPEATS)
        if not all(ok for _, ok, _ in results):
            raise RuntimeError(f"band probe of {n} failed on bases {lo}..{hi}")
        bases = hi - lo + 1
        out[band] = {"bases": bases, "ns_per_base": statistics.median(scaled(results)) / bases * 1e9}
    return out


def measure(workload, seconds: float, trace: bool) -> list[dict]:
    """Run passes until `seconds` of raw program time is measured.

    At least MIN_PASSES passes run; after those, a pass is not started when
    one as long as the last would overrun the budget.  Traced runs alternate an untraced and a
    traced pass, so each traced pass has an untraced neighbour to compare.
    """
    passes = []
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        ops = workload.ops(len(passes))
        if traced:
            recorder = SpanRecorder(PACKAGE)
            with recorder.install():
                results = run_ops(ops)
        else:
            results = run_ops(ops)
        raw = sum(seconds for seconds, _, _ in results)
        entry = {"traced": traced, "ops": results}
        if traced:
            entry["layers"] = layer_metrics(recorder, sum(scaled(results)) / raw)
            entry["spans"] = recorder.to_json()
        passes.append(entry)
        measured += raw
        if len(passes) >= MIN_PASSES and measured + raw > seconds:
            return passes


def run_workload(pkg, workload, seconds: float, trace: bool, setup_times=(0.0, 0.0)):
    """Measure one workload; returns (detail, result, passes).

    result is the object the benchmark prints last; detail adds the error
    rate, sample counts, raw times and band probe behind it.
    """
    passes = measure(workload, seconds, trace)
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for _, ok, _ in ops if not ok)
    detail = {
        "workload": workload.name,
        "trace": int(trace),
        "passes": len(passes),
        "ops": attempted,
        "failed": failed,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "calibration_ms": statistics.median(cal for _, _, cal in ops) * 1e3,
    }
    walls = {p["traced"]: [] for p in passes}
    for p in passes:
        walls[p["traced"]].append(sum(scaled(p["ops"])))
    if trace:
        layers = [p["layers"] for p in passes if p["traced"]]
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
        probe = band_probe(pkg.palindrome, workload.band_input)
        for band, result in probe.items():
            metrics[f"palindrome.ns_per_base.{band}"] = result["ns_per_base"]
        detail["band_probe"] = {"input": str(workload.band_input), **probe}
    else:
        times = op_latencies(passes, workload.repeated)
        raw_times = op_latencies(passes, workload.repeated, scale=False)
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": setup_times[1],
            "op_p50_ms": percentile(times, 50) * 1e3,
            "op_p95_ms": percentile(times, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        detail["op_latencies"] = len(times)
        detail["op_p95_samples_beyond"] = sum(1 for t in times if t * 1e3 > metrics["op_p95_ms"])
        detail["raw"] = {
            "wall_s": statistics.median(sum(s for s, _, _ in p["ops"]) for p in passes),
            "setup_s": setup_times[0],
            "op_p50_ms": percentile(raw_times, 50) * 1e3,
            "op_p95_ms": percentile(raw_times, 95) * 1e3,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in metric_units(trace).items()
        },
    }
    return detail, result, passes


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os": " ".join(os.uname()[i] for i in (0, 2, 4)),  # no subprocess, unlike platform.platform()
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="palinradix benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no {PACKAGE} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # A scan cap would make the complete scans partial.
    os.environ.pop("PALINRADIX_MAX_BASE", None)

    env = environment(args.seed)
    workload_cls = WORKLOADS[args.workload]
    if not workload_cls.parallel:
        # The CPUs of a small VM change speed independently, so a
        # single-process op is only scaled right by calibration samples
        # taken on its own CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pkg, workload, *setup_times = setup(workload_cls, args.seed, ROOT)
    if not Path(pkg.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"benchmark: {PACKAGE} imported from outside {src}", file=sys.stderr)
        return 2
    detail, result, passes = run_workload(pkg, workload, args.seconds, bool(args.trace), setup_times)
    detail["env"] = env

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**detail, "result": result, "passes": passes}, fh)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
