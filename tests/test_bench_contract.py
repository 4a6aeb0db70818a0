"""The names the traced benchmark under perfbench/ relies on.

perfbench/spans.py wraps palinradix names by module and attribute, and
perfbench/selftest.py rebuilds a ScanReport from five positional fields.
A rename here would leave tier-1 green while the traced benchmark breaks,
so these tests read spans.py (without changing it) and check each name,
check that importing palinradix.cli loads every module it names, and run
the benchmark's own self-test, which fails when a kernel change breaks one
of its workloads.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(spans):
    assert spans.TRACED
    for mod_name, attr in spans.TRACED:
        module = importlib.import_module(f"palinradix.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr)


def test_pool_modules_have_pool(spans):
    assert spans.POOL_MODULES
    for mod_name in spans.POOL_MODULES:
        module = importlib.import_module(f"palinradix.{mod_name}")
        assert callable(getattr(module, "Pool", None)), mod_name


def test_cli_import_loads_traced_modules(spans):
    # perfbench imports palinradix.cli afresh (run.import_package) and
    # then looks each traced module up in sys.modules, so a module that
    # cli imports lazily makes SpanRecorder.install raise KeyError
    def ours():
        return [k for k in sys.modules if k == "palinradix" or k.startswith("palinradix.")]

    saved = {key: sys.modules.pop(key) for key in ours()}
    try:
        importlib.import_module("palinradix.cli")
        loaded = set(ours())
    finally:
        for key in ours():
            del sys.modules[key]
        sys.modules.update(saved)
    names = {mod_name for mod_name, _ in spans.TRACED} | set(spans.POOL_MODULES)
    assert {f"palinradix.{name}" for name in names} <= loaded


def test_scan_report_positional_fields():
    # selftest.py: type(r)(r.target, r.base_range, r.records, r.min_base, r.exhaustive)
    from palinradix.cli import pow2_complete_scan

    report = pow2_complete_scan(12)
    names = [f.name for f in dataclasses.fields(report)]
    assert names == ["target", "base_range", "records", "min_base", "exhaustive"]
    rebuilt = type(report)(
        report.target, report.base_range, report.records[:-1], report.min_base,
        report.exhaustive,
    )
    assert rebuilt.records == report.records[:-1]


def test_perfbench_selftest():
    # about 1.5 s on small inputs; it writes .bench_out/bare and removes it
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == '{"selftest_failures": []}'
