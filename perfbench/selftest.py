"""Self-test of the benchmark harness, on tiny inputs (about half a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload passes its oracle on the code as it is,
that one deliberately wrong expected answer is counted as a failure,
that a traced pass restores every binding it patched and leaves the
untraced results unchanged, and that the benchmark refuses to run
without the package sources.
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 6


def tiny(name, seed=7):
    """A workload with its item list cut to a few cheap items."""
    workload = workloads.WORKLOADS[name](seed, ROOT)
    workload.setup()
    if name == "certify":
        light = [item for item in workload.items if "spec" in item and item["d"] <= 3][:TINY]
        table = {"table": [(item["spec"], item["d"]) for item in light]}
        workload.items = light + [table]
    elif name != "cli":
        workload.items = workload.items[:TINY]
    return workload


def bindings():
    """Every attribute of the package's modules and traced classes."""
    seen = {}
    for name in ("qfa_exact", *(f"qfa_exact.{m}" for m in tracing.MODULES)):
        module = importlib.import_module(name)
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def test_workloads_pass_oracle_and_catch_a_wrong_answer():
    for name in workloads.WORKLOADS:
        workload = tiny(name)
        try:
            phase = run.drive(workload, count=len(workload.items))
            assert phase.items == len(workload.items) and phase.failed == 0, (name, phase.failed)
            workload.corrupt()
            phase = run.drive(workload, count=len(workload.items))
            assert phase.failed > 0, f"{name}: a wrong expected answer went unnoticed"
        finally:
            workload.close()


def test_traced_pass_leaves_untraced_path_unchanged():
    before = bindings()
    for name in workloads.WORKLOADS:
        workload = tiny(name)
        try:
            first = run.drive(workload, count=len(workload.items))
            tracer = tracing.Tracer()
            tracer.install()
            workload.tracer = tracer
            try:
                traced = run.drive(workload, count=len(workload.items), tracer=tracer)
            finally:
                tracer.uninstall()
                workload.tracer = None
            again = run.drive(workload, count=len(workload.items))
        finally:
            workload.close()
        assert first.failed == traced.failed == again.failed == 0, name
        assert first.units == traced.units == again.units, name
        times = tracer.layer_times()
        assert sum(calls for calls, _, _ in times.values()) > 1, f"{name}: no layer spans"
        metrics, _ = run.layer_metrics(tracer, traced.wall)
        if name != "cli":  # cli items are mostly interpreter start-up, in no layer
            accounted = metrics["trace.accounted_ratio"]["value"]
            assert accounted >= 0.9, (name, accounted)
    after = bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed, f"bindings not restored: {changed[:5]}"


def test_package_work_outside_the_layers_is_not_accounted():
    workload = tiny("certify")
    run_item = workload.run

    def slow_run(item):  # package work that no layer span covers
        workload.dfa.smallest_nondivisor(2 * 3 * 5 * 7 * 11 * 13)
        time.sleep(0.005)
        return run_item(item)

    workload.run = slow_run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run.drive(workload, count=len(workload.items), tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, idle = run.layer_metrics(tracer, phase.wall)
    untraced = metrics["package.untraced.self_s"]["value"]
    assert untraced >= 0.005 * len(workload.items), untraced
    assert metrics["trace.accounted_ratio"]["value"] < 0.9, metrics["trace.accounted_ratio"]
    assert "moqfa.accept_probability" in idle and "dfa.certify_binary" not in idle, idle


def test_certificate_counts_match_the_pins():
    for l, pinned in oracle.PINNED_BINARY_COUNTS.items():
        assert oracle.certificate_count(("B", l)) == pinned, (l, pinned)
    workload = workloads.Certify(1, ROOT)
    workload.setup()
    counts = {item["spec"][1]: item["count"] for item in workload.items
              if "spec" in item and item["spec"][0] == "B"}
    assert {l: counts[l] for l in oracle.PINNED_BINARY_COUNTS} == oracle.PINNED_BINARY_COUNTS


def test_wrappers_cover_every_binding():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import qfa_exact.cli

        for module in (qfa_exact.promise, qfa_exact.verify, qfa_exact.dfa, qfa_exact):
            assert hasattr(module.enumerate_instances, "__wrapped__"), module.__name__
        assert hasattr(qfa_exact.Moqfa.accept_probability, "__wrapped__")
        assert hasattr(qfa_exact.cli.certify_minimality_binary, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(qfa_exact.verify.enumerate_instances, "__wrapped__")


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "query", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == expected, set(got) ^ set(expected)


def main():
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
