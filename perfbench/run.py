#!/usr/bin/env python3
"""Benchmark of the qfa_exact package: one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads are `sweep`, `query`, `certify` and `cli` (see README.md).
Every item's output is checked against the independent oracle in
oracle.py; a wrong result, an exception or a wrong exit code counts as a
failed item and the run goes on.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
it reports the per-layer metrics instead: it runs a share of the items
untraced, the same items with span wrappers installed on the package's
public functions, and the same items untraced again, then takes the
micro-timings and the CLI start-up probes. The last line of stdout is always one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; lines before it
(prefixed `#`) give the environment, sample counts and error rate, and
the same record is written to `.perfbench/results/`.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 4     # extra fresh-process set-ups per run; setup_s is the median
REFERENCE_SHARE = 0.2  # share of --seconds run untraced before (and after) the traced pass
CLI_PROBE_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "query", "certify", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print {\"setup_s\": ...} and exit")
    return parser.parse_args(argv)


# -- the closed loop -----------------------------------------------------------
class Phase:
    def __init__(self):
        self.items = self.attempted = self.failed = self.units = 0
        self.latencies = {}
        self.wall = 0.0

    def samples(self):
        return [s for group in self.latencies.values() for s in group]


def drive(workload, seconds=None, count=None, tracer=None):
    """Send items one after another until `seconds` elapse or `count` items
    ran; a whole-rounds workload only stops at the end of a pass."""
    phase = Phase()
    start = perf_counter()
    if tracer is None:
        _loop(workload, workload.run, phase, start, seconds, count)
    else:
        # the harness span keeps the loop's own time; each item's calls
        # into the package sit in an ITEM span below it
        with tracer.span():
            _loop(workload, tracer.item(workload.run), phase, start, seconds, count)
    phase.wall = perf_counter() - start
    return phase


def _loop(workload, run_item, phase, start, seconds, count):
    items = workload.items
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif perf_counter() - start >= seconds and (not workload.whole_rounds or k % len(items) == 0):
            break
        item = items[k % len(items)]
        k += 1
        best = None
        for _ in range(workload.repeats):
            phase.attempted += 1
            t0 = perf_counter()
            try:
                result = run_item(item)
                elapsed = perf_counter() - t0
                ok = workload.check(item, result)
            except Exception:  # a failed item is counted, never fatal
                traceback.print_exc(limit=3, file=sys.stderr)
                ok = False
            if not ok:
                phase.failed += 1
                best = None
                break
            phase.units += workload.units(item, result)
            best = elapsed if best is None else min(best, elapsed)
        kind = workload.latency_kind(item)
        if best is not None and kind is not None:
            phase.latencies.setdefault(kind, []).append(best)
    phase.items = k


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# -- environment ---------------------------------------------------------------
def git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfa_exact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT), "src_sha256": source_digest(),
    }


# -- probes ---------------------------------------------------------------------
def setup_probe(args):
    """Time one set-up in a fresh process of this workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_setup(workload):
    start = perf_counter()
    workload.setup()
    elapsed = perf_counter() - start
    import qfa_exact

    if SRC not in Path(qfa_exact.__file__).resolve().parents:
        raise SystemExit(f"qfa_exact imported from {qfa_exact.__file__}, not from {SRC}")
    return elapsed


def per_call_median(fn, calls, batches=5):
    """Median over batches of the per-call time of fn(), in seconds."""
    times = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def micro_timings():
    """The rows of the ROADMAP baseline table, each checked by the oracle.
    Returns (metrics, checks attempted, checks failed)."""
    import oracle
    from qfa_exact import dfa, promise, synth

    unary = synth.build_unary(37, 11)
    binary = synth.build_binary_Nl(13, 10)
    long_unary = 10**9
    binary_word = (("a", 10**6), ("b", 10**6 + 7 * 13 + 10))
    # 10**9 lies outside the promise; the rotation period 37 lets the oracle
    # evaluate the equivalent short word symbol by symbol instead
    short = oracle.machine_probability(unary.to_dict(), "a" * (long_unary % 37))
    checks = [
        abs(unary.accept_probability(long_unary) - short) <= oracle.PROB_TOL,
        oracle.close(binary.accept_probability(binary_word), False),
    ]
    metrics = {
        "moqfa.accept_probability.warm_unary_us":
            per_call_median(lambda: unary.accept_probability(long_unary), 2000) * 1e6,
        "moqfa.accept_probability.warm_binary_us":
            per_call_median(lambda: binary.accept_probability(binary_word), 2000) * 1e6,
        "synth.build_unary_us": per_call_median(lambda: synth.build_unary(37, 11), 200) * 1e6,
        "synth.select_angle_us": per_call_median(lambda: synth.select_angle(997, 990), 5000) * 1e6,
    }
    l6 = promise.BinaryPromiseSpec(6)
    certificate = dfa.certify_minimality_binary(l6)
    checks.append(certificate.certified
                  and certificate.machines_checked == oracle.PINNED_BINARY_COUNTS[6])
    metrics["dfa.certify_binary.l6_s"] = per_call_median(
        lambda: dfa.certify_minimality_binary(l6), 1, batches=3)
    certificate = dfa.certify_minimality_unary(13, 1)
    checks.append(certificate.certified and certificate.claimed_d == 13
                  and certificate.machines_checked == oracle.unary_candidates(13))
    metrics["dfa.certify_unary.d13_s"] = per_call_median(
        lambda: dfa.certify_minimality_unary(13, 1), 20)
    return metrics, len(checks), checks.count(False)


def cli_probes(seed):
    """Interpreter start, import cost and per-command latency of the CLI.
    Returns (metrics, attempted, failed)."""
    from workloads import Cli, cli_env

    env = cli_env(ROOT)
    interpreter = []
    imports, numpy_imports = [], []
    for _ in range(CLI_PROBE_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interpreter.append(perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qfa_exact.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        total, numpy_s = parse_importtime(proc.stderr)
        imports.append(total)
        numpy_imports.append(numpy_s)
    metrics = {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(imports),
        "cli.import.numpy_s": statistics.median(numpy_imports),
    }
    workload = Cli(seed, ROOT)
    workload.setup()
    try:
        phase = drive(workload, count=CLI_PROBE_REPEATS * len(workload.items))
    finally:
        workload.close()
    for kind in Cli.KINDS:
        samples = phase.latencies.get(kind, [float("nan")])
        metrics[f"cli.{kind}.p50_ms"] = statistics.median(samples) * 1e3
    return metrics, phase.attempted, phase.failed


def parse_importtime(stderr):
    """(seconds importing the qfa_exact package and cli, seconds in numpy)
    from `python -X importtime` output; cumulative microsecond columns."""
    total = numpy_s = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        top_level = len(name) - len(name.lstrip()) == 1
        if top_level and name.strip().startswith("qfa_exact"):
            total += int(cumulative) / 1e6
        if name.strip() == "numpy" and not numpy_s:
            numpy_s = int(cumulative) / 1e6
    return total, numpy_s


# -- the two kinds of run ----------------------------------------------------------
def end_to_end(args, workload, setup_s):
    phase = drive(workload, seconds=args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    samples = phase.samples()
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": phase.units / phase.wall,
        "latency_p50_ms": percentile(samples, 50) * 1e3 if samples else float("nan"),
        "latency_p90_ms": percentile(samples, 90) * 1e3 if samples else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + " ".join(f"{x:.4f}" for x in setups) + " s, this process first",
        "throughput_per_s": f"{phase.units} units in {phase.wall:.2f} s",
        "latency_p50_ms": f"n={len(samples)}",
        "latency_p90_ms": f"n={len(samples)}, {len(samples) // 10} beyond",
        "peak_rss_mb": "largest CLI child" if args.workload == "cli" else "this process",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, notes, phase.attempted, phase.failed


CALL_COUNTED = ("promise.enumerate_instances", "words.as_runs", "synth.select_angle",
                "synth.build", "moqfa.accept_probability", "dfa.accepts", "dfa.build_min",
                "dfa.certify_binary", "dfa.certify_unary", "verify.verify_exactness",
                "verify.cross_check", "verify.separation_table", "cli.main")
ABSENT = -1  # a ratio whose base is 0 (the layer did not run), or a memo that is gone


def layer_metrics(tracer, traced_wall):
    """Per-layer metrics of one traced pass, and the layers it never entered."""
    import tracing

    times = tracer.layer_times()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else ABSENT

    for span in CALL_COUNTED:
        put(f"{span}.calls", times[span][0], "count")
    for span, (_, _, self_s) in times.items():
        put(f"{span}.self_s", self_s, "s")
    put("promise.witnesses", counts["promise.witnesses"], "count")
    put("words.runs_per_word", ratio(counts["words.runs"], times["words.as_runs"][0]), "runs/word")
    entries = tracer.memo_entries()
    put("moqfa.power_cache.entries", ABSENT if entries is None else entries, "count")
    put("moqfa.power_cache.miss_ratio",
        ABSENT if entries is None else ratio(entries, counts["moqfa.runs_evaluated"]), "ratio")
    put("dfa.machines_checked", counts["dfa.machines_checked"], "count")
    put("dfa.candidates_per_s", ratio(counts["dfa.machines_checked"],
                                      times["dfa.certify_binary"][1] + times["dfa.certify_unary"][1]),
        "1/s")
    put("verify.words_checked", counts["verify.words_checked"], "count")
    put("verify.words_per_s", ratio(counts["verify.words_checked"],
                                    times["verify.verify_exactness"][1] + times["verify.cross_check"][1]),
        "1/s")
    # package work that no layer span covers is the ITEM spans' self time,
    # so this ratio falls below 1 when the layers miss part of the work
    accounted = sum(self_s for name, (_, _, self_s) in times.items() if name != tracing.ITEM)
    put("trace.accounted_ratio", ratio(accounted, traced_wall), "ratio")
    put("trace.spans", len(tracer.names), "count")
    idle = [name for name in tracing.TRACED if times[name][0] == 0]
    return out, idle


def traced_pass(args, workload):
    """The workload's items untraced, traced, and untraced again."""
    import tracing

    before = drive(workload, seconds=args.seconds * REFERENCE_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        phase = drive(workload, count=before.items, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    # the same items untraced once more: the mean of the passes before and
    # after cancels warm-up and slow drift of the machine's speed
    after = drive(workload, count=before.items)
    untraced_wall = (before.wall + after.wall) / 2
    metrics, idle = layer_metrics(tracer, phase.wall)
    metrics["trace.overhead_ratio"] = {"value": phase.wall / untraced_wall, "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}.bin")  # one file per workload, overwritten
    notes = {
        "trace.overhead_ratio": f"{before.items} items: traced {phase.wall:.2f} s over "
                                f"untraced {before.wall:.2f} s before and {after.wall:.2f} s after",
        "trace.accounted_ratio": "layer and harness self times over traced wall; "
                                 "the rest is package.untraced.self_s",
    }
    if idle:
        notes["layers not run"] = ", ".join(idle) + f" (0 calls, 0 s; ratios {ABSENT})"
    passes = (before, phase, after)
    return (metrics, notes, sum(p.attempted for p in passes), sum(p.failed for p in passes))


def probes(seed):
    """The micro-timings and the CLI probes; they do not depend on the workload."""
    micro, micro_attempted, micro_failed = micro_timings()
    cli, cli_attempted, cli_failed = cli_probes(seed)
    metrics = {}
    for name, value in {**micro, **cli}.items():
        unit = "us" if name.endswith("_us") else "ms" if name.endswith("_ms") else "s"
        metrics[name] = {"value": value, "unit": unit}
    return metrics, micro_attempted + cli_attempted, micro_failed + cli_failed


def report(args, env, metrics, notes, attempted, failed):
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"env": env, "error_rate": failed / attempted, "notes": notes, **result}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload} error_rate = {failed / attempted:.6g} ({failed} failed of {attempted})")
    for metric, entry in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"# {args.workload} {metric} = {entry['value']:.6g} {entry['unit']}{note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"# {args.workload} {key}: {note}")
    print(json.dumps(result))
    return 0


def run_one(args):
    env = environment(args)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        setup_s = run_setup(workload)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, notes, attempted, failed = traced_pass(args, workload)
        else:
            metrics, notes, attempted, failed = end_to_end(args, workload, setup_s)
    finally:
        workload.close()
    if args.trace:
        # every traced run reports every per-layer metric, these included
        more, more_attempted, more_failed = probes(args.seed)
        metrics.update(more)
        attempted += more_attempted
        failed += more_failed
    return report(args, env, metrics, notes, attempted, failed)


def run_all(args):
    """Every workload, with its metrics prefixed by its name.

    End-to-end runs each take a process of their own, so that set-up and
    peak RSS are the workload's alone. Traced runs share this process and
    take the workload-independent probes once, under the prefix `probes`.
    """
    env = environment(args)
    metrics, notes = {}, {}
    attempted = failed = 0

    def merge(prefix, more, more_notes, more_attempted, more_failed):
        nonlocal attempted, failed
        metrics.update({f"{prefix}.{name}": entry for name, entry in more.items()})
        notes.update({f"{prefix}.{name}": note for name, note in more_notes.items()})
        attempted += more_attempted
        failed += more_failed

    import workloads

    for name in workloads.WORKLOADS:
        if not args.trace:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads((OUT / "results" / f"{name}-seed{args.seed}-trace0.json").read_text())
            merge(name, result["metrics"], record["notes"], result["attempted"], result["failed"])
            continue
        workload = workloads.WORKLOADS[name](args.seed, ROOT)
        try:
            run_setup(workload)
            merge(name, *traced_pass(argparse.Namespace(**{**vars(args), "workload": name}),
                                     workload))
        finally:
            workload.close()
    if args.trace:
        more, more_attempted, more_failed = probes(args.seed)
        merge("probes", more, {}, more_attempted, more_failed)
    return report(args, env, metrics, notes, attempted, failed)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qfa_exact" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
