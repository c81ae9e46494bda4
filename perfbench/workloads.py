"""The benchmark's workloads: seeded inputs, the calls each item makes
into the package, and the oracle check of every result.

A workload is built in `setup()`, which imports the package and makes
all inputs and expected answers from the seed; that is what `setup_s`
times. Each item is then run by `run(item)` and judged by
`check(item, result)`. Items call the package through module attributes
(`self.synth.build_unary(...)`) so that a tracer installed later sees
every call.
"""

import csv
import dataclasses
import importlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent

SPOT_I_MAX = 10**6  # spot-check words lie far beyond the sweep's i <= 32
QUERY_I_MAX = 10**12


class Workload:
    """Base: one list of items, run in a closed loop by run.py."""

    whole_rounds = False  # stop only after a complete pass over the items
    repeats = 1  # runs per item; the latency sample is the fastest of them

    def __init__(self, seed, root):
        self.rng = random.Random(seed)
        self.root = Path(root)
        self.tracer = None
        self.items = []

    def setup(self):
        for name in ("promise", "synth", "dfa", "verify"):
            setattr(self, name, importlib.import_module(f"qfa_exact.{name}"))
        self.items = self.generate()

    def close(self):
        pass

    def units(self, item, result):
        """Completed units the item adds to throughput."""
        return 1

    def latency_kind(self, item):
        """Latency group of the item, or None to keep it out of latency."""
        return "item"

    def corrupt(self):
        """Make one expected answer wrong; the self-test uses this to show
        that a wrong result is counted as failed."""
        raise NotImplementedError

    # -- shared spec helpers -------------------------------------------------
    def pspec(self, spec):
        """The package's spec object for an oracle spec tuple."""
        if spec[0] == "A":
            return self.promise.UnaryPromiseSpec(*spec[1:])
        if spec[0] == "B":
            return self.promise.BinaryPromiseSpec(spec[1])
        return self.promise.BinaryPromiseSpec(spec[2], spec[1])

    def build(self, spec):
        if spec[0] == "A":
            return self.synth.build_unary_general(*spec[1:])
        if spec[0] == "B":
            return self.synth.build_binary_l(spec[1])
        return self.synth.build_binary_Nl(spec[1], spec[2])


def package_word(word):
    return oracle.as_runs(word) if isinstance(word, tuple) else word


class Sweep(Workload):
    """Exactness sweeps: build machine and minimal DFA, verify_exactness,
    cross_check, plus two oracle words beyond the sweep range."""

    I_MAX, J_MAX = 32, 4  # the witness bounds of acceptance criteria 5 and 6
    # Every modulus of the ranges of criteria 1, 5 and 6 appears a fixed
    # number of times; the seed draws the residues, the BN surplus and the
    # spot words. Shares: A 69%, B 9%, BN 23%, so the median item is a
    # unary one and the 90th percentile lies inside the costlier BN class
    # rather than on a class boundary.
    GRID = (("A", range(2, 61), 12), ("B", range(1, 31), 3), ("BN", range(2, 41), 6))

    def generate(self):
        rng = self.rng
        specs = []
        for family, moduli, repeats in self.GRID:
            for N in moduli:
                for _ in range(repeats):
                    if family == "A":
                        specs.append(("A", N, *rng.sample(range(N), 2)))
                    elif family == "B":
                        specs.append(("B", N))
                    else:
                        specs.append(("BN", N, rng.randint(1, N - 1)))
        items = []
        for spec in specs:
            i = self.rng.randint(self.I_MAX + 1, SPOT_I_MAX)
            j = self.rng.randint(0, 1000)
            spot = [(package_word(w), oracle.label(spec, w))
                    for w in (oracle.yes_word(spec, i), oracle.no_word(spec, i, j))]
            items.append({"spec": spec, "d": oracle.min_states(spec),
                          "counts": oracle.witness_counts(spec, self.I_MAX, self.J_MAX), "spot": spot})
        self.rng.shuffle(items)
        return items

    def min_dfa(self, spec):
        dfa = self.dfa
        if spec[0] == "A":
            _, N, r_yes, r_no = spec
            base = dfa.build_unary_min_dfa(N, (r_no - r_yes) % N)
            # the offset-form counter accepts n = 0 mod N; starting r_yes
            # steps back shifts it onto the residue pair
            return dataclasses.replace(base, start=(-r_yes) % base.num_states)
        if spec[0] == "B":
            return dfa.build_binary_min_dfa(dfa.smallest_nondivisor(spec[1]))
        return dfa.build_binary_min_dfa(dfa.smallest_modulus(spec[1], spec[2]))

    def run(self, item):
        spec = item["spec"]
        machine = self.build(spec)
        automaton = self.min_dfa(spec)
        pspec = self.pspec(spec)
        report = self.verify.verify_exactness(machine, pspec, self.I_MAX, self.J_MAX)
        agree = self.verify.cross_check(machine, automaton, pspec, self.I_MAX, self.J_MAX)
        spot = [(machine.accept_probability(w), automaton.accepts(w)) for w, _ in item["spot"]]
        return machine.dim, automaton.num_states, report, agree, spot

    def check(self, item, result):
        dim, states, report, agree, spot = result
        spec = item["spec"]
        return (
            dim == oracle.qfa_states(spec)
            and states == item["d"]
            and report.passed
            and (report.yes_checked, report.no_checked) == item["counts"]
            and report.max_yes_deficit <= oracle.PROB_TOL
            and report.max_no_leak <= oracle.PROB_TOL
            and agree
            and all(oracle.close(p, expected) and accepted == expected
                    for (p, accepted), (_, expected) in zip(spot, item["spot"]))
        )

    def corrupt(self):
        self.items[0]["d"] += 1


class Query(Workload):
    """One-off probability queries on huge words: each request builds one
    to eight fresh large-modulus machines, so the power memo is cold every
    time."""

    SIZE = 1000
    # The test machine switches between a fast and a slow state (about
    # 1.7x apart) for seconds at a time. Requests of one fixed cost then
    # make two narrow latency modes, and the median jumped between them
    # from run to run (0.8 against 1.3 ms) as the share of fast time
    # crossed one half. With one to eight machines per request the costs
    # spread over a range wider than the speed step, and the median moves
    # with the fast share as smoothly as throughput does.
    MAX_MACHINES = 8

    def generate(self):
        rng = self.rng
        items = []
        for _ in range(self.SIZE):
            queries = [self.query(rng.choice(("A", "B", "BN")))
                       for _ in range(rng.randint(1, self.MAX_MACHINES))]
            items.append({"queries": queries})
        return items

    def query(self, family):
        """A spec with N or 4l between 10**5 and 10**6, and its words."""
        rng = self.rng
        k_short = rng.randrange(101)
        if family == "A":
            N = rng.randint(10**5, 10**6)
            r_yes = r_no = rng.randrange(200)
            while r_no == r_yes:
                r_no = rng.randrange(N)
            spec = ("A", N, r_yes, r_no)
            return spec, self.words(spec, r_yes)
        if family == "B":
            spec = ("B", rng.randint(25000, 250000))
        else:
            N = rng.randint(10**5, 10**6)
            spec = ("BN", N, rng.randint(1, N - 1))
        return spec, self.words(spec, (k_short, k_short))

    def words(self, spec, short):
        """Three long words (unary lengths up to ~10**18, a^i b^(i+jN+l)
        with i up to 10**12 and j up to 10**6) and one literal of at most
        200 symbols, each with its label."""
        rng = self.rng
        i1, i2 = rng.randint(1, QUERY_I_MAX), rng.randint(1, QUERY_I_MAX)
        words = [(package_word(w), oracle.label(spec, w)) for w in (
            oracle.yes_word(spec, i1),
            oracle.no_word(spec, i2, rng.randint(0, 10**6)),
            oracle.yes_word(spec, i2))]
        words.append((oracle.literal(short), oracle.label(spec, short)))
        return words

    def run(self, item):
        results = []
        for spec, words in item["queries"]:
            machine = self.build(spec)
            results.append((machine.dim, [machine.accept_probability(w) for w, _ in words]))
        return results

    def check(self, item, result):
        return len(result) == len(item["queries"]) and all(
            dim == oracle.qfa_states(spec)
            and all(oracle.close(p, expected) for p, (_, expected) in zip(probs, words))
            for (dim, probs), (spec, words) in zip(result, item["queries"]))

    def units(self, item, result):
        return len(item["queries"])

    def corrupt(self):
        spec, words = self.items[0]["queries"][0]
        word, expected = words[0]
        words[0] = (word, not expected)


class Certify(Workload):
    """In-budget minimality certificates, then the same specs once more
    through separation_table on every pass."""

    whole_rounds = True

    def generate(self):
        # Certificate cost depends on the parameters in no simple way (d = 4
        # binary searches take 40-170 ms, the rest 0.05-5 ms), so a sampled
        # spec list would move the percentiles from seed to seed. The list is
        # every in-budget spec of a fixed range instead, and the seed sets
        # its order. Left out on purpose: specs the default budget refuses
        # (unary d >= 17, binary d >= 5).
        specs = [("A", N, 0, l) for N in range(2, 25) for l in range(1, N)]
        specs += [("B", l) for l in range(1, 31)]
        specs += [("BN", N, l) for N in range(2, 17) for l in range(1, N)]
        specs = [s for s in specs if oracle.min_states(s) <= (16 if s[0] == "A" else 4)]
        self.rng.shuffle(specs)
        items = [{"spec": s, "d": oracle.min_states(s), "count": oracle.certificate_count(s)}
                 for s in specs]
        items.append({"table": [(s, oracle.min_states(s)) for s in specs]})
        return items

    def run(self, item):
        if "table" in item:
            specs = [self.pspec(spec) for spec, _ in item["table"]]
            return self.verify.separation_table(specs, threads=1)
        spec = item["spec"]
        if spec[0] == "A":
            return self.dfa.certify_minimality_unary(spec[1], spec[3])
        return self.dfa.certify_minimality_binary(self.pspec(spec))

    def check(self, item, result):
        if "table" in item:
            return len(result) == len(item["table"]) and all(
                row.dfa_certified and row.dfa_states == d and row.qfa_states == oracle.qfa_states(spec)
                for row, (spec, d) in zip(result, item["table"]))
        return (result.certified and result.claimed_d == item["d"]
                and result.machines_checked == item["count"])

    def units(self, item, result):
        return len(item["table"]) if "table" in item else 1

    def latency_kind(self, item):
        return None if "table" in item else "item"

    def corrupt(self):
        self.items[0]["count"] = -1


class Cli(Workload):
    """Cold-start CLI commands as separate `python -m qfa_exact.cli`
    processes; each command repeats every round and must print the same
    bytes each time."""

    whole_rounds = True
    # Cold starts on a shared machine stall now and then (one run in six
    # or seven took 1.5-2x the usual time in trial runs), which made the
    # 90th percentile flip between stalled and normal runs. Each command
    # therefore runs twice back to back and its latency sample is the
    # faster run; throughput counts both.
    repeats = 2
    KINDS = ("synth", "run", "dfa", "certify", "table")

    def generate(self):
        rng = self.rng
        self.workdir = self.root / ".perfbench" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = cli_env(self.root)
        items = []

        spec = self.random_spec("A", 60, 3)
        items.append({"kind": "synth", "spec": spec,
                      "argv": ["synth", "--family", "A", "--N", str(spec[1]),
                               "--r1", str(spec[2]), "--r2", str(spec[3])]})

        N = rng.randint(5, 60)
        r_hit = 10**9 % N
        r_other = rng.choice([r for r in range(N) if r != r_hit])
        expected = rng.random() < 0.5
        spec = ("A", N, r_hit, r_other) if expected else ("A", N, r_other, r_hit)
        path = self._write(f"unary-{N}.json", self.build(spec).to_json())
        items.append({"kind": "run", "expected": expected,
                      "argv": ["run", "--machine", str(path), "--length", str(10**9)]})

        spec = self.random_spec("BN", 20, 3)
        i, j = rng.randint(0, 50), rng.randint(0, 3)
        expected = rng.random() < 0.5
        word = oracle.yes_word(spec, i) if expected else oracle.no_word(spec, i, j)
        path = self._write(f"bn-{spec[1]}-{spec[2]}.json", self.build(spec).to_json())
        items.append({"kind": "run", "expected": expected,
                      "argv": ["run", "--machine", str(path), oracle.literal(word)]})

        spec = self.random_spec("BN", 40, 3)
        items.append({"kind": "dfa", "spec": spec, "d": oracle.min_states(spec),
                      "argv": ["dfa", "--family", "BN", "--N", str(spec[1]), "--l", str(spec[2])]})

        items.append({"kind": "certify", "argv": ["certify", "--family", "B", "--l", "4"],
                      "stdout": f"Certified: claimed_d=3, machines_checked="
                                f"{oracle.PINNED_BINARY_COUNTS[4]}\n"})

        # certification must fit the default budget: d <= 16 unary, d <= 4 binary
        table = [self._spec_in_budget("A", 30, 16), self._spec_in_budget("B", 11, 4),
                 self._spec_in_budget("BN", 12, 4), self._spec_in_budget("BN", 12, 4)]
        path = self._write("specs.json", json.dumps([_spec_json(s) for s in table]))
        items.append({"kind": "table", "argv": ["table", "--specs", str(path)],
                      "rows": [_csv_row(s, oracle.min_states(s)) for s in table]})
        return items

    def random_spec(self, family, n_max, n_min):
        rng = self.rng
        if family == "A":
            N = rng.randint(n_min, n_max)
            r_yes, r_no = rng.sample(range(N), 2)
            return ("A", N, r_yes, r_no)
        if family == "B":
            return ("B", rng.randint(n_min, n_max))
        N = rng.randint(max(n_min, 2), n_max)
        return ("BN", N, rng.randint(1, N - 1))

    def _spec_in_budget(self, family, n_max, d_max):
        while True:
            spec = self.random_spec(family, n_max, 3)
            if oracle.min_states(spec) <= d_max:
                return spec

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def latency_kind(self, item):
        return item["kind"]

    def run(self, item):
        if self.tracer is None:
            argv = [sys.executable, "-m", "qfa_exact.cli", *item["argv"]]
        else:
            spans = self.workdir / "spans.bin"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *item["argv"]]
        proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=self.root, timeout=120)
        if self.tracer is not None and proc.returncode == 0:
            self.tracer.merge_file(spans)
        return proc.returncode, proc.stdout

    def check(self, item, result):
        code, stdout = result
        if code != 0:
            return False
        first = item.setdefault("first_stdout", stdout)
        return stdout == first and self._correct(item, stdout.decode())

    def _correct(self, item, out):
        kind = item["kind"]
        if kind == "synth":
            machine = json.loads(out)
            spec = item["spec"]
            words = [(oracle.yes_word(spec, i), True) for i in (0, 1)]
            words += [(oracle.no_word(spec, i), False) for i in (0, 1)]
            return machine["dim"] == 3 and all(
                oracle.close(oracle.machine_probability(machine, oracle.literal(w)), e)
                for w, e in words)
        if kind == "run":
            return oracle.close(float(out), item["expected"])
        if kind == "dfa":
            dfa = json.loads(out)
            spec = item["spec"]
            words = [(oracle.yes_word(spec, i), True) for i in range(3)]
            words += [(oracle.no_word(spec, i, j), False) for i in range(3) for j in range(2)]
            return dfa["states"] == item["d"] and all(
                oracle.dfa_accepts(dfa, oracle.literal(w)) == e for w, e in words)
        if kind == "certify":
            return out == item["stdout"]
        rows = list(csv.reader(io.StringIO(out)))
        return rows[0] == list(CSV_HEADER) and rows[1:] == item["rows"]

    def corrupt(self):
        self.items[-1]["rows"] = self.items[-1]["rows"][1:]


CSV_HEADER = ("family", "N", "l", "r1", "r2", "qfa_states", "dfa_states", "dfa_certified")


def _spec_json(spec):
    if spec[0] == "A":
        return {"family": "A", "N": spec[1], "r_yes": spec[2], "r_no": spec[3]}
    if spec[0] == "B":
        return {"family": "B", "l": spec[1]}
    return {"family": "BN", "N": spec[1], "l": spec[2]}


def _csv_row(spec, d):
    if spec[0] == "A":
        _, N, r_yes, r_no = spec
        fields = ["A", N, (r_no - r_yes) % N, r_yes, r_no]
    elif spec[0] == "B":
        fields = ["B", "", spec[1], "", ""]
    else:
        fields = ["BN", spec[1], spec[2], "", ""]
    return [str(f) for f in fields] + [str(oracle.qfa_states(spec)), str(d), "true"]


def cli_env(root):
    """Environment for CLI subprocesses: the checkout's sources, and
    QFA_EXACT_THREADS left unset so `table` runs single-threaded."""
    env = dict(os.environ)
    env.pop("QFA_EXACT_THREADS", None)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


WORKLOADS = {"sweep": Sweep, "query": Query, "certify": Certify, "cli": Cli}
