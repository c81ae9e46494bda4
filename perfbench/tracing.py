"""Span tracing of the package's public layers, installed from outside.

`Tracer.install()` replaces each traced function or method at every name
it is bound to inside the package (for example both
`qfa_exact.promise.enumerate_instances` and
`qfa_exact.verify.enumerate_instances`) with a wrapper that records a
span; `uninstall()` puts every original back. Untraced runs never call
`install()`, so they execute the package exactly as shipped.

Spans are (name, parent, start, end) rows in flat arrays, kept in memory
and written out by `dump()`. A span's self time is its duration minus
the durations of its child spans; calls are strictly nested because the
benchmark is single-threaded.
"""

import array
import contextlib
import importlib
import json
import sys
from time import perf_counter

PACKAGE = "qfa_exact"
MODULES = ("promise", "words", "synth", "moqfa", "dfa", "verify", "cli")

# span name -> (module, attribute) of each original it covers; "Cls.meth"
# attributes are methods, patched on the class.
TRACED = {
    "promise.enumerate_instances": [("promise", "enumerate_instances")],
    "words.as_runs": [("words", "as_runs")],
    "synth.select_angle": [("synth", "select_angle")],
    "synth.lift_parameters": [("synth", "lift_parameters")],
    "synth.build": [("synth", name) for name in
                    ("build_unary", "build_unary_general", "build_binary_l", "build_binary_Nl")],
    "moqfa.accept_probability": [("moqfa", "Moqfa.accept_probability")],
    "moqfa.final_state": [("moqfa", "Moqfa.final_state")],
    "moqfa.check_orthogonality": [("moqfa", "Moqfa.check_orthogonality")],
    "dfa.accepts": [("dfa", "Dfa.accepts")],
    "dfa.build_min": [("dfa", "build_unary_min_dfa"), ("dfa", "build_binary_min_dfa")],
    "dfa.certify_binary": [("dfa", "certify_minimality_binary")],
    "dfa.certify_unary": [("dfa", "certify_minimality_unary")],
    "verify.verify_exactness": [("verify", "verify_exactness")],
    "verify.cross_check": [("verify", "cross_check")],
    "verify.separation_table": [("verify", "separation_table")],
    "cli.main": [("cli", "main")],
}
# The harness span covers the benchmark loop's own work (timers, oracle
# checks); inside it each item's call into the package is an ITEM span,
# whose self time is package work that no layer span covers.
HARNESS = "harness"
ITEM = "package.untraced"
SPAN_NAMES = (HARNESS, ITEM, *TRACED)


class Tracer:
    def __init__(self):
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self._ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        self._patches = []
        # counters taken at the layer boundaries, from call results
        self.counts = dict.fromkeys(
            ("promise.witnesses", "verify.words_checked", "words.runs",
             "moqfa.runs_evaluated", "dfa.machines_checked"), 0)
        self.machines = {}
        self.loaded_memo_entries = 0
        self.memo_absent = False

    # -- spans -------------------------------------------------------------
    def _open(self, name_id):
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index, start):
        self.ends[index] = perf_counter()
        self.starts[index] = start
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name=HARNESS):
        """Record a span of the benchmark's own (HARNESS or ITEM) around the body."""
        index = self._open(self._ids[name])
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    # -- installation ------------------------------------------------------
    def _wrapper(self, name, original, site):
        name_id = self._ids[name]
        open_span, close_span = self._open, self._close
        count = _counter(name, site)
        counts, machines = self.counts, self.machines

        def traced(*args, **kwargs):
            index = open_span(name_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index, start)
            if count is not None:
                count(counts, machines, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def item(self, fn):
        """`fn` wrapped in an ITEM span, for the harness's calls into a workload."""
        return self._wrapper(ITEM, fn, None)

    def install(self):
        """Wrap every traced original at every binding in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        for span_name, targets in TRACED.items():
            for mod_name, attr in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(modules[mod_name], cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrapper(span_name, original, mod_name))
                    continue
                original = getattr(modules[mod_name], attr)
                for site, module in _package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, self._wrapper(span_name, original, site))

    def _patch(self, owner, key, replacement):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, replacement)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def layer_times(self):
        """{span name: (calls, inclusive_s, self_s)} over all spans."""
        n = len(self.names)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child = array.array("d", bytes(8 * n))
        for k in range(n):
            parent = parents[k]
            if parent >= 0:
                child[parent] += ends[k] - starts[k]
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for k in range(n):
            row = out[SPAN_NAMES[names[k]]]
            duration = ends[k] - starts[k]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[k]
        return {name: tuple(row) for name, row in out.items()}

    def memo_entries(self):
        """Power-memo entries over the machines evaluated, or None when the
        machines keep no such memo."""
        memos = [getattr(m, "_powers", None) for m in self.machines.values()]
        if self.memo_absent or any(memo is None for memo in memos):
            return None
        return sum(len(memo) for memo in memos) + self.loaded_memo_entries

    def dump(self, path):
        """Write spans as a JSON header line followed by the raw arrays."""
        header = {"names": SPAN_NAMES, "spans": len(self.names), "counts": self.counts,
                  "memo_entries": self.memo_entries(),
                  "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.names, self.parents, self.starts, self.ends):
                column.tofile(handle)

    def merge_file(self, path):
        """Append the spans and counts a traced subprocess dumped to `path`."""
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            if header["names"] != list(SPAN_NAMES):
                raise ValueError(f"span names in {path} do not match this tracer")
            columns = [array.array(column.typecode) for column in
                       (self.names, self.parents, self.starts, self.ends)]
            for column in columns:
                column.fromfile(handle, header["spans"])
        names, parents, starts, ends = columns
        offset = len(self.names)
        root = self._stack[-1]  # the subprocess ran inside the open span
        self.names.extend(names)
        self.parents.extend(array.array("i", (p + offset if p >= 0 else root for p in parents)))
        self.starts.extend(starts)
        self.ends.extend(ends)
        for key, value in header["counts"].items():
            self.counts[key] += value
        if header["memo_entries"] is None:
            self.memo_absent = True
        else:
            self.loaded_memo_entries += header["memo_entries"]


def _package_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield name.rpartition(".")[2], module


def _counter(name, site):
    """Counter taken from a call's result at one binding, or None."""
    if name == "promise.enumerate_instances":
        keys = ("promise.witnesses",) + (("verify.words_checked",) if site == "verify" else ())
    elif name == "words.as_runs":
        keys = ("words.runs",) + (("moqfa.runs_evaluated",) if site == "moqfa" else ())
    elif name in ("dfa.certify_binary", "dfa.certify_unary"):
        def count(counts, machines, args, result):
            counts["dfa.machines_checked"] += result.machines_checked
        return count
    elif name == "moqfa.accept_probability":
        def count(counts, machines, args, result):
            machines.setdefault(id(args[0]), args[0])
        return count
    else:
        return None

    def count(counts, machines, args, result):
        for key in keys:
            counts[key] += len(result)
    return count
