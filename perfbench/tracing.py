"""Outside-in layer trace: wraps public functions where the program looks them up.

No source file changes.  Each wrapper records a span (name, start, end,
parent, pair) in memory; ``numpy.linalg.svd`` is only counted, with a flop
count computed from the matrix shape.  Spans are written out when the run
ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The realign entry catches the call inside
# is_unitarily_decomposable; ``triequiv.realign`` itself resolves to the
# re-exported function, hence the sys.modules lookups at install time.
TARGETS = (
    ("triequiv.equivalence", "check_di", "equivalence.check_di"),
    ("triequiv.equivalence", "bipartite_equivalent", "equivalence.bipartite_equivalent"),
    ("triequiv.equivalence", "gauge_search", "equivalence.gauge_search"),
    ("triequiv.equivalence", "kron_factorize", "realign.kron_factorize"),
    ("triequiv.equivalence", "is_unitarily_decomposable", "realign.is_unitarily_decomposable"),
    ("triequiv.equivalence", "singular_spectrum", "invariants.singular_spectrum"),
    ("triequiv.equivalence", "apply_local_unitaries", "states.apply_local_unitaries"),
    ("triequiv.realign", "kron_factorize", "realign.kron_factorize"),
    ("triequiv.cli", "load_state", "fileio.load_state"),
    ("triequiv.cli", "decide_equivalence", "cli.decide_equivalence"),
    ("triequiv.cli", "power_sum_invariants", "cli.power_sum_invariants"),
    ("triequiv.cli", "matrix_pairs", "cli.matrix_pairs"),
    ("triequiv.cli", "report_to_json", "cli.report_to_json"),
    ("json", "dumps", "json.dumps"),
)


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Real flops of a complex SVD (Golub & Van Loan R-SVD counts, times 4)."""
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    if not compute_uv:
        real = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        real = 14 * m * n * n + 8 * n**3
    return 4.0 * real * batch


class Tracer:
    """Spans of the calls made while a pair is open, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, pair]
        self.svd: dict = defaultdict(lambda: [0, 0.0])  # pair -> [calls, flops]
        self._stack: list[int] = []
        self._pair = None
        self._saved: list = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._pair])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self._pair is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def _counted_svd(self, fn):
        def svd(a, *args, **kwargs):
            if self._pair is not None:
                entry = self.svd[self._pair]
                entry[0] += 1
                entry[1] += svd_flops(
                    np.shape(a),
                    kwargs.get("full_matrices", args[0] if args else True),
                    kwargs.get("compute_uv", args[1] if len(args) > 1 else True),
                )
            return fn(a, *args, **kwargs)

        return svd

    def call(self, pair_id, name, fn, *args):
        """Run ``fn(*args)`` as the root span of one pair."""
        self._pair = pair_id
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()
            self._pair = None

    def install(self):
        for module, attr, name in TARGETS:
            owner = sys.modules[module]
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._saved.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._counted_svd(np.linalg.svd)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, pair in self.spans:
                handle.write(json.dumps([name, start, end, parent, pair]) + "\n")


def layer_metrics(tracer: Tracer, main_pairs: set, cli_calls: dict) -> dict:
    """Per-pair layer metrics.

    ``main_pairs`` holds the root ids of the workload's own calls; the
    decision layers are averaged over them.  ``cli_calls`` maps the root id
    of every CLI call to the bytes of its two state files; the CLI and file
    layers are averaged over those.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    kids = defaultdict(list)
    for name, start, end, parent, pair in spans:
        if parent >= 0:
            child_time[parent] += end - start
            kids[parent].append((name, start, end))
    main, cli = _SpanTotals(main_pairs), _SpanTotals(cli_calls)
    gauge_kron = 0
    roots = {}
    for i, (name, start, end, parent, pair) in enumerate(spans):
        if parent < 0:
            roots[pair] = i
            continue
        for tally in (main, cli):
            tally.add(pair, name, end - start, end - start - child_time[i])
        if (
            pair in main_pairs
            and name == "realign.kron_factorize"
            and spans[parent][0] == "equivalence.gauge_search"
        ):
            gauge_kron += 1

    # CLI phases: parse until decide starts, report after it ends.
    parse = decide = report_self = 0.0
    for pair in cli_calls:
        root = roots[pair]
        end = spans[root][2]
        decide_span = next((k for k in kids[root] if k[0] == "cli.decide_equivalence"), None)
        if decide_span is None:  # the call failed before deciding
            continue
        _, d_start, d_end = decide_span
        parse += d_start - spans[root][1]
        decide += d_end - d_start
        report_self += end - d_end - sum(e - s for _, s, e in kids[root] if s >= d_end)
    n_cli = max(len(cli_calls), 1)
    load_s = cli.ms["fileio.load_state"] / 1e3
    svd = [tracer.svd[p] for p in main_pairs if p in tracer.svd]
    return {
        "invariants.singular_spectrum.calls": main.per("calls", "invariants.singular_spectrum"),
        "invariants.singular_spectrum.ms": main.per("ms", "invariants.singular_spectrum"),
        "equivalence.bipartite_equivalent.calls": main.per(
            "calls", "equivalence.bipartite_equivalent"
        ),
        "equivalence.bipartite_equivalent.ms": main.per("ms", "equivalence.bipartite_equivalent"),
        "equivalence.check_di.calls": main.per("calls", "equivalence.check_di"),
        "equivalence.check_di.self_ms": main.per("self_ms", "equivalence.check_di"),
        "equivalence.gauge_search.calls": main.per("calls", "equivalence.gauge_search"),
        "equivalence.gauge_search.self_ms": main.per("self_ms", "equivalence.gauge_search"),
        "equivalence.gauge_search.kron_calls": gauge_kron / len(main_pairs),
        "equivalence.svd_calls": sum(c for c, _ in svd) / len(main_pairs),
        "equivalence.svd_gflop": sum(f for _, f in svd) / 1e9 / len(main_pairs),
        "realign.kron_factorize.calls": main.per("calls", "realign.kron_factorize"),
        "realign.kron_factorize.ms": main.per("ms", "realign.kron_factorize"),
        "realign.is_unitarily_decomposable.calls": main.per(
            "calls", "realign.is_unitarily_decomposable"
        ),
        "realign.is_unitarily_decomposable.self_ms": main.per(
            "self_ms", "realign.is_unitarily_decomposable"
        ),
        "states.apply_local_unitaries.calls": main.per("calls", "states.apply_local_unitaries"),
        "states.apply_local_unitaries.ms": main.per("ms", "states.apply_local_unitaries"),
        "fileio.load_state.ms": cli.per("ms", "fileio.load_state"),
        "fileio.load_state.mb_per_s": sum(cli_calls.values()) / 1e6 / load_s if load_s else 0.0,
        "cli.parse_ms": parse * 1e3 / n_cli,
        "cli.decide_ms": decide * 1e3 / n_cli,
        "cli.report.self_ms": report_self * 1e3 / n_cli,
        "cli.power_sum_invariants.ms": cli.per("ms", "cli.power_sum_invariants"),
        "cli.matrix_pairs.ms": cli.per("ms", "cli.matrix_pairs"),
        "cli.json_encode.ms": cli.per("ms", "json.dumps"),
    }


def counts_by_class(tracer: Tracer, classes: dict) -> dict:
    """Mean SVD and kron_factorize calls per pair of each class (root id -> class)."""
    kron = defaultdict(int)
    for name, _, _, _, pair in tracer.spans:
        kron[pair] += name == "realign.kron_factorize"
    out = {}
    for cls in sorted(set(classes.values())):
        roots = [r for r, c in classes.items() if c == cls]
        out[cls] = {
            "svd_calls": statistics.fmean(tracer.svd[r][0] for r in roots),
            "kron_factorize_calls": statistics.fmean(kron[r] for r in roots),
        }
    return out


class _SpanTotals:
    """Calls, total and self milliseconds per span name over a set of pairs."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.calls = defaultdict(int)
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)

    def add(self, pair, name, seconds, self_seconds):
        if pair in self.pairs:
            self.calls[name] += 1
            self.ms[name] += seconds * 1e3
            self.self_ms[name] += self_seconds * 1e3

    def per(self, table, name):
        """Per-pair average of one table entry."""
        return getattr(self, table)[name] / max(len(self.pairs), 1)
