"""Per-layer tracing of the opmeans layers, installed from outside the program.

The tracer replaces public functions and module-level seams of ``scalar``,
``matrices``, ``means``, ``verify``, ``explore`` and ``cli`` with wrappers
that record a span per call.  A span's self time is its duration minus the
part covered by its child spans, so the self times of all spans under
``cli.main`` add up to the traced command time and no call is counted twice.

One wrapper exists per original function.  A name imported into several
modules (``verify`` imports ``_eigh_stack`` and ``_eigvals_min_stack`` from
``matrices``) and a function held in a module-level tuple (``cli``'s table
of pair checks) are all pointed at that one wrapper, and the wrapper calls
the original, never another wrapper.  A seam the program no longer has is
skipped, and the metrics fed only by skipped seams are reported as absent.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("scalar", "matrices", "means", "verify", "explore", "cli")

# (module, attribute path, bucket).  A bucket's time is the self time of its spans.
SPAN_SEAMS = (
    ("cli", "main", "cli"),
    ("verify", "run_suite", "verify.suite"),
    ("verify", "_gen_chunk_pairs", "verify.generate"),
    ("verify", "_random_spd_array", "verify.generate"),
    ("verify", "gen_unit_vector", "verify.generate"),
    ("verify", "_eval_pair_chunk", "verify.chunk"),
    ("verify", "_eval_hm_chunk", "verify.chunk"),
    ("verify", "_geometric_stacks", "verify.geometric"),
    ("verify", "_recon", "verify.recon"),
    ("verify", "_recon_powers", "verify.recon"),
    ("verify", "_min_eig4", "verify.margin_eig"),
    ("verify", "_max_eig4", "verify.margin_eig"),
    ("matrices", "_eigvals_min_stack", "verify.margin_eig"),
    ("verify", "_inverse4", "verify.inverse"),
    ("verify", "_Accumulator.update", "verify.accumulate"),
    ("verify", "check_refined_chain", "verify.check"),
    ("verify", "check_reverse_ratio", "verify.check"),
    ("verify", "check_reverse_difference", "verify.check"),
    ("verify", "check_baseline_reverses", "verify.check"),
    ("verify", "check_hm_refined", "verify.check"),
    ("means", "weighted_arithmetic", "means"),
    ("means", "weighted_geometric", "means"),
    ("means", "weighted_harmonic", "means"),
    ("means", "refinement_bridge", "means"),
    ("matrices", "_eigh_stack", "matrices.eigh"),
    ("matrices", "jacobi_eigen", "matrices.eigh"),
    ("matrices", "load_matrix", "matrices.load"),
    ("scalar", "specht_ratio", "scalar"),
    ("scalar", "log_mean", "scalar"),
    ("scalar", "critical_nu_ratio", "scalar"),
    ("scalar", "critical_nu_diff", "scalar"),
    ("scalar", "reverse_ratio_objective", "scalar"),
    ("scalar", "reverse_diff_objective", "scalar"),
    ("explore", "no_ordering_scan", "explore.scan"),
    ("explore", "conjecture_scan", "explore.scan"),
    ("explore", "reference_comparison", "explore.scan"),
    ("explore", "verify_extremizers", "explore.extremizer"),
    ("explore", "golden_section_max", "explore.extremizer"),
)
# Counted without a span: called once per Jacobi rotation, too often to time.
COUNT_SEAMS = (("matrices", "_jacobi_rotate_batch", "matrices.jacobi_rotations"),)

# metric name -> bucket whose self time it reports
TIME_METRICS = {
    "cli.self_s": "cli",
    "verify.suite_self_s": "verify.suite",
    "verify.generate_s": "verify.generate",
    "verify.chunk_self_s": "verify.chunk",
    "verify.geometric_self_s": "verify.geometric",
    "verify.recon_s": "verify.recon",
    "verify.margin_eig_s": "verify.margin_eig",
    "verify.inverse_s": "verify.inverse",
    "verify.accumulate_s": "verify.accumulate",
    "verify.check_s": "verify.check",
    "means.self_s": "means",
    "matrices.eigh_s": "matrices.eigh",
    "matrices.load_s": "matrices.load",
    "scalar.s": "scalar",
    "explore.scan_self_s": "explore.scan",
    "explore.extremizer_s": "explore.extremizer",
}
# attribute -> counts that go up by one per call
CALL_COUNTS = {
    **{name: ("verify.check_calls", "verify.results") for name in (
        "check_refined_chain", "check_reverse_ratio", "check_reverse_difference",
        "check_baseline_reverses", "check_hm_refined")},
    **{name: ("means.calls",) for name in (
        "weighted_arithmetic", "weighted_geometric", "weighted_harmonic", "refinement_bridge")},
    **{name: ("scalar.calls",) for name in (
        "specht_ratio", "log_mean", "critical_nu_ratio", "critical_nu_diff")},
    "reverse_ratio_objective": ("scalar.calls", "explore.objective_evals"),
    "reverse_diff_objective": ("scalar.calls", "explore.objective_evals"),
}


def _on_eigh_stack(counts, args, result):
    batch, n, _ = args[0].shape
    counts["matrices.eigh_calls"] += 1
    counts["matrices.eigh_matrices"] += batch
    counts["matrices.eigh_work_n3"] += batch * n**3


def _on_run_suite(counts, args, result):
    counts["verify.results"] += sum(check.results for check in result.checks)


def _on_scan(counts, args, result):
    counts["explore.points"] += result.points


# attribute -> (hook that reads counts off the arguments or the result, counts it feeds)
RESULT_HOOKS = {
    "_eigh_stack": (_on_eigh_stack, ("matrices.eigh_calls", "matrices.eigh_matrices",
                                     "matrices.eigh_work_n3")),
    "run_suite": (_on_run_suite, ("verify.results",)),
    "no_ordering_scan": (_on_scan, ("explore.points",)),
    "conjecture_scan": (_on_scan, ("explore.points",)),
}
CACHE_RATIO = "matrices.eigen_cache_hit_ratio"  # fed by jacobi_eigen


def _feeds(seam):
    """The count metrics that one seam feeds."""
    layer, path, bucket = seam
    attr = path.rsplit(".", 1)[-1]
    if seam in COUNT_SEAMS:
        return (bucket,)
    if attr == "jacobi_eigen":
        return (CACHE_RATIO,)
    hook = RESULT_HOOKS.get(attr)
    return CALL_COUNTS.get(attr, ()) + (hook[1] if hook else ())


# every count metric, in the order its first seam appears
COUNT_METRICS = tuple(dict.fromkeys(
    name for seam in SPAN_SEAMS + COUNT_SEAMS for name in _feeds(seam)))


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


@dataclass
class Snapshot:
    times: dict
    counts: dict
    cache_hits: int
    cache_calls: int


class Tracer:
    """Spans and counts of the opmeans layers; ``install`` patches, ``remove`` restores."""

    package = "opmeans"
    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.times = {bucket: 0.0 for bucket in set(TIME_METRICS.values())}
        self.counts = {name: 0 for name in COUNT_METRICS if name != CACHE_RATIO}
        self.cache = [0, 0]  # jacobi_eigen calls served from the SymMatrix cache, all calls
        self.present = set()
        self.root_seconds = [0.0]  # summed durations of outermost spans
        self.floor = [0.0]  # numpy.linalg.eigh seconds on the stacks _eigh_stack got
        self._stack = []
        self._patches = []

    def reset(self):
        for bucket in self.times:
            self.times[bucket] = 0.0
        for name in self.counts:
            self.counts[name] = 0
        self.cache[:] = [0, 0]
        self.root_seconds[0] = 0.0

    def snapshot(self):
        return Snapshot(dict(self.times), dict(self.counts), *self.cache)

    # -- wrappers ---------------------------------------------------------

    def _span(self, original, bucket, call_counts=(), result_hook=None):
        stack, times, counts, clock = self._stack, self.times, self.counts, self.clock
        roots = self.root_seconds

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                times[bucket] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    roots[0] += duration
            for name in call_counts:
                counts[name] += 1
            if result_hook is not None:
                result_hook(counts, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _jacobi_eigen_span(self, original, bucket):
        span = self._span(original, bucket)
        cache = self.cache

        def wrapper(*args, **kwargs):
            cache[1] += 1
            if not kwargs and len(args) == 1 and getattr(args[0], "_eigen", None) is not None:
                cache[0] += 1
            return span(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _counter(self, original, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation -----------------------------------------------------

    def _wrapper_for(self, layer, path, bucket, original):
        attr = path.rsplit(".", 1)[-1]
        if (layer, path, bucket) in COUNT_SEAMS:
            return self._counter(original, bucket)
        if attr == "jacobi_eigen":
            return self._jacobi_eigen_span(original, bucket)
        hook = RESULT_HOOKS.get(attr)
        return self._span(original, bucket, CALL_COUNTS.get(attr, ()), hook[0] if hook else None)

    def _floor_wrapper(self, layer, path, bucket, original):
        """``_eigh_stack`` timed against LAPACK on the very same stack."""
        floor, clock = self.floor, self.clock

        def wrapper(stack, *args, **kwargs):
            result = original(stack, *args, **kwargs)
            vectors = kwargs.get("need_vectors", args[0] if args else True)
            lapack = np.linalg.eigh if vectors else np.linalg.eigvalsh
            start = clock()
            lapack(np.asarray(stack, dtype=float))
            floor[0] += clock() - start
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        """Patch every seam that exists; returns the set of seams found."""
        self.reset()
        return self._patch(SPAN_SEAMS + COUNT_SEAMS, self._wrapper_for)

    def install_floor(self):
        """Patch only ``_eigh_stack``, to time ``numpy.linalg.eigh`` on the stacks it gets."""
        self.floor[0] = 0.0
        return self._patch((("matrices", "_eigh_stack", "matrices.eigh"),), self._floor_wrapper)

    def _patch(self, seams, make_wrapper):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
        wrappers = {}
        for layer, path, bucket in seams:
            module = modules.get(layer)
            if module is None:
                continue
            owner, original = _resolve(module, path)
            if not callable(original) or hasattr(original, "__wrapped__"):
                continue
            wrapper = make_wrapper(layer, path, bucket, original)
            wrappers[id(original)] = (original, wrapper)
            self.present.add((layer, path))
            if owner is not module:
                self._set(owner, path.rsplit(".", 1)[-1], wrapper)
        package = importlib.import_module(self.package)
        for module in list(modules.values()) + [package]:
            for name, value in list(vars(module).items()):
                replaced = _replace(value, wrappers)
                if replaced is not value:
                    self._set(module, name, replaced)
        return self.present

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- reporting --------------------------------------------------------

    def metric_names(self):
        """Per-layer metrics whose seams exist, with their units."""
        names = {}
        found = [seam for seam in SPAN_SEAMS + COUNT_SEAMS if seam[:2] in self.present]
        buckets = {seam[2] for seam in found if seam in SPAN_SEAMS}
        for name, bucket in TIME_METRICS.items():
            if bucket in buckets:
                names[name] = "s"
        counts = {name for seam in found for name in _feeds(seam)}
        for name in COUNT_METRICS:
            if name in counts:
                names[name] = "ratio" if name == CACHE_RATIO else "count"
        return names


def _replace(value, wrappers):
    """value with every original function swapped for its wrapper, tuples included."""
    if callable(value) and id(value) in wrappers and wrappers[id(value)][0] is value:
        return wrappers[id(value)][1]
    if isinstance(value, tuple):
        items = tuple(_replace(item, wrappers) for item in value)
        if any(new is not old for new, old in zip(items, value)):
            return items
    return value


def snapshot_metrics(snap, names):
    """Per-layer metric values of one traced round, restricted to ``names``."""
    values = {}
    for name in names:
        if name in TIME_METRICS:
            values[name] = snap.times[TIME_METRICS[name]]
        elif name == CACHE_RATIO:
            values[name] = snap.cache_hits / snap.cache_calls if snap.cache_calls else 0.0
        else:
            values[name] = snap.counts[name]
    return values
