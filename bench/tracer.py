"""Traced run: spans and counters around the public functions of each
analogkit module (the layers), installed from outside the package.

A wrapper replaces the function in every analogkit module that bound its
name (``cli`` imports ``search_classic`` by name, ``training`` imports
``window_block``), and ``uninstall`` puts the originals back. A listed
function that no longer exists stops the run, so that a refactor cannot
drop a metric without notice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import oracle

# (module, function) pairs that get a span, in the order spans are listed.
TRACED = [
    ("synthetic", "generate"),
    ("archive", "write_forecasts"),
    ("archive", "write_observations"),
    ("archive", "load_forecasts"),
    ("archive", "load_observations"),
    ("archive", "window_block"),
    ("archive", "extract_window"),
    ("archive", "climatology_stats"),
    ("metric", "block_dissimilarity"),
    ("network", "embed_block"),
    ("network", "load_checkpoint"),
    ("network", "save_checkpoint"),
    ("training", "sample_triplets"),
    ("training", "backward"),
    ("training", "adam_step"),
    ("training", "evaluate_loss"),
    ("ensemble", "search_classic"),
    ("ensemble", "search_latent"),
    ("ensemble", "build_ensemble"),
    ("verification", "build_report"),
    ("verification", "spread_error"),
    ("verification", "rank_histogram"),
    ("verification", "error_interval_rmse"),
    ("cli", "cmd_ingest"),
    ("cli", "cmd_train"),
    ("cli", "cmd_predict"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_experiment_search_length"),
    ("cli", "run_predictions"),
    ("cli", "write_predictions"),
    ("cli", "read_predictions"),
    ("cli", "pairs_from_rows"),
    ("cli", "_baseline_intervals"),
]

COMMANDS = ("ingest", "train", "predict", "verify", "experiment-search-length")


def span_name(module: str, function: str) -> str:
    if function.startswith("cmd_"):
        return f"cli.{function[4:].replace('_', '-')}"
    return f"{module}.{function.lstrip('_')}"


def _seconds(*names):
    return [(f"{n}.s", "s", "lower") for n in names]


# Per-layer metrics: (name, unit, better). BENCHMARK.json lists the same.
PER_LAYER = [
    *_seconds("training.sample_triplets"),
    ("training.sample_triplets.calls", "count", "lower"),
    ("training.triplets_sampled", "count", "lower"),
    ("training.anchors_skipped_ratio", "ratio", "lower"),
    *_seconds("training.backward"),
    ("training.backward.calls", "count", "lower"),
    ("training.backward.p50_ms", "ms", "lower"),
    ("training.backward.p99_ms", "ms", "lower"),
    *_seconds("training.adam_step", "training.evaluate_loss"),
    ("training.evaluate_loss.calls", "count", "lower"),
    *_seconds("network.embed_block"),
    ("network.embed_block.calls", "count", "lower"),
    ("network.embed_block.sequences", "count", "lower"),
    *_seconds("network.load_checkpoint", "network.save_checkpoint"),
    *[m for kind in ("search_classic", "search_latent") for m in (
        (f"ensemble.{kind}.s", "s", "lower"),
        (f"ensemble.{kind}.calls", "count", "lower"),
        (f"ensemble.{kind}.p50_ms", "ms", "lower"),
        (f"ensemble.{kind}.p99_ms", "ms", "lower"))],
    ("ensemble.candidates_ranked", "count", "lower"),
    ("ensemble.members_used_ratio", "ratio", "higher"),
    *_seconds("ensemble.build_ensemble", "metric.block_dissimilarity"),
    ("metric.block_dissimilarity.calls", "count", "lower"),
    ("metric.block_dissimilarity.windows_scored", "count", "lower"),
    *_seconds("archive.window_block"),
    ("archive.window_block.calls", "count", "lower"),
    ("archive.extract_window.calls", "count", "lower"),
    *_seconds("archive.climatology_stats", "archive.load_forecasts"),
    ("archive.load_forecasts.rows", "count", "lower"),
    *_seconds("archive.load_observations"),
    ("archive.load_observations.rows", "count", "lower"),
    *_seconds("archive.write_forecasts", "archive.write_observations", "synthetic.generate",
              "verification.build_report", "verification.spread_error",
              "verification.rank_histogram", "verification.error_interval_rmse",
              "cli.read_predictions", "cli.baseline_intervals", "cli.run_predictions",
              "cli.write_predictions", "cli.pairs_from_rows"),
    *[(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS],
    *[(f"cli.targets_skipped.{r}", "count", "lower") for r in oracle.SKIP_REASONS],
    ("trace.overhead_s", "s", "lower"),
]


def _count_rows(counters, result, name):
    counters[f"{name}.rows"] += result.values.size


def _count_skips(counters, result, name):
    for *_, reason in result[1]:
        counters[f"cli.targets_skipped.{oracle.skip_reason(reason)}"] += 1


# span name -> counter hook(counters, result, span name), run after a call returns
HOOKS = {
    "archive.load_forecasts": _count_rows,
    "archive.load_observations": _count_rows,
    "network.embed_block": lambda c, r, n: c.update(
        {"network.embed_block.sequences": int(np.sum(r.available))}),
    "ensemble.search_classic": lambda c, r, n: c.update({"ensemble.candidates_ranked": len(r)}),
    "ensemble.search_latent": lambda c, r, n: c.update({"ensemble.candidates_ranked": len(r)}),
    "ensemble.build_ensemble": lambda c, r, n: c.update({"ensemble.members_used": r.m}),
    "metric.block_dissimilarity": lambda c, r, n: c.update(
        {"metric.block_dissimilarity.windows_scored": len(r)}),
    "training.sample_triplets": lambda c, r, n: c.update({"training.triplets_sampled": len(r)}),
    "cli.run_predictions": _count_skips,
}


class Tracer:
    """Spans ``[name, start, end, parent index]`` and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"analogkit.{m}") for m, _ in TRACED}
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name == "analogkit" or name.startswith("analogkit.")]
        try:
            for module, function in TRACED:
                original = getattr(modules[module], function, None)
                if not inspect.isfunction(original):
                    raise LookupError(f"analogkit.{module}.{function} is gone: "
                                      "update the benchmark's traced layers")
                wrapper = self._wrap(span_name(module, function), original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, original):
        hook = HOOKS.get(name)
        sampling = name == "training.sample_triplets"
        if sampling:
            signature = inspect.signature(original)
            if "stats" not in signature.parameters:
                raise LookupError("training.sample_triplets takes no stats argument any more")
            stats_type = sys.modules["analogkit.training"].SamplingStats

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if sampling:
                bound = signature.bind(*args, **kwargs)
                stats = bound.arguments.get("stats")
                if stats is None:
                    stats = kwargs["stats"] = stats_type()
                seen, skipped = stats.anchors_seen, stats.anchors_skipped
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if sampling:
                self.counters["training.anchors_seen"] += stats.anchors_seen - seen
                self.counters["training.anchors_skipped"] += stats.anchors_skipped - skipped
            if hook is not None:
                hook(self.counters, result, name)
            return result

        return wrapper

    def _child_seconds(self) -> list[float]:
        """Per span, the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def _aggregate(self):
        child = self._child_seconds()
        total, own, durations = defaultdict(float), defaultdict(float), defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            durations[name].append(end - start)
        return total, own, durations

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        total, own, durations = self._aggregate()
        c = self.counters
        values = {
            "training.anchors_skipped_ratio":
                c["training.anchors_skipped"] / c["training.anchors_seen"]
                if c["training.anchors_seen"] else 0.0,
            "ensemble.members_used_ratio":
                c["ensemble.members_used"] / c["ensemble.candidates_ranked"]
                if c["ensemble.candidates_ranked"] else 0.0,
            "trace.overhead_s": overhead_s,
        }
        for metric, _, _ in PER_LAYER:
            if metric in values:
                continue
            span, _, suffix = metric.rpartition(".")
            if suffix == "s":
                values[metric] = total[span]
            elif suffix == "self_s":
                values[metric] = own[span]
            elif suffix == "calls":
                values[metric] = len(durations[span])
            elif suffix in ("p50_ms", "p99_ms"):
                d = durations[span]
                values[metric] = float(np.percentile(d, int(suffix[1:3])) * 1e3) if d else 0.0
            else:
                values[metric] = c[metric]
        return values

    def span_tree(self) -> list[str]:
        """Calls, total and self seconds per call path, one line each."""
        paths, rows = [], {}
        child = self._child_seconds()
        for i, (name, start, end, parent) in enumerate(self.spans):
            path = (paths[parent] + " > " if parent >= 0 else "") + name
            paths.append(path)
            row = rows.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return [f"{'  ' * p.count(' > ')}{p.rpartition(' > ')[2]:<34} calls {n:>7}  "
                f"total {t:9.4f} s  self {s:9.4f} s" for p, (n, t, s) in sorted(rows.items())]
