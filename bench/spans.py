"""In-memory spans around calls into the biphoton layers.

A span is a dict with name, start, end (perf_counter seconds, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), parent
(index into the same list, or None), op (operation id, or "setup") and
counts (numbers measured at that boundary).  Spans are kept in a list
and written out when the run ends.

This module imports only the standard library, so the cold CLI child can
load it before timing `import biphoton`.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

# public function -> span name ("<module>.<layer>")
LAYERS = {
    "chi3_full": "susceptibility.chi3_full",
    "apply_filter": "filtering.apply_filter",
    "beat_suppression": "filtering.beat_suppression",
    "psi_numeric": "wavepacket.psi_numeric",
    "g2_analytic": "wavepacket.g2_analytic",
    "suggest_mask_start": "modulation.suggest_mask_start",
    "apply_mask": "modulation.apply_mask",
    "fit_wavepacket": "estimation.fit",
    "simulate_coincidences": "photostatistics.simulate",
    "write_histogram": "io.write_histogram",
    "read_histogram": "io.read_histogram",
    "write_csv": "io.write_csv",
    "load_config": "config.load",
}

CLI_SUBCOMMANDS = ("dressed", "spectrum", "wavepacket", "filter",
                   "montecarlo", "fit", "modulate", "sweep")


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _counts(name: str, args: tuple, result) -> dict:
    """Counters read at a layer boundary from its arguments and result."""
    if name == "estimation.fit":
        return {"nfev": result.n_iterations}
    if name == "photostatistics.simulate":
        return {"tags": result.n_singles_s + result.n_singles_as,
                "coincidences": int(result.counts.sum())}
    if name == "io.write_histogram":
        return {"bytes": _file_bytes(args[0], str(args[0]) + ".meta.json")}
    if name == "io.write_csv":
        return {"bytes": _file_bytes(args[0])}
    return {}


class Tracer:
    """Span recorder; every method is a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """fn inside a span; the Monte Carlo also gets a tracemalloc peak."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                memory = name == "photostatistics.simulate"
                if memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if memory:
                        counts["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                        tracemalloc.stop()
                counts.update(_counts(name, args, result))
            return result

        return traced

    def instrument(self, namespace) -> None:
        """Replace every layer function found in `namespace` by a traced one."""
        for attr, name in LAYERS.items():
            if hasattr(namespace, attr):
                setattr(namespace, attr, self.wrap(name, getattr(namespace, attr)))

    def adopt(self, child_spans: list[dict]) -> None:
        """Append spans recorded in a child process under the current span."""
        if not self.enabled:
            return
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for s in child_spans:
            s = dict(s, op=self.op)
            s["parent"] = top if s["parent"] is None else base + s["parent"]
            self.spans.append(s)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], n_ops: int) -> dict:
    """Per-layer figures; a layer the workload never calls reads 0."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def med(values):
        return statistics.median(values) if values else 0.0

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, [])]

    def counts(name, key):
        return [spans[i]["counts"][key] for i in by_name.get(name, [])
                if key in spans[i]["counts"]]

    out = {}
    out["import.biphoton_s"] = (med(durations("import.biphoton")), "s")
    out["import.modules"] = (med(counts("import.biphoton", "modules")), "count")
    out["import.cli_s"] = (med(durations("import.cli")), "s")
    for name in ("susceptibility.chi3_full", "filtering.apply_filter",
                 "filtering.beat_suppression", "wavepacket.psi_numeric",
                 "wavepacket.g2_analytic", "modulation.suggest_mask_start",
                 "modulation.apply_mask", "io.write_histogram",
                 "io.read_histogram", "config.load"):
        out[f"{name}_s"] = (med(durations(name)), "s")
    out["wavepacket.psi_numeric_calls"] = (
        len(by_name.get("wavepacket.psi_numeric", [])) / max(n_ops, 1), "count")
    out["estimation.fit_s"] = (med(durations("estimation.fit")), "s")
    out["estimation.fit_nfev"] = (med(counts("estimation.fit", "nfev")), "count")
    sim = durations("photostatistics.simulate")
    tags = counts("photostatistics.simulate", "tags")
    out["photostatistics.simulate_s"] = (med(sim), "s")
    out["photostatistics.tags"] = (med(tags), "count")
    out["photostatistics.coincidences"] = (
        med(counts("photostatistics.simulate", "coincidences")), "count")
    out["photostatistics.ns_per_tag"] = (
        med([1e9 * t / n for t, n in zip(sim, tags) if n]), "ns")
    out["photostatistics.traced_peak_mb"] = (
        med(counts("photostatistics.simulate", "traced_peak_mb")), "MB")
    written = (counts("io.write_histogram", "bytes")
               + counts("io.write_csv", "bytes"))
    out["io.bytes_written"] = (sum(written) / max(n_ops, 1), "bytes")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = (med(durations(f"cli.{sub}")), "s")
    cli_own = [own[i] for name, idx in by_name.items() if name.startswith("cli.")
               for i in idx]
    out["cli.self_s"] = (med(cli_own), "s")
    out["op.self_s"] = (med([own[i] for i in by_name.get("op", [])]), "s")
    return out
