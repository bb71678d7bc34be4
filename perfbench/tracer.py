"""In-process span tracer for the sparsejl benchmark.

The tracer wraps every public function of the package's working layers at
its module attribute, including the copies other modules import by name
(``oracle.psi`` is ``concentration.psi``), so calls made inside the package
are recorded as well as the benchmark's own.  Each call becomes a span
(name, start, end, parent, counters) held in memory; per-layer metrics are
computed from the spans of one workload cycle, and the spans are written
out when the run ends.

Generator functions are not wrapped: their bodies run after the call
returns, so a span around the call would time nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

LAYERS = ("streams", "transform", "oracle", "planner", "concentration", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _words(arg, before, result) -> dict:
    return {"words": int(arg("ctrs").sum()) - before}


def _ctr_sum(arg) -> int:
    return int(arg("ctrs").sum())


def _sample_columns(arg, before, result) -> dict:
    lanes = int(arg("roots").shape[0])
    return {"lanes": lanes, "table_bytes": lanes * int(arg("m")) * 4}


def _apply(arg, before, result) -> dict:
    return {"nnz": arg("matrix").n * arg("matrix").s}


def _encoded(arg, before, result) -> dict:
    return {"bytes": len(result)}


def _decoded(arg, before, result) -> dict:
    return {"bytes": len(arg("data"))}


def _text_decoded(arg, before, result) -> dict:
    return {"bytes": len(arg("text"))}


def _path_size(arg, before, result) -> dict:
    return {"bytes": os.path.getsize(arg("path"))}


def _trials(arg, before, result) -> dict:
    return {"trials": int(arg("trials"))}


def _masks(arg, before, result) -> dict:
    return {"masks": 1 << len(arg("spec").x)}


def _configurations(arg, before, result) -> dict:
    spec = arg("spec")
    return {"configurations": math.comb(spec.m, spec.s) ** spec.n + 2 ** (spec.m * spec.n)}


# Counters taken at a span: (before-call probe or None, after-call probe).
_PROBES = {
    "streams.next_u64_vec": (_ctr_sum, _words),
    "streams.next_below_vec": (_ctr_sum, _words),
    "streams.next_u64_block_vec": (_ctr_sum, _words),
    "transform.sample_columns": (None, _sample_columns),
    "transform.apply": (None, _apply),
    "transform.serialize": (None, _encoded),
    "transform.deserialize": (None, _decoded),
    "transform.serialize_json": (None, _encoded),
    "transform.deserialize_json": (None, _text_decoded),
    "cli.read_vectors": (None, _path_size),
    "cli.write_vectors": (None, _path_size),
    "oracle.squared_norm_samples": (None, _trials),
    "oracle.exact_moment_Z": (None, _masks),
    "oracle.check_majorization": (None, _configurations),
}


class Tracer:
    """Records the spans of one cycle while installed.

    Span parents are indices into :attr:`spans`; :meth:`uninstall`
    restores the original module attributes.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import sparsejl

        for layer in LAYERS:
            module = getattr(sparsejl, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in LAYERS or inspect.isgeneratorfunction(fn):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{home}.{fn.__name__}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def span(self, name: str):
        """Context manager recording a span from the benchmark's own code."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    def _wrap(self, fn, name: str):
        before_probe, after_probe = _PROBES.get(name, (None, None))
        position = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            def arg(key):
                i = position[key]
                return args[i] if i < len(args) else kwargs[key]

            before = before_probe(arg) if before_probe else None
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if after_probe:
                span.counts = after_probe(arg, before, result)
            return result

        return traced



class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span: cycle, name, start, end, parent, counts."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for cycle, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps([cycle, span.name, span.start, span.end, span.parent, span.counts]) + "\n")


def cycle_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one workload cycle, from that cycle's spans.

    A layer's calls are the spans entering it from another layer (or from
    the benchmark); its self time is the summed span durations minus the
    time their child spans cover.  Stream words are counted at layer entry
    only, since the draw helpers call one another.
    """
    calls = defaultdict(int)
    total_s = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    layer_calls = defaultdict(int)
    layer_self = defaultdict(float)
    table_max = 0
    for span in spans:
        own = span.duration - span.child_s
        calls[span.name] += 1
        total_s[span.name] += span.duration
        self_s[span.name] += own
        layer_self[span.layer] += own
        entry = span.parent is None or spans[span.parent].layer != span.layer
        if entry:
            layer_calls[span.layer] += 1
        for key, value in span.counts.items():
            if key == "words" and not entry:
                continue
            counts[(span.name, key)] += value
        table_max = max(table_max, span.counts.get("table_bytes", 0))

    apply_s = total_s["transform.apply"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
    out.update({
        "streams.words": sum(v for (name, key), v in counts.items() if key == "words"),
        "transform.sample_columns.calls": calls["transform.sample_columns"],
        "transform.sample_columns.lanes": counts[("transform.sample_columns", "lanes")],
        "transform.sample_columns.self_s": self_s["transform.sample_columns"],
        "transform.sample_columns.table_bytes_max": table_max,
        "transform.build_matrix.s": total_s["transform.build_matrix"],
        "transform.apply.calls": calls["transform.apply"],
        "transform.apply.self_s": self_s["transform.apply"],
        "transform.apply.nnz_per_s": counts[("transform.apply", "nnz")] / apply_s if apply_s else 0.0,
        "transform.serialize.s": total_s["transform.serialize"],
        "transform.deserialize.s": total_s["transform.deserialize"],
        "transform.matrix_bytes": counts[("transform.serialize", "bytes")]
        + counts[("transform.deserialize", "bytes")],
        "transform.serialize_json.s": total_s["transform.serialize_json"],
        "transform.deserialize_json.s": total_s["transform.deserialize_json"],
        "transform.json_bytes": counts[("transform.serialize_json", "bytes")]
        + counts[("transform.deserialize_json", "bytes")],
        "cli.read_vectors.s": total_s["cli.read_vectors"],
        "cli.write_vectors.s": total_s["cli.write_vectors"],
        "cli.vector_bytes": counts[("cli.read_vectors", "bytes")] + counts[("cli.write_vectors", "bytes")],
        "oracle.squared_norm_samples.self_s": self_s["oracle.squared_norm_samples"],
        "oracle.trials": counts[("oracle.squared_norm_samples", "trials")],
        "oracle.clopper_pearson.s": total_s["oracle.clopper_pearson"],
        "oracle.exact_moment_Z.calls": calls["oracle.exact_moment_Z"],
        "oracle.exact_moment_Z.s": total_s["oracle.exact_moment_Z"],
        "oracle.exact_moment_Z.masks": counts[("oracle.exact_moment_Z", "masks")],
        "oracle.check_majorization.calls": calls["oracle.check_majorization"],
        "oracle.check_majorization.s": total_s["oracle.check_majorization"],
        "oracle.check_majorization.configurations": counts[("oracle.check_majorization", "configurations")],
        "oracle.check_multinomial_inequality.s": total_s["oracle.check_multinomial_inequality"],
        "oracle.check_psi_envelope.s": total_s["oracle.check_psi_envelope"],
        "oracle.chernoff_residual_grid.s": total_s["oracle.chernoff_residual_grid"],
        "concentration.psi.calls": calls["concentration.psi"],
        "planner.min_dimension.s": total_s["planner.min_dimension"],
    })
    return out


def combine_cycles(per_cycle: list[dict[str, float]]) -> dict[str, float]:
    """Counts must repeat exactly across identical cycles; times are medians."""
    out = {}
    for name in per_cycle[0]:
        values = [m[name] for m in per_cycle]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between identical cycles: {values}")
            out[name] = values[0]
        else:
            out[name] = median(values)
    return out
