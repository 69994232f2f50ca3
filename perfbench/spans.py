"""In-memory spans around the public functions of the qkdeff layers.

The tracer replaces a module attribute with a wrapper, so a span opens
wherever the caller looks the function up by that name
(``squeeze.decode(...)`` inside ``proto_bb84``, ``run_tf_session(...)``
inside ``cli``).  Nothing in the package is edited; ``uninstall`` puts the
originals back.  Spans stay in memory until the run ends.

With ``memory=True`` each span also records the peak of ``tracemalloc``'s
traced memory above its own starting level.  That pass is kept apart from
the timed traced ops because tracemalloc slows the Python-loop decoder.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

MIB = 1 << 20

# A count hook maps a call's (args, result) to counts taken at its boundary.
CountHook = Callable[[tuple, Any], dict]


def _encode_counts(args, result) -> dict:
    stats = result[1]
    return {"squeeze.bits_in": stats.n_input_bits, "squeeze.bits_out": stats.output_bits}


def _bb84_counts(args, report) -> dict:
    return {
        "proto_bb84.n_detected": report.n_detected,
        "proto_bb84.n_sifted": report.f_card,
        "proto_bb84.final_key_bits": report.final_key_bits,
    }


def _tf_counts(args, report) -> dict:
    return {
        "proto_tf.n_detected": report.n_detected,
        "proto_tf.final_key_bits": report.final_key_bits,
    }


def _cli_counts(args, exit_code) -> dict:
    if exit_code != 0:  # no output written; the op fails on its exit code
        return {}
    argv = list(args[0])
    out = argv[argv.index("--out") + 1]
    return {"cli.out_bytes": os.path.getsize(out)}


# Which function is wrapped where: the module whose attribute the caller
# reads, the attribute, and the span name (layer.function).
TARGETS: tuple[tuple[str, str, str, CountHook | None], ...] = (
    ("qkdeff.core", "efficiency_curve", "core.efficiency_curve", None),
    ("qkdeff.core", "determine_optimality", "core.determine_optimality", None),
    ("qkdeff.core", "total_efficiency", "core.total_efficiency", None),
    ("qkdeff.squeeze", "build_codebook", "squeeze.build_codebook", None),
    ("qkdeff.squeeze", "encode", "squeeze.encode", _encode_counts),
    ("qkdeff.squeeze", "decode", "squeeze.decode", None),
    ("qkdeff.squeeze", "write_container", "squeeze.write_container", None),
    ("qkdeff.squeeze", "read_container", "squeeze.read_container", None),
    ("qkdeff.squeeze", "sigma_curve", "squeeze.sigma_curve", None),
    ("qkdeff.proto_bb84", "run_session", "proto_bb84.run_session", _bb84_counts),
    ("qkdeff.proto_bb84", "prepare_and_measure", "proto_bb84.prepare_and_measure", None),
    ("qkdeff.proto_bb84", "sift", "proto_bb84.sift", None),
    ("qkdeff.proto_bb84", "parameter_estimation", "proto_bb84.parameter_estimation", None),
    ("qkdeff.cli", "run_tf_session", "proto_tf.run_tf_session", _tf_counts),
    ("qkdeff.cli", "main", "cli.main", _cli_counts),
)

LAYERS = ("core", "squeeze", "proto_bb84", "proto_tf", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op_id: int
    raised: bool = False
    peak_bytes: int = 0


@dataclass
class Tracer:
    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, float]] = field(default_factory=dict)
    op_id: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)
    # per open span: (traced memory at start, running peak seen so far)
    _mem: dict[int, list[int]] = field(default_factory=dict)

    def install(self) -> None:
        for mod_name, attr, span_name, hook in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def count(self, name: str, value: float) -> None:
        op = self.counts.setdefault(self.op_id, {})
        op[name] = op.get(name, 0) + value

    def _wrap(self, name: str, fn, hook: CountHook | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(idx, raised)
            if hook is not None:
                for key, value in hook(args, result).items():
                    self.count(key, value)
            return result

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self._mem[parent][1] = max(self._mem[parent][1], peak)
            tracemalloc.reset_peak()
            self._mem[idx] = [current, current]
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.raised = raised
        self._stack.pop()
        if self.memory:
            start, seen = self._mem.pop(idx)
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = peak - start
            if span.parent is not None:
                self._mem[span.parent][1] = max(self._mem[span.parent][1], peak)

    def self_times(self, op_id: int) -> list[tuple[Span, float]]:
        """(span, duration minus the time its direct children cover) for one op."""
        child_time: dict[int, float] = {}
        ops = [(i, s) for i, s in enumerate(self.spans) if s.op_id == op_id]
        for _, s in ops:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        return [(s, (s.end - s.start) - child_time.get(i, 0.0)) for i, s in ops]

    def layer_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer numbers of one traced op (times in s, counts as counts)."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        errors = {layer: 0 for layer in LAYERS}
        for span, own in self.self_times(op_id):
            total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.raised:
                errors[span.name.split(".")[0]] += 1
        counts = self.counts.get(op_id, {})
        bits_in = counts.get("squeeze.bits_in", 0)
        bits_out = counts.get("squeeze.bits_out", 0)
        container = total.get("squeeze.write_container", 0.0) + total.get(
            "squeeze.read_container", 0.0
        )
        m = {
            "squeeze.decode.s": total.get("squeeze.decode", 0.0),
            "squeeze.encode.s": total.get("squeeze.encode", 0.0),
            "squeeze.container.s": container,
            "squeeze.bits_in": bits_in,
            "squeeze.bits_out": bits_out,
            "squeeze.out_in_ratio": bits_out / bits_in if bits_in else 0.0,
            "squeeze.build_codebook.calls": calls.get("squeeze.build_codebook", 0),
            "proto_bb84.prepare_and_measure.s": total.get(
                "proto_bb84.prepare_and_measure", 0.0
            ),
            "proto_bb84.sift.self_s": self_s.get("proto_bb84.sift", 0.0),
            "proto_bb84.parameter_estimation.s": total.get(
                "proto_bb84.parameter_estimation", 0.0
            ),
            "proto_bb84.run_session.self_s": self_s.get("proto_bb84.run_session", 0.0),
            "proto_bb84.n_detected": counts.get("proto_bb84.n_detected", 0),
            "proto_bb84.n_sifted": counts.get("proto_bb84.n_sifted", 0),
            "proto_bb84.final_key_bits": counts.get("proto_bb84.final_key_bits", 0),
            "proto_tf.run_tf_session.self_s": self_s.get("proto_tf.run_tf_session", 0.0),
            "proto_tf.n_detected": counts.get("proto_tf.n_detected", 0),
            "proto_tf.final_key_bits": counts.get("proto_tf.final_key_bits", 0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "cli.out_bytes": counts.get("cli.out_bytes", 0),
            "core.efficiency_curve.s": total.get("core.efficiency_curve", 0.0),
            "core.total_efficiency.s": total.get("core.total_efficiency", 0.0),
            "core.total_efficiency.calls": calls.get("core.total_efficiency", 0),
            "core.determine_optimality.s": total.get("core.determine_optimality", 0.0),
        }
        m.update({f"{layer}.errors": n for layer, n in errors.items()})
        return m

    def self_time_sum(self, op_id: int) -> float:
        return sum(own for _, own in self.self_times(op_id))

    def peak_metrics(self, op_id: int) -> dict[str, float]:
        """Largest per-call tracemalloc peak of the spans that have a peak metric."""
        peaks = {
            "squeeze.decode": 0,
            "proto_bb84.prepare_and_measure": 0,
            "proto_tf.run_tf_session": 0,
        }
        for span in self.spans:
            if span.op_id == op_id and span.name in peaks:
                peaks[span.name] = max(peaks[span.name], span.peak_bytes)
        return {f"{name}.peak_mib": b / MIB for name, b in peaks.items()}

    def dump(self, op_id: int) -> dict:
        """One op's spans as compact rows (times in s from perf_counter)."""
        fields = ["index", "name", "start", "end", "parent", "raised", "peak_bytes"]
        rows = [[i, s.name, s.start, s.end, s.parent, s.raised, s.peak_bytes]
                for i, s in enumerate(self.spans) if s.op_id == op_id]
        return {"fields": fields, "rows": rows}
