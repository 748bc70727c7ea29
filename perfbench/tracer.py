"""Outside-in tracing of toneset's layers.

The tracer wraps public functions and methods of the package from the
benchmark's side: each wrapper replaces the name wherever a caller looks it
up (every ``toneset.*`` module binding the same object, or the class
attribute for methods), so calls between layers are traced as well as the
benchmark's own calls. Nothing under ``src/`` changes, and a name a later
version no longer has is simply not wrapped and reports zero calls.

Each call records a span (name, start, end, parent span, job id) in memory.
Self time is a span's duration minus the time its child spans cover; it is
accumulated as the spans close, so the per-name totals need no second pass.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("core", "consonance", "tuning", "notation", "notes", "document", "figures", "cli", "dissonance")


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _utf8(text: str) -> int:
    return len(text.encode())


def _enumerated(counts, fn, args, kwargs, result):
    counts["tuning.candidates_enumerated"] += len(result)


def _kept(counts, fn, args, kwargs, result):
    counts["tuning.candidates_kept"] += len(result.entries)


def _pairs(counts, fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    counts["tuning.affinitive.pairs"] += len(a["contextual"]) * len(a["complementary"])
    counts["tuning.affinitive.distinct"] += len(result)


def _superset_k(counts, fn, args, kwargs, result):
    counts["tuning.superset.max_k"] = max(counts["tuning.superset.max_k"], len(result))


def _document_bytes(counts, fn, args, kwargs, result):
    counts["document.bytes_written"] += _utf8(result)


def _figure_bytes(counts, fn, args, kwargs, result):
    counts["figures.csv_bytes"] += sum(_utf8(text) for text in result.values())


def _sweep(counts, fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    n = len(list(a["contextual"])) + len(list(a["complementary"]))
    steps = a["steps"]
    counts["dissonance.pair_evaluations"] += steps * n * (n - 1) // 2
    # one float64 steps x n x n array; computed from the sizes, not measured
    counts["dissonance.array_bytes_computed"] += steps * n * n * 8


# (defining module, attribute path, span name, observer of the result)
TARGETS = [
    ("toneset.core", "FrequencySet.__init__", "core.frequency_set", None),
    ("toneset.core", "FrequencySet.transpose", "core.transpose", None),
    ("toneset.core", "FrequencySet.fundamental", "core.fundamental", None),
    ("toneset.consonance", "affinity", "consonance.affinity", None),
    ("toneset.consonance", "harmonicity", "consonance.harmonicity", None),
    ("toneset.consonance", "total_consonance", "consonance.total_consonance", None),
    ("toneset.consonance", "harmonic_superset", "consonance.harmonic_superset", _superset_k),
    ("toneset.tuning", "enumerate_rationals", "tuning.enumerate_rationals", _enumerated),
    ("toneset.tuning", "affinitive_intervals", "tuning.affinitive_intervals", _pairs),
    ("toneset.tuning", "affinitive_tuning", "tuning.affinitive_tuning", None),
    ("toneset.tuning", "harmonic_tuning", "tuning.harmonic_tuning", _kept),
    ("toneset.tuning", "superset_tuning", "tuning.superset_tuning", None),
    ("toneset.tuning", "octave_reduce", "tuning.octave_reduce", None),
    ("toneset.notation", "parse_set_expression", "notation.parse_set_expression", None),
    ("toneset.notes", "note_name", "notes.note_name", None),
    ("toneset.document", "TuningDocument.from_table", "document.from_table", None),
    ("toneset.document", "TuningDocument.to_json", "document.to_json", _document_bytes),
    ("toneset.document", "TuningDocument.from_json", "document.from_json", None),
    ("toneset.document", "TuningDocument.to_csv", "document.to_csv", _document_bytes),
    ("toneset.document", "export_scl", "document.export_scl", _document_bytes),
    ("toneset.figures", "emit_figure_data", "figures.emit_figure_data", _figure_bytes),
    ("toneset.cli", "main", "cli.main", None),
    ("toneset.dissonance", "dissonance_curve", "dissonance.dissonance_curve", _sweep),
]


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list | None = None  # recorded only while a list is set
        self.job = None
        self._stack: list[list] = []  # [span index, child ns] per open span
        self._restore: list = []

    def reset(self, record_spans: bool) -> None:
        self.calls, self.self_ns, self.counts = Counter(), Counter(), Counter()
        self.spans = [] if record_spans else None

    def wrap(self, name, fn, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = None
            if spans is not None:
                index = len(spans)
                spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if index is not None:
                    spans[index] = (name, start, end, parent, self.job)
            if observe is not None:
                observe(self.counts, fn, args, kwargs, return_value)
            return return_value

        return traced

    def run_job(self, job_id, fn):
        self.job = job_id
        return self.wrap("bench.job", fn)()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "toneset" or n.startswith("toneset.")]
        for module_name, path, span, observe in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue  # the name is gone in this version: zero calls
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(span, raw.__func__, observe)))
                else:
                    setattr(owner, attr, self.wrap(span, raw, observe))
                self._restore.append((owner, attr, raw))
                continue
            wrapper = self.wrap(span, raw, observe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "job": job}))
                out.write("\n")
        return len(self.spans)
