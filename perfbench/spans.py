"""Call wrappers around the package's public functions, installed from outside.

The benchmark never edits the package. It replaces module attributes and
class methods at run time, in every ``pulsecollapse`` module that holds the
same function object, so that calls made through any module's globals go
through the wrapper. ``Patch.undo`` puts the originals back.

Two wrappers exist:

- ``Tracer`` records one span per call: name, start, end, parent span and op
  id, kept in flat in-memory arrays and written out once, at the end.
- ``TrialCounter`` counts trials handed to ``run_batch`` and
  ``simulate_trajectory``, with no clock, for the untraced run's
  ``trials_per_s``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute). The span is named after the defining module.
TARGETS = (
    ("config.load_config", "config", "load_config"),
    ("scenarios.run_scenario", "scenarios", "run_scenario"),
    ("scenarios.build_backbone", "scenarios", "build_backbone"),
    ("scenarios.run_batch", "scenarios", "run_batch"),
    ("scenarios.simulate_trajectory", "scenarios", "simulate_trajectory"),
    ("scenarios.run_pulse_drift", "scenarios", "run_pulse_drift"),
    ("dynamics.step", "dynamics", "step"),
    ("dynamics.drift_pulse", "dynamics", "drift_pulse"),
    ("dynamics.form_pulse", "dynamics", "form_pulse"),
    ("state.Term.square_modulus", "state", "Term.square_modulus"),
    ("state.Pulse.norm_sq", "state", "Pulse.norm_sq"),
    ("state.total_square_modulus", "state", "total_square_modulus"),
    ("reduction.hit_probability", "reduction", "hit_probability"),
    ("reduction.reduce", "reduction", "reduce"),
    ("analysis.hit_histogram", "analysis", "hit_histogram"),
    ("analysis.compare", "analysis", "compare"),
)


class Patch:
    """Replace named package functions by wrappers; ``undo`` restores them."""

    def __init__(self, make_wrapper, names):
        self._saved = []
        for name, mod_name, attr in TARGETS:
            if name not in names:
                continue
            owner = sys.modules[f"pulsecollapse.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if key.split(".")[0] == "pulsecollapse"
                    and getattr(mod, attr, None) is getattr(owner, attr)
                ]
            original = getattr(owner, attr)
            wrapper = make_wrapper(name, original)
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def undo(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []


class TrialCounter:
    """Trials given to ``run_batch`` (its config's trials) and to ``simulate_trajectory`` (one each)."""

    def __init__(self):
        self.trials = 0

    def install(self) -> Patch:
        def make(name, fn):
            if name == "scenarios.run_batch":

                @functools.wraps(fn)
                def counted(cfg, *args, **kwargs):
                    self.trials += cfg.trials
                    return fn(cfg, *args, **kwargs)

            else:

                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    self.trials += 1
                    return fn(*args, **kwargs)

            return counted

        return Patch(make, {"scenarios.run_batch", "scenarios.simulate_trajectory"})


class Tracer:
    """In-memory spans plus the counts that are read off call arguments and results."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS] + ["cli.main"]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = -1
        self.counts = defaultdict(float)
        self._stack = [-1]

    def install(self) -> Patch:
        return Patch(self._wrap, set(self._index))

    def _open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._index[name])
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if note is not None:
                note(self.counts, args, result)
            return result

        return traced

    def per_name(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        child = defaultdict(float)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for sid in range(len(self.start)):
            row = out[self.names[self.name_id[sid]]]
            dur = self.end[sid] - self.start[sid]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child.get(sid, 0.0)
        return out

    def write(self, path: str) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.names[self.name_id[sid]]},{self.start[sid]!r},"
                    f"{self.end[sid]!r},{self.parent[sid]},{self.op_id[sid]}\n"
                )


def _note_backbone(counts, args, bb):
    counts["backbone_steps"] += len(bb.times) - 1


def _note_batch(counts, args, result):
    cfg = args[0]
    _, batch = result
    counts["batch_trials"] += cfg.trials
    counts["batch_hits"] += batch.n_hits
    counts["batch_bytes"] += sum(
        getattr(batch, f).nbytes for f in vars(batch) if hasattr(getattr(batch, f), "nbytes")
    )


def _note_trajectory(counts, args, out):
    counts["trajectories"] += 1
    counts["trajectory_hits"] += out.event is not None


_NOTES = {
    "scenarios.build_backbone": _note_backbone,
    "scenarios.run_batch": _note_batch,
    "scenarios.simulate_trajectory": _note_trajectory,
}
