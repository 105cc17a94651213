"""Per-layer spans for the traced run, recorded from outside the package.

A ``Tracer`` wraps the public entry point of each layer for the duration of
one job and restores the originals afterwards. Every wrapped call is a span;
a span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all layers plus the job's own
(``cli.self_s``) add up to the job's wall time. Counts are taken at the same
boundaries. An entry point that no longer exists is skipped, and the metrics
that depend on it are absent from the result rather than zero.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict


def _count_states(counts, args, result):
    counts["quantum.states_built"] += 1


def _count_relents(counts, args, result):
    counts["quantum.relents"] += 1
    counts["quantum.relent_inf"] += math.isinf(result)


def _count_kraus(counts, args, result):
    counts["quantum.kraus_applies"] += 1


def _count_eigh(counts, args, result):
    counts["linalg.eigh_calls"] += 1
    matrices = 1
    for n in args[0].shape[:-2]:
        matrices *= n
    counts["linalg.eigh_matrices"] += matrices


def _count_bound_rows(counts, args, result):
    counts["entropics.bound_rows"] += len(result.checks)


WALK = "walk"  # marks a generator whose next() calls are the spans

# (time metric, module, attribute, counter or WALK, count metrics it yields)
ENTRY_POINTS = (
    ("model.load_s", "contmeas.model", "parse_model", None, ()),
    ("model.load_s", "contmeas.model", "validate_model", None, ()),
    ("engine.apriori_s", "contmeas.engine", "compute_a_priori", None, ()),
    ("engine.walk_s", "contmeas.engine", "enumerate_trajectories", WALK,
     ("engine.records", "engine.distinct_paths", "engine.memo_hit_ratio")),
    ("engine.walk_s", "contmeas.engine", "sample_trajectories", WALK,
     ("engine.records", "engine.distinct_paths", "engine.memo_hit_ratio")),
    ("engine.consistency_s", "contmeas.engine", "ConsistencyAccumulator.add", None, ()),
    ("engine.consistency_s", "contmeas.engine", "ConsistencyAccumulator.finalize", None, ()),
    ("quantum.state_s", "contmeas.quantum", "DensityOperator.from_matrix", _count_states,
     ("quantum.states_built",)),
    ("quantum.relent_s", "contmeas.quantum", "quantum_relative_entropy", _count_relents,
     ("quantum.relents", "quantum.relent_inf")),
    ("quantum.kraus_s", "contmeas.quantum", "KrausMap.apply", _count_kraus,
     ("quantum.kraus_applies",)),
    ("linalg.eigh_s", "numpy.linalg", "eigh", _count_eigh,
     ("linalg.eigh_calls", "linalg.eigh_matrices")),
    ("entropics.report_s", "contmeas.entropics", "EntropyReportBuilder.add", None, ()),
    ("entropics.report_s", "contmeas.entropics", "EntropyReportBuilder.finalize", None, ()),
    ("entropics.audit_s", "contmeas.entropics", "check_bounds", _count_bound_rows,
     ("entropics.bound_rows",)),
    ("entropics.serialize_s", "contmeas.entropics", "report_to_json_dict", None, ()),
    ("entropics.serialize_s", "contmeas.entropics", "write_bounds_csv", None, ()),
)
ROOT = "cli.self_s"


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.paths = set()
        self.times = {ROOT}  # time metrics whose entry points exist
        self.count_names = set()
        self._open = []  # time covered by the children of each open span
        self._undo = []

    def _timed(self, metric, fn, counter):
        open_spans, self_s, counts, clock = self._open, self.self_s, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(counts, args, result)
                return result
            finally:
                elapsed = clock() - start
                self_s[metric] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _walk(self, metric, fn):
        open_spans, self_s, counts, paths = self._open, self.self_s, self.counts, self.paths
        clock = time.perf_counter

        def walk(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    open_spans.append(0.0)
                    start = clock()
                    try:
                        rec = next(gen)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        self_s[metric] += elapsed - open_spans.pop()
                        if open_spans:
                            open_spans[-1] += elapsed
                    counts["engine.records"] += 1
                    paths.add((rec.letter, rec.outcomes))
                    yield rec
            finally:
                gen.close()

        return walk

    def _patch(self, owner, name, value):
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def install(self) -> None:
        """Wrap every entry point that exists, wherever it is bound by name."""
        for metric, module_name, attr, counter, count_names in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                descriptor = getattr(owner, "__dict__", {}).get(name)
                if descriptor is None:
                    continue
                if isinstance(descriptor, classmethod):
                    wrapped = classmethod(self._timed(metric, descriptor.__func__, counter))
                else:
                    wrapped = self._timed(metric, descriptor, counter)
                self._patch(owner, name, wrapped)
            else:
                original = getattr(module, name, None)
                if original is None:
                    continue
                if counter is WALK:
                    wrapped = self._walk(metric, original)
                else:
                    wrapped = self._timed(metric, original, counter)
                # rebind in every package module that imported it by name
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod is module or mod_name.startswith("contmeas"):
                        if vars(mod).get(name) is original:
                            self._patch(mod, name, wrapped)
            self.times.add(metric)
            self.count_names.update(count_names)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def run(self, job):
        """Run ``job()`` as the root span; call between install and remove."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return job()
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[ROOT] += elapsed - self._open.pop()

    def open_spans(self) -> int:
        return len(self._open)

    def metrics(self) -> dict:
        """Self time of every present layer and every present count."""
        out = {name: self.self_s.get(name, 0.0) for name in self.times}
        for name in self.count_names:
            if name == "engine.distinct_paths":
                out[name] = len(self.paths)
            elif name == "engine.memo_hit_ratio":
                records = self.counts.get("engine.records", 0)
                out[name] = 1.0 - len(self.paths) / records if records else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out
