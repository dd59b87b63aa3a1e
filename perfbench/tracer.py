"""Span tracer for the benchmark's traced pass.

The tracer wraps pgac's layer entry points where their callers bind them
(a module's functions look names up in the module's own attribute dict, so
replacing ``pgac.harness.advance`` retargets every call ``run_trial`` makes).
Each call records a span: name, start, end and the index of the enclosing
span.  Spans stay in memory until the pass ends.  Nothing here is imported by
pgac, and the wrappers exist only inside :func:`installed`.
"""

import functools
import importlib
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

MARK = "__perfbench_span__"


def _riccati_iters(counters, result, args):
    counters["linalg.riccati.iters"] += result.iterations


def _csv_bytes(counters, result, args):
    counters["harness.csv.bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, hook run after the call with its result).
# An owner is "module" or "module:Class".
TARGETS = (
    ("pgac.linalg", "_solve_dlyap_stable", "linalg.dlyap", None),
    ("pgac.plant", "_solve_dlyap_stable", "linalg.dlyap", None),
    ("pgac.indirect", "_solve_dlyap_stable", "linalg.dlyap", None),
    ("pgac.direct", "_solve_dlyap_stable", "linalg.dlyap", None),
    ("pgac.controller", "solve_riccati_hewer", "linalg.riccati", _riccati_iters),
    ("pgac.plant", "solve_riccati_hewer", "linalg.riccati", _riccati_iters),
    ("pgac.linalg", "spectral_radius", "linalg.spectral_radius", None),
    ("pgac.plant", "spectral_radius", "linalg.spectral_radius", None),
    ("pgac.indirect", "spectral_radius", "linalg.spectral_radius", None),
    ("pgac.direct", "spectral_radius", "linalg.spectral_radius", None),
    ("pgac.direct", "nullspace_projector", "linalg.nullspace_projector", None),
    ("pgac.harness", "lqr_cost", "plant.lqr_cost", None),
    ("pgac.harness", "step", "plant.step", None),
    ("pgac.harness", "optimal_gain", "plant.optimal_gain", None),
    ("pgac.dataflow:DataRecord", "append", "dataflow.append", None),
    ("pgac.controller", "rls_update", "dataflow.rls_update", None),
    ("pgac.harness", "snr_reading", "dataflow.snr_reading", None),
    ("pgac.indirect", "regularized_gradient", "indirect.update", None),
    ("pgac.indirect", "natural_step", "indirect.update", None),
    ("pgac.indirect", "gauss_newton_step", "indirect.update", None),
    ("pgac.direct", "natural_step", "indirect.update", None),
    ("pgac.direct", "parameterize", "direct.update", None),
    ("pgac.direct", "projected_step", "direct.update", None),
    ("pgac.direct", "natural_direct_step", "direct.update", None),
    ("pgac.direct", "scaling_matrix", "direct.scaling_matrix", None),
    ("pgac.harness", "advance", "controller.advance", None),
    ("pgac.harness", "initialize", "controller.initialize", None),
    ("pgac.harness", "run_trial", "harness.loop", None),
    ("pgac.harness", "emit_csv", "harness.csv", _csv_bytes),
    ("pgac.cli", "emit_csv", "harness.csv", _csv_bytes),
    ("pgac.cli", "load_config", "cli.config", None),
)

def resolve(owner):
    module, _, qualname = owner.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span store: parallel arrays of name id, start, end, parent."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if hook is not None:
                hook(counters, result, args)
            return result

        setattr(traced, MARK, True)
        return traced

    def arrays(self):
        """(name ids, starts, ends, parents) copied into numpy arrays."""
        return (
            np.array(self.name_ids, dtype=np.int32),
            np.array(self.starts, dtype=np.float64),
            np.array(self.ends, dtype=np.float64),
            np.array(self.parents, dtype=np.int64),
        )

    def write(self, path):
        """Write the spans as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name_ids)):
                fh.write(
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]!r}\t"
                    f"{self.ends[i]!r}\t{self.parents[i]}\n"
                )


@contextmanager
def installed(tracer, targets=TARGETS):
    """Patch every target with a tracing wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner_name, attr, name, hook in targets:
            owner = resolve(owner_name)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_targets(targets=TARGETS):
    """Targets currently bound to a tracing wrapper (empty when pgac is clean)."""
    return [
        f"{owner}.{attr}"
        for owner, attr, _, _ in targets
        if getattr(vars(resolve(owner))[attr], MARK, False)
    ]


def self_times(starts, ends, parents):
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread's call stack, so a span's children are
    disjoint intervals inside it.
    """
    durations = ends - starts
    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


def layer_totals(tracer):
    """Per span name: calls, summed self time, and the traced phases of
    run_trial (set-up up to the end of initialize, monitoring calls)."""
    name_ids, starts, ends, parents = tracer.arrays()
    selfs = self_times(starts, ends, parents)
    out = {}
    for name_id, name in enumerate(tracer.names):
        mask = name_ids == name_id
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(selfs[mask].sum())
    ids = {name: i for i, name in enumerate(tracer.names)}
    loop = ids.get("harness.loop", -1)
    under_loop = (parents >= 0) & (name_ids[np.maximum(parents, 0)] == loop)
    init = under_loop & (name_ids == ids.get("controller.initialize", -1))
    out["harness.trial_setup.self_s"] = float((ends[init] - starts[parents[init]]).sum())
    monitor = under_loop & np.isin(
        name_ids, [ids.get("plant.lqr_cost", -1), ids.get("dataflow.snr_reading", -1)]
    )
    out["harness.monitor.self_s"] = float((ends[monitor] - starts[monitor]).sum())
    advance = name_ids == ids.get("controller.advance", -1)
    out["controller.advance.durations"] = ends[advance] - starts[advance]
    return out
