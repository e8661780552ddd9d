"""Spans and counters recorded around calls into the program's layers.

The benchmark never edits the program.  For the length of a measurement
phase it replaces the module attributes and class methods through which
callers reach each layer, and restores them afterwards.  Several callers
import a function by name (``build_guillotine_machine`` is bound in
``serve.pool``, ``fuzz.oracles`` and ``core.bench`` as well as in
``hw.machine``), so a function is replaced in every loaded ``repro``
module that binds it.

A :class:`Recorder` works in one of two modes:

* census (untraced runs): only the machine builders, ``Machine.scrub`` and
  ``run_cell`` are tapped, and only to collect the simulated records the
  ``sim_*`` metrics need.  No clock is read and no span is kept.
* trace: every boundary in :data:`FUNCTIONS` and :data:`METHODS` records
  a span ``(name, start, end, parent, unit)`` and the counters read at
  that boundary.  Spans stay in memory until the run ends.

Only calls made while a unit is open are recorded; the unit checks run
with the recorder closed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _engine(args) -> str:
    """The engine a ``Core.run`` call runs on, from the core's flags at
    call time (as ``repro.serve.pool.apply_engine`` sets them)."""
    core = args[0]
    if not core.fast_path:
        return "hw.core.run.reference"
    return "hw.core.run.trace" if core.trace_jit else "hw.core.run.fast"


def _core_counters(core) -> tuple:
    caches = core.caches
    l1d = caches.dcache_levels[0].stats
    tlb = caches.tlb.stats
    predictor = caches.branch_predictor
    return (core.instructions_retired, core.decoded_hits,
            core.decoded_misses, core.trace_steps, l1d.hits, l1d.misses,
            tlb.hits, tlb.misses, predictor.predictions,
            predictor.mispredictions)


#: Names of the ``_core_counters`` fields from the L1D hits on: the
#: simulated counters behind the ``hw.cache.*`` ratios.
_SIM_FIELDS = ("l1d_hits", "l1d_misses", "tlb_hits", "tlb_misses",
               "predictions", "mispredictions")


def _add_sim(rec, before: tuple, after: tuple) -> None:
    for field, old, new in zip(_SIM_FIELDS, before[4:], after[4:]):
        rec.add("sim." + field, new - old)


def _core_run_before(rec, args):
    return _core_counters(args[0])


def _core_run_after(rec, label, before, args, result):
    """Instructions and interpreter-cache counters per engine; simulated
    cache counters unless the call runs inside a batch, whose probe
    counts its lanes whole."""
    after = _core_counters(args[0])
    rec.add(label + ".instructions", after[0] - before[0])
    rec.add("decoded_hits", after[1] - before[1])
    rec.add("decoded_misses", after[2] - before[2])
    if label == "hw.core.run.trace":
        rec.add("trace_steps", after[3] - before[3])
    if not rec.batch_depth:
        _add_sim(rec, before, after)


def _batch_run_before(rec, args):
    rec.batch_depth += 1
    return [_core_counters(core) for core in args[0].cores]


def _batch_run_after(rec, label, before, args, result):
    rec.batch_depth -= 1
    for core, old in zip(args[0].cores, before):
        _add_sim(rec, old, _core_counters(core))
    rec.add("lane_steps", sum(result.steps))
    rec.add("lane_steps_vector", result.stats.lane_steps_vector)


def _build_after(rec, label, before, args, result):
    rec.machines.append(result)


def _scrub_before(rec, args):
    """A scrub ends a lease: record the run before its state is wiped."""
    rec.harvest(args[0])


def _cell_after(rec, label, before, args, result):
    rec.cells.append(result)


CORE_RUN = (_core_run_before, _core_run_after)
BATCH_RUN = (_batch_run_before, _batch_run_after)
BUILD = (None, _build_after)
SCRUB = (_scrub_before, None)
CELL = (None, _cell_after)
NONE = (None, None)


#: Function boundaries: (span name, defining module, function,
#: (before, after) probes, tapped in census mode).
FUNCTIONS = (
    ("analysis.analyze_program", "repro.analysis.passes",
     "analyze_program", NONE, False),
    ("analysis.analyze_taint", "repro.analysis.taint", "analyze_taint",
     NONE, False),
    ("hw.machine.build", "repro.hw.machine", "build_guillotine_machine",
     BUILD, True),
    ("hw.machine.build", "repro.hw.machine", "build_baseline_machine",
     BUILD, True),
    ("hw.trace.compile_trace", "repro.hw.trace", "compile_trace", NONE,
     False),
    ("fleet.checkpoint.capture", "repro.fleet.checkpoint",
     "capture_checkpoint", NONE, False),
    ("fleet.checkpoint.restore", "repro.fleet.checkpoint",
     "restore_checkpoint", NONE, False),
    ("fuzz.oracles.check_program", "repro.fuzz.oracles", "check_program",
     NONE, False),
    ("serve.run_cell", "repro.serve.service", "run_cell", CELL, True),
    ("serve.report.assemble", "repro.serve.load", "assemble_serve_report",
     NONE, False),
)

#: Method boundaries: (span name or namer, module, class, method,
#: (before, after) probes, tapped in census mode).
METHODS = (
    ("hw.machine.scrub", "repro.hw.machine", "Machine", "scrub", SCRUB,
     True),
    ("hw.machine.load_program", "repro.hw.machine", "Machine",
     "load_program", NONE, False),
    (_engine, "repro.hw.core", "Core", "run", CORE_RUN, False),
    ("hw.batch.run", "repro.hw.batch", "LockstepBatch", "run", BATCH_RUN,
     False),
    ("fuzz.gen.next_program", "repro.fuzz.gen", "ProgramGenerator",
     "next_program", NONE, False),
    ("serve.pool.init", "repro.serve.pool", "MachinePool", "__init__",
     NONE, False),
)


class Census:
    """Simulated records of one unit: finished guest runs as
    ``(cycles, instructions)`` and the serve cells it ran."""

    def __init__(self, runs: list, cells: list) -> None:
        self.runs = runs
        self.cells = cells


class Recorder:
    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.unit = None
        #: ``(name, start, end, parent index, unit)`` per traced call.
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        #: unit -> counter name -> value.
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.batch_depth = 0
        self.machines: list = []
        self.runs: list = []
        self.cells: list = []
        self._patches: list[tuple] = []
        self._cache_before = None

    # -- units ---------------------------------------------------------

    def begin_unit(self, unit: int) -> None:
        self.machines, self.runs, self.cells = [], [], []
        self.stack.clear()
        self.batch_depth = 0
        if self.trace:
            self._cache_before = _analysis_cache()
        self.unit = unit

    def end_unit(self) -> Census:
        unit, self.unit = self.unit, None
        if self._cache_before is not None:
            after = _analysis_cache()
            for key in ("hits", "misses"):
                self.counters[unit]["analysis_cache_" + key] += (
                    after[key] - self._cache_before[key])
        for machine in self.machines:
            self.harvest(machine)
        census = Census(self.runs, self.cells)
        self.machines, self.runs, self.cells = [], [], []
        return census

    def add(self, name: str, value: int) -> None:
        self.counters[self.unit][name] += value

    def harvest(self, machine) -> None:
        instructions = sum(core.instructions_retired
                           for core in machine.model_cores)
        if instructions:
            self.runs.append((machine.clock.now, instructions))

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [module for name, module in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for name, module_name, attr, probe, census in FUNCTIONS:
            if not (self.trace or census) or module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, module_name, cls_name, attr, probe, census in METHODS:
            if not (self.trace or census) or module_name not in sys.modules:
                continue
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, probe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, probe):
        rec = self
        perf = time.perf_counter
        namer = name if callable(name) else None
        probe_before, probe_after = probe

        def wrapper(*args, **kwargs):
            if rec.unit is None:
                return fn(*args, **kwargs)
            label = namer(args) if namer else name
            before = probe_before(rec, args) if probe_before else None
            if rec.trace:
                spans = rec.spans
                stack = rec.stack
                index = len(spans)
                parent = stack[-1] if stack else -1
                # The slot is filled with a tuple of numbers and a string
                # when the call returns, which the garbage collector stops
                # tracking, so a long traced run does not slow collection.
                spans.append(None)
                stack.append(index)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index] = (label, start, perf(), parent, rec.unit)
            else:
                result = fn(*args, **kwargs)
            if probe_after:
                probe_after(rec, label, before, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, float]:
        """Per span name: calls and summed self seconds; plus the seconds
        of unit time covered by top-level spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        seconds: dict = defaultdict(float)
        covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            seconds[name] += end - start - child[index]
            if parent < 0:
                covered += end - start
        return calls, seconds, covered

    def totals(self, units=None) -> dict:
        """Counters summed over ``units`` (default: every timed unit)."""
        total: dict = defaultdict(int)
        for unit, counters in self.counters.items():
            if units is None or unit in units:
                for name, value in counters.items():
                    total[name] += value
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("name\tstart\tend\tparent\tunit\n")
            for name, start, end, parent, unit in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                             f"{unit}\n")


def _analysis_cache():
    passes = sys.modules.get("repro.analysis.passes")
    if passes is None:
        return {"hits": 0, "misses": 0}
    return passes.analysis_cache_stats()
