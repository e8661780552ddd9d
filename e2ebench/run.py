"""End-to-end benchmark of the Guillotine simulator.

Run from the repository root::

    python3 e2ebench/run.py --workload serve-mix --seed 1 --seconds 36 --trace 0

One process drives each workload closed-loop: the next unit starts when
the previous one finishes.  Units are generated from ``--seed`` and their
position, so two runs of equal length do identical simulated work.  Each
unit's output is checked outside its timed interval; a failed check
counts as a failed operation.  Host times are scaled to reference host
speed (``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: units alternate between traced (spans around
every layer boundary, see ``tracer.py``) and untraced, so both halves
cover the same stretch of time and a like mix of units, and the ratio of
their work rates is the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import hostspeed
from tracer import Recorder
from workloads import REQUIRED_LAYERS, WORKLOADS, nearest_rank

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Untimed units run before measuring, so lazy imports and first-call
#: costs are paid outside both set-up and the timed units.
WARMUP_UNITS = 2
#: Traced units whose simulated counters make up the exact per-layer
#: ratios (fewer if the workload's ``sim_units`` is smaller).
TRACE_SIM_UNITS = 60
#: Fresh interpreters started per run to measure set-up; the median is
#: reported.
SETUP_PROBES = 7

END_TO_END = (
    ("work_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p99_cycles", "cycles"),
    ("sim_throughput_rpmc", "1/Mcycle"),
    ("sim_cpi", "cycles/instr"),
)

ENGINES = ("reference", "fast", "trace")

PER_LAYER = (
    ("startup.import_numpy_s", "s"),
    ("startup.import_networkx_s", "s"),
    ("startup.import_repro_s", "s"),
    ("analysis.analyze_program.calls", "count/unit"),
    ("analysis.analyze_program.self_ms", "ms/unit"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("analysis.analyze_taint.self_ms", "ms/unit"),
    ("hw.machine.build.calls", "count/unit"),
    ("hw.machine.build.self_ms", "ms/unit"),
    ("hw.machine.scrub.calls", "count/unit"),
    ("hw.machine.scrub.self_ms", "ms/unit"),
    ("hw.machine.load_program.self_ms", "ms/unit"),
    *((f"hw.core.run.{engine}.{metric}", unit)
      for engine in ENGINES
      for metric, unit in (("instructions", "instr/unit"),
                           ("self_ms", "ms/unit"),
                           ("ns_per_instr", "ns/instr"))),
    ("hw.core.decoded_hit_ratio", "ratio"),
    ("hw.trace.compile_trace.calls", "count/unit"),
    ("hw.trace.compile_trace.self_ms", "ms/unit"),
    ("hw.trace.step_share", "ratio"),
    ("hw.batch.run.self_ms", "ms/unit"),
    ("hw.batch.lane_steps", "steps/unit"),
    ("hw.batch.vector_share", "ratio"),
    ("hw.cache.l1d_hit_ratio", "ratio"),
    ("hw.cache.tlb_hit_ratio", "ratio"),
    ("hw.core.mispredict_ratio", "ratio"),
    ("fleet.checkpoint.capture.self_ms", "ms/unit"),
    ("fleet.checkpoint.restore.self_ms", "ms/unit"),
    ("fuzz.gen.next_program.self_ms", "ms/unit"),
    ("fuzz.oracles.check_program.self_ms", "ms/unit"),
    ("serve.run_cell.self_ms", "ms/unit"),
    ("serve.pool.init.self_ms", "ms/unit"),
    ("serve.report.assemble.self_ms", "ms/unit"),
    ("serve.sim_queue_wait_p99_cycles", "cycles"),
    ("serve.backpressure_share", "ratio"),
    ("serve.admission_reject_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.tracing_overhead", "ratio"),
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class Phase:
    """What one measurement phase ran: per-unit host times, host-speed
    calibrations and work, the simulated records of its first units, and
    the failures its checks found."""

    def __init__(self) -> None:
        self.units: list[int] = []
        self.seconds: list[float] = []
        self.calibrations: list[float] = []
        self.work: list[int] = []
        self.sims: list[dict] = []
        self.attempted = 0
        self.failed = 0

    @property
    def normalized(self) -> list[float]:
        """Unit host times at reference host speed (``hostspeed``)."""
        return hostspeed.normalize(self.seconds, self.calibrations)

    @property
    def work_per_s(self) -> float:
        return _ratio(sum(self.work), sum(self.normalized))


def measure(workload, units, seconds: float, min_units: int,
            recorders) -> list[Phase]:
    """Run units closed-loop until ``seconds`` have passed and the first
    phase has at least ``min_units`` units; only ``workload.run`` is
    timed.  Units take the recorders in turn, each installed for its own
    unit only, and each recorder's units make up one phase."""
    phases = [Phase() for _ in recorders]
    deadline = time.perf_counter() + seconds
    turn = 0
    while (phases[0].attempted < min_units
           or time.perf_counter() < deadline):
        phase, recorder = phases[turn], recorders[turn]
        turn = (turn + 1) % len(recorders)
        position, spec = next(units)
        phase.attempted += 1
        recorder.install()
        recorder.begin_unit(position)
        try:
            start = time.perf_counter()
            result = workload.run(spec)
            end = time.perf_counter()
        except Exception:
            traceback.print_exc()
            phase.failed += 1
            continue
        finally:
            census = recorder.end_unit()
            recorder.uninstall()
        phase.units.append(position)
        phase.seconds.append(end - start)
        phase.calibrations.append(hostspeed.calibrate())
        phase.work.append(workload.work(result))
        if len(phase.sims) < min_units:
            phase.sims.append(workload.sim(result, census))
        problems = workload.check(position, spec, result)
        if problems:
            phase.failed += 1
            print(f"unit {position} failed its check: "
                  + "; ".join(problems), file=sys.stderr)
    return phases


def end_to_end_metrics(workload, phase: Phase, setups: list[dict]) -> dict:
    sims = phase.sims
    latencies = [value for sim in sims for value in sim["latencies"]]
    runs = [run for sim in sims for run in sim["runs"]]
    times_ms = [seconds * 1000 for seconds in phase.normalized]
    return {
        "work_per_s": phase.work_per_s,
        "unit_p50_ms": statistics.median(times_ms),
        "unit_p90_ms": nearest_rank(times_ms, 90),
        "setup_s": statistics.median(setup["setup_s"] for setup in setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_latency_p99_cycles": nearest_rank(latencies, 99),
        "sim_throughput_rpmc": 1e6 * _ratio(
            sum(sim["served"] for sim in sims),
            sum(sim["span_cycles"] for sim in sims)),
        "sim_cpi": _ratio(sum(cycles for cycles, _ in runs),
                          sum(instr for _, instr in runs)),
    }


def per_layer_metrics(workload, traced: Phase, untraced: Phase, recorder,
                      setups: list[dict]) -> dict:
    units = len(traced.units)
    calls, self_s, covered = recorder.self_times()
    counts = recorder.totals()
    exact = recorder.totals(set(traced.units[:len(traced.sims)]))
    metrics = {
        f"startup.{name}": statistics.median(setup[name] for setup in setups)
        for name in ("import_numpy_s", "import_networkx_s", "import_repro_s")
    }
    for name, unit in PER_LAYER:
        layer, _, metric = name.rpartition(".")
        if metric == "calls":
            metrics[name] = _ratio(calls[layer], units)
        elif metric == "self_ms":
            metrics[name] = 1000 * _ratio(self_s[layer], units)
    for engine in ENGINES:
        span = f"hw.core.run.{engine}"
        instructions = counts[span + ".instructions"]
        metrics[span + ".instructions"] = _ratio(instructions, units)
        metrics[span + ".ns_per_instr"] = 1e9 * _ratio(self_s[span],
                                                       instructions)
    metrics["analysis.cache_hit_ratio"] = _ratio(
        counts["analysis_cache_hits"],
        counts["analysis_cache_hits"] + counts["analysis_cache_misses"])
    metrics["hw.core.decoded_hit_ratio"] = _ratio(
        counts["decoded_hits"], counts["decoded_hits"] + counts["decoded_misses"])
    metrics["hw.trace.step_share"] = _ratio(
        counts["trace_steps"], counts["hw.core.run.trace.instructions"])
    metrics["hw.batch.lane_steps"] = _ratio(counts["lane_steps"], units)
    metrics["hw.batch.vector_share"] = _ratio(
        counts["lane_steps_vector"], counts["lane_steps"])
    metrics["hw.cache.l1d_hit_ratio"] = _ratio(
        exact["sim.l1d_hits"], exact["sim.l1d_hits"] + exact["sim.l1d_misses"])
    metrics["hw.cache.tlb_hit_ratio"] = _ratio(
        exact["sim.tlb_hits"], exact["sim.tlb_hits"] + exact["sim.tlb_misses"])
    metrics["hw.core.mispredict_ratio"] = _ratio(
        exact["sim.mispredictions"], exact["sim.predictions"])
    waits = [wait for sim in traced.sims for wait in sim["queue_waits"]]
    outcomes: Counter = Counter()
    for sim in traced.sims:
        outcomes.update(sim["outcomes"])
    requests = sum(outcomes.values())
    metrics["serve.sim_queue_wait_p99_cycles"] = (
        nearest_rank(waits, 99) if waits else 0)
    metrics["serve.backpressure_share"] = _ratio(
        outcomes["rejected_backpressure"], requests)
    metrics["serve.admission_reject_share"] = _ratio(
        outcomes["rejected_admission"], requests)
    metrics["bench.unattributed_share"] = 1 - _ratio(
        covered, sum(traced.seconds))
    metrics["bench.tracing_overhead"] = _ratio(
        untraced.work_per_s, traced.work_per_s) - 1
    return metrics


def setup_probe(workload_name: str, seed: int) -> int:
    """Body of a set-up probe: import, generate the first units' inputs,
    then print the monotonic time at which a timed unit could start."""
    clock = time.perf_counter
    start = clock()
    import numpy  # noqa: F401
    numpy_done = clock()
    import networkx  # noqa: F401
    networkx_done = clock()
    workload = WORKLOADS[workload_name]()
    workload.imports()
    repro_done = clock()
    units = workload.plan(seed)
    for _ in range(WARMUP_UNITS + workload.sim_units):
        next(units)
    print(json.dumps({
        "ready": clock(),
        "import_numpy_s": numpy_done - start,
        "import_networkx_s": networkx_done - numpy_done,
        "import_repro_s": repro_done - networkx_done,
    }))
    return 0


def measure_setup(workload_name: str, seed: int) -> list[dict]:
    """Set-up of fresh interpreters: from process launch until the first
    timed unit could start.  ``perf_counter`` is system-wide monotonic on
    Linux, so the child's ready time compares with the launch time.  Each
    probe is scaled to reference host speed by calibrations taken just
    before and after it."""
    setups = []
    for _ in range(SETUP_PROBES):
        before = statistics.median(hostspeed.calibrate() for _ in range(3))
        launched = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        info = json.loads(probe.stdout.strip().splitlines()[-1])
        after = statistics.median(hostspeed.calibrate() for _ in range(3))
        info["raw_setup_s"] = info.pop("ready") - launched
        info["setup_s"] = (info["raw_setup_s"] * hostspeed.REFERENCE_S
                           / ((before + after) / 2))
        setups.append(info)
    return setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    workload = WORKLOADS[args.workload]()
    workload.imports()
    setups = measure_setup(args.workload, args.seed)
    units = enumerate(workload.plan(args.seed))
    for _ in range(WARMUP_UNITS):
        workload.run(next(units)[1])

    problems = []
    if args.trace:
        recorder = Recorder(trace=True)
        phases = measure(workload, units, args.seconds,
                         min(workload.sim_units, TRACE_SIM_UNITS),
                         (recorder, Recorder(trace=False)))
        metrics = per_layer_metrics(workload, *phases, recorder, setups)
        units_table = PER_LAYER
        calls, _, _ = recorder.self_times()
        for layer in REQUIRED_LAYERS[args.workload]:
            if not calls[layer]:
                problems.append(f"layer {layer} recorded no calls")
        spans_dir = os.path.join(ROOT, ".e2ebench")
        os.makedirs(spans_dir, exist_ok=True)
        recorder.write_spans(
            os.path.join(spans_dir, f"spans-{args.workload}.tsv"))
    else:
        phases = measure(workload, units, args.seconds, workload.sim_units,
                         (Recorder(trace=False),))
        phase = phases[0]
        metrics = end_to_end_metrics(workload, phase, setups)
        units_table = END_TO_END
        beyond = sum(1 for seconds in phase.normalized
                     if seconds * 1000 > metrics["unit_p90_ms"])
        raw_ms = [seconds * 1000 for seconds in phase.seconds]
        print(f"{len(phase.seconds)} timed units, {beyond} beyond p90; "
              f"unscaled host time: work_per_s "
              f"{_ratio(sum(phase.work), sum(phase.seconds)):.6g}, unit "
              f"p50 {statistics.median(raw_ms):.6g} ms, p90 "
              f"{nearest_rank(raw_ms, 90):.6g} ms, setup "
              f"{statistics.median(s['raw_setup_s'] for s in setups):.6g} s")

    for problem in problems:
        print(problem, file=sys.stderr)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for name, unit in units_table:
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
