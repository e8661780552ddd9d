"""The three benchmark workloads, driven through the program's public API.

Each workload turns ``(seed, position)`` into one unit of work, runs it,
says how much work it did, checks its output (outside the timed
interval), and reports the simulated-time record the ``sim_*`` metrics
are built from.  Nothing here changes the program: units call the same
functions ``repro serve`` and ``repro fuzz`` call, and guest-kernels
sets up its machines and probe lanes the way ``repro.core.bench`` and
``repro.fuzz.oracles`` do.

Why each workload exists, and which end-to-end metric each layer should
move on it, is recorded in ``README.md`` beside this file;
``REQUIRED_LAYERS`` below is the machine-checked part of that map.
"""

from __future__ import annotations

import random

#: Span names that must record calls on a workload in a traced run: the
#: layers the workload is documented to exercise.
REQUIRED_LAYERS = {
    "serve-mix": (
        "analysis.analyze_program", "hw.machine.build", "hw.machine.scrub",
        "hw.machine.load_program", "hw.core.run.trace",
        "hw.trace.compile_trace", "serve.run_cell", "serve.pool.init",
        "serve.report.assemble",
    ),
    "fuzz-oracles": (
        "analysis.analyze_program", "analysis.analyze_taint",
        "hw.machine.build", "hw.machine.load_program",
        "hw.core.run.reference", "hw.core.run.trace", "hw.batch.run",
        "fleet.checkpoint.capture", "fleet.checkpoint.restore",
        "fuzz.gen.next_program", "fuzz.oracles.check_program",
    ),
    "guest-kernels": (
        "hw.machine.build", "hw.machine.load_program",
        "hw.core.run.reference", "hw.core.run.fast", "hw.core.run.trace",
        "hw.trace.compile_trace", "hw.batch.run",
    ),
}


def unit_seeds(seed: int):
    """Yield distinct 32-bit unit seeds derived from ``seed``.

    The run's warm-up units take the first few, the measured units the
    rest.  No seed repeats within a run, so the program's analysis and
    trace caches see campaign-like reuse rather than replays of one unit."""
    used: set[int] = set()
    rng = random.Random(seed)
    while True:
        value = rng.randrange(2 ** 32)
        if value not in used:
            used.add(value)
            yield value


def nearest_rank(values, q: int):
    """Nearest-rank percentile, as ``repro.serve/1`` computes latency."""
    ordered = sorted(values)
    rank = min(max((q * len(ordered) + 99) // 100, 1), len(ordered))
    return ordered[rank - 1]


class ServeMix:
    """One unit = one 50-request seeded cell through ``run_serve``."""

    name = "serve-mix"
    #: Units whose simulated records make up the ``sim_*`` metrics: the
    #: first this-many of every run, so those metrics repeat exactly.
    #: The p99 of request latency needs thousands of requests before it
    #: stops moving with the seed.
    sim_units = 200
    load = 50
    #: Every this-many-th unit is re-run on the reference engine.
    reference_every = 8

    def imports(self) -> None:
        from repro.serve import ServiceConfig, run_serve

        self._run_serve = run_serve
        self._config = ServiceConfig

    def plan(self, seed: int):
        return unit_seeds(seed)

    def run(self, spec: int) -> dict:
        return self._run_serve(spec, self.load)

    def work(self, report: dict) -> int:
        return sum(report["outcomes"].values())

    def check(self, position: int, spec: int, report: dict) -> list[str]:
        problems = []
        outcomes = sum(report["outcomes"].values())
        per_tenant = sum(t["requests"] for t in report["tenants"].values())
        if not outcomes == per_tenant == report["requests"] == self.load:
            problems.append(
                f"request conservation: load {self.load}, outcomes "
                f"{outcomes}, tenants {per_tenant}, report "
                f"{report['requests']}")
        if not report["isolation"]["all_isolated"]:
            problems.append(f"isolation: {report['isolation']['violations']}")
        if position % self.reference_every == 0:
            reference = self._run_serve(
                spec, self.load, config=self._config(engine="reference"))
            if _without(reference, "engine") != _without(report, "engine"):
                problems.append("reference-engine rerun differs")
        return problems

    def sim(self, report: dict, census) -> dict:
        (cell,) = census.cells
        arrivals = {record["index"]: record["arrival"]
                    for record in cell["records"]}
        return {
            "latencies": cell["latencies"],
            "served": report["serviced"],
            "span_cycles": report["makespan_cycles"],
            "runs": census.runs,
            "queue_waits": [entry["vtime"] - arrivals[entry["request"]]
                            for entry in cell["schedule"]],
            "outcomes": report["outcomes"],
        }


class FuzzOracles:
    """One unit = a 4-program seeded batch through ``run_fuzz``."""

    name = "fuzz-oracles"
    #: Generated programs vary widely in simulated cost, so the simulated
    #: metrics need many units before they stop moving with the seed.
    sim_units = 200
    programs = 4

    def imports(self) -> None:
        from repro.fuzz.campaign import run_fuzz

        self._run_fuzz = run_fuzz

    def plan(self, seed: int):
        return unit_seeds(seed)

    def run(self, spec: int) -> dict:
        return self._run_fuzz(spec, self.programs, batch_size=self.programs)

    def work(self, report: dict) -> int:
        return report["totals"]["programs"]

    def check(self, position: int, spec: int, report: dict) -> list[str]:
        totals = report["totals"]
        problems = []
        if totals["programs"] != self.programs:
            problems.append(f"ran {totals['programs']} programs")
        if not totals["all_passed"] or totals["divergences"]:
            problems.append(f"divergences: {totals['divergence_index']}")
        return problems

    def sim(self, report: dict, census) -> dict:
        return _guest_run_sim(census.runs)


class GuestKernels:
    """One unit = an ALU loop and a strided-memory loop on each scalar
    engine, plus eight fuzz noninterference-probe lanes through
    ``LockstepBatch``.

    The engines differ about twentyfold in host time per instruction, so
    each runs the loops at its own length (``scale``): the reference
    engine the shortest, the trace engine the longest.  Each of the four
    pieces then takes a similar share of the unit and none dominates it.
    """

    name = "guest-kernels"
    sim_units = 12
    #: Loop length per engine, as a multiple of the base iteration count.
    scale = {"reference": 1, "fast": 3, "trace": 16}
    alu_base = (240, 244, 248, 252, 256, 260, 264, 268)
    stride_base = 150
    strides = (5, 7, 11, 13, 19, 23, 29, 31)
    lanes = 8

    def imports(self) -> None:
        from repro.core import bench
        from repro.fuzz import gen, oracles
        from repro.hw import machine
        from repro.hw.batch import LockstepBatch
        from repro.hw.isa import Program

        self._bench = bench
        self._gen = gen
        self._oracles = oracles
        self._machine = machine
        self._batch = LockstepBatch
        self._program = Program
        #: Reference-engine results by loop, so the check runs each
        #: distinct loop on the reference engine once per run.
        self._reference: dict = {}

    def plan(self, seed: int):
        probe = self._bench.batch_noninterference_program().words
        for unit_seed in unit_seeds(seed):
            rng = random.Random(unit_seed)
            alu, stride = rng.choice(self.alu_base), rng.choice(self.strides)
            yield {
                "loops": {
                    engine: [("alu", alu * scale, None),
                             ("stride", self.stride_base * scale, stride)]
                    for engine, scale in self.scale.items()
                },
                "probe": probe,
                "probe_steps": 2000 + rng.randrange(160),
                # Variant 0 (an all-zero secret) keeps the divergent
                # branch of the probe program live in every unit.
                "variants": [0] + rng.sample(range(1, 1000), self.lanes - 1),
            }

    def _scalar(self, loop, engine: str) -> dict:
        kind, iterations, stride = loop
        if kind == "alu":
            program = self._bench.alu_loop_program(iterations)
        else:
            program = self._bench.memory_stride_program(
                iterations, 4 * 64 - 1, stride)
        machine = self._machine.build_guillotine_machine(
            self._machine.MachineConfig(
                n_model_cores=1, n_hv_cores=1, model_dram_pages=16,
                hv_dram_pages=4, io_dram_pages=2))
        machine.set_fast_path(engine != "reference")
        machine.set_traces(engine == "trace")
        core = machine.model_cores[0]
        layout = machine.load_program(core, program, data_pages=4)
        if kind == "stride":
            core.poke_register(7, layout["data_vaddr"])
        core.resume()
        steps = core.run(max_steps=1_000_000)
        return _lane_state(machine, core, steps)

    def _probe_lanes(self, spec: dict) -> list:
        """Fuzz noninterference-probe machines, one per secret variant,
        set up as ``repro.fuzz.oracles`` sets up its probes."""
        lanes = []
        for variant in spec["variants"]:
            machine = self._machine.build_guillotine_machine(
                self._oracles.fuzz_guillotine_config())
            core = machine.model_cores[0]
            layout = machine.load_program(
                core, self._program(list(spec["probe"]), {}),
                data_pages=self._gen.DATA_PAGES, map_io_region=True)
            machine.banks["model_dram"].load_words(
                self._gen.SECRET_VADDR, self._oracles.secret_fill(variant))
            machine.control_bus.lockdown_mmu(
                core.name, 0, layout["code_pages"] - 1)
            core.resume()
            lanes.append((machine, core))
        return lanes

    def run(self, spec: dict) -> dict:
        scalar = {
            engine: [self._scalar(loop, engine) for loop in loops]
            for engine, loops in spec["loops"].items()
        }
        lanes = self._probe_lanes(spec)
        result = self._batch([core for _, core in lanes]).run(
            max_steps=spec["probe_steps"])
        batch = [_lane_state(machine, core, steps)
                 for (machine, core), steps in zip(lanes, result.steps)]
        return {"scalar": scalar, "batch": batch}

    def work(self, result: dict) -> int:
        return sum(state["instructions_retired"]
                   for state in _all_states(result))

    def check(self, position: int, spec: dict, result: dict) -> list[str]:
        problems = []
        for engine, loops in spec["loops"].items():
            for loop, state in zip(loops, result["scalar"][engine]):
                if loop not in self._reference:
                    self._reference[loop] = (
                        state if engine == "reference"
                        else self._scalar(loop, "reference"))
                if state != self._reference[loop]:
                    problems.append(f"{engine} engine differs from "
                                    f"reference on {loop}")
        scalar_lanes = [
            _lane_state(machine, core, core.run(max_steps=spec["probe_steps"]))
            for machine, core in self._probe_lanes(spec)
        ]
        if result["batch"] != scalar_lanes:
            problems.append("batch lanes differ from scalar execution")
        return problems

    def sim(self, result: dict, census) -> dict:
        return _guest_run_sim([
            (state["cycles"], state["instructions_retired"])
            for state in _all_states(result)
        ])


WORKLOADS = {cls.name: cls for cls in (ServeMix, FuzzOracles, GuestKernels)}


def _without(report: dict, key: str) -> dict:
    return {name: value for name, value in report.items() if name != key}


def _lane_state(machine, core, steps: int) -> dict:
    return {
        "steps": steps,
        "state": core.state.name,
        "pc": core.pc,
        "registers": list(core.registers),
        "cycles": machine.clock.now,
        "instructions_retired": core.instructions_retired,
        "faults": core.faults,
    }


def _all_states(result: dict):
    for states in result["scalar"].values():
        yield from states
    yield from result["batch"]


def _guest_run_sim(runs) -> dict:
    """Simulated record for workloads without requests: every guest run
    is one "request" whose latency is its simulated cycle count."""
    runs = list(runs)
    return {
        "latencies": [cycles for cycles, _ in runs],
        "served": len(runs),
        "span_cycles": sum(cycles for cycles, _ in runs),
        "runs": runs,
        "queue_waits": [],
        "outcomes": {},
    }
