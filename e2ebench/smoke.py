"""Smoke test of the benchmark: a few units of every workload.

Run from the repository root::

    python3 e2ebench/smoke.py

For each workload it makes two short untraced runs and two short traced
runs on the same seed, and checks that every metric ``BENCHMARK.json``
names appears with its unit and that the modelled (simulated-time)
metrics repeat exactly.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import workloads

#: Metrics computed from simulated time only: equal across runs of one
#: seed, and unchanged by any change that only speeds up the simulator.
EXACT = {
    0: ("sim_latency_p99_cycles", "sim_throughput_rpmc", "sim_cpi"),
    1: ("hw.cache.l1d_hit_ratio", "hw.cache.tlb_hit_ratio",
        "hw.core.mispredict_ratio", "serve.sim_queue_wait_p99_cycles",
        "serve.backpressure_share", "serve.admission_reject_share"),
}


def short_run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0.5", "--trace", str(trace)])
    if code != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    run.SETUP_PROBES = 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {metric["name"]: metric["unit"] for metric in bench["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in bench["per_layer"]},
    }
    failures = []
    for name, workload in workloads.WORKLOADS.items():
        workload.sim_units = 3
        for trace in (0, 1):
            first, second = short_run(name, trace), short_run(name, trace)
            for result in (first, second):
                units = {metric: value["unit"]
                         for metric, value in result["metrics"].items()}
                if units != expected[trace]:
                    failures.append(f"{name} --trace {trace}: metrics "
                                    f"{units} != {expected[trace]}")
            for metric in EXACT[trace]:
                values = (first["metrics"][metric]["value"],
                          second["metrics"][metric]["value"])
                if values[0] != values[1]:
                    failures.append(f"{name}: {metric} differs between "
                                    f"runs: {values}")
            print(f"{name} --trace {trace}: attempted "
                  f"{first['attempted']}+{second['attempted']} units")
    for failure in failures:
        print(failure, file=sys.stderr)
    print("smoke: FAIL" if failures else "smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
