"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload {paper,serve,fleet} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run (see README.md).  ``--write-reference`` (``paper`` only)
rewrites ``paper_reference.json`` instead of checking against it; use
it only for a change that deliberately corrects the simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: per-layer self times (s), counts, and the trace's own accounting.
LAYER_TIMES = (
    "trees.build_s", "points.dataset_s", "points.sort_s",
    "core.compile_s", "core.emit_s",
    "gpusim.lockstep_s", "gpusim.autoropes_s", "gpusim.recursive_s",
    "cpusim.interp_s", "cpusim.model_s",
    "dispatch.profile_s", "dispatch.exec_s.lockstep",
    "dispatch.exec_s.nonlockstep", "dispatch.exec_s.cpu",
    "service.self_s",
    "fleet.send_s", "fleet.recv_wait_s", "fleet.worker_submit_s",
    "telemetry.attach_s", "telemetry.convert_s",
    "telemetry.span_ingest_s", "telemetry.log_ingest_s",
)
LAYER_COUNTS = (
    "core.compiles", "core.emits",
    "gpusim.launches", "gpusim.steps", "gpusim.node_visits",
    "cpusim.interp_points",
    "dispatch.profile_calls", "dispatch.batches.lockstep",
    "dispatch.batches.nonlockstep", "dispatch.batches.cpu", "dispatch.retries",
    "batcher.batches", "memo.lookups", "memo.hits",
    "fleet.routed", "fleet.scattered", "fleet.scatter_rows",
    "telemetry.spans_ingested", "telemetry.logs_ingested",
)
TRACE_METRICS = {
    "batcher.queries_per_batch": "count",
    "memo.hit_pct": "%",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.remainder_s": "s",
    "trace.worker_attributed_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.wrapped_calls": "count",
}
LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    **TRACE_METRICS,
}


@dataclasses.dataclass
class Phase:
    """What one timed phase did: op wall times, points and units."""

    wall: float = 0.0
    points: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = dataclasses.field(default_factory=list)
    #: points per second of each round.
    round_rates: List[float] = dataclasses.field(default_factory=list)

    @property
    def rate(self) -> float:
        """The median round's rate: a round that a slow spell of the
        machine caught does not move it."""
        return statistics.median(self.round_rates)


def measure(workload, seconds: float, min_ops: int, tracer=None) -> Phase:
    """Whole rounds, closed loop, until the ops' wall time reaches
    ``seconds`` and ``min_ops`` ops ran (at least one round); each
    answer is checked after its op's clock stops."""
    phase = Phase()
    while True:
        wall0, points0 = phase.wall, phase.points
        for op in workload.round():
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception:  # counted as failed, the run goes on
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            phase.wall += dt
            phase.latencies.append(dt)
            phase.attempted += op.units
            if error is not None:
                print(error, file=sys.stderr)
                phase.failed += op.units
                continue
            points, failed = op.check(result)
            phase.points += points
            phase.failed += failed
        phase.round_rates.append((phase.points - points0) / (phase.wall - wall0))
        if phase.wall >= seconds and len(phase.latencies) >= min_ops:
            return phase


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(setups: List[float], phase: Phase, rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "points_per_s": phase.rate,
        "latency_p50_ms": 1e3 * percentile(phase.latencies, 50),
        "latency_p95_ms": 1e3 * percentile(phase.latencies, 95),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, setup_s: float, base: Phase, traced: Phase) -> Dict[str, float]:
    self_ns = dict(tracer.self_ns)
    counts = dict(tracer.counts)
    calls = tracer.calls
    worker_ns = 0
    for dump in tracer.worker_dumps():
        for name, ns in dump["self_ns"].items():
            self_ns[name] = self_ns.get(name, 0) + ns
            worker_ns += ns
        for name, n in dump["counts"].items():
            counts[name] = counts.get(name, 0) + n
        calls += dump["calls"]
    out = {name: self_ns.get(name, 0) / 1e9 for name in LAYER_TIMES}
    out.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    unknown = set(self_ns) - set(LAYER_TIMES)
    if unknown:
        raise RuntimeError(f"layers missing from the report: {sorted(unknown)}")
    batches = counts.get("batcher.batches", 0)
    lookups = counts.get("memo.lookups", 0)
    wall = setup_s + traced.wall
    attributed = tracer.attributed_s()
    overhead = traced.wall - traced.points / base.rate
    out.update({
        "batcher.queries_per_batch": counts.get("batcher.rows", 0) / batches if batches else 0.0,
        "memo.hit_pct": 100.0 * counts.get("memo.hits", 0) / lookups if lookups else 0.0,
        "trace.wall_s": wall,
        "trace.attributed_s": attributed,
        "trace.remainder_s": wall - attributed,
        "trace.worker_attributed_s": worker_ns / 1e9,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / (traced.wall - overhead),
        "trace.wrapped_calls": calls,
    })
    return out


def run(args) -> int:
    sys.path.insert(0, SRC)
    import layers
    from checks import WrongAnswer
    from workloads import WORKLOADS, Paper

    if args.write_reference:
        workload = Paper(args.seed, write_reference=True)
    else:
        workload = WORKLOADS[args.workload](args.seed)
    # Import the program before the first timed call.
    import repro.fleet.router, repro.harness.runner, repro.service.service  # noqa: E401,F401

    tracer = dump_dir = None
    if args.trace:
        if args.workload == "fleet":
            dump_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        tracer = layers.LayerTracer(dump_dir)
        layers.install(tracer)
    try:
        setups = []
        for i in range(1 if args.trace else workload.setup_repeats):
            if i:
                workload.discard()
            gc.collect()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
        workload.prepare()
        gc.collect()
        if args.write_reference:
            phase = measure(workload, 0.0, workload.min_ops)
        elif args.trace:
            # Half the run untraced, as the baseline of the overhead.
            half = args.seconds / 2, workload.min_ops // 2
            base = measure(workload, *half)
            phase = measure(workload, *half, tracer)
        else:
            phase = measure(workload, args.seconds, workload.min_ops)
        rss_mb = workload.peak_rss_mb()
        workload.finish()
        if args.trace:
            metrics, units = per_layer(tracer, setups[0], base, phase), LAYER_UNITS
        else:
            metrics, units = end_to_end(setups, phase, rss_mb), END_TO_END
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
        if dump_dir is not None:
            shutil.rmtree(dump_dir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("paper", "serve", "fleet"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite paper_reference.json (paper only)")
    args = parser.parse_args(argv)
    if args.write_reference and (args.workload != "paper" or args.trace):
        parser.error("--write-reference goes with --workload paper --trace 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}: run from the repository root",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
