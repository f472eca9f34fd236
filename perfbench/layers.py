"""Per-layer wall-clock attribution, installed from outside the program.

The traced run wraps the public functions at each layer boundary of
``repro`` (and a few private router and worker methods at the fleet
boundary, which has no public ones) with a timer
that keeps a stack of open frames.  A frame's *self* time is its
duration minus the durations of the wrapped calls nested inside it, so
self times never double count and, together with the unattributed
remainder, add up to the traced wall time.

The wrappers replace attributes on classes and modules; :meth:`uninstall`
puts the originals back.  Timing happens only while ``active`` is set,
which lives in shared memory: fleet workers forked after installation
inherit the wrappers and follow the same switch.  Each forked worker
starts with empty totals and writes them to ``dump_dir`` when it exits,
so the parent can fold worker-side layers into the report.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_ns = time.perf_counter_ns


class LayerTracer:
    """Self-time totals and counts per named layer, for one process."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self._flag = multiprocessing.RawValue("b", 0)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.calls = 0
        self._stack: List[list] = []
        self._thread = threading.get_ident()
        self._patches: List[tuple] = []
        self.dump_dir = dump_dir
        if dump_dir is not None:
            multiprocessing.util.register_after_fork(self, LayerTracer._after_fork)

    # -- switch -------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._flag.value)

    @active.setter
    def active(self, on: bool) -> None:
        self._flag.value = 1 if on else 0

    def attributed_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    # -- fleet workers ------------------------------------------------------

    def _after_fork(self) -> None:
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self.calls = 0
        self._stack = []
        self._thread = threading.get_ident()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(
                {"self_ns": self.self_ns, "counts": self.counts, "calls": self.calls},
                fh,
            )

    def worker_dumps(self) -> List[dict]:
        """Totals written by exited fleet workers (empty outside fleet)."""
        if self.dump_dir is None:
            return []
        out = []
        for name in sorted(os.listdir(self.dump_dir)):
            with open(os.path.join(self.dump_dir, name)) as fh:
                out.append(json.load(fh))
        return out

    # -- wrapping -----------------------------------------------------------

    def timed(
        self,
        fn: Callable,
        layer: Optional[Callable[..., Optional[str]]] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """A timing/counting wrapper around ``fn``.

        ``layer(*args, **kwargs)`` names the frame to open (None: open
        none, the call's time stays with the enclosing frame);
        ``count(counts, result, *args, **kwargs)`` bumps counters after
        the call returns.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._flag.value or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            tracer.calls += 1
            name = layer(*args, **kwargs) if layer is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                frame = [name, 0]
                stack = tracer._stack
                stack.append(frame)
                t0 = _ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = _ns() - t0
                    stack.pop()
                    tracer.self_ns[name] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
            if count is not None:
                count(tracer.counts, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr: str, layer=None, count=None) -> None:
        """Replace the function ``owner.attr`` (a module or class
        attribute) with :meth:`timed` around it."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, layer, count))

    def replace_item(self, mapping: dict, key, value) -> None:
        """Swap one entry of a module-level table (restored on uninstall)."""
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _const(name: str) -> Callable[..., str]:
    return lambda *a, **k: name


def _bump(key: str) -> Callable:
    def bump(counts, *a, **k):
        counts[key] += 1
    return bump


def install(tracer: LayerTracer) -> None:
    """Wrap every layer boundary named in the README's layer table."""
    from repro.core import passes
    from repro.core.pipeline import TransformPipeline
    from repro.cpusim.recursive import RecursiveInterpreter
    from repro.fleet import wire, worker
    from repro.fleet.logs import FleetLogAssembler
    from repro.fleet.router import FleetRouter
    from repro.fleet.tracing import FleetTraceAssembler
    from repro.gpusim.executors import AutoropesExecutor, LockstepExecutor
    from repro.gpusim.executors.recursive_exec import _RecursiveBase
    from repro.harness import runner
    from repro.service import dispatch, service, sessions
    from repro.service.dispatch import AdaptiveDispatcher
    from repro.service.memo import TraversalMemo
    from repro.service.service import TraversalService

    # repro.apps / repro.trees: app builders (tree build + linearize).
    build = _const("trees.build_s")
    for name in ("build_pointcorr_app", "build_knn_app", "build_nn_app",
                 "build_vptree_app", "build_barneshut_app"):
        tracer.wrap(runner, name, build)
    for key, adapter in list(sessions.ADAPTERS.items()):
        timed = dataclasses.replace(adapter, build=tracer.timed(adapter.build, build))
        tracer.replace_item(sessions.ADAPTERS, key, timed)
    tracer.wrap(runner, "dataset_by_name", _const("points.dataset_s"))

    # repro.points: batch and input sorting.
    sort = _const("points.sort_s")
    for module in (runner, service):
        tracer.wrap(module, "morton_order", sort)
    tracer.wrap(service, "kd_bucket_order", sort)

    # repro.core: plan compilation (PlanCache misses) and code emission.
    tracer.wrap(TransformPipeline, "compile", _const("core.compile_s"), _bump("core.compiles"))
    tracer.wrap(passes, "compile_step_loop", _const("core.emit_s"), _bump("core.emits"))

    # repro.gpusim: simulated launches.
    def executor_layer(ex):
        if isinstance(ex, _RecursiveBase):
            return "gpusim.recursive_s"
        if isinstance(ex, LockstepExecutor):
            return "gpusim.lockstep_s"
        return "gpusim.autoropes_s"

    def launch_counts(counts, result, ex):
        counts["gpusim.launches"] += 1
        counts["gpusim.steps"] += result.stats.steps
        counts["gpusim.node_visits"] += result.stats.node_visits

    tracer.wrap(LockstepExecutor, "run", executor_layer, launch_counts)
    tracer.wrap(AutoropesExecutor, "run", executor_layer, launch_counts)

    # repro.cpusim: the scalar interpreter (outside similarity probes,
    # which stay with dispatch.profile_s) and the CPU cost model.
    def interp_layer(*a, **k):
        return None if tracer.inside("dispatch.profile_s") else "cpusim.interp_s"

    def interp_points(counts, result, interp, pt):
        if not tracer.inside("dispatch.profile_s"):
            counts["cpusim.interp_points"] += 1

    tracer.wrap(RecursiveInterpreter, "run_point", interp_layer, interp_points)
    tracer.wrap(RecursiveInterpreter, "run_points", interp_layer)
    for module in (runner, dispatch):
        tracer.wrap(module, "cpu_time_ms", _const("cpusim.model_s"))

    # repro.service dispatch: profiling, per-backend execution, retries.
    def batch_counts(counts, decision, disp, sess, coords):
        counts["batcher.batches"] += 1
        counts["batcher.rows"] += len(coords)

    tracer.wrap(AdaptiveDispatcher, "decide", None, batch_counts)
    tracer.wrap(
        AdaptiveDispatcher, "profile", _const("dispatch.profile_s"),
        _bump("dispatch.profile_calls"),
    )

    def exec_layer(disp, sess, coords, backend, *a, **k):
        return f"dispatch.exec_s.{backend}"

    def exec_counts(counts, result, disp, sess, coords, backend, *a, **k):
        counts[f"dispatch.batches.{backend}"] += 1

    tracer.wrap(AdaptiveDispatcher, "execute", exec_layer, exec_counts)

    def retries(counts, r, *a, **k):
        counts["dispatch.retries"] += r.attempts - 1

    tracer.wrap(AdaptiveDispatcher, "execute_resilient", None, retries)

    # repro.service front end, batcher and memo.
    tracer.wrap(TraversalService, "query_many", _const("service.self_s"))

    def memo_counts(counts, result, *a, **k):
        counts["memo.lookups"] += 1
        counts["memo.hits"] += result is not None

    tracer.wrap(TraversalMemo, "lookup", None, memo_counts)

    # repro.fleet: the router's side of the wire, routing and scatter.
    tracer.wrap(wire, "send_request", _const("fleet.send_s"))
    tracer.wrap(wire, "recv_reply", _const("fleet.recv_wait_s"))
    tracer.wrap(FleetRouter, "_routed_submit", None, _bump("fleet.routed"))

    def scatter_counts(counts, result, router, session, coords, *a, **k):
        counts["fleet.scattered"] += 1
        counts["fleet.scatter_rows"] += len(coords)

    tracer.wrap(FleetRouter, "_scatter_submit", None, scatter_counts)

    # Worker side of the fleet: one submit frame (the service's submit
    # and flush), and the telemetry piggybacked onto its reply.
    tracer.wrap(worker, "_handle_submit", _const("fleet.worker_submit_s"))
    tracer.wrap(worker, "_attach_spans", _const("telemetry.attach_s"))

    # repro.telemetry: span and log assembly in the router.
    convert = _const("telemetry.convert_s")
    tracer.wrap(FleetRouter, "_ingest_spans", convert)
    tracer.wrap(FleetRouter, "_ingest_logs", convert)

    def ingested(key):
        def bump(counts, n, *a, **k):
            counts[key] += n
        return bump

    tracer.wrap(
        FleetTraceAssembler, "ingest", _const("telemetry.span_ingest_s"),
        ingested("telemetry.spans_ingested"),
    )
    tracer.wrap(
        FleetLogAssembler, "ingest", _const("telemetry.log_ingest_s"),
        ingested("telemetry.logs_ingested"),
    )
