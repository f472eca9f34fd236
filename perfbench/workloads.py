"""The benchmark's workloads: ``paper``, ``serve`` and ``fleet``.

Each workload builds its inputs from the seed, calls only the program's
public entry points with their default settings, and hands the harness
in ``run.py`` whole rounds of operations.  An :class:`Op` is one timed
call into the program plus the check of its answer, which runs after
the clock has stopped.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from checks import Reference, WrongAnswer

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_REFERENCE = os.path.join(HERE, "paper_reference.json")


@dataclasses.dataclass
class Op:
    """One operation: ``call`` is timed, ``check(result)`` is not.

    ``check`` returns ``(points answered, units failed)`` and raises
    :class:`WrongAnswer` on a wrong answer; ``units`` is what the
    operation counts toward ``attempted``.
    """

    call: Callable[[], Any]
    check: Callable[[Any], Tuple[int, int]]
    units: int


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    #: set-ups per run; setup_s is their median, the last one is served.
    setup_repeats = 5
    #: fewest operations a run times, whatever ``--seconds`` says.
    min_ops = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        """Every call into the program until it is ready to serve."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release a set-up that will not be served."""

    def prepare(self) -> None:
        """Benchmark-side references for the served set-up (untimed)."""

    def round(self) -> List[Op]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def finish(self) -> None:
        """Shut down; raise if the program did not stop cleanly."""

    def close(self) -> None:
        """Stop whatever is still running (after an error, too)."""


# -- paper ------------------------------------------------------------------

#: harness cells: an unguided app and a guided, annotated one, each in
#: sorted and unsorted point order, and a vantage-point tree cell.  With
#: five cells the p50 of a run's cell times is the middle cell's, not a
#: boundary between two cells.
PAPER_CELLS = (
    ("pc", "geocity", True),
    ("pc", "geocity", False),
    ("nn", "covtype", True),
    ("nn", "covtype", False),
    ("vp", "geocity", True),
)
PAPER_SCALE = "small"
#: the harness's own input seed: the cells' inputs are the evaluation's
#: data sets, so their simulated results can be pinned in one digest.
PAPER_INPUT_SEED = 0
#: points per cell and round whose autoropes visit sequence is compared
#: with the recursive interpreter (the Section 3.3 property).
PAPER_SEQUENCE_SAMPLE = 16


def cell_name(cell) -> str:
    bench, input_name, sorted_points = cell
    return f"{bench}/{input_name}/{'sorted' if sorted_points else 'unsorted'}"


def simulated_record(result) -> Dict[str, Any]:
    """The simulated results of one cell that no optimisation may move."""
    record: Dict[str, Any] = {}
    for variant in (result.nonlockstep, result.lockstep,
                    result.recursive_lockstep, result.recursive_nonlockstep):
        if variant is None:
            continue
        stats = variant.result.stats
        record[variant.variant] = {
            "model_time_ms": variant.time_ms,
            "node_visits": int(stats.node_visits),
            "warp_node_visits": int(stats.warp_node_visits),
            "steps": int(stats.steps),
        }
    record["cpu_ms"] = {str(t): ms for t, ms in sorted(result.cpu_ms.items())}
    return record


class Paper(Workload):
    """``ExperimentRunner.run`` over :data:`PAPER_CELLS`."""

    #: two rounds at least: one round takes about as long as a run's
    #: ``--seconds``, and the run length must not flip between one
    #: round and two.
    min_ops = 2 * len(PAPER_CELLS)

    def __init__(self, seed: int, write_reference: bool = False) -> None:
        super().__init__(seed)
        self.write_reference = write_reference
        self.records: Dict[str, Any] = {}
        self.expected: Optional[Dict[str, Any]] = None
        if not write_reference:
            with open(PAPER_REFERENCE) as fh:
                self.expected = json.load(fh)["cells"]

    def setup(self) -> None:
        from repro.harness.config import SCALES
        from repro.harness.runner import ExperimentRunner

        self.runner = ExperimentRunner(scale=SCALES[PAPER_SCALE], seed=PAPER_INPUT_SEED)
        for cell in PAPER_CELLS:
            self.runner.app_for(*cell)

    def prepare(self) -> None:
        self.cells = {}
        for cell in PAPER_CELLS:
            app, compiled = self.runner.app_for(*cell)
            data = np.empty_like(app.queries.coords)
            data[app.queries.orig_ids] = app.queries.coords
            captured: List = []
            make_ctx = app.make_ctx

            def capture(make_ctx=make_ctx, captured=captured):
                ctx = make_ctx()
                captured.append(ctx)
                return ctx

            # Observe each launch's output arrays: the harness makes one
            # fresh context per launch through this factory.
            app.make_ctx = capture
            self.cells[cell] = {
                "app": app,
                "make_ctx": make_ctx,
                "captured": captured,
                "launches": 4 if compiled.lockstep is not None else 3,
                "reference": Reference(
                    cell[0], data,
                    np.sqrt(app.params["radius_sq"]) if cell[0] == "pc" else None,
                ),
            }

    def round(self) -> List[Op]:
        order = self.rng.permutation(len(PAPER_CELLS))
        return [self._op(PAPER_CELLS[i]) for i in order]

    def _op(self, cell) -> Op:
        state = self.cells[cell]

        def call():
            state["captured"].clear()
            return self.runner.run(*cell)

        def check(result) -> Tuple[int, int]:
            app = state["app"]
            ctxs = list(state["captured"])
            if len(ctxs) != state["launches"]:
                raise WrongAnswer(
                    f"{cell_name(cell)}: {len(ctxs)} launches, expected {state['launches']}"
                )
            for ctx in ctxs:
                state["reference"].check(
                    app.queries.coords, ctx.out, self_ids=app.queries.orig_ids
                )
            self._check_sequences(cell, result)
            record = simulated_record(result)
            name = cell_name(cell)
            expected = self.records.get(name)
            if self.expected is not None:
                expected = self.expected.get(name)
            if expected is not None and record != expected:
                raise WrongAnswer(
                    f"{name}: simulated results differ from {PAPER_REFERENCE} "
                    f"or from an earlier round: {record} != {expected}"
                )
            self.records[name] = record
            # ExperimentRunner.run memoizes each cell: forget the result
            # so the next round executes the launches again, and free it
            # now so peak memory is one cell's, whatever the cell order.
            self.runner._cache.clear()
            state["captured"].clear()
            gc.collect()
            return len(ctxs) * app.n_points, 0

        return Op(call, check, state["launches"])

    def _check_sequences(self, cell, result) -> None:
        """Section 3.3: autoropes visits nodes in the recursive order."""
        from repro.cpusim.recursive import RecursiveInterpreter

        state = self.cells[cell]
        app = state["app"]
        sequences = result.nonlockstep.result.per_point_sequences()
        interp = RecursiveInterpreter(app.spec, app.tree, state["make_ctx"]())
        for pt in self.rng.choice(app.n_points, PAPER_SEQUENCE_SAMPLE, replace=False):
            if not np.array_equal(interp.run_point(int(pt)), sequences[pt]):
                raise WrongAnswer(
                    f"{cell_name(cell)}: point {pt}'s autoropes visit sequence "
                    "differs from the recursive interpreter's"
                )

    def finish(self) -> None:
        if self.write_reference:
            with open(PAPER_REFERENCE, "w") as fh:
                json.dump(
                    {"scale": PAPER_SCALE, "input_seed": PAPER_INPUT_SEED,
                     "cells": self.records},
                    fh, indent=1, sort_keys=True,
                )
                fh.write("\n")


# -- serve and fleet ----------------------------------------------------------

#: (session, app, dataset, build kwargs); every session holds N_DATA points.
SESSIONS = (
    ("pc-geocity", "pc", "geocity", {"radius": 0.005}),
    ("knn-covtype", "knn", "covtype", {}),
    ("nn-geocity", "nn", "geocity", {}),
    ("vp-covtype", "vp", "covtype", {}),
)
N_DATA = 2048
#: the sessions' data sets are the harness's data sets at this seed, the
#: same in every run; ``--seed`` drives the request stream.
DATA_SEED = 0
#: query = a random data point plus Gaussian noise of this share of the
#: data's per-dimension spread.
JITTER = 0.01
#: One round of requests, as (session, rows, repeat) units; a repeat
#: unit is followed at once by an exact resend of its request.  Small
#: requests (1-4 rows) stay below the service's min_gpu_batch and run on
#: the CPU backend; medium ones (12, 24) take one GPU launch; bulk k-NN
#: requests (192 rows) fill three batches, and scatter in the fleet.
#: Per round: 8 repeats, 16 small, 8 medium and 4 bulk requests, so the
#: p50 rank falls among the small requests and the p95 rank among the
#: bulk ones, not on a boundary between two classes.
ROUND_UNITS = tuple(
    (name, rows, rows in (2, 12))
    for name, *_ in SESSIONS
    for rows in (1, 2, 3, 4, 12, 24)
) + (("knn-covtype", 192, False),) * 4
#: a run serves whole rounds until it has timed this many requests,
#: so that the p95 has at least ten requests beyond it.
MIN_REQUESTS = 200
WARMUP_ROWS = 16


class Serving(Workload):
    """Shared request stream of ``serve`` and ``fleet``."""

    #: whether repeat units resend their request (serve) or not (fleet,
    #: whose memo stays cold).
    repeats = True
    min_ops = MIN_REQUESTS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.points.datasets import dataset_by_name

        self.data: Dict[str, np.ndarray] = {}
        self.refs: Dict[str, Reference] = {}
        for name, app, dataset, kwargs in SESSIONS:
            points = dataset_by_name(dataset, N_DATA, seed=DATA_SEED).points
            self.data[name] = points
            self.refs[name] = Reference(app, points, kwargs.get("radius"))
        self.scale = {name: JITTER * d.std(axis=0) for name, d in self.data.items()}
        #: warm-up requests of every set-up, checked once set-up is over.
        self.warm_ups: List = []

    def queries(self, session: str, n: int) -> np.ndarray:
        data = self.data[session]
        idx = self.rng.integers(0, len(data), n)
        noise = self.rng.normal(size=(n, data.shape[1])) * self.scale[session]
        return data[idx] + noise

    def _register(self, register) -> None:
        for name, app, _, kwargs in SESSIONS:
            register(name, app, self.data[name], **kwargs)

    def _warm_up(self, submit) -> None:
        for name, *_ in SESSIONS:
            coords = self.queries(name, WARMUP_ROWS)
            self.warm_ups.append((name, coords, submit(name, coords)))

    def prepare(self) -> None:
        for name, coords, reply in self.warm_ups:
            self._check(name, coords, self._rows(reply))
        self.warm_ups.clear()

    def round(self) -> List[Op]:
        requests = []
        for i in self.rng.permutation(len(ROUND_UNITS)):
            name, rows, repeat = ROUND_UNITS[i]
            coords = self.queries(name, rows)
            requests.append((name, coords))
            if repeat and self.repeats:
                requests.append((name, coords))
        return [self._op(name, coords) for name, coords in requests]

    def _op(self, session: str, coords: np.ndarray) -> Op:
        def check(reply) -> Tuple[int, int]:
            rows = self._rows(reply)
            ok = self._check(session, coords, rows)
            return ok, len(coords) - ok

        return Op(lambda: self.submit(session, coords), check, len(coords))

    def _check(self, session: str, coords: np.ndarray, rows: List) -> int:
        """Check the answered rows; returns how many were answered."""
        answered = [i for i, r in enumerate(rows) if r is not None]
        if answered:
            out = {
                key: np.stack([rows[i][key] for i in answered])
                for key in rows[answered[0]]
            }
            self.refs[session].check(coords[answered], out)
        return len(answered)

    def submit(self, session: str, coords: np.ndarray):
        raise NotImplementedError

    def _rows(self, reply) -> List[Optional[Dict[str, np.ndarray]]]:
        raise NotImplementedError


class Serve(Serving):
    """One in-process ``TraversalService`` with its default config."""

    def setup(self) -> None:
        from repro.service.service import TraversalService

        self.service = TraversalService()
        self._register(self.service.register)
        self._warm_up(self.submit)

    def submit(self, session, coords):
        return self.service.query_many(session, coords)

    def _rows(self, tickets):
        return [t.result if t.ok else None for t in tickets]


class Fleet(Serving):
    """A ``FleetRouter`` with one worker per available core."""

    setup_repeats = 3
    repeats = False
    router = None

    def setup(self) -> None:
        from repro.fleet.router import FleetConfig, FleetRouter

        self.router = FleetRouter(FleetConfig(workers=len(os.sched_getaffinity(0))))
        self.router.start()
        self._register(self.router.register)
        self._warm_up(self.submit)

    def discard(self) -> None:
        self.finish()

    def close(self) -> None:
        if self.router is not None:
            self.router.drain()
            self.router = None

    def submit(self, session, coords):
        return self.router.submit_many(session, coords)

    def _rows(self, replies):
        return [r["result"] if r["ok"] else None for r in replies]

    def peak_rss_mb(self) -> float:
        """The router's peak plus each live worker's (VmHWM)."""
        total = self_peak_rss_mb()
        for handle in self.router.handles.values():
            with open(f"/proc/{handle.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def finish(self) -> None:
        report = self.router.drain()
        self.router = None
        if not report["ok"]:
            raise RuntimeError(f"fleet drain was not clean: {report}")


WORKLOADS = {"paper": Paper, "serve": Serve, "fleet": Fleet}
