"""One episode: set up a workload from nothing, run it, check its output.

Generation boundaries are stamped from outside by wrapping
``StreamSet.record``, which every driver calls once per generation.  The
first generation ends the set-up (``setup_s`` runs from the episode's
start to the end of that record call), and generations 2..G are the
timed ones, each measured from one record's end to the next.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
import time
import traceback
from typing import List, Optional

import numpy as np

from repro.output.stream import StreamSet, TraceError, TraceReader
from repro.perfmodel.opcount import OPS

from qmcbench.host import footprint_mb, process_family
from qmcbench.instrument import ops_totals
from qmcbench.spans import SpanRecorder
from qmcbench.workloads import Probe, Workload


#: episodes started in this process, for the CPU each set-up starts on
_SETUPS = itertools.count()


def episode_seed(seed: int, index: int) -> int:
    """The walker master seed of a run's episode ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Episode:
    """Stamps, per-generation checks and the result of one episode."""

    def __init__(self, wl: Workload, seed: int, outdir: str, tag: str,
                 recorder: Optional[SpanRecorder] = None) -> None:
        self.wl = wl
        self.seed = int(seed)
        self.gens = wl.generations
        self.trace_path = os.path.join(outdir, f"{tag}.trace")
        self.checkpoint_path = os.path.join(outdir, f"{tag}.ckpt.npz")
        #: records an ``output.stream`` span per record call when tracing
        self.recorder = recorder
        self.probe = Probe()
        self.t_start = 0.0
        #: end of each generation's record call (perf_counter seconds)
        self.stamps: List[float] = []
        self.local_energy: List[np.ndarray] = []
        self.weights: List[np.ndarray] = []
        #: steps that failed a per-generation check
        self.bad_steps: set = set()
        #: run-level check failures (every generation counts as failed)
        self.errors: List[str] = []
        #: the run raised before finishing its generations
        self.raised = False
        #: checks that could not run, reported with the result
        self.notes: List[str] = []
        self.mem_mb = 0.0
        self.trace_bytes_gen1 = 0
        self.ops = {}
        self.result = None
        #: the CPUs this process may run on when the episode starts
        self.cpus = sorted(os.sched_getaffinity(0))
        #: a run in this process alone moves between CPUs (see _to_cpu)
        self.spread = wl.workers == 0 and len(self.cpus) > 1

    # -- the record hook ----------------------------------------------------------
    def on_record(self, step: int, local_energy, weights, components) -> None:
        t = time.perf_counter()
        self.stamps.append(t)
        W = self.wl.walkers
        el = np.array(local_energy, dtype=np.float64)
        wt = (np.ones_like(el) if weights is None
              else np.array(weights, dtype=np.float64))
        self.local_energy.append(el)
        self.weights.append(wt)
        comps = [np.asarray(v, dtype=np.float64)
                 for v in (components or {}).values()]
        logpsi = self.probe.logpsi()
        if logpsi is None:
            logpsi = 0.0
            if not self.notes:
                self.notes.append("log Psi not reachable: not checked")
        ok = (el.shape == (W,) and wt.shape == (W,)
              and bool(np.all(np.isfinite(el)))
              and bool(np.all(np.isfinite(wt)))
              and all(bool(np.all(np.isfinite(c))) for c in comps)
              and bool(np.all(np.isfinite(logpsi))))
        if not ok:
            self.bad_steps.add(step)
        if step == 1:
            self.trace_bytes_gen1 = os.path.getsize(self.trace_path)
            if OPS.enabled:
                OPS.reset()
        if step == self.gens:
            # Last generation, crowd processes still up: the footprint.
            self.mem_mb = footprint_mb(process_family())
            if OPS.enabled:
                self.ops = ops_totals()
        self._to_cpu(step)

    def _to_cpu(self, k: int) -> None:
        """Run on the k-th CPU (cyclically) from here on.

        A process running alone stays on one CPU for its whole life, and
        the CPUs of a shared host slow down largely independently of each
        other; moving every generation, and starting each episode's set-up
        on the next CPU, makes every run sample all of them alike.  A run
        with crowd processes keeps every CPU, since the crowds it forks
        inherit the mask."""
        if self.spread:
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})

    # -- driving --------------------------------------------------------------------
    def run(self) -> None:
        episode = self
        original = StreamSet.record
        write = (original if self.recorder is None
                 else self.recorder.wrap("output.stream", original))

        def record(streams, step, local_energy, weights=None,
                   components=None):
            out = write(streams, step, local_energy, weights, components)
            episode.on_record(step, local_energy, weights, components)
            return out

        StreamSet.record = record
        # Start from a collected heap: what the previous episode left
        # would otherwise be shared into forked crowds and skew mem_mb.
        gc.collect()
        self._to_cpu(next(_SETUPS))
        self.t_start = time.perf_counter()
        try:
            streams = StreamSet(
                trace_path=self.trace_path,
                meta={"workload": self.wl.name, "seed": self.seed},
                checkpoint_path=(self.checkpoint_path
                                 if self.wl.checkpoint_every else None),
                checkpoint_every=self.wl.checkpoint_every)
            with streams:
                self.result = self.wl.execute(self.wl, self.seed, self.gens,
                                              streams, self.probe)
        except Exception:  # the run failed: report it, keep the process
            traceback.print_exc(file=sys.stderr)
            self.raised = True
        finally:
            StreamSet.record = original
            # Crowd processes forked later inherit the mask: give all back.
            os.sched_setaffinity(0, self.cpus)
            # Drop the probe's hold on the finished run's driver.
            self.probe.logpsi = lambda: None
        if self.result is not None:
            self._check_run()

    def _check_run(self) -> None:
        res = self.result
        lo, hi = self.wl.acceptance
        if not lo <= res.acceptance <= hi:
            self.errors.append(f"acceptance {res.acceptance:.4f} outside "
                               f"[{lo}, {hi}]")
        if any(p != self.wl.walkers for p in res.populations):
            self.errors.append("population left W")
        if len(self.stamps) != self.gens:
            self.errors.append(f"{len(self.stamps)} of {self.gens} "
                               "generations recorded")
            return
        try:
            self._check_trace()
        except TraceError as exc:
            self.errors.append(f"trace unreadable: {exc}")

    def _check_trace(self) -> None:
        """The RQTR trace reads back with valid CRCs, one row per
        generation, holding exactly what the driver streamed."""
        with TraceReader(self.trace_path) as reader:
            end = reader.validate()
            steps, rows = reader.read_all()
        if end.bytes != os.path.getsize(self.trace_path):
            self.errors.append("trace has bytes past its last chunk")
        if list(steps) != list(range(1, self.gens + 1)):
            self.errors.append("trace steps are not one row per generation")
            return
        for row, el, wt in zip(rows, self.local_energy, self.weights):
            if not (np.array_equal(row["local_energy"], el)
                    and np.array_equal(row["weight"], wt)):
                self.errors.append("trace rows differ from streamed values")
                return

    # -- results ----------------------------------------------------------------------
    @property
    def failed_generations(self) -> int:
        """Every generation when a run-level check failed; otherwise the
        generations that failed a check or never finished."""
        if self.errors:
            return self.gens
        return len(self.bad_steps) + (self.gens - len(self.stamps))

    @property
    def window(self):
        """The timed generations 2..G as one (start, end) interval."""
        return (self.stamps[0], self.stamps[-1])

    @property
    def timed_generations(self) -> int:
        return len(self.stamps) - 1

    @property
    def setup_s(self) -> float:
        return self.stamps[0] - self.t_start

    @property
    def gen_times(self) -> List[float]:
        return list(np.diff(self.stamps))

    @property
    def timed_moves(self) -> int:
        return self.timed_generations * self.probe.moves_per_gen

    @property
    def timed_seconds(self) -> float:
        return self.stamps[-1] - self.stamps[0]

    @property
    def trace_bytes_per_gen(self) -> float:
        size = os.path.getsize(self.trace_path)
        return (size - self.trace_bytes_gen1) / max(1, self.timed_generations)

    def trace_bytes(self) -> bytes:
        with open(self.trace_path, "rb") as fh:
            return fh.read()
