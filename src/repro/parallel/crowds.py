"""Process-pool crowds over shared-memory WalkerBatch blocks.

This is the repo's real-cores realization of the paper's hierarchical
parallelism: the population of W walkers is dealt round-robin into K
*crowds*, each driven by a :class:`~repro.batched.driver.BatchedCrowdDriver`
running in its own OS process.  The canonical walker state — positions,
weights, log Psi, E_L, age — lives in one
:class:`~repro.parallel.shm.SharedWalkerState` segment; every worker's
``WalkerBatch`` is built over *strided views* of that segment
(``arr[c::K]``), so an accepted Metropolis move is committed straight
into shared memory and **no walker state is ever pickled per step**
(the contract ``repro.lint`` rule R005 enforces on hot scopes).

Per generation the parent (rank 0 of a :class:`SharedMemComm`) runs the
genuine Alg.-1 sync pattern: broadcast the step command with the trial
energy, gather each crowd's population/acceptance token, then reduce
E_mixed **in walker order over the full shared arrays** — the
shared-memory form of the E_T allreduce, and the reason collective
results are bitwise independent of the worker count.  DMC branching
(stochastic-reconfiguration comb, fixed population) is applied by the
parent directly to the shared block, which *is* the walker migration
between crowds: a clone landing in another crowd's slot is nothing more
than the parent rewriting that slot's slices.  E_L and log Psi travel
with the clone, so a crowd resyncs only its distance tables and
evaluates the Hamiltonian once per generation.

Determinism contract (tested in ``tests/parallel/test_crowds.py``):
walker ``w`` owns RNG stream ``w`` of the master seed regardless of
which crowd or process hosts it, per-walker batched arithmetic is
independent of batch width (the PR-2 differential gate), and all
numerically sensitive reductions happen parent-side over walker-ordered
arrays — so energy traces are **bitwise identical** for
``workers`` in {0, 1, N}.

Crash semantics: every generation starts with a parent-side checkpoint
of the shared block.  A dead or wedged worker is detected by liveness
polling inside the collectives; the parent then terminates the pool,
restores the checkpoint, respawns all crowds with
``start_generation = g`` (workers fast-forward their walkers' RNG
streams by replaying the per-generation draw pattern and reuse the
restored E_L and log Psi instead of re-evaluating them) and re-issues
generation ``g`` — so the post-crash energy trace is bitwise equal to
the crash-free one.  Incidents are counted in ``result.extra`` and the
``crowd_worker_respawns`` metrics counter.
"""

# repro: hot

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import BatchedHamiltonian, JastrowSystemSpec, \
    walker_streams
from repro.batched.walkerbatch import WalkerBatch
from repro.drivers.dmc import DMCDriver
from repro.drivers.result import QMCResult
from repro.hamiltonian.nlpp import QuadratureRotations
from repro.estimators.scalar import EstimatorManager
from repro.lint.sanitizers import (CollectiveOrderChecker,
                                   RngStreamSanitizer, ShmRaceSanitizer,
                                   sanitizers_enabled)
from repro.metrics.registry import METRICS
from repro.parallel.shm import SharedTraceBlock, SharedWalkerState
from repro.parallel.shmcomm import CommPeerLost, CommTimeout, SharedMemComm
from repro.precision.policy import FULL, PrecisionPolicy

if TYPE_CHECKING:  # import cycle: repro.splines.slab maps shm via us
    from repro.splines.slab import SharedCoefSlab, SlabDescriptor

__all__ = ["ParallelCrowdDriver"]

#: per-walker fields of the shared state block, in layout order
_STATE_FIELDS = ("R", "weight", "logpsi", "local_energy", "age")


class _WorkerDown(RuntimeError):
    """A worker process died or stopped responding (internal signal)."""


class _LocalWalkerState:  # repro: cold
    """Plain-numpy stand-in for :class:`SharedWalkerState` used by the
    ``workers=0`` serial path, so the driver loop is identical."""

    def __init__(self, nwalkers: int, n: int):
        self.nw = int(nwalkers)
        self.n = int(n)
        self.R = np.zeros((self.nw, self.n, 3))
        self.weight = np.ones(self.nw)
        self.logpsi = np.zeros(self.nw)
        self.local_energy = np.zeros(self.nw)
        self.age = np.zeros(self.nw, dtype=np.int64)

    def crowd_views(self, crowd: int, n_crowds: int) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name)[crowd::n_crowds]
                for name in _STATE_FIELDS}

    def checkpoint(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name).copy() for name in _STATE_FIELDS}

    def restore_all(self, snapshot: Dict[str, np.ndarray]) -> None:
        for name in _STATE_FIELDS:
            getattr(self, name)[...] = snapshot[name]

    def close(self) -> None:
        pass


class _LocalTrace:  # repro: cold
    """Plain-numpy stand-in for :class:`SharedTraceBlock` (serial path)."""

    def __init__(self, steps: int, nwalkers: int, ncomp: int):
        self.weight = np.zeros((steps, nwalkers))
        self.local_energy = np.zeros((steps, nwalkers))
        self.components = np.zeros((steps, nwalkers, ncomp))

    def as_arrays(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight.copy(),
                "local_energy": self.local_energy.copy(),
                "components": self.components.copy()}

    def close(self) -> None:
        pass


class _CrowdEngine:
    """One crowd's driver over its strided views of the shared state.

    Used identically by the serial path (crowd 0 of 1, plain arrays) and
    by every worker process (crowd c of K, shared-memory views), which is
    what makes ``workers=0`` a bitwise reference for ``workers=N``.
    """

    def __init__(self, spec: JastrowSystemSpec, state, trace, crowd: int,
                 n_crowds: int, total_walkers: int, master_seed: int,
                 timestep: float, use_drift: bool,
                 precision: PrecisionPolicy, mode: str,
                 start_generation: int = 1, trace_base: int = 0,
                 backend: Optional[str] = None, spline=None):
        self.crowd = int(crowd)
        #: optional SPO table (a slab-backed or in-process BSpline3D):
        #: when set, every generation appends a per-walker orbital-norm
        #: component through the tile-blocked vgh kernel
        self.spline = spline
        self.n_crowds = int(n_crowds)
        self.mode = mode
        self.tau = float(timestep)
        self.trace = trace
        #: generations completed before this run segment (full-run
        #: resume): trace row 0 holds generation ``trace_base + 1``
        self.trace_base = int(trace_base)
        #: this crowd's columns of the (steps, W) trace arrays
        self.cols = slice(self.crowd, None, self.n_crowds)
        views = state.crowd_views(crowd, n_crowds)
        self.nw = views["R"].shape[0]
        # RNG-stream contract: walker w owns stream w of the master seed
        # no matter which crowd hosts it; a respawned engine fast-forwards
        # by replaying the exact per-generation draw pattern of the sweep
        # (one (n, 3) Gaussian block then n uniforms, per walker).
        streams = walker_streams(master_seed, total_walkers)
        rngs = [streams[w] for w in range(crowd, total_walkers, n_crowds)]
        n = spec.n
        sqrt_tau = math.sqrt(self.tau)
        for _ in range(start_generation - 1):
            for rng in rngs:
                rng.normal(scale=sqrt_tau, size=(n, 3))
            for rng in rngs:
                rng.uniform(size=n)
        batch = WalkerBatch.attach(
            views["R"], views["weight"], views["logpsi"],
            views["local_energy"], views["age"], dtype=precision)
        # A respawned or resumed crowd finds log Psi and E_L of its
        # walkers in the restored shared block and does not recompute
        # them; only a fresh crowd evaluates the set-up values.
        restored = start_generation > 1
        self.driver = drv = BatchedCrowdDriver(
            spec, self.nw, 0, timestep, use_drift, precision,
            batch=batch, rngs=rngs, backend=backend, restored=restored)
        nlpp = getattr(drv.ham, "nlpp", None)
        if nlpp is not None:
            # Quadrature-rotation contract: rotations are keyed on the
            # *global* walker id and the master seed, so crowd membership
            # cannot perturb the NLPP trace.  One serial per generation:
            # the set-up E_L below takes serial 1 and generation g's
            # measure serial g+1, so a crowd spawned at generation g
            # starts at serial g whether it is fresh, respawned or resumed.
            nlpp.set_rotations(
                QuadratureRotations(master_seed),
                walker_ids=np.arange(crowd, total_walkers, n_crowds),
                serial=start_generation if restored else 0)
        if not restored:
            # Set-up E_L through the same path measure() uses; the
            # driver constructor already filled log Psi and G/L.
            batch.local_energy[...] = drv.ham.evaluate(
                batch, drv.tables, drv.G, drv.L)
        self._needs_refresh = False

    @property
    def component_names(self) -> tuple:
        """Trace component order: Hamiltonian terms, then the optional
        SPO diagnostic column."""
        names = tuple(self.driver.ham.names)
        if self.spline is not None:
            names += ("SpoNorm",)
        return names

    @property
    def nlpp_serial(self) -> Optional[int]:
        """Rotation serial of the last NLPP evaluation (None without NLPP)."""
        nlpp = getattr(self.driver.ham, "nlpp", None)
        return nlpp.serial if nlpp is not None else None

    def run_generation(self, step: int,
                       e_trial: Optional[float] = None) -> int:  # repro: hot
        """Advance this crowd one generation; returns accepted moves."""
        drv = self.driver
        batch = drv.batch
        if self.mode == "dmc":
            if self._needs_refresh:
                # The parent's branch commit rewrote positions behind the
                # driver's back; resync tables/Rsoa from shared memory.
                # E_L and log Psi travel with the comb's copies.
                drv.refresh_from_positions()
            el_old = batch.local_energy.copy()
            drv.sweep()
            el_new = drv.measure()
            self._record(step, el_new)  # pre-reweight weights, like store_walker
            stuck = drv.last_sweep_accepts == 0
            batch.age[stuck] += 1
            batch.age[~stuck] = 0
            batch.weight *= np.exp(
                -self.tau * (0.5 * (el_old + el_new) - e_trial))
            aged = batch.age > DMCDriver.MAX_AGE
            if np.any(aged):
                batch.weight[aged] = np.minimum(batch.weight[aged], 0.5)
            self._needs_refresh = True
        else:
            drv.sweep()
            el_new = drv.measure()
            self._record(step, el_new)
            batch.age += 1
        return int(np.sum(drv.last_sweep_accepts))

    def _record(self, step: int, el: np.ndarray) -> None:  # repro: hot  # repro: commit
        """Write this generation's estimator inputs into the trace block
        (strided shared-memory columns — never pickled)."""
        row = step - 1 - self.trace_base
        self.trace.local_energy[row, self.cols] = el
        self.trace.weight[row, self.cols] = self.driver.batch.weight
        comps = self.driver.ham.last_components
        for i, name in enumerate(self.driver.ham.names):
            self.trace.components[row, self.cols, i] = comps[name]
        if self.spline is not None:
            # Per-walker orbital norm at each walker's first particle,
            # through the tile-blocked vgh kernel on the shared table.
            # Every einsum is per-walker independent, so the column is
            # bitwise identical across crowd decompositions.
            from repro.batched.spo import batched_multi_vgh
            v, _, _ = batched_multi_vgh(self.spline,
                                        self.driver.batch.R[:, 0])
            self.trace.components[row, self.cols,
                                  len(self.driver.ham.names)] = \
                np.einsum("wm,wm->w", v, v)


@dataclass
class _WorkerConfig:  # repro: cold
    """Everything a worker process needs, shipped once at spawn."""

    spec: JastrowSystemSpec
    master_seed: int
    total_walkers: int
    n: int
    crowd: int
    n_crowds: int
    timestep: float
    use_drift: bool
    precision: PrecisionPolicy
    mode: str
    steps: int
    start_generation: int
    state_name: str
    trace_name: str
    ncomp: int
    comm: SharedMemComm
    metrics_enabled: bool
    crash_generation: Optional[int] = None  # injected-fault hook (tests)
    #: injected-fault hook (tests): after running this generation, write
    #: into a *frozen* trace row out of band — the race the
    #: ShmRaceSanitizer quiescent-window checksums must catch
    race_generation: Optional[int] = None
    #: generations completed before this run segment (full-run resume);
    #: trace-block row 0 holds generation ``trace_base + 1``
    trace_base: int = 0
    #: per-crowd streaming segment trace (repro.output.stream): file
    #: path, the parent's run meta, and the sorted component order the
    #: merged canonical trace uses
    segment_path: Optional[str] = None
    segment_meta: Optional[dict] = None
    segment_names: Optional[tuple] = None
    #: kernel-backend *name* (picklable; each worker resolves its own
    #: instance), None for REPRO_BACKEND-then-default resolution
    backend: Optional[str] = None
    #: shared read-only SPO coefficient slab to attach (descriptor only
    #: crosses the process boundary — the table itself never pickles)
    slab: Optional[SlabDescriptor] = None


def _segment_open(cfg: _WorkerConfig):  # repro: cold
    """Open (or re-open) this crowd's streaming segment trace.

    Fresh spawns write a deterministic schema-versioned header; respawns
    and full-run resumes roll the file back to the replay generation
    (segments flush every generation, so chunk boundaries align with the
    cut and the continued file stays byte-identical to an uninterrupted
    run's)."""
    from repro.output.stream import TraceField, TraceWriter
    if cfg.start_generation > 1 and os.path.exists(cfg.segment_path):
        return TraceWriter.reopen_below_step(
            cfg.segment_path, cfg.start_generation, flush_every=1)
    names = tuple(cfg.segment_names or ())
    fields = [TraceField("weight", "<f8"), TraceField("local_energy", "<f8")]
    if names:
        fields.append(TraceField("components", "<f8", (len(names),)))
    meta = dict(cfg.segment_meta or {})
    meta["components"] = list(names)
    meta["segment"] = {"crowd": cfg.crowd, "n_crowds": cfg.n_crowds,
                       "total_walkers": cfg.total_walkers}
    return TraceWriter(cfg.segment_path, fields, meta=meta, flush_every=1)


def _segment_append(writer, engine: _CrowdEngine, cfg: _WorkerConfig,
                    step: int) -> None:
    """Append this generation's strided trace-row slice to the crowd's
    segment file, component columns permuted from Hamiltonian order to
    the sorted order the merged canonical trace declares."""
    row = step - 1 - cfg.trace_base
    trace = engine.trace
    cols = engine.cols
    values = {"weight": np.array(trace.weight[row, cols]),
              "local_energy": np.array(trace.local_energy[row, cols])}
    names = tuple(cfg.segment_names or ())
    if names:
        ham_names = engine.component_names
        perm = [ham_names.index(nm) for nm in names]
        values["components"] = np.ascontiguousarray(
            trace.components[row, cols][:, perm])
    writer.append_row(step, values)


def _worker_main(cfg: _WorkerConfig) -> None:  # repro: hot
    """Worker-process entry: attach shared blocks, build the crowd
    engine, then serve generation commands until told to stop."""
    comm = cfg.comm
    state = None
    trace = None
    segment = None
    slab = None
    failed = False
    armed = False
    try:
        METRICS.enabled = bool(cfg.metrics_enabled)
        METRICS.reset()
        if sanitizers_enabled():
            # Fail fast on any global-RNG draw for this whole process:
            # every legitimate stream is a per-walker Generator.
            RngStreamSanitizer.arm()
            armed = True
        state = SharedWalkerState.attach(
            cfg.state_name, cfg.total_walkers, cfg.n)
        trace = SharedTraceBlock.attach(
            cfg.trace_name, cfg.steps, cfg.total_walkers, cfg.ncomp)
        if cfg.slab is not None:
            # Map the one shared coefficient table (read-only) instead
            # of rebuilding or copying it per worker.
            from repro.splines.slab import SharedCoefSlab
            slab = SharedCoefSlab.attach(cfg.slab)
        engine = _CrowdEngine(
            cfg.spec, state, trace, cfg.crowd, cfg.n_crowds,
            cfg.total_walkers, cfg.master_seed, cfg.timestep,
            cfg.use_drift, cfg.precision, cfg.mode, cfg.start_generation,
            cfg.trace_base, backend=cfg.backend,
            spline=slab.as_spline() if slab is not None else None)
        if cfg.segment_path is not None:
            segment = _segment_open(cfg)
        comm.allgather(("ready", cfg.crowd, os.getpid()))
        with METRICS.scope("Crowd"):
            while True:
                cmd = comm.bcast()
                if cmd[0] == "stop":
                    break
                _, step, e_trial = cmd
                if (cfg.crash_generation is not None
                        and step >= cfg.crash_generation):
                    os._exit(23)  # injected fault: die without cleanup
                accepted = engine.run_generation(step, e_trial)
                if segment is not None:
                    # Durable before the done token: the parent may
                    # checkpoint right after this generation.
                    _segment_append(segment, engine, cfg, step)
                if cfg.race_generation == step and step >= 2:
                    # Injected fault: scribble on a frozen history row,
                    # outside any commit scope — exactly the out-of-band
                    # mutation the parent's quiescent-window checksums
                    # exist to catch.
                    trace.local_energy[0, cfg.crowd] += 1.0  # repro: noqa R008 — deliberate race fixture
                comm.allgather(("done", accepted, engine.nw))
        collective_log = list(comm.order_log)
        payload = {
            "crowd": cfg.crowd,
            "nw": engine.nw,
            "n_moves": engine.driver.n_moves,
            "n_accept": engine.driver.n_accept,
            "nlpp_serial": engine.nlpp_serial,
            "metrics": METRICS.snapshot() if METRICS.enabled else None,
            "comm": {"allreduce_count": comm.allreduce_count,
                     "p2p_messages": comm.p2p_messages,
                     "p2p_bytes": comm.p2p_bytes},
            "collective_log": collective_log,
        }
        comm.allgather(payload)
    except (CommTimeout, CommPeerLost, EOFError, OSError):
        failed = True  # the parent vanished or replaced this incarnation
    finally:
        if armed:
            RngStreamSanitizer.disarm()
        for obj in (segment, slab, trace, state):
            if obj is not None:
                try:
                    obj.close()
                except Exception:  # pragma: no cover
                    pass
        try:
            comm.close()
        except Exception:  # pragma: no cover
            pass
    if failed:
        os._exit(1)


class ParallelCrowdDriver:  # repro: cold
    """VMC/DMC over K crowd processes sharing one walker-state block.

    ``workers=0`` runs the identical generation loop in-process (the
    bitwise reference); ``workers=K >= 1`` spawns K crowd processes.
    See the module docstring for the determinism and crash contracts.
    """

    def __init__(self, spec: JastrowSystemSpec, nwalkers: int,
                 master_seed: int, workers: int = 0, timestep: float = 0.5,
                 use_drift: bool = True, precision: PrecisionPolicy = FULL,
                 sync_timeout: float = 120.0, liveness_poll: float = 0.25,
                 max_respawns: int = 3, start_method: Optional[str] = None,
                 crash_plan: Optional[Dict[int, int]] = None,
                 race_plan: Optional[Dict[int, int]] = None,
                 backend: Optional[str] = None, spo_slab=None):
        if nwalkers < 1:
            raise ValueError(f"need at least one walker, got {nwalkers}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.spec = spec
        self.nw = int(nwalkers)
        self.master_seed = int(master_seed)
        self.workers = min(int(workers), self.nw)
        self.tau = float(timestep)
        self.use_drift = use_drift
        self.precision = precision
        self.sync_timeout = float(sync_timeout)
        self.liveness_poll = float(liveness_poll)
        self.max_respawns = int(max_respawns)
        #: kernel-backend name shipped to every crowd (None = resolve
        #: REPRO_BACKEND-then-default in each process independently)
        self.backend = backend
        #: optional SPO orbital table: a BSpline3D (promoted to one
        #: shared read-only SharedCoefSlab when workers > 0) or an
        #: already-built SharedCoefSlab.  Adds a per-walker "SpoNorm"
        #: trace component evaluated through the tile-blocked vgh kernel
        #: — bitwise identical across worker counts like every other
        #: column.
        self.spo_slab = spo_slab
        self._slab: Optional[SharedCoefSlab] = None
        self._slab_owned = False
        #: {crowd: generation} — worker ``crowd`` (incarnation 0 only)
        #: calls ``os._exit`` on reaching that generation; test hook for
        #: the detect-and-respawn path.  Ignored when ``workers == 0``.
        self.crash_plan = dict(crash_plan) if crash_plan else None
        #: {crowd: generation} — worker ``crowd`` (incarnation 0 only)
        #: writes a frozen trace row out of band after that generation;
        #: test hook proving the ShmRaceSanitizer fires.  Only active
        #: when sanitizers are armed (the write itself always happens).
        self.race_plan = dict(race_plan) if race_plan else None
        if start_method is None and "fork" in mp.get_all_start_methods():
            start_method = "fork"  # cheapest respawn; spawn also works
        self._ctx = (mp.get_context(start_method) if start_method
                     else mp.get_context())
        self._ham_names = tuple(BatchedHamiltonian.BASE_NAMES)
        if getattr(spec, "with_nlpp", False):
            self._ham_names += ("NonLocalECP",)
        if spo_slab is not None:
            self._ham_names += ("SpoNorm",)
        self.respawns = 0
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        self._comm: Optional[SharedMemComm] = None
        self._state = None
        self._trace = None
        self._engine: Optional[_CrowdEngine] = None
        self._race: Optional[ShmRaceSanitizer] = None
        self._checkpoint: Optional[Dict[str, np.ndarray]] = None
        self._incarnation = 0
        self._mode = "vmc"
        self._steps = 0
        self._trace_base = 0
        #: per-crowd segment trace paths of the latest run (or None)
        self.segment_paths: Optional[List[str]] = None
        #: per-crowd NLPP rotation serial at the end of the latest run
        #: (None entries without NLPP): one serial per generation
        self.nlpp_serials: Optional[List[Optional[int]]] = None
        self._segment_meta: Optional[dict] = None
        self._segment_names: Optional[tuple] = None
        self._comm_totals = {"allreduce_count": 0, "p2p_messages": 0,
                             "p2p_bytes": 0.0}

    # -- the run loop (shared by serial and process paths) -----------------------
    def run(self, steps: int = 10, mode: str = "vmc", streams=None,
            resume=None, segment_dir: Optional[str] = None,
            abort_after: Optional[int] = None) -> QMCResult:
        """Run ``steps`` generations; one fresh worker pool per call.

        ``streams`` (a :class:`repro.output.stream.StreamSet`) streams
        each generation's walker-ordered trace row to the binary trace +
        online reblocker and checkpoints the full run every
        ``checkpoint_every`` generations.  ``resume`` (a ``kind ==
        "parallel"`` :class:`~repro.output.runstate.RunCheckpoint`)
        continues a checkpointed run bitwise: the shared walker block,
        branch RNG and feedback scalars are restored and every crowd
        respawns at ``start_generation = step + 1`` — the same
        fast-forward path that makes within-run crash recovery bitwise,
        so the continued trace and error bars equal an uninterrupted
        run's.  ``segment_dir`` turns on per-crowd segment trace files
        (``crowd{c}of{K}.trace``) that merge into the canonical trace
        via :func:`repro.output.stream.merge_crowd_segments`.
        ``abort_after`` is the restart battery's kill hook: the parent
        ``os._exit(17)`` s right after that generation's checkpoint, like
        a SIGKILL landing between generations (shared segments are left
        for the harness to reap).
        """
        if mode not in ("vmc", "dmc"):
            raise ValueError(f"unknown mode {mode!r}")
        if steps < 1:
            raise ValueError(f"need at least one step, got {steps}")
        start_gen = 0
        if resume is not None:
            if resume.kind != "parallel":
                raise ValueError(
                    f"checkpoint kind {resume.kind!r} is not a parallel run")
            if resume.meta.get("mode") != mode:
                raise ValueError(
                    f"checkpoint is a {resume.meta.get('mode')!r} run, "
                    f"not {mode!r}")
            if int(resume.meta.get("nwalkers", -1)) != self.nw \
                    or int(resume.meta.get("seed", -1)) != self.master_seed:
                raise ValueError(
                    "checkpoint population/seed do not match this driver")
            start_gen = int(resume.step)
        self._mode = mode
        self._steps = int(steps)
        self._trace_base = start_gen
        self._incarnation = 0
        self.respawns = 0
        self._comm_totals = {"allreduce_count": 0, "p2p_messages": 0,
                             "p2p_bytes": 0.0}
        W, n = self.nw, self.spec.n
        ncomp = len(self._ham_names)
        shared = self.workers > 0
        self.segment_paths = None
        self._segment_meta = None
        self._segment_names = None
        if shared and segment_dir is not None:
            os.makedirs(segment_dir, exist_ok=True)
            K = self.workers
            self.segment_paths = [
                os.path.join(segment_dir, f"crowd{c}of{K}.trace")
                for c in range(K)]
            self._segment_meta = dict(streams.meta) if streams is not None \
                else {}
            self._segment_names = tuple(sorted(self._ham_names))
        if self.spo_slab is not None and self._slab is None:
            from repro.splines.slab import SharedCoefSlab
            if isinstance(self.spo_slab, SharedCoefSlab):
                self._slab = self.spo_slab
                self._slab_owned = False
            elif shared:
                # One physical table for the whole pool: promote once,
                # ship only the picklable descriptor to each crowd.
                self._slab = SharedCoefSlab.promote(self.spo_slab)
                self._slab_owned = True
        t_setup = time.perf_counter()
        if shared:
            self._state = SharedWalkerState.create(W, n)
            self._trace = SharedTraceBlock.create(steps, W, ncomp)
        else:
            self._state = _LocalWalkerState(W, n)
            self._trace = _LocalTrace(steps, W, ncomp)
        state = self._state
        if resume is not None:
            state.restore_all(resume.shared_state)
        else:
            state.R[...] = self.spec.initial_positions(W)
        label = "ParallelDMC" if mode == "dmc" else "ParallelVMC"
        result = QMCResult(
            method=f"{mode.upper()}(crowds x{max(self.workers, 1)})",
            steps=steps)
        branch_rng = np.random.default_rng(
            np.random.SeedSequence(self.master_seed).spawn(W + 1)[W])
        accepted_total = 0
        if resume is not None:
            branch_rng.bit_generator.state = resume.rng_states["branch"]
            accepted_total = int(resume.scalars["accepted_total"])
        armed = False
        if sanitizers_enabled():
            # Same fail-fast global-RNG guard the workers arm; stream
            # construction (default_rng/SeedSequence) stays allowed.
            RngStreamSanitizer.arm()
            armed = True
            if shared:
                self._race = ShmRaceSanitizer()
        try:
            if shared:
                self._ensure_pool(start_gen + 1)
            else:
                spline = None
                if self._slab is not None:
                    spline = self._slab.as_spline()
                elif self.spo_slab is not None:
                    spline = self.spo_slab
                self._engine = _CrowdEngine(
                    self.spec, state, self._trace, 0, 1, W,
                    self.master_seed, self.tau, self.use_drift,
                    self.precision, mode, start_gen + 1, start_gen,
                    backend=self.backend, spline=spline)
            setup_s = time.perf_counter() - t_setup
            e_trial = (float(np.mean(state.local_energy))
                       if mode == "dmc" else None)
            e_best = e_trial
            if resume is not None and mode == "dmc":
                e_trial = float(resume.scalars["e_trial"])
                e_best = float(resume.scalars["e_best"])
            t0 = time.perf_counter()
            with METRICS.scope(label):
                for step in range(start_gen + 1, start_gen + steps + 1):
                    self._checkpoint = state.checkpoint()
                    if shared:
                        self._race_begin(step)
                        accepted_total += self._parallel_generation(
                            step, e_trial)
                        self._race_end(step)
                    else:
                        accepted_total += self._engine.run_generation(
                            step, e_trial)
                    if streams is not None:
                        self._stream_row(streams, step,
                                         step - 1 - start_gen)
                    el = state.local_energy
                    if mode == "vmc":
                        result.energies.append(float(np.mean(el)))
                        result.populations.append(W)
                    else:
                        # E_T sync (Alg. 1, L14): the shared-memory form
                        # of the allreduce — reduce in walker order over
                        # the full shared arrays, every crowd sees the
                        # result in the next generation's broadcast.
                        weights = state.weight
                        wsum = float(np.sum(weights))
                        if wsum > 0.0:
                            e_mixed = float(np.sum(weights * el) / wsum)
                        else:  # extinction guard: reset and carry on
                            e_mixed = float(np.mean(el))
                            state.weight[...] = 1.0
                        result.energies.append(e_mixed)
                        with METRICS.scope("branch"):
                            self._branch_comb(state, branch_rng)
                        e_best = 0.25 * e_best + 0.75 * e_mixed
                        feedback = 1.0 / (
                            DMCDriver.FEEDBACK_GENERATIONS * self.tau)
                        e_trial = e_best - feedback * math.log(W / W)
                        result.populations.append(W)
                        result.trial_energies.append(e_trial)
                    if shared:
                        self._race_seal_state()
                    if streams is not None and streams.want_checkpoint(step):
                        self._save_run_checkpoint(
                            streams, step, mode, branch_rng,
                            accepted_total, e_trial, e_best)
                    if abort_after is not None and step >= abort_after:
                        # Restart-battery kill hook: die like a SIGKILL
                        # between generations — checkpoint and trace are
                        # already durable; no flush/close/unlink runs.
                        # Workers are torn down first only because they
                        # inherit every comm pipe fd at fork: orphans
                        # would deadlock in recv() holding each other's
                        # write ends open (they carry no durable state —
                        # segment files flush every generation).
                        self._terminate_pool()
                        os._exit(17)
            elapsed = time.perf_counter() - t0
            trace_data = self._trace.as_arrays()
            worker_stats = self._finalize() if shared else None
            self.nlpp_serials = ([p["nlpp_serial"] for p in worker_stats]
                                 if shared else [self._engine.nlpp_serial])
        finally:
            if armed:
                RngStreamSanitizer.disarm()
            self._teardown()
        result.online = streams.online if streams is not None else None
        result.elapsed = elapsed
        moves = (start_gen + steps) * W * n
        result.acceptance = accepted_total / moves if moves else 0.0
        result.estimators = self._build_estimators(trace_data)
        result.extra["moves"] = float(moves)
        result.extra["accepted"] = float(accepted_total)
        result.extra["workers"] = float(self.workers)
        result.extra["respawns"] = float(self.respawns)
        result.extra["setup_seconds"] = float(setup_s)
        if shared:
            result.extra["comm_allreduces"] = float(
                self._comm_totals["allreduce_count"])
            result.extra["comm_p2p_bytes"] = float(
                self._comm_totals["p2p_bytes"])
            if worker_stats:
                result.extra["worker_moves"] = float(
                    sum(p["n_moves"] for p in worker_stats))
        return result

    def run_dmc(self, steps: int = 10) -> QMCResult:
        return self.run(steps=steps, mode="dmc")

    # -- streaming + full-run checkpoints ----------------------------------------
    def _stream_row(self, streams, step: int, row: int) -> None:
        """Feed one generation's walker-ordered trace-block row to the
        stream bundle (binary trace + online reblocker) — the same
        pre-reweight values ``_build_estimators`` replays at end of run,
        so online results are bitwise independent of the worker count."""
        trace = self._trace
        el = np.array(trace.local_energy[row])
        wt = np.array(trace.weight[row])
        comps = {name: np.array(trace.components[row, :, i])
                 for i, name in enumerate(self._ham_names)}
        streams.record(step, el, wt, comps)

    def _save_run_checkpoint(self, streams, step: int, mode: str,
                             branch_rng: np.random.Generator,
                             accepted_total: int, e_trial, e_best) -> None:
        """Durable end-of-generation snapshot: the shared walker block
        (post-branch), the branch RNG and the feedback scalars.  Worker
        RNG streams are *not* stored — a resume respawns every crowd at
        ``step + 1`` and the engines fast-forward deterministically,
        exactly like within-run crash recovery."""
        from repro.output.runstate import (RunCheckpoint, rng_state,
                                           save_run_checkpoint)
        scalars = {"accepted_total": float(accepted_total)}
        if mode == "dmc":
            scalars["e_trial"] = float(e_trial)
            scalars["e_best"] = float(e_best)
        ckpt = RunCheckpoint(
            kind="parallel", step=step,
            rng_states={"branch": rng_state(branch_rng)},
            scalars=scalars,
            shared_state={name: np.array(getattr(self._state, name))
                          for name in _STATE_FIELDS},
            online_state=(streams.online.state_dict()
                          if streams.online is not None else None),
            trace_position=streams.trace_position.as_array(),
            meta={"mode": mode, "nwalkers": self.nw,
                  "seed": self.master_seed, "n": self.spec.n},
        )
        save_run_checkpoint(streams.checkpoint_path, ckpt)

    # -- parent-side DMC branch (walker migration between crowds) ----------------
    def _branch_comb(self, state, rng: np.random.Generator) -> None:
        """Stochastic-reconfiguration comb over the shared block: exactly
        W survivors, weights reset to 1, clones' age reset — applied by
        rewriting slices in shared memory, which *is* the inter-crowd
        walker migration (a pick landing in another crowd's slot)."""
        W = self.nw
        weights = state.weight.copy()
        total = float(np.sum(weights))
        cum = np.cumsum(weights) / total
        u0 = rng.uniform(0.0, 1.0 / W)
        points = u0 + np.arange(W) / W
        picks = np.minimum(np.searchsorted(cum, points), W - 1)
        age = state.age[picks].copy()
        first = np.zeros(W, dtype=bool)
        first[np.unique(picks, return_index=True)[1]] = True
        age[~first] = 0  # clones restart the stuck-walker clock
        state.R[...] = state.R[picks]
        state.logpsi[...] = state.logpsi[picks]
        state.local_energy[...] = state.local_energy[picks]
        state.age[...] = age
        state.weight[...] = 1.0

    # -- shm race quiescent windows (ShmRaceSanitizer, armed runs only) ----------
    def _race_begin(self, step: int) -> None:
        """Close the inter-generation state window (nobody may have
        written walker state since the parent's last commit) and seal
        the frozen trace history before workers write row ``step - 1``."""
        race = self._race
        if race is None:
            return
        for name in _STATE_FIELDS:
            race.verify(f"state/{name}", getattr(self._state, name))
        hist = step - 1 - self._trace_base
        if hist > 0:
            race.seal("trace/local_energy",
                      self._trace.local_energy[:hist])
            race.seal("trace/weight", self._trace.weight[:hist])
            race.seal("trace/components", self._trace.components[:hist])

    def _race_end(self, step: int) -> None:
        """Every worker's done token happened-before this point, so an
        out-of-band write to the frozen history is detected
        deterministically — not probabilistically."""
        race = self._race
        if race is None:
            return
        hist = step - 1 - self._trace_base
        if hist > 0:
            race.verify("trace/local_energy",
                        self._trace.local_energy[:hist])
            race.verify("trace/weight", self._trace.weight[:hist])
            race.verify("trace/components", self._trace.components[:hist])

    def _race_seal_state(self) -> None:
        """Open the inter-generation window: the parent's commits for
        this generation (branch comb, weight resets) are done; nothing
        may write walker state until the next generation command."""
        race = self._race
        if race is None:
            return
        for name in _STATE_FIELDS:
            race.seal(f"state/{name}", getattr(self._state, name))

    # -- process-pool management -------------------------------------------------
    def _spawn_pool(self, start_generation: int) -> None:
        """Build a fresh communicator and spawn all K crowd processes;
        completes the ready barrier (engines built, E_L initialized)."""
        K = self.workers
        endpoints = SharedMemComm.world(K + 1, ctx=self._ctx)
        self._comm = endpoints[0]
        crash_plan = self.crash_plan if self._incarnation == 0 else None
        race_plan = self.race_plan if self._incarnation == 0 else None
        self._incarnation += 1
        for r in range(1, K + 1):
            crowd = r - 1
            cfg = _WorkerConfig(
                spec=self.spec, master_seed=self.master_seed,
                total_walkers=self.nw, n=self.spec.n, crowd=crowd,
                n_crowds=K, timestep=self.tau, use_drift=self.use_drift,
                precision=self.precision, mode=self._mode,
                steps=self._steps, start_generation=start_generation,
                state_name=self._state.name, trace_name=self._trace.name,
                ncomp=len(self._ham_names), comm=endpoints[r],
                metrics_enabled=METRICS.enabled,
                crash_generation=(crash_plan or {}).get(crowd),
                race_generation=(race_plan or {}).get(crowd),
                trace_base=self._trace_base,
                segment_path=(self.segment_paths[crowd]
                              if self.segment_paths else None),
                segment_meta=self._segment_meta,
                segment_names=self._segment_names,
                backend=self.backend,
                slab=(self._slab.descriptor
                      if self._slab is not None else None))
            proc = self._ctx.Process(
                target=_worker_main, args=(cfg,),
                name=f"repro-crowd-{crowd}", daemon=True)
            proc.start()
            endpoints[r].close()  # parent drops its copy of the child end
            self._procs[r] = proc
        self._sync(lambda t: self._comm.allgather(None, timeout=t))

    def _ensure_pool(self, step: int) -> None:
        while self._comm is None:
            try:
                self._spawn_pool(step)
            except _WorkerDown as exc:
                self._handle_crash(exc)

    def _parallel_generation(self, step: int,
                             e_trial: Optional[float]) -> int:
        """One generation across the pool, surviving worker crashes:
        command broadcast, crowd execution, done-token allgather."""
        while True:
            try:
                self._ensure_pool(step)
                self._sync(lambda t: self._comm.bcast(
                    ("gen", step, e_trial), timeout=t))
                stats = self._sync(lambda t: self._comm.allgather(
                    None, timeout=t))
                return sum(s[1] for s in stats if s is not None)
            except _WorkerDown as exc:
                self._handle_crash(exc)

    def _sync(self, op):
        """Run a root-side collective with liveness-aware polling: wait
        in short slices, checking worker processes between slices, so a
        dead worker surfaces in ~``liveness_poll`` seconds rather than
        after the full ``sync_timeout``."""
        deadline = time.monotonic() + self.sync_timeout
        call = op
        while True:
            try:
                return call(self.liveness_poll)
            except CommPeerLost as exc:
                raise _WorkerDown(str(exc)) from exc
            except CommTimeout as exc:
                dead = [r for r, p in self._procs.items()
                        if not p.is_alive()]
                if dead:
                    raise _WorkerDown(
                        f"worker ranks {dead} died "
                        f"(exitcodes {[self._procs[r].exitcode for r in dead]})"
                    ) from exc
                if time.monotonic() > deadline:
                    raise _WorkerDown(
                        f"ranks {exc.missing} unresponsive for "
                        f"{self.sync_timeout:.0f}s") from exc
                if self._comm is not None and self._comm.pending:
                    call = lambda t: self._comm.resume(timeout=t)

    def _handle_crash(self, exc: _WorkerDown) -> None:
        """Detect-and-respawn: count the incident, tear the pool down,
        re-deal the walkers from the generation-start checkpoint.  The
        next ``_ensure_pool`` respawns every crowd at the current
        generation (RNG streams fast-forwarded), so the rerun is bitwise
        identical to a crash-free run."""
        self.respawns += 1
        METRICS.count("crowd_worker_respawns")
        self._terminate_pool()
        if self._race is not None:
            # the restored checkpoint legitimately rewrites shared state
            self._race.clear()
        if self.respawns > self.max_respawns:
            raise RuntimeError(
                f"gave up after {self.respawns - 1} respawns: {exc}")
        if self._checkpoint is not None:
            for name in _STATE_FIELDS:
                getattr(self._state, name)[...] = self._checkpoint[name]

    def _terminate_pool(self) -> None:
        for proc in self._procs.values():
            proc.join(timeout=0.5)  # grace for workers already exiting
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=5.0)
        self._procs = {}
        if self._comm is not None:
            for key in ("allreduce_count", "p2p_messages", "p2p_bytes"):
                self._comm_totals[key] += getattr(self._comm, key)
            self._comm.close()
            self._comm = None

    def _finalize(self) -> List[dict]:
        """Stop the pool and collect the one-shot final payloads (crowd
        counters + metrics snapshots) in crowd order, merging each
        worker's metrics tree into the parent registry."""
        payloads = None
        while payloads is None:
            try:
                self._ensure_pool(self._trace_base + self._steps + 1)
                self._sync(lambda t: self._comm.bcast(("stop",), timeout=t))
                gathered = self._sync(lambda t: self._comm.allgather(
                    None, timeout=t))
                payloads = sorted((p for p in gathered if p is not None),
                                  key=lambda d: d["crowd"])
            except _WorkerDown as exc:
                self._handle_crash(exc)
        for p in payloads:
            if p.get("metrics") and METRICS.enabled:
                METRICS.merge_snapshot(p["metrics"],
                                       label=f"crowd-{p['crowd']}")
            for key in ("allreduce_count", "p2p_messages", "p2p_bytes"):
                self._comm_totals[key] += p["comm"][key]
        if self._race is not None:
            # every worker's final payload happened-before this point:
            # the state sealed after the last generation must be intact
            for name in _STATE_FIELDS:
                self._race.verify(f"state/{name}",
                                  getattr(self._state, name))
        if sanitizers_enabled() and self.respawns == 0 \
                and len(payloads) == self.workers:
            # Cross-check the SPMD collective call sequences.  Skipped
            # after a respawn: a replacement incarnation's log starts
            # mid-run, so per-rank logs legitimately differ in length.
            checker = CollectiveOrderChecker()
            for p in payloads:
                if p.get("collective_log") is not None:
                    checker.add_sequence(p["crowd"], p["collective_log"])
            checker.verify()
        self._terminate_pool()
        return payloads

    # -- estimators (rebuilt parent-side from the trace block) -------------------
    def _build_estimators(self,
                          trace_data: Dict[str, np.ndarray]
                          ) -> EstimatorManager:
        """Rebuild the scalar estimator series in (step, walker) order
        from the trace block — the same order the serial batched driver
        accumulates in, hence identical across worker counts."""
        est = EstimatorManager()
        le = trace_data["local_energy"]
        wt = trace_data["weight"]
        comps = trace_data["components"]
        for s in range(le.shape[0]):
            for w in range(le.shape[1]):
                weight = float(wt[s, w])
                est.accumulate("LocalEnergy", float(le[s, w]), weight)
                for i, name in enumerate(self._ham_names):
                    est.accumulate(name, float(comps[s, w, i]), weight)
        return est

    # -- lifecycle ---------------------------------------------------------------
    def _teardown(self) -> None:
        self._terminate_pool()
        for obj in (self._trace, self._state):
            if obj is not None:
                obj.close()
        if self._slab is not None and self._slab_owned:
            self._slab.close()
        self._slab = None
        self._slab_owned = False
        self._trace = None
        self._state = None
        self._engine = None
        self._race = None
        self._checkpoint = None

    def close(self) -> None:
        """Idempotent external cleanup (pool, shared segments)."""
        self._teardown()

    def __enter__(self) -> "ParallelCrowdDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ParallelCrowdDriver(nw={self.nw}, workers={self.workers}, "
                f"seed={self.master_seed})")
