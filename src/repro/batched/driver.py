"""``BatchedCrowdDriver`` — one fused accept/reject step per electron.

Where :class:`~repro.drivers.crowd.CrowdDriver` loops
``load_walker/sweep/store_walker`` per walker, this driver moves electron
``k`` of *all* W walkers at once: one batched distance-row recompute, one
batched Jastrow ratio, one masked commit.  The Python-interpreter
overhead per Metropolis move is paid once per crowd instead of once per
walker — the walker-axis analogue of the paper's SoA argument, following
the batched QMCPACK drivers and QMCkl.

RNG-stream contract (see docs/batched_walkers.md): walker ``w`` owns
stream ``w`` and draws, per sweep, first its (n, 3) Gaussian block and
then its n uniforms — the identical call pattern the per-walker driver
makes, so with equal seeds both paths see equal random numbers and the
accept/reject sequences match bitwise.
"""

# repro: hot

from __future__ import annotations

import math
import time
from typing import List, Optional

import numpy as np

from repro.backend import get_backend
from repro.batched.sanitize import BatchedSanitizerSuite
from repro.batched.sweep import SweepPlan, SweepWorkspace
from repro.batched.system import JastrowSystemSpec, walker_streams
from repro.batched.walkerbatch import WalkerBatch
from repro.drivers.result import QMCResult
from repro.estimators.scalar import EstimatorManager
from repro.hamiltonian.nlpp import QuadratureRotations
from repro.lint.sanitizers import RngStreamSanitizer, sanitizers_enabled
from repro.metrics.registry import METRICS
from repro.precision.policy import FULL, PrecisionPolicy
from repro.profiling.profiler import PROFILER


class BatchedCrowdDriver:
    """VMC over a WalkerBatch with per-walker RNG streams."""

    #: cap on the drift displacement per move, in units of sqrt(tau)
    DRIFT_CAP = 2.0

    def __init__(self, spec: JastrowSystemSpec, nwalkers: int,
                 master_seed: int, timestep: float = 0.5,
                 use_drift: bool = True,
                 precision: PrecisionPolicy = FULL,
                 batch: Optional[WalkerBatch] = None,
                 rngs: Optional[List[np.random.Generator]] = None,
                 backend=None, restored: bool = False):
        self.spec = spec
        # Kernel backend: a name ("numpy"/"jax"), a KernelBackend
        # instance, or None for REPRO_BACKEND-then-default resolution.
        # Every driver entry point activates it for its own thread scope.
        self.backend = get_backend(backend)
        self.nw = int(nwalkers)
        self.n = spec.n
        self.tau = float(timestep)
        self.use_drift = use_drift
        self.precision = precision
        # A crowd hosting a subset of a larger population injects its
        # walkers' streams and a batch viewing shared storage; the
        # default standalone driver owns both (stream w of master_seed,
        # private canonical arrays).
        self.rngs = (rngs if rngs is not None
                     else walker_streams(master_seed, nwalkers))
        if len(self.rngs) != self.nw:
            raise ValueError(f"need {self.nw} RNG streams, "
                             f"got {len(self.rngs)}")
        self.batch = (batch if batch is not None
                      else WalkerBatch.from_positions(
                          spec.initial_positions(nwalkers), dtype=precision))
        if self.batch.nw != self.nw:
            raise ValueError(f"batch holds {self.batch.nw} walkers, "
                             f"expected {self.nw}")
        self.tables, self.components, self.ham = spec.build_batched(nwalkers)
        nlpp = getattr(self.ham, "nlpp", None)
        if nlpp is not None and nlpp.rotations is None:
            # Stateless quadrature-rotation streams keyed on the same
            # master seed as the walker RNGs; crowds hosting a subset of
            # a larger population re-key with their global walker ids
            # via nlpp.set_rotations(...).
            nlpp.set_rotations(QuadratureRotations(master_seed))
        #: per-walker grad/lap of log Psi: (W, n, 3) and (W, n)
        self.G = np.zeros((self.nw, self.n, 3))
        self.L = np.zeros((self.nw, self.n))
        self.n_accept = 0
        self.n_moves = 0
        #: (W,) accepted-move counts of the most recent sweep (DMC's
        #: age-based stuck-walker control reads this)
        self.last_sweep_accepts = np.zeros(self.nw, dtype=np.int64)
        self.estimators = EstimatorManager()
        self.sanitizers = (BatchedSanitizerSuite(precision)
                           if sanitizers_enabled() else None)
        #: optional fused-step trace: list of (W,) bool masks, one per move
        self.move_log: Optional[List[np.ndarray]] = None
        # Fused-sweep state (docs/sweep_fusion.md): one workspace of
        # per-sweep/per-move scratch allocated here and reused for the
        # driver's whole lifetime, and one plan bundling everything a
        # backend sweep_run call needs.
        self._workspace = SweepWorkspace(self.nw, self.n)
        self._plan = SweepPlan(self.batch, self.tables, self.components,
                               self._workspace, tau=self.tau,
                               drift_cap=self.DRIFT_CAP,
                               use_drift=self.use_drift)
        # ``restored``: the injected batch already carries log Psi and
        # E_L for its positions (a respawned or resumed crowd), so only
        # the distance tables are built; G/L fill at the first measure.
        with self.backend.scope():
            for t in self.tables:
                t.evaluate(self.batch)
            if not restored:
                self.batch.logpsi[...] = self._evaluate_log()

    # -- wavefunction over components ---------------------------------------------
    def _evaluate_log(self) -> np.ndarray:
        self.G[...] = 0.0
        self.L[...] = 0.0
        logpsi = np.zeros(self.nw)
        for c in self.components:
            logpsi += c.evaluate_log(self.tables, self.G, self.L)
        return logpsi

    def _grad(self, k: int) -> np.ndarray:
        g = np.zeros((self.nw, 3))
        for c in self.components:
            g += c.grad(self.tables, k)
        return g

    def _ratio(self, k: int) -> np.ndarray:
        rho = np.ones(self.nw)
        for c in self.components:
            rho *= c.ratio(self.tables, k)
        return rho

    def _ratio_grad(self, k: int):
        rho = np.ones(self.nw)
        g = np.zeros((self.nw, 3))
        for c in self.components:
            r, gc = c.ratio_grad(self.tables, k)
            rho *= r
            g += gc
        return rho, g

    def _limited_drift(self, g: np.ndarray) -> np.ndarray:
        """Batched norm-capped drift; the norm uses the same BLAS dot the
        per-walker ``np.linalg.norm`` lowers to, for bitwise agreement."""
        drift = self.tau * g
        norm = np.sqrt(np.matmul(drift[:, None, :],
                                 drift[:, :, None])[:, 0, 0])
        cap = self.DRIFT_CAP * math.sqrt(self.tau)
        over = norm > cap
        if np.any(over):
            drift[over] *= (cap / norm[over])[:, None]
        return drift

    # -- the fused sweep -----------------------------------------------------------
    def sweep(self) -> int:
        """One PbyP pass: W walkers advance electron k together."""
        with self.backend.scope(), METRICS.scope("sweep"):
            return self._sweep()

    def _sweep(self) -> int:
        """Fused sweep: one ``sweep_run`` backend call for the whole
        PbyP pass (docs/sweep_fusion.md).

        The randoms are drawn host-side into the standing workspace with
        the per-walker call pattern of the RNG contract; the plan's
        ``move_log``/``sanitizers`` are re-synced because tests attach
        them to the driver after construction.  Bitwise-pinned against
        :meth:`_loop_sweep` by the differential suite.
        """
        plan = self._plan
        plan.workspace.fill(self.rngs, plan.sqrt_tau)
        plan.move_log = self.move_log
        plan.sanitizers = self.sanitizers
        accepts, accepted_total = self.backend.sweep_run(plan)
        self.last_sweep_accepts = np.asarray(accepts, dtype=np.int64)
        self.n_accept += accepted_total
        self.n_moves += self.n * self.nw
        return accepted_total

    def _loop_sweep(self) -> int:
        """The pre-fusion per-electron loop, retained verbatim as the
        bitwise oracle for the fused pipeline (differential tests and
        the ``sweep`` bench's ``loop`` leg rebind ``_sweep`` to this)."""
        batch = self.batch
        tau = self.tau
        sqrt_tau = math.sqrt(tau)
        n = self.n
        # Per-walker streams, per-walker draw order (the RNG contract).
        chi_all = np.stack([rng.normal(scale=sqrt_tau, size=(n, 3))
                            for rng in self.rngs])
        uniforms = np.stack([rng.uniform(size=n) for rng in self.rngs])
        accepted_total = 0
        accepts_per_walker = np.zeros(self.nw, dtype=np.int64)
        for k in range(n):
            chi = chi_all[:, k]
            if self.use_drift:
                drift_old = self._limited_drift(self._grad(k))
                rnew = batch.R[:, k] + drift_old + chi
            else:
                rnew = batch.R[:, k] + chi
            for t in self.tables:
                with PROFILER.timer(t.category):
                    t.move(batch, rnew, k)
            if self.use_drift:
                rho, g_new = self._ratio_grad(k)
                drift_new = self._limited_drift(g_new)
                # log T(R'->R) - log T(R->R'), batched over the crowd:
                back = batch.R[:, k] - rnew - drift_new
                fwd = rnew - batch.R[:, k] - drift_old
                log_t = (-np.matmul(back[:, None, :], back[:, :, None])[:, 0, 0]
                         + np.matmul(fwd[:, None, :],
                                     fwd[:, :, None])[:, 0, 0]) / (2.0 * tau)
            else:
                rho = self._ratio(k)
                log_t = None
            acc = np.asarray(
                self.backend.accept_mask(  # repro: noqa R012
                    rho, log_t, uniforms[:, k]))
            if self.move_log is not None:
                self.move_log.append(acc.copy())
            for t in self.tables:
                with PROFILER.timer(t.category):
                    t.update(k, acc)
            batch.commit(k, rnew, acc)
            if self.sanitizers is not None:
                self.sanitizers.after_accept(batch, self.tables, k, acc)
            accepts_per_walker += acc
            accepted_total += int(np.count_nonzero(acc))
        self.last_sweep_accepts = accepts_per_walker
        self.n_accept += accepted_total
        self.n_moves += n * self.nw
        return accepted_total

    # -- external-commit resync -----------------------------------------------------
    def refresh_from_positions(self) -> None:
        """Resynchronize Rsoa and the distance tables from the canonical
        ``batch.R`` — required after an external writer (the DMC branch
        commit of the process-parallel crowds) rewrites positions behind
        the driver's back.  log Psi and E_L are not recomputed: the
        writer copies them along with each walker's positions, as the
        QMCPACK comb does."""
        with self.backend.scope():
            self.batch.sync_soa()
            for t in self.tables:
                with PROFILER.timer(t.category):
                    t.evaluate(self.batch)

    # -- measurement ----------------------------------------------------------------
    def measure(self) -> np.ndarray:
        """Refresh tables from scratch and evaluate log Psi (into
        ``batch.logpsi``) and E_L per walker — the batched
        ``store_walker``.  Returns the local energies."""
        with self.backend.scope(), METRICS.scope("measure"):
            return self._measure()

    def _measure(self) -> np.ndarray:
        for t in self.tables:
            with PROFILER.timer(t.category):
                t.evaluate(self.batch)
        if self.sanitizers is not None:
            self.sanitizers.check_state(self.batch, self.tables)
        self.batch.logpsi[...] = self._evaluate_log()
        el = self.ham.evaluate(self.batch, self.tables, self.G, self.L)
        self.batch.local_energy[...] = el
        comps = self.ham.last_components
        for w in range(self.nw):
            weight = float(self.batch.weight[w])
            self.estimators.accumulate("LocalEnergy", float(el[w]), weight)
            for name in self.ham.names:
                self.estimators.accumulate(name, float(comps[name][w]),
                                           weight)
        return el

    # -- the driver loop --------------------------------------------------------------
    def run(self, steps: int = 10, streams=None) -> QMCResult:
        """Run ``steps`` fused generations over the whole crowd.

        ``streams`` (a :class:`repro.output.stream.StreamSet`) streams
        each generation's per-walker energies, weights and Hamiltonian
        components to the binary trace + online reblocker instead of
        only keeping end-of-run aggregates."""
        t0 = time.perf_counter()
        result = QMCResult(method="VMC(batched)", steps=steps)
        armed = False
        if self.sanitizers is not None:
            # Fail fast on global-RNG draws for the whole loop: every
            # legitimate draw comes from a per-walker stream generator.
            RngStreamSanitizer.arm()
            armed = True
        try:
            with METRICS.scope("BatchedVMC"):
                for step in range(1, steps + 1):
                    self.sweep()
                    el = self.measure()
                    self.batch.age += 1
                    result.energies.append(float(np.mean(el)))
                    result.populations.append(self.nw)
                    if streams is not None:
                        comps = self.ham.last_components
                        # Trace rows are schema-fixed <f8 regardless of the
                        # run's PrecisionPolicy.
                        streams.record(
                            step, np.asarray(el, dtype=np.float64),  # repro: noqa R002
                            np.array(self.batch.weight),
                            {name: np.asarray(comps[name], dtype=np.float64)  # repro: noqa R002
                             for name in self.ham.names})
        finally:
            if armed:
                RngStreamSanitizer.disarm()
        result.elapsed = time.perf_counter() - t0
        result.acceptance = self.acceptance_ratio
        result.estimators = self.estimators
        result.online = streams.online if streams is not None else None
        result.extra["moves"] = float(self.n_moves)
        result.extra["accepted"] = float(self.n_accept)
        return result

    @property
    def acceptance_ratio(self) -> float:
        return self.n_accept / self.n_moves if self.n_moves else 0.0
