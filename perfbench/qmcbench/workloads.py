"""The benchmark workloads and the production entry points they drive.

Each workload builds its system from scratch inside the timed set-up
and runs one streamed QMC run of ``generations`` generations.  The system
geometry is fixed (``JastrowSystemSpec(seed=7)``, the NiO-32 catalogue
entry); the seed an episode is given drives the walkers' random streams.

Between them the two workloads call every layer: ``dmc_crowds`` the
walker-batched path with process crowds, NLPP, branching, checkpoints
and a shared slab; ``vmc_table1`` the scalar per-walker path with
determinants and SPOs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.batched.system import JastrowSystemSpec
from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.drivers.vmc import VMCDriver
from repro.parallel.crowds import ParallelCrowdDriver
from repro.spo.sposet import build_planewave_spline


@dataclass(frozen=True)
class Workload:
    name: str
    walkers: int
    #: crowd processes the run forks (0: it runs in this process alone)
    workers: int
    #: generations per episode (the first one closes the set-up)
    generations: int
    #: accepted share of proposed moves a correct run lands in
    acceptance: Tuple[float, float]
    #: full-run checkpoint cadence in generations (0 = none)
    checkpoint_every: int
    #: (workload, seed, gens, streams, probe) -> QMCResult
    execute: Callable


class Probe:
    """What a workload hands the output checks while it runs."""

    def __init__(self) -> None:
        #: proposed single-electron moves per generation (W * n)
        self.moves_per_gen = 0
        #: returns the population's current log Psi values, or None
        self.logpsi: Callable = lambda: None


def _crowd_logpsi(driver: ParallelCrowdDriver):
    # The crowd driver keeps the walker block (log Psi included) in its
    # state object while a run is live; nothing public exposes it.
    state = getattr(driver, "_state", None)
    return None if state is None else state.logpsi


def _dmc_crowds(wl: Workload, seed: int, gens: int, streams, probe: Probe):
    spec = JastrowSystemSpec(n=64, seed=7, with_nlpp=True)
    slab = build_planewave_spline(spec.lattice, 32, (48, 48, 48),
                                  dtype=np.float32)
    with ParallelCrowdDriver(spec, wl.walkers, seed, workers=wl.workers,
                             timestep=0.01, use_drift=True,
                             spo_slab=slab) as driver:
        probe.moves_per_gen = wl.walkers * spec.n
        probe.logpsi = lambda: _crowd_logpsi(driver)
        return driver.run(steps=gens, mode="dmc", streams=streams)


def _vmc_table1(wl: Workload, seed: int, gens: int, streams, probe: Probe):
    version = CodeVersion.CURRENT
    parts = QmcSystem.from_workload("NiO-32", scale=0.25).build(version)
    driver = VMCDriver(parts.electrons, parts.twf, parts.ham,
                       np.random.default_rng(seed), timestep=0.3,
                       use_drift=True,
                       precision=VERSION_CONFIGS[version].precision)
    probe.moves_per_gen = wl.walkers * parts.n
    probe.logpsi = lambda: parts.twf.log_value
    return driver.run(walkers=wl.walkers, steps=gens, streams=streams)


WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in (
    Workload(
        "dmc_crowds",
        walkers=32, workers=2, generations=20, acceptance=(0.98, 0.9995),
        checkpoint_every=10, execute=_dmc_crowds),
    Workload(
        "vmc_table1",
        walkers=2, workers=0, generations=24, acceptance=(0.80, 0.95),
        checkpoint_every=0, execute=_vmc_table1),
)}
