"""Spans around the calls into each layer, installed from outside ``src/``.

Every entry of :data:`LAYER_TARGETS` names a layer and the functions
whose calls make up its work.  :class:`Instrumentation` swaps each of
those attributes for a wrapper that opens a span in a
:class:`~qmcbench.spans.SpanRecorder`, and puts the originals back on
``uninstall``.  Crowd processes are forked from the parent, so they
inherit the wrapped classes; their spans are flushed to a file when the
parent tells them to stop.
"""

from __future__ import annotations

import functools
import importlib
import os
from multiprocessing.reduction import ForkingPickler
from typing import Callable, List, Optional, Tuple

from repro.backend.base import KERNEL_NAMES

from qmcbench.spans import SpanRecorder

#: the trial-wavefunction component API of the scalar path
_WF_API = ("evaluate_log", "evaluate_gl", "grad", "ratio", "ratio_grad",
           "ratio_at", "ratios_vp", "accept_move", "reject_move",
           "register_data", "update_buffer", "copy_from_buffer")
_BATCHED_J = ("sweep_grad", "sweep_ratio_grad", "evaluate_gl", "evaluate_log",
              "ratios_vp")

#: (layer, module, class or None for module functions, attributes)
LAYER_TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    # crowd (walker-batched) path
    ("batched.driver.sweep", "repro.batched.driver", "BatchedCrowdDriver",
     ("sweep",)),
    ("batched.driver.measure", "repro.batched.driver", "BatchedCrowdDriver",
     ("measure",)),
    ("batched.driver.refresh", "repro.batched.driver", "BatchedCrowdDriver",
     ("refresh_from_positions",)),
    ("batched.distances.aa", "repro.batched.distances", "BatchedDistTableAA",
     ("evaluate", "move", "update")),
    ("batched.distances.aa", "repro.batched.distances",
     "BatchedDistTableAAOtf", ("move", "update")),
    ("batched.distances.ab", "repro.batched.distances", "BatchedDistTableAB",
     ("evaluate", "move", "update")),
    ("batched.jastrow.j1", "repro.batched.jastrow", "BatchedOneBodyJastrow",
     _BATCHED_J),
    ("batched.jastrow.j2", "repro.batched.jastrow", "BatchedTwoBodyJastrow",
     _BATCHED_J),
    ("batched.walkerbatch", "repro.batched.walkerbatch", "WalkerBatch",
     ("commit", "sync_soa")),
    ("batched.system", "repro.batched.system", "BatchedHamiltonian",
     ("evaluate",)),
    ("batched.nlpp", "repro.batched.nlpp", "BatchedNonLocalPP",
     ("evaluate",)),
    ("batched.spo", "repro.batched.spo", None, ("batched_multi_vgh",)),
    ("splines.slab", "repro.splines.slab", "SharedCoefSlab", ("promote",)),
    # process crowds: one crowd's generation, parent-side work, collectives
    ("parallel.engine", "repro.parallel.crowds", "_CrowdEngine",
     ("run_generation",)),
    ("parallel.crowds", "repro.parallel.crowds", "ParallelCrowdDriver",
     ("_branch_comb",)),
    ("parallel.crowds", "repro.parallel.shm", "SharedWalkerState",
     ("checkpoint",)),
    ("parallel.shmcomm", "repro.parallel.shmcomm", "SharedMemComm",
     ("bcast", "allgather", "resume")),
    # output
    ("stats.online", "repro.stats.online", "OnlineScalarStats",
     ("add_array",)),
    ("output.runstate", "repro.output.runstate", None,
     ("save_run_checkpoint",)),
    # scalar (per-walker) path
    ("drivers.sweep", "repro.drivers.base", "QMCDriverBase", ("sweep",)),
    ("drivers.measure", "repro.drivers.base", "QMCDriverBase",
     ("store_walker",)),
    ("drivers.load", "repro.drivers.base", "QMCDriverBase",
     ("load_walker",)),
    ("particles", "repro.particles.particleset", "ParticleSet",
     ("update_tables", "make_move", "accept_move", "reject_move",
      "load_walker", "store_walker", "sync_layouts")),
    ("jastrow.j1", "repro.jastrow.j1", "OneBodyJastrowOtf", _WF_API),
    ("jastrow.j2", "repro.jastrow.j2", "TwoBodyJastrowOtf", _WF_API),
    ("determinant", "repro.determinant.dirac", "DiracDeterminant",
     _WF_API + ("recompute",)),
    ("spo", "repro.spo.sposet", "BsplineSPOSet",
     ("evaluate_v", "evaluate_vgl")),
    ("hamiltonian", "repro.hamiltonian.local_energy", "Hamiltonian",
     ("evaluate",)),
    ("hamiltonian.nlpp", "repro.hamiltonian.nlpp", "NonLocalPP",
     ("evaluate",)),
)

#: generation 1 closes the set-up; operation counters restart with 2
FIRST_TIMED_STEP = 2


class Instrumentation:
    """Installs and removes the layer wrappers."""

    def __init__(self, recorder: SpanRecorder, crowd_dir: str) -> None:
        self.rec = recorder
        #: where crowd processes flush their spans
        self.crowd_dir = crowd_dir
        self._saved: List[Tuple[object, str, object]] = []
        #: targets that no longer exist in the program (reported, not fatal)
        self.missing: List[str] = []

    # -- patching ---------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            if not hasattr(owner, attr):
                self.missing.append(f"{getattr(owner, '__name__', owner)}"
                                    f".{attr}")
            return  # inherited: wrapped where it is defined
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        traced = self.rec.wrap(name, fn)
        if after is None:
            wrapper = traced
        else:
            def wrapper(*args, **kwargs):
                out = traced(*args, **kwargs)
                after(args, out)
                return out
        functools.update_wrapper(wrapper, fn)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._saved.append((owner, attr, raw))

    def _replace(self, owner, attr: str, make: Callable) -> None:
        raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(raw))
        self._saved.append((owner, attr, raw))

    def install(self) -> None:
        for name, module, cls, attrs in LAYER_TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                self.missing.append(module)
                continue
            if cls is not None:
                owner = getattr(owner, cls, None)
                if owner is None:
                    self.missing.append(f"{module}.{cls}")
                    continue
            for attr in attrs:
                self._wrap(owner, attr, name, self._after_hook(name, attr))
        from repro.backend import get_backend
        backend_cls = type(get_backend())
        for kernel in KERNEL_NAMES:
            self._wrap(backend_cls, kernel, f"backend.{kernel}")
        import repro.parallel.crowds as crowds
        self._replace(crowds, "_worker_main", self._traced_worker_main)
        from repro.parallel.shmcomm import SharedMemComm
        self._replace(SharedMemComm, "_send_raw", self._counted_send)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- per-layer hooks ----------------------------------------------------------
    def _after_hook(self, name: str, attr: str) -> Optional[Callable]:
        rec = self.rec
        if name.startswith("batched.distances."):
            def tables(args, out):
                rec.note_bytes(name, id(args[0]),
                               lambda: args[0].storage_bytes)
            return tables
        if name == "batched.walkerbatch":
            def batch(args, out):
                rec.note_bytes(name, id(args[0]), lambda: args[0].nbytes)
            return batch
        if name == "splines.slab":
            def slab(args, out):
                rec.note_bytes(name, id(out), lambda: out.nbytes)
            return slab
        if name == "output.runstate":
            def checkpoint(args, out):
                rec.note_bytes(name, str(args[0]),
                               lambda: os.path.getsize(args[0]))
            return checkpoint
        if name == "parallel.shmcomm" and attr == "bcast":
            return self._crowd_command
        return None

    def _crowd_command(self, args, out) -> None:
        """Crowd-process side of a broadcast: restart the operation
        counters when the timed window opens, flush spans on stop."""
        comm = args[0]
        if comm.rank == 0 or not isinstance(out, tuple):
            return
        from repro.perfmodel.opcount import OPS
        crowd = comm.rank - 1
        if out[0] == "gen" and out[1] == FIRST_TIMED_STEP:
            OPS.reset()
        elif out[0] == "stop":
            self.rec.dump(os.path.join(self.crowd_dir,
                                       f"crowd{crowd}.spans.json"),
                          {"crowd": crowd, "ops": ops_totals()})

    def _counted_send(self, send_raw: Callable) -> Callable:
        """Count the pickled bytes of every message a crowd pipe carries
        (collective contributions and results, point to point), as
        ``Connection.send`` pickles them."""
        rec = self.rec

        @functools.wraps(send_raw)
        def counted(comm, dst, msg):
            if rec.enabled:
                rec.count("parallel.shmcomm.bytes",
                          len(ForkingPickler.dumps(msg)))
            return send_raw(comm, dst, msg)
        return counted

    def _traced_worker_main(self, worker_main: Callable) -> Callable:
        rec = self.rec

        @functools.wraps(worker_main)
        def traced(cfg):
            # A forked crowd starts with a copy of the parent's spans.
            rec.reset()
            rec.enabled = True
            return worker_main(cfg)
        return traced


def ops_totals() -> dict:
    """``{category: [flops, bytes]}`` from the global operation counter."""
    from repro.perfmodel.opcount import OPS
    return {cat: [k.flops, k.bytes_moved] for cat, k in OPS.totals().items()}
