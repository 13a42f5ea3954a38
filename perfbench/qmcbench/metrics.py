"""Metric names and units, and how episodes turn into metric values.

``END_TO_END`` is what ``--trace 0`` prints and ``PER_LAYER`` what
``--trace 1`` prints; ``BENCHMARK.json`` lists the same names, units
and directions (a unit test holds the two together).  Every metric is
printed for every workload; a layer a workload never calls reads 0.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

from repro.backend.base import KERNEL_NAMES

from qmcbench import spans as sp
from qmcbench.stats import median, tail_percentile

#: (name, unit, better)
END_TO_END = (
    ("moves_per_s", "moves/s", "higher"),
    ("gen_s_p50", "s", "lower"),
    ("gen_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("mem_mb", "MB", "lower"),
)

#: operation-count categories read from repro.perfmodel.opcount.OPS
OPS_CATEGORIES = ("DistTable-AA", "DistTable-AB", "J1", "J2", "NLPP",
                  "Bspline-vgh", "SPO-vgl", "DetUpdate")

#: layers reported as self seconds per generation
_BUSY_LAYERS = (
    "batched.driver.sweep", "batched.driver.measure", "batched.driver.refresh",
    "batched.distances.aa", "batched.distances.ab", "batched.jastrow.j1",
    "batched.jastrow.j2", "batched.walkerbatch", "batched.system",
    "batched.nlpp", "batched.spo", "parallel.engine", "parallel.crowds",
    "output.stream", "stats.online", "output.runstate", "drivers.sweep",
    "drivers.measure", "drivers.load", "particles", "jastrow.j1",
    "jastrow.j2", "determinant", "spo", "hamiltonian", "hamiltonian.nlpp")
#: layers that also report entries per generation
_CALL_LAYERS = ("batched.distances.aa", "batched.distances.ab",
                "batched.nlpp", "determinant")
#: layers whose byte probes report structure or checkpoint-file bytes
_BYTE_LAYERS = ("batched.distances.aa", "batched.distances.ab",
                "batched.walkerbatch", "splines.slab", "output.runstate")


def _per_layer() -> List[tuple]:
    out = [(f"{layer}.busy_s", "s/gen", "lower") for layer in _BUSY_LAYERS]
    out += [(f"{layer}.calls", "calls/gen", "lower") for layer in _CALL_LAYERS]
    out += [(f"{layer}.bytes", "B", "lower") for layer in _BYTE_LAYERS]
    out += [("output.stream.bytes", "B/gen", "lower"),
            ("parallel.shmcomm.bytes", "B/gen", "lower"),
            ("parallel.shmcomm.wait_s", "s/gen", "lower"),
            ("parallel.crowds.imbalance", "ratio", "lower"),
            ("backend.dispatches", "calls/gen", "lower")]
    for kernel in KERNEL_NAMES:
        out += [(f"backend.{kernel}.calls", "calls/gen", "lower"),
                (f"backend.{kernel}.busy_s", "s/gen", "lower")]
    for cat in OPS_CATEGORIES:
        out += [(f"ops.{cat}.flops", "flop/gen", "lower"),
                (f"ops.{cat}.bytes", "computed_B/gen", "lower")]
    out += [("trace.moves_per_s_untraced", "moves/s", "higher"),
            ("trace.moves_per_s_traced", "moves/s", "higher"),
            ("trace.overhead_frac", "frac", "lower"),
            ("trace.uncovered_frac", "frac", "lower")]
    return out


PER_LAYER = tuple(_per_layer())


def _rate(episodes) -> float:
    """Median over episodes of each one's moves per timed second, so one
    episode caught in a slow spell of the host does not move it."""
    rates = [e.timed_moves / e.timed_seconds for e in episodes
             if e.timed_seconds > 0.0]
    return median(rates) if rates else 0.0


def end_to_end(episodes: Sequence) -> Dict[str, float]:
    """The user-facing numbers over untraced episodes: the median of the
    episodes' moves per second, the median and tail of all their timed
    generation times, and the medians of set-up time and footprint."""
    usable = [e for e in episodes if e.timed_generations >= 1]
    if not usable:
        return {name: 0.0 for name, _, _ in END_TO_END}
    times = [t for e in usable for t in e.gen_times]
    return {
        "moves_per_s": _rate(usable),
        "gen_s_p50": median(times),
        "gen_s_tail": tail_percentile(times)[0],
        "setup_s": median([e.setup_s for e in usable]),
        "mem_mb": median([e.mem_mb for e in usable]),
    }


def _load_crowd_files(outdir: str) -> List[dict]:
    docs = []
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".spans.json"):
            with open(os.path.join(outdir, name)) as fh:
                docs.append(json.load(fh))
    return docs


def _imbalance(crowd_docs, window) -> float:
    """Mean over timed generations of the slowest crowd's generation
    time over the crowds' mean (0 without crowd processes)."""
    per_crowd = [sp.durations_of(d["spans"], "parallel.engine", window)
                 for d in crowd_docs]
    ratios = []
    for times in zip(*per_crowd):
        mean = sum(times) / len(times)
        if mean > 0.0:
            ratios.append(max(times) / mean)
    return sum(ratios) / len(ratios) if ratios else 0.0


class TracedEpisode:
    """Per-layer numbers of one traced episode, per timed generation."""

    def __init__(self, episode, parent: dict, outdir: str) -> None:
        window = episode.window
        gens = max(1, episode.timed_generations)
        crowd_docs = _load_crowd_files(outdir)
        layers: Dict[str, Dict[str, float]] = {}
        docs = [parent] + crowd_docs
        for i, doc in enumerate(docs):
            for name, acc in sp.layer_totals(doc["spans"], window).items():
                if name == "parallel.shmcomm" and i > 0:
                    continue  # a crowd waiting for its next command
                into = layers.setdefault(name, {"busy_s": 0.0, "calls": 0.0})
                into["busy_s"] += acc["busy_s"]
                into["calls"] += acc["calls"]
        nbytes: Dict[str, float] = {}
        for doc in docs:
            for name, value in doc["nbytes"].items():
                nbytes[name] = nbytes.get(name, 0.0) + value
        ops: Dict[str, List[float]] = {}
        for doc in [{"ops": episode.ops}] + crowd_docs:
            for cat, (flops, nb) in doc["ops"].items():
                cur = ops.setdefault(cat, [0.0, 0.0])
                cur[0] += flops
                cur[1] += nb
        self.values: Dict[str, float] = {}
        v = self.values
        for layer in _BUSY_LAYERS:
            v[f"{layer}.busy_s"] = layers.get(layer, {}).get("busy_s", 0.0) \
                / gens
        for layer in _CALL_LAYERS:
            v[f"{layer}.calls"] = layers.get(layer, {}).get("calls", 0.0) \
                / gens
        for layer in _BYTE_LAYERS:
            v[f"{layer}.bytes"] = nbytes.get(layer, 0.0)
        v["output.stream.bytes"] = episode.trace_bytes_per_gen
        v["parallel.shmcomm.bytes"] = sum(
            sp.counted(doc["counts"], "parallel.shmcomm.bytes", window)
            for doc in docs) / gens
        v["parallel.shmcomm.wait_s"] = \
            layers.get("parallel.shmcomm", {}).get("busy_s", 0.0) / gens
        v["parallel.crowds.imbalance"] = _imbalance(crowd_docs, window)
        for kernel in KERNEL_NAMES:
            acc = layers.get(f"backend.{kernel}", {})
            v[f"backend.{kernel}.calls"] = acc.get("calls", 0.0) / gens
            v[f"backend.{kernel}.busy_s"] = acc.get("busy_s", 0.0) / gens
        v["backend.dispatches"] = sum(
            sp.outermost_calls(doc["spans"], "backend.", window)
            for doc in docs) / gens
        for cat in OPS_CATEGORIES:
            flops, nb = ops.get(cat, (0.0, 0.0))
            v[f"ops.{cat}.flops"] = flops / gens
            v[f"ops.{cat}.bytes"] = nb / gens
        self.uncovered = sp.uncovered_share(parent["spans"], window)
        self.weight = gens


def per_layer(traced: Sequence[TracedEpisode], untraced: Sequence,
              traced_episodes: Sequence) -> Dict[str, float]:
    """Generation-weighted mean of the traced episodes' per-layer numbers,
    plus the tracing overhead against the untraced episodes of the run."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    total = sum(t.weight for t in traced)
    if total:
        for name in out:
            if not name.startswith("trace."):
                out[name] = sum(t.values[name] * t.weight
                                for t in traced) / total
        out["trace.uncovered_frac"] = sum(t.uncovered * t.weight
                                          for t in traced) / total
    plain = _rate([e for e in untraced if e.timed_generations >= 1])
    with_spans = _rate([e for e in traced_episodes
                        if e.timed_generations >= 1])
    out["trace.moves_per_s_untraced"] = plain
    out["trace.moves_per_s_traced"] = with_spans
    out["trace.overhead_frac"] = 1.0 - with_spans / plain if plain else 0.0
    return out
