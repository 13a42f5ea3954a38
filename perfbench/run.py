"""End-to-end QMC generation benchmark.

Usage (from the root of a checkout; every workload in turn)::

    for w in dmc_crowds vmc_table1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 55 --trace 0
    done

One run builds the workload's system from scratch again and again
("episodes"), runs a streamed QMC run of the workload's fixed number of
generations in each and checks every output.  Episode i draws its
walker seed from (``--seed``, i), so a run averages over several
trajectories; episodes repeat for about ``--seconds``.  ``--trace 0``
runs untraced episodes, closes with a replay of the first episode's
seed that must write a byte-identical trace, and prints the end-to-end
metrics.  ``--trace 1`` follows each untraced episode with a traced
one of the same seed (again byte-identical) and prints the per-layer
metrics, the tracing overhead and the share of generation time no
layer span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (generations) and ``metrics``.
Every process this program starts is pinned to one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fewest distinct-seed episodes in a run (an untraced run adds a
#: replay of the first, so set-up time is a median of at least three)
MIN_DISTINCT = 2


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse to run
    against any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _traced_episode(wl, seed, outdir, tag):
    from qmcbench.episode import Episode
    from qmcbench.instrument import Instrumentation
    from qmcbench.metrics import TracedEpisode
    from qmcbench.spans import SpanRecorder
    from repro.perfmodel.opcount import OPS

    crowd_dir = os.path.join(outdir, tag)
    os.makedirs(crowd_dir)
    rec = SpanRecorder()
    inst = Instrumentation(rec, crowd_dir)
    episode = Episode(wl, seed, outdir, tag, recorder=rec)
    inst.install()
    OPS.reset()
    OPS.enabled = True
    rec.enabled = True
    try:
        episode.run()
    finally:
        rec.enabled = False
        OPS.enabled = False
        inst.uninstall()
    traced = None
    if episode.timed_generations >= 1 and episode.result is not None:
        traced = TracedEpisode(episode, rec.export(), crowd_dir)
    rec.reset()  # the spans are summed up; free them
    return episode, traced, inst.missing


def _run(args, outdir):
    from qmcbench.episode import Episode, episode_seed
    from qmcbench.host import fingerprint
    from qmcbench.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
    from qmcbench.stats import tail_percentile
    from qmcbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    host = fingerprint(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {wl.name}: {wl.generations} generations per episode, "
          f"seed {args.seed}, trace {args.trace}")

    untraced, traced_eps, traced, missing = [], [], [], []
    #: (first, second): two episodes of one seed, whose traces must match
    twins = []
    start = time.perf_counter()
    while True:
        i = len(untraced)
        ep = Episode(wl, episode_seed(args.seed, i), outdir, f"plain{i}")
        ep.run()
        untraced.append(ep)
        if args.trace:
            twin, tr, missing = _traced_episode(wl, ep.seed, outdir,
                                                f"traced{i}")
            traced_eps.append(twin)
            twins.append((ep, twin))
            if tr is not None:
                traced.append(tr)
        elapsed = time.perf_counter() - start
        step = elapsed / len(untraced)
        # An untraced run keeps room for its closing replay.
        room = elapsed + step * (1 if args.trace else 2)
        if len(untraced) >= MIN_DISTINCT and room > args.seconds:
            break
    if not args.trace:
        replay = Episode(wl, untraced[0].seed, outdir, "replay")
        replay.run()
        twins.append((untraced[0], replay))
        untraced.append(replay)

    episodes = untraced + traced_eps
    for first, second in twins:
        if first.raised or first.errors or second.raised or second.errors:
            continue
        if first.trace_bytes() != second.trace_bytes():
            second.errors.append("trace differs from the one its seed "
                                 "wrote before")
    attempted = sum(ep.gens for ep in episodes)
    failed = sum(ep.failed_generations for ep in episodes)
    for i, ep in enumerate(episodes):
        for msg in ep.errors + ep.notes:
            print(f"episode {i}: {msg}")
        if ep.result is not None:
            print(f"episode {i}: acceptance {ep.result.acceptance:.4f}, "
                  f"setup {ep.setup_s:.3f} s, memory {ep.mem_mb:.1f} MB, "
                  f"{ep.timed_generations} timed generations")

    if args.trace:
        values = per_layer(traced, untraced, traced_eps)
        table = PER_LAYER
        if missing:
            print("uninstrumented (absent from the program): "
                  + ", ".join(missing))
        note = ("note: ops.*.bytes are computed from array sizes, not "
                "measured traffic, and no bandwidth ratio is reported")
        largest = max(values[n] for n, unit, _ in table if unit == "B")
        if largest and host["llc_bytes"]:
            note += (f": the largest probed structure is "
                     f"{largest / 2**20:.1f} MiB against 4 x LLC = "
                     f"{4 * host['llc_bytes'] / 2**20:.0f} MiB")
        print(note)
    else:
        values = end_to_end(untraced)
        table = END_TO_END
        times = [t for ep in untraced for t in ep.gen_times]
        if times:
            value, pct, count = tail_percentile(times)
            print(f"gen_s_tail is p{pct:.1f} of {count} timed generations")
    if not os.path.isdir("/sys/class/powercap"):
        print("note: energy (paper Fig. 10) is not measured: this host "
              "has no /sys/class/powercap")
    for name, unit, _ in table:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of "
          f"{attempted} generations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in table},
    }


def _stop_resource_tracker() -> None:
    """End the shared-memory resource tracker the crowd driver started,
    and wait for it."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    from qmcbench.host import pin_threads
    pin_threads()  # before numpy loads its BLAS
    _import_program()
    from qmcbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(WORKLOADS)})")
    scratch = os.path.join(ROOT, ".perfbench_run")
    outdir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(outdir)
    try:
        result = _run(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it
        _stop_resource_tracker()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
