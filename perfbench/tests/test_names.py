"""The names, units and directions the benchmark prints are the ones
BENCHMARK.json declares."""

import json
import os

from qmcbench import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _table(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_metric_tables_match_benchmark_json():
    doc = _declared()
    assert _table(doc["end_to_end"]) == list(metrics.END_TO_END)
    assert _table(doc["per_layer"]) == list(metrics.PER_LAYER)


def test_workloads_match_benchmark_json():
    from qmcbench.workloads import WORKLOADS
    assert [w["name"] for w in _declared()["workloads"]] == list(WORKLOADS)


class _FakeEpisode:
    """An untraced episode as the metric functions see it."""

    def __init__(self, scale):
        self.timed_generations = 4
        self.gen_times = [0.5 * scale, 0.4 * scale, 0.6 * scale, 0.5 * scale]
        self.timed_seconds = sum(self.gen_times)
        self.timed_moves = 4 * 100
        self.setup_s = 1.0 * scale
        self.mem_mb = 50.0


def test_printed_names_are_the_declared_names():
    episodes = [_FakeEpisode(1.0), _FakeEpisode(1.1)]
    e2e = metrics.end_to_end(episodes)
    assert list(e2e) == [m["name"] for m in _declared()["end_to_end"]]
    assert all(v > 0 for v in e2e.values())
    layers = metrics.per_layer([], episodes, episodes)
    assert list(layers) == [m["name"] for m in _declared()["per_layer"]]
