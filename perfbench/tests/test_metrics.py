"""The run prints exactly the metrics BENCHMARK.json declares."""

import json

from run import ROOT, end_to_end_metrics, layer_metrics
from spans import SpanRecorder
from workloads import Stats

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def test_end_to_end_metrics_match_the_declaration():
    stats = Stats(
        lookup_us=[3.0, 1.0, 2.0], mutation_us=[5.0], completed=4,
        program_s=2.0, calibrated_s=1.0,
    )
    metrics, notes = end_to_end_metrics(stats, [0.2, 0.1, 0.3])
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    assert metrics["throughput_ops_s"][0] == 4.0
    assert metrics["lookup_p50_us"][0] == 2.0
    assert metrics["setup_s"][0] == 0.2
    assert set(notes) <= set(metrics)


def test_layer_metrics_match_the_declaration():
    recorder = SpanRecorder()
    with recorder.span("bench.harness"):
        pass
    metrics = layer_metrics(recorder, {}, {}, Stats(), Stats())
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
