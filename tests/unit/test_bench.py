"""Unit tests for the shared benchmark helpers (repro.bench)."""

from repro.bench import percentile, run_metadata


class TestPercentile:
    def test_empty_input_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_nearest_rank_over_sorted_values(self):
        values = [40.0, 10.0, 30.0, 20.0, 50.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 50) == 30.0
        assert percentile(values, 99) == 50.0
        assert percentile(values, 100) == 50.0

    def test_rank_rounds_half_to_even(self):
        # rank = round(0.5 * 3) = 2 under Python's round-half-to-even;
        # BENCH_*.json percentiles depend on this exact rank.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 3.0


def test_run_metadata_keys_and_duration():
    meta = run_metadata(1.23456)
    assert sorted(meta) == [
        "git_rev",
        "implementation",
        "platform",
        "python",
        "run_duration_s",
        "written_at",
    ]
    assert meta["run_duration_s"] == 1.235
    assert isinstance(meta["git_rev"], str)
