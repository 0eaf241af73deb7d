"""Unit tests for measurement instruments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Tally, ThroughputMeter, UtilizationMeter

#: Finite samples of both kinds callers record: float latencies and
#: integer fetch-attempt counts, bounded so no readout overflows.
SAMPLES = st.lists(
    st.one_of(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        st.integers(min_value=-(10**9), max_value=10**9),
    ),
    min_size=1,
    max_size=200,
)


class TestCounter:
    def test_increment_and_reset(self):
        counter = Counter("ops")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0


class TestTally:
    def test_mean_and_extremes(self):
        tally = Tally()
        for sample in [1.0, 2.0, 3.0, 4.0]:
            tally.record(sample)
        assert tally.mean() == pytest.approx(2.5)
        assert tally.minimum() == 1.0
        assert tally.maximum() == 4.0
        assert tally.count == 4

    def test_percentile_exact(self):
        tally = Tally()
        for sample in range(101):
            tally.record(float(sample))
        assert tally.percentile(50) == pytest.approx(50.0)
        assert tally.percentile(99) == pytest.approx(99.0)

    def test_empty_tally_raises(self):
        with pytest.raises(ValueError):
            Tally().mean()
        with pytest.raises(ValueError):
            Tally().percentile(50)
        with pytest.raises(ValueError):
            Tally().minimum()
        with pytest.raises(ValueError):
            Tally().maximum()

    def test_empty_tally_default_readout(self):
        # Reporting code that must survive idle instruments (an unloaded
        # cluster shard) passes an explicit default instead of crashing.
        tally = Tally("idle")
        assert np.isnan(tally.mean(default=float("nan")))
        assert np.isnan(tally.percentile(99, default=float("nan")))
        assert tally.minimum(default=0.0) == 0.0
        assert tally.maximum(default=-1.0) == -1.0

    def test_default_ignored_when_samples_exist(self):
        tally = Tally()
        tally.record(7.0)
        assert tally.mean(default=float("nan")) == pytest.approx(7.0)
        assert tally.percentile(50, default=0.0) == pytest.approx(7.0)

    def test_cdf_monotone_and_normalized(self):
        tally = Tally()
        rng = np.random.default_rng(1)
        for sample in rng.exponential(5.0, size=500):
            tally.record(float(sample))
        values, probs = tally.cdf(points=50)
        assert len(values) == 50
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probs) >= 0)
        assert probs[-1] == pytest.approx(1.0)

    def test_histogram(self):
        tally = Tally()
        for sample in [0.5, 1.5, 1.6, 2.5]:
            tally.record(sample)
        counts = tally.histogram([0, 1, 2, 3])
        assert list(counts) == [1, 2, 1]


class TestTallyStorage:
    @settings(max_examples=50, deadline=None)
    @given(
        samples=SAMPLES,
        p=st.floats(min_value=0.0, max_value=100.0),
        points=st.integers(min_value=1, max_value=50),
        bins=st.lists(
            st.floats(min_value=-1e12, max_value=1e12),
            min_size=2,
            max_size=8,
            unique=True,
        ).map(sorted),
    )
    def test_readouts_equal_numpy_on_a_list(self, samples, p, points, bins):
        tally = Tally()
        for sample in samples:
            tally.record(sample)
        assert tally.count == len(samples)
        assert tally.mean() == float(np.mean(samples))
        assert tally.minimum() == float(np.min(samples))
        assert tally.maximum() == float(np.max(samples))
        assert tally.percentile(p) == float(np.percentile(samples, p))
        ordered = np.sort(np.asarray(samples, dtype=float))
        probs = np.arange(1, len(ordered) + 1) / len(ordered)
        if len(ordered) > points:
            idx = np.linspace(0, len(ordered) - 1, points).astype(int)
            ordered, probs = ordered[idx], probs[idx]
        values, cumulative = tally.cdf(points)
        assert np.array_equal(values, ordered)
        assert np.array_equal(cumulative, probs)
        expected, _ = np.histogram(samples, bins=np.asarray(bins, dtype=float))
        assert np.array_equal(tally.histogram(bins), expected)

    @pytest.mark.parametrize("sample", ["x", None])
    def test_non_number_refused(self, sample):
        tally = Tally()
        with pytest.raises(TypeError):
            tally.record(sample)
        assert tally.count == 0

    def test_samples_slice_returns_the_tail(self):
        tally = Tally()
        for sample in [1, 2.5, 3]:
            tally.record(sample)
        tail = tally.samples[1:]
        assert list(tail) == [2.5, 3.0]
        # Integer samples read back as floats.
        assert [type(sample) for sample in tally.samples] == [float] * 3


class TestThroughputMeter:
    def test_ignores_warmup_completions(self):
        meter = ThroughputMeter(window_start=100.0, window_end=200.0)
        meter.record(50.0)
        meter.record(150.0)
        meter.record(250.0)
        assert meter.completions == 1

    def test_mops_over_window(self):
        meter = ThroughputMeter(window_start=0.0, window_end=100.0)
        for at in np.linspace(1, 100, 200):
            meter.record(float(at))
        assert meter.mops() == pytest.approx(2.0)

    def test_open_window_uses_last_completion(self):
        meter = ThroughputMeter(window_start=0.0)
        meter.record(10.0)
        meter.record(20.0)
        assert meter.mops() == pytest.approx(2 / 20.0)

    def test_empty_meter_reports_zero(self):
        assert ThroughputMeter().mops() == 0.0


class TestUtilizationMeter:
    def test_busy_integration(self):
        meter = UtilizationMeter("cpu")
        meter.begin_busy(0.0)
        meter.end_busy(30.0)
        meter.begin_busy(50.0)
        meter.end_busy(70.0)
        assert meter.utilization(100.0) == pytest.approx(0.5)

    def test_add_busy_direct(self):
        meter = UtilizationMeter()
        meter.add_busy(25.0)
        assert meter.utilization(100.0) == pytest.approx(0.25)

    def test_mismatched_begin_end_rejected(self):
        meter = UtilizationMeter()
        with pytest.raises(ValueError):
            meter.end_busy(1.0)
        meter.begin_busy(0.0)
        with pytest.raises(ValueError):
            meter.begin_busy(2.0)

    def test_utilization_capped_at_one(self):
        meter = UtilizationMeter()
        meter.add_busy(500.0)
        assert meter.utilization(100.0) == 1.0


class TestRandomStreams:
    def test_same_name_same_stream(self):
        from repro.sim import RandomStreams

        streams = RandomStreams(seed=3)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        from repro.sim import RandomStreams

        first = RandomStreams(seed=3).stream("keys").integers(0, 1000, size=10)
        second = RandomStreams(seed=3).stream("keys").integers(0, 1000, size=10)
        assert list(first) == list(second)

    def test_distinct_names_distinct_draws(self):
        from repro.sim import RandomStreams

        streams = RandomStreams(seed=3)
        a = streams.stream("a").integers(0, 2**31, size=8)
        b = streams.stream("b").integers(0, 2**31, size=8)
        assert list(a) != list(b)

    def test_fork_independent(self):
        from repro.sim import RandomStreams

        base = RandomStreams(seed=3)
        fork = base.fork(1)
        a = base.stream("x").integers(0, 2**31, size=8)
        b = fork.stream("x").integers(0, 2**31, size=8)
        assert list(a) != list(b)
