"""Unit tests for the measurement harness."""

import time

from repro.benchharness.reporting import format_series_table, format_table
from repro.benchharness.runner import Series, time_callable


class TestTiming:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(1000))) >= 0

    def test_best_of_repeats(self):
        calls = []

        def task():
            calls.append(1)

        time_callable(task, repeats=4)
        assert len(calls) == 4


class TestSeries:
    def test_loglog_slope_linear(self):
        s = Series("linear")
        for n in (1, 2, 4, 8):
            s.add(n, 0.001 * n)
        slope = s.loglog_slope()
        assert slope is not None and abs(slope - 1.0) < 1e-6

    def test_loglog_slope_quadratic(self):
        s = Series("quad")
        for n in (1, 2, 4, 8):
            s.add(n, 0.001 * n * n)
        assert abs(s.loglog_slope() - 2.0) < 1e-6

    def test_growth_ratio_exponential(self):
        s = Series("exp")
        for n in (1, 2, 3, 4):
            s.add(n, 0.001 * 2 ** n)
        assert abs(s.growth_ratio() - 2.0) < 1e-6

    def test_degenerate_series(self):
        s = Series("flat")
        s.add(1, 0.0)
        assert s.loglog_slope() is None
        assert s.growth_ratio() is None


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.0], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series_table(self):
        s1 = Series("fast")
        s2 = Series("slow")
        for n in (1, 2, 4):
            s1.add(n, 1e-4 * n)
            s2.add(n, 1e-3 * n * n)
        text = format_series_table([s1, s2])
        assert "fast" in text and "slow" in text
        assert "slope≈" in text and "step×" in text

    def test_missing_points_rendered_as_dash(self):
        s1 = Series("a")
        s1.add(1, 0.1)
        s2 = Series("b")
        s2.add(2, 0.2)
        text = format_series_table([s1, s2])
        assert "-" in text

    def test_second_formatting_ranges(self):
        s = Series("x")
        s.add(1, 2.0)       # seconds
        s.add(2, 0.002)     # milliseconds
        s.add(4, 2e-6)      # microseconds
        text = format_series_table([s])
        assert "2.00s" in text and "2.00ms" in text and "2µs" in text
