"""Unit tests for measurement helpers."""

import pytest

from repro.bench import fit_linear, measurement, print_series, time_call


class TestFitLinear:
    def test_perfect_line(self):
        fit = fit_linear([1, 2, 3, 4], [2, 4, 6, 8])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_offset_line(self):
        fit = fit_linear([0, 1, 2], [5, 6, 7])
        assert fit.intercept == pytest.approx(5.0)
        assert fit.predict(10) == pytest.approx(15.0)

    def test_noisy_line_r2_below_one(self):
        fit = fit_linear([1, 2, 3, 4], [2, 4.5, 5.5, 8])
        assert 0.9 < fit.r_squared < 1.0

    def test_constant_series(self):
        fit = fit_linear([1, 2, 3], [4, 4, 4])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_linear([1], [2])
        with pytest.raises(ValueError):
            fit_linear([1, 1], [2, 3])
        with pytest.raises(ValueError):
            fit_linear([1, 2], [1, 2, 3])


class TestTimeCall:
    def test_returns_positive_seconds(self, monkeypatch):
        """Best of *repeat*, read off a fake clock: runs taking 0.5, 0.2
        and 0.3 s report 0.2 s."""
        readings = iter([10.0, 10.5, 20.0, 20.2, 30.0, 30.3])
        monkeypatch.setattr(
            measurement.time, "perf_counter", lambda: next(readings)
        )
        calls = []
        elapsed = time_call(lambda: calls.append(1), repeat=3)
        assert elapsed == pytest.approx(0.2)
        assert elapsed > 0
        assert len(calls) == 3


class TestPrintSeries:
    def test_prints_aligned_table(self, capsys):
        print_series(
            "demo", ["x", "time"], [[1, 0.5], [20, 0.25]]
        )
        out = capsys.readouterr().out
        assert "== demo ==" in out
        assert "x" in out and "time" in out
        assert "0.5" in out and "0.25" in out
