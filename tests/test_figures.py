import math
import os

import numpy as np
import pytest

from jumpsqueeze.constants import TWO_PI
from jumpsqueeze.errors import ConfigError
from jumpsqueeze.figures import (DEFAULT_CONSTANTS, FIGURE_IDS, CurveTable,
                                 build_spec, emit_csv, emit_plot_script,
                                 generate)


@pytest.fixture(scope="module")
def tables(config):
    out = {}
    for figure_id in FIGURE_IDS:
        spec = build_spec(figure_id, config.trap, config.rabi)
        out[figure_id] = generate(spec)
    return out


class TestBuildSpec:
    def test_unknown_figure(self, config):
        with pytest.raises(ConfigError):
            build_spec("fig9z", config.trap, config.rabi)

    def test_unknown_constant(self, config):
        with pytest.raises(ConfigError):
            build_spec("fig2a", config.trap, config.rabi, {"nonsense": 1.0})

    def test_every_figure_has_default_constants(self):
        assert tuple(DEFAULT_CONSTANTS) == FIGURE_IDS

    def test_override_applies(self, config):
        spec = build_spec("fig2a", config.trap, config.rabi, {"points": 11})
        assert len(spec.sweep) == 11

    @pytest.mark.parametrize("figure_id, overrides, message", [
        ("fig3c", {"d_m": 1e-6}, r"figure_overrides\.fig3c\.d_m \(largest "
         r"\|alpha\| of the fig3c sweep\): must be <= 6\.0, got 45\.1"),
        ("fig2a_inset", {"r_per_jump": 1.0}, r"figure_overrides\.fig2a_inset"
         r"\.r_per_jump \(largest r_eff of the fig2a_inset sweep\): must "
         r"be <= 3\.0, got 4\.0"),
        ("fig2d", {"squeeze_factor": 1e300}, r"figure_overrides\.fig2d\."
         r"v_max_m_s: v_max\^2 / \(2 sigma\^2\) at the narrowest width"),
    ])
    def test_builder_bounds_the_amplitudes_it_computes(
            self, config, figure_id, overrides, message):
        # the constants pass their own domains; the builder's rows do not
        spec = build_spec(figure_id, config.trap, config.rabi, overrides)
        with pytest.raises(ConfigError, match=message):
            generate(spec)

    def test_default_grid_shapes(self, config):
        spec = build_spec("fig2a", config.trap, config.rabi)
        assert len(spec.sweep) == 57
        assert spec.sweep[0] == 0.0
        assert spec.sweep[-1] == pytest.approx(2.8)


class TestFigureContracts:
    def test_fig2a_baseline_and_monotonicity(self, tables):
        table = tables["fig2a"].columns
        meta = tables["fig2a"].metadata
        assert table["R"][0] == pytest.approx(0.22 / 1.22, abs=1e-6)
        ceiling = table["nbar_st"] + table["dnbar_st"] <= 11.0
        r_vals = table["R"][ceiling]
        assert np.all(np.diff(r_vals) >= 0)
        assert meta["baseline_rule"] == "thermal"

    def test_fig2a_inset_amplitudes(self, tables):
        table = tables["fig2a_inset"].columns
        np.testing.assert_allclose(table["r_total"],
                                   0.39 * np.arange(1, 5), rtol=1e-10)
        assert np.all(np.diff(table["R"]) > 0)

    def test_fig2b_flat_at_thermal_baseline(self, tables):
        table = tables["fig2b"].columns
        baseline = 0.22 / 1.22
        assert np.max(np.abs(table["R"] - baseline)) < 1e-8

    def test_fig2c_periodicity(self, tables, config):
        table = tables["fig2c"].columns
        meta = tables["fig2c"].metadata
        period = math.pi / config.trap.omega2
        assert meta["oscillation_period_s"] == pytest.approx(21.74e-6,
                                                             abs=0.01e-6)
        assert abs(period * 1e6 - 21.8) < 0.3  # versus the fitted constant
        # raw curve repeats after exactly one period (40 grid rows)
        r = table["R"]
        assert np.max(np.abs(r[40:] - r[:-40])) < 1e-9
        assert r.max() - r.min() > 0.2  # genuinely oscillates

    def test_fig2d_width_ratios(self, tables):
        meta = tables["fig2d"].metadata
        assert meta["width_ratio_position_squeezed"] == pytest.approx(2.58)
        assert meta["width_ratio_momentum_squeezed"] == pytest.approx(1 / 2.58)
        assert meta["width_1e2_ground_m_s"] == pytest.approx(0.0295, rel=0.01)
        cols = tables["fig2d"].columns
        v = cols["velocity_m_s"]
        center = len(v) // 2
        # momentum-squeezed profile is the narrowest, position the widest
        off = center + 20
        assert cols["density_squeezed_momentum"][off] < \
            cols["density_ground"][off] < cols["density_squeezed_position"][off]

    def test_fig3b_thermal_above_coherent_and_converging(self, tables):
        cols = tables["fig3b"].columns
        assert cols["R_displaced_thermal"][0] > cols["R_pure_coherent"][0]
        assert cols["R_pure_coherent"][0] == pytest.approx(0.0, abs=1e-12)
        big = cols["alpha"] >= 2.5
        gap = np.abs(cols["R_displaced_thermal"][big]
                     - cols["R_pure_coherent"][big])
        assert np.all(gap / cols["R_displaced_thermal"][big] < 0.05)

    def test_fig3b_calibration_pinned(self, tables):
        cols = tables["fig3b"].columns
        meta = tables["fig3b"].metadata
        assert meta["trap.calibration"] == pytest.approx(0.8762, abs=1e-4)
        idx = np.argmin(np.abs(cols["d_m"] - 133e-9))
        d, alpha = cols["d_m"][idx], cols["alpha"][idx]
        assert alpha == pytest.approx(3.0 * d / 133e-9, rel=1e-3)

    def test_fig3c_periodicity(self, tables, config):
        meta = tables["fig3c"].metadata
        period = TWO_PI / config.trap.omega1
        assert meta["oscillation_period_s"] == pytest.approx(period)
        assert abs(period * 1e6 - 10.5) < 0.3
        r = tables["fig3c"].columns["R"]
        assert np.max(np.abs(r[40:] - r[:-40])) < 1e-9

    def test_fig4a_oscillates_at_omega1_not_2omega1(self, tables):
        r = tables["fig4a"].columns["R"]
        full = np.max(np.abs(r[40:] - r[:-40]))   # one period shift
        half = np.max(np.abs(r[20:] - r[:-20]))   # half period shift
        assert full < 1e-9
        assert half > 0.1
        # discrete autocorrelation peaks at the full period, not half
        x = r - r.mean()
        auto = np.correlate(x, x, mode="full")[len(x) - 1:]
        assert auto[40] > auto[20]

    def test_fig4c_columns_and_decoherence_gap(self, tables):
        cols = tables["fig4c"].columns
        assert set(cols) == {"two_r", "alpha_f_abs", "t_prime_s",
                             "R_with_decoherence", "R_no_decoherence"}
        # thermalization piles weight back onto low n (geometric shape),
        # pulling R below the displaced-thermal curve
        assert np.all(cols["R_with_decoherence"] < cols["R_no_decoherence"])
        np.testing.assert_allclose(cols["alpha_f_abs"],
                                   0.67 * np.exp(cols["two_r"]), rtol=1e-12)

    def test_envelopes_pull_toward_baseline(self, tables):
        for fig in ("fig2c", "fig3c", "fig4a"):
            cols = tables[fig].columns
            base = tables[fig].metadata["envelope_baseline_R"]
            raw_dev = np.abs(cols["R"] - base)
            env_dev = np.abs(cols["R_enveloped"] - base)
            assert np.all(env_dev <= raw_dev + 1e-12)
            assert env_dev[1:].max() < raw_dev[1:].max()


class TestDeterminismAndCsv:
    def test_generate_is_deterministic(self, config):
        spec = build_spec("fig2a", config.trap, config.rabi)
        a = generate(spec)
        b = generate(spec)
        for name in a.columns:
            np.testing.assert_array_equal(a.columns[name], b.columns[name])
        assert a.metadata == b.metadata

    def test_csv_byte_identical(self, tables, tmp_path):
        table = tables["fig2c"]
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        emit_csv(table, p1)
        emit_csv(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_format(self, tables, tmp_path):
        table = tables["fig4c"]
        path = tmp_path / "fig4c.csv"
        emit_csv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        meta_lines = [l for l in lines if l.startswith("#")]
        assert any("figure_id: fig4c" in l for l in meta_lines)
        assert any("trap.omega1_hz" in l for l in meta_lines)
        header = lines[len(meta_lines)]
        assert header.split(",")[0] == "two_r"
        first_row = lines[len(meta_lines) + 1].split(",")
        assert len(first_row) == len(table.columns)
        assert len(lines) == len(meta_lines) + 1 + 41

    def test_no_tmp_litter(self, tables, tmp_path):
        emit_csv(tables["fig2b"], tmp_path / "x.csv")
        assert sorted(os.listdir(tmp_path)) == ["x.csv"]

    def test_plot_script(self, tables, tmp_path):
        csv_path = tmp_path / "fig2a.csv"
        emit_csv(tables["fig2a"], csv_path)
        script_path = tmp_path / "fig2a.gp"
        emit_plot_script(tables["fig2a"], csv_path, script_path)
        text = script_path.read_text()
        assert "plot" in text and "fig2a.csv" in text

    def test_rejects_nonfinite_columns(self):
        with pytest.raises(ValueError):
            CurveTable({"x": np.array([1.0, np.nan])}, {})

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            CurveTable({"x": np.zeros(3), "y": np.zeros(4)}, {})
