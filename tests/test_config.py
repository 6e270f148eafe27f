import math

import numpy as np
import pytest

from gradiplate.config import (
    build_config,
    parse_config_text,
    preset_coefficients,
)
from gradiplate.errors import ConfigError
from gradiplate.model import Interval, Rectangle

BASE = {
    "rho": "1", "a": "1", "b": "1", "c": "1", "d": "1", "eta": "1",
    "domain": "interval", "length": "3.141592653589793", "mode_count": "4",
}


def simulate_raw(**extra):
    raw = dict(BASE)
    raw.update({"t_end": "1.0", "dt": "0.1", "initial": "first-mode-bend"})
    raw.update(extra)
    return raw


class TestParseText:
    def test_comments_blanks_and_spacing(self):
        text = """
        # leading comment
        rho = 1.0   # trailing comment
        a=2
        """
        assert parse_config_text(text) == {"rho": "1.0", "a": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("rho = 1\nrho = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("rho 1.0")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("rho =")


class TestBuildConfig:
    def test_simulate_happy_path(self):
        cfg = build_config(simulate_raw(), "simulate")
        assert cfg.params.rho == 1.0
        assert type(cfg.domain) is Interval and cfg.domain.length == math.pi
        assert cfg.lams.tolist() == [1.0, 4.0, 9.0, 16.0]
        assert cfg.x0.tolist() == [[1.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_config(simulate_raw(bogus="1"), "simulate")

    def test_missing_params_rejected(self):
        raw = simulate_raw()
        del raw["rho"]
        with pytest.raises(ConfigError, match="missing required"):
            build_config(raw, "simulate")

    def test_numeric_constraints_enforced(self):
        with pytest.raises(ConfigError):
            build_config(simulate_raw(rho="-1"), "simulate")
        with pytest.raises(ConfigError):
            build_config(simulate_raw(c="0"), "simulate")

    def test_regime_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="Stable requires"):
            build_config(simulate_raw(c="-1", regime="stable"), "simulate")

    @pytest.mark.parametrize("regime, c, message", [
        ("stable", "1", None),
        ("unstable", "-1", None),
        ("quasistatic", "-1", None),
        ("stable", "-1", "regime Stable requires c > 0"),
        ("unstable", "1", "regime unstable requires c < 0"),
        ("quasistatic", "1", "regime quasistatic requires c < 0"),
        ("Stable", "1", "regime: expected stable|unstable|quasistatic, got 'Stable'"),
    ])
    def test_regime_must_restate_the_sign_of_c(self, regime, c, message):
        """`regime` is optional, and the params carry no tag of it."""
        raw = simulate_raw(c=c, regime=regime)
        if message is None:
            assert build_config(raw, "simulate").params.c == float(c)
            return
        with pytest.raises(ConfigError) as refused:
            build_config(raw, "simulate")
        assert str(refused.value) == message

    def test_rectangle_domain(self):
        raw = simulate_raw(domain="rectangle", length1="1.0", length2="2.0")
        del raw["length"]
        cfg = build_config(raw, "simulate")
        assert type(cfg.domain) is Rectangle
        assert (cfg.domain.length1, cfg.domain.length2) == (1.0, 2.0)

    def test_initial_lists(self):
        raw = simulate_raw()
        del raw["initial"]
        raw["initial_u"] = "1.0, 0.5"
        raw["initial_theta"] = "0.25"
        cfg = build_config(raw, "simulate")
        # zero-padded to mode_count
        assert cfg.x0[:, 0].tolist() == [1.0, 0.5, 0.0, 0.0]
        assert not cfg.x0[:, 1].any()
        assert cfg.x0[:, 2].tolist() == [0.25, 0.0, 0.0, 0.0]

    def test_initial_both_given_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            build_config(simulate_raw(initial_u="1"), "simulate")

    def test_initial_list_too_long(self):
        raw = simulate_raw()
        del raw["initial"]
        raw["initial_u"] = "1,2,3,4,5"
        with pytest.raises(ConfigError, match="longer than mode_count"):
            build_config(raw, "simulate")

    @pytest.mark.parametrize("value", ["1,,2", ",1", "1, ,2", "1,2,,"])
    def test_empty_list_entry_rejected(self, value):
        """An empty entry would move each later coefficient down one mode."""
        raw = simulate_raw()
        del raw["initial"]
        raw["initial_u"] = value
        with pytest.raises(ConfigError, match="initial_u: empty entry"):
            build_config(raw, "simulate")

    def test_one_trailing_comma_accepted(self):
        raw = simulate_raw()
        del raw["initial"]
        raw["initial_u"] = "1,2,"
        assert build_config(raw, "simulate").x0[:, 0].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_quasistatic_degenerate_capacity_rejected(self):
        raw = {
            "rho": "1", "a": "1", "b": "1", "c": "-1", "d": "1", "eta": "1",
            "t_end": "0.01", "dt": "0.001", "initial_theta": "1.0",
        }
        with pytest.raises(ConfigError, match="DegenerateCapacity"):
            build_config(raw, "quasistatic")

    def test_resolvent_scan_requires_stable(self):
        raw = dict(BASE)
        raw.update({"c": "-1", "omega_min": "1", "omega_max": "10", "omega_points": "5"})
        with pytest.raises(ConfigError, match="stable"):
            build_config(raw, "resolvent-scan")

    def test_nondiff_minimum_n(self):
        raw = dict(BASE)
        raw["n_max"] = "5"
        with pytest.raises(ConfigError, match="n_max"):
            build_config(raw, "nondiff")

    @pytest.mark.parametrize("tolerance, message", [
        ("0", "gap_tolerance must be > 0"),
        ("-0.01", "gap_tolerance must be > 0"),
        ("inf", "gap_tolerance: not a finite number"),
        ("nan", "gap_tolerance: not a finite number"),
    ])
    def test_nondiff_gap_tolerance_must_be_positive_and_finite(self, tolerance, message):
        raw = dict(BASE, n_max="30", gap_tolerance=tolerance)
        with pytest.raises(ConfigError, match=message):
            build_config(raw, "nondiff")


    # d^2/eta^4 overflows (eta**4 underflows to 0) or underflows (eta**4
    # overflows): the limit the run compares against is no float
    @pytest.mark.parametrize("eta", ["1e100", "1e-100", "-1e80", "1e-78"])
    def test_nondiff_limit_must_be_a_finite_positive_float(self, eta):
        raw = dict(BASE, n_max="30", eta=eta)
        with pytest.raises(ConfigError, match="d\\^2/eta\\^4 to be a finite positive float"):
            build_config(raw, "nondiff")

    @pytest.mark.parametrize("eta", ["1e-76", "1e76"])
    def test_nondiff_accepts_a_small_or_large_finite_limit(self, eta):
        assert build_config(dict(BASE, n_max="30", eta=eta), "nondiff").params.eta == float(eta)


class TestPresets:
    def test_zero(self):
        x0 = preset_coefficients("zero", np.array([1.0, 4.0]))
        assert x0.shape == (2, 3) and not x0.any()

    def test_combination(self):
        lams = np.array([1.0, 4.0, 9.0])
        u, v, theta = preset_coefficients("first-mode-bend+thermal-pulse", lams).T
        assert u.tolist() == [1.0, 0.0, 0.0]
        assert v.tolist() == [0.0, 0.0, 0.0]
        assert theta[0] == 1.0
        assert theta[1] == pytest.approx(math.exp(-3.0))
        assert theta[2] == pytest.approx(math.exp(-8.0))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_coefficients("bogus", np.array([1.0]))
