"""Tests for PropConfig validation and the paper defaults."""

import pytest

from repro.core import PAPER_CONFIG, PropConfig


class TestPaperDefaults:
    def test_section4_parameters(self):
        """Sec. 4: pinit=0.95, pmax=0.95, pmin=0.4, linear, gup=1, glo=-1."""
        cfg = PropConfig()
        assert cfg.pinit == 0.95
        assert cfg.pmax == 0.95
        assert cfg.pmin == 0.4
        assert cfg.gup == 1.0
        assert cfg.glo == -1.0
        assert cfg.probability_function == "linear"
        assert cfg.refinement_iterations == 2
        assert cfg.top_update_count == 5

    def test_paper_config_is_default(self):
        assert PAPER_CONFIG == PropConfig()


class TestValidation:
    def test_pmin_must_be_positive(self):
        """Footnote 3: pmin definitely needs to be greater than 0."""
        with pytest.raises(ValueError):
            PropConfig(pmin=0.0)

    def test_pmin_le_pmax(self):
        with pytest.raises(ValueError):
            PropConfig(pmin=0.9, pmax=0.5)

    def test_pmax_le_one(self):
        with pytest.raises(ValueError):
            PropConfig(pmax=1.5)

    def test_pinit_range(self):
        with pytest.raises(ValueError):
            PropConfig(pinit=0.0)
        with pytest.raises(ValueError):
            PropConfig(pinit=1.5)
        PropConfig(pinit=1.0)  # pmax = 1 "is not unreasonable"

    def test_thresholds_ordered(self):
        with pytest.raises(ValueError):
            PropConfig(glo=1.0, gup=1.0)
        with pytest.raises(ValueError):
            PropConfig(glo=2.0, gup=1.0)

    def test_unknown_probability_function(self):
        with pytest.raises(ValueError, match="probability_function"):
            PropConfig(probability_function="cubic")

    def test_unknown_init_method(self):
        with pytest.raises(ValueError, match="init_method"):
            PropConfig(init_method="magic")

    def test_non_negative_counters(self):
        with pytest.raises(ValueError):
            PropConfig(refinement_iterations=-1)
        with pytest.raises(ValueError):
            PropConfig(top_update_count=-1)
        with pytest.raises(ValueError):
            PropConfig(max_passes=0)


class TestOverrides:
    def test_with_overrides(self):
        cfg = PropConfig().with_overrides(pinit=0.8, refinement_iterations=3)
        assert cfg.pinit == 0.8
        assert cfg.refinement_iterations == 3
        assert cfg.pmax == 0.95  # untouched

    def test_overrides_revalidate(self):
        with pytest.raises(ValueError):
            PropConfig().with_overrides(pmin=0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            PropConfig().pinit = 0.5  # type: ignore[misc]
