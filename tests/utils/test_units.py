"""Tests for repro.utils.units."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.units import db_to_power, ms, power_to_db, us


class TestTimeUnits:
    def test_us(self):
        assert us(1.0) == pytest.approx(1e-6)

    def test_ms(self):
        assert ms(2.5) == pytest.approx(2.5e-3)


class TestDbConversions:
    def test_power_identities(self):
        assert power_to_db(1.0) == pytest.approx(0.0)
        assert power_to_db(10.0) == pytest.approx(10.0)
        assert power_to_db(100.0) == pytest.approx(20.0)

    @given(st.floats(min_value=-60, max_value=60))
    def test_roundtrip_power(self, db):
        assert float(power_to_db(db_to_power(db))) == pytest.approx(db, abs=1e-9)

    def test_arrays_supported(self):
        out = db_to_power(np.array([0.0, 10.0]))
        assert np.allclose(out, [1.0, 10.0])

    def test_zero_ratio_clamped(self):
        # Should not raise or return -inf.
        assert np.isfinite(power_to_db(0.0))
