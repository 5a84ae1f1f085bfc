"""Tests for circuit-graph node-feature encodings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.devices import DEVICE_TYPE_ORDER, DeviceType, bias, capacitor, nmos, supply
from repro.graph.features import (
    PARAMETER_SLOTS,
    device_feature_vector,
    device_parameter_vector,
    feature_dimension,
    node_type_one_hot,
    static_feature_vector,
)


class TestOneHot:
    def test_each_type_unique(self):
        encodings = [node_type_one_hot(dtype) for dtype in DEVICE_TYPE_ORDER]
        stacked = np.stack(encodings)
        np.testing.assert_allclose(stacked.sum(axis=1), np.ones(len(DEVICE_TYPE_ORDER)))
        np.testing.assert_allclose(stacked, np.eye(len(DEVICE_TYPE_ORDER)))


class TestParameterVector:
    def test_transistor_uses_width_and_fingers(self):
        device = nmos("M1", "d", "g", "s", width=50e-6, fingers=16)
        vector = device_parameter_vector(device)
        assert vector.shape == (PARAMETER_SLOTS,)
        assert vector[0] == pytest.approx(0.5)   # 50 um / 100 um
        assert vector[1] == pytest.approx(0.5)   # 16 / 32

    def test_capacitor_uses_value_with_zero_padding(self):
        device = capacitor("CC", "a", "b", 5e-12)
        vector = device_parameter_vector(device)
        assert vector[0] == pytest.approx(0.5)   # 5 pF / 10 pF
        assert vector[1] == 0.0

    def test_supply_and_bias_use_voltage(self):
        assert device_parameter_vector(supply("VP", "vdd", 1.2))[0] == pytest.approx(1.2 / 30.0)
        assert device_parameter_vector(bias("VB", "vb", 0.6))[0] == pytest.approx(0.6 / 30.0)

    def test_features_change_with_parameters(self):
        """The node features are *dynamic*: editing the device changes them."""
        device = nmos("M1", "d", "g", "s", width=10e-6, fingers=4)
        before = device_feature_vector(device).copy()
        device.set_parameter("width", 80e-6)
        after = device_feature_vector(device)
        assert not np.allclose(before, after)


class TestFullFeatureVector:
    def test_dimension(self):
        device = nmos("M1", "d", "g", "s")
        assert device_feature_vector(device).shape == (feature_dimension(),)
        assert feature_dimension() == len(DEVICE_TYPE_ORDER) + PARAMETER_SLOTS

    def test_type_prefix_matches_one_hot(self):
        device = capacitor("C1", "a", "b", 1e-12)
        vector = device_feature_vector(device)
        np.testing.assert_allclose(
            vector[: len(DEVICE_TYPE_ORDER)], node_type_one_hot(DeviceType.CAPACITOR)
        )

    def test_features_are_order_unity(self):
        """Scaled features stay O(1), so tanh GNN layers do not saturate."""
        devices = [
            nmos("M1", "d", "g", "s", width=100e-6, fingers=32),
            capacitor("CC", "a", "b", 10e-12),
            supply("VP", "vdd", 28.0),
        ]
        for device in devices:
            assert np.all(np.abs(device_feature_vector(device)) <= 1.5)


class TestStaticFeatures:
    def test_static_features_ignore_device_parameters(self):
        small = nmos("M1", "d", "g", "s", width=1e-6, fingers=2)
        large = nmos("M1", "d", "g", "s", width=100e-6, fingers=32)
        np.testing.assert_allclose(static_feature_vector(small), static_feature_vector(large))

    def test_static_features_same_length_as_dynamic(self):
        device = nmos("M1", "d", "g", "s")
        assert static_feature_vector(device).shape == device_feature_vector(device).shape
