"""Tests for device primitives."""

from __future__ import annotations

import pytest

from repro.circuits.devices import (
    DEVICE_TYPE_ORDER,
    Device,
    DeviceType,
    bias,
    capacitor,
    current_source,
    gan_hemt,
    ground,
    inductor,
    nmos,
    pmos,
    resistor,
    supply,
)


class TestDeviceType:
    def test_classification_flags(self):
        assert DeviceType.NMOS.is_transistor
        assert DeviceType.PMOS.is_transistor
        assert DeviceType.GAN_HEMT.is_transistor
        assert DeviceType.CAPACITOR.is_passive
        assert DeviceType.RESISTOR.is_passive
        assert DeviceType.INDUCTOR.is_passive
        assert not DeviceType.NMOS.is_passive
        assert not DeviceType.CAPACITOR.is_transistor

    def test_order_is_stable(self):
        # The one-hot node encoding depends on this exact ordering.
        assert DEVICE_TYPE_ORDER[0] is DeviceType.NMOS
        assert len(DEVICE_TYPE_ORDER) == len(DeviceType)


class TestDeviceConstruction:
    def test_nmos_defaults(self):
        device = nmos("M1", "d", "g", "s")
        assert device.dtype is DeviceType.NMOS
        assert device.terminals == {"d": "d", "g": "g", "s": "s", "b": "s"}
        assert device.get_parameter("width") == pytest.approx(10e-6)
        assert device.get_parameter("fingers") == 2

    def test_pmos_explicit_bulk(self):
        device = pmos("M3", "net1", "net1", "vdd", bulk="vdd", width=5e-6, fingers=4)
        assert device.terminals["b"] == "vdd"
        assert device.get_parameter("fingers") == 4

    def test_gan_hemt_three_terminals(self):
        device = gan_hemt("D1", "drn", "gt", "vgnd")
        assert set(device.terminals) == {"d", "g", "s"}

    def test_passives_and_sources(self):
        assert resistor("R1", "a", "b", 100.0).get_parameter("value") == 100.0
        assert capacitor("C1", "a", "b", 1e-12).dtype is DeviceType.CAPACITOR
        assert inductor("L1", "a", "b", 1e-9).dtype is DeviceType.INDUCTOR
        assert supply("VP", "vdd", 1.2).get_parameter("voltage") == 1.2
        assert ground("VGND").get_parameter("voltage") == 0.0
        assert bias("VB", "vb", 0.6).dtype is DeviceType.BIAS
        assert current_source("I1", "a", "b", 1e-6).get_parameter("current") == 1e-6

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Device(name="", dtype=DeviceType.RESISTOR, terminals={"p": "a"})

    def test_empty_terminals_rejected(self):
        with pytest.raises(ValueError):
            Device(name="R1", dtype=DeviceType.RESISTOR, terminals={})


class TestDeviceBehaviour:
    def test_parameter_get_set(self):
        device = nmos("M1", "d", "g", "s", width=2e-6)
        device.set_parameter("width", 3e-6)
        assert device.get_parameter("width") == pytest.approx(3e-6)

    def test_unknown_parameter_raises(self):
        device = nmos("M1", "d", "g", "s")
        with pytest.raises(KeyError):
            device.get_parameter("length")
        with pytest.raises(KeyError):
            device.set_parameter("length", 1.0)

    def test_nets_deduplicated(self):
        device = nmos("M1", "out", "in", "vgnd")
        assert device.nets == ("out", "in", "vgnd")

    def test_copy_is_independent(self):
        device = nmos("M1", "d", "g", "s", width=1e-6)
        clone = device.copy()
        clone.set_parameter("width", 9e-6)
        assert device.get_parameter("width") == pytest.approx(1e-6)
