"""Tests for the data-processing module (DPM).

The action rewrite and the observation assembly are the episode engine's;
``tests/env/test_circuit_env.py`` covers them through ``CircuitDesignEnv``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.data_processor import DataProcessor


@pytest.fixture
def processor(opamp_benchmark):
    return DataProcessor(opamp_benchmark, opamp_benchmark.fresh_netlist())


class TestParameterHandling:
    def test_set_and_read_parameters(self, processor, opamp_benchmark):
        center = opamp_benchmark.design_space.center()
        values = processor.set_parameters(center)
        np.testing.assert_allclose(values, center)
        np.testing.assert_allclose(processor.parameter_values, center)
