"""Snapping is idempotent, bit for bit, on every catalog design space.

The environment step writes ``DesignSpace.apply_actions``'s result — already
ended in ``snap_vector`` — without snapping it again; the per-environment
reference (``tests/parallel/step_reference.py``) snaps it a second time
through ``set_parameters``.  The two agree exactly because
``snap_vector(snap_vector(x)) == snap_vector(x)`` bitwise, which this file
checks for every grid level of every parameter, both bounds, integer knobs,
off-grid and out-of-range values.  Snapping is elementwise, so one column per
parameter covers every combination.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro

#: The design space of every catalog circuit.
SPACES = {}
for _env_id in repro.list_envs():
    _benchmark = repro.make_env(_env_id).benchmark
    SPACES.setdefault(_benchmark.name, _benchmark.design_space)


def _columns(space):
    """Per parameter: every grid level, the bounds, neighbours and strays."""
    rng = np.random.default_rng(0)
    columns = []
    for parameter in space:
        levels = np.arange(parameter.num_levels, dtype=np.float64)
        grid = parameter.minimum + levels * parameter.step
        values = [
            grid,
            grid + parameter.step,  # one action up and down from every level
            grid - parameter.step,
            np.nextafter(grid, np.inf),
            np.nextafter(grid, -np.inf),
            grid + 0.5 * parameter.step,  # half-way: the round-half-even ties
            np.array([parameter.minimum, parameter.maximum]),
            np.array([parameter.minimum - parameter.step, parameter.maximum + parameter.step]),
            rng.uniform(parameter.minimum, parameter.maximum, size=64),
        ]
        if parameter.integer:
            values.append(np.arange(parameter.minimum, parameter.maximum + 1.0) + 0.5)
        columns.append(np.concatenate(values))
    return columns


def _matrix(columns):
    """Stack ragged columns into ``(L, M)``, padding each with its own values."""
    length = max(len(column) for column in columns)
    return np.stack([np.resize(column, length) for column in columns], axis=1)


@pytest.mark.parametrize("circuit", sorted(SPACES))
def test_snap_is_idempotent(circuit):
    space = SPACES[circuit]
    values = _matrix(_columns(space))
    once = space.snap_vector(values)
    assert once.tobytes() == space.snap_vector(once).tobytes()
    # Every snapped value is in bounds, and integer knobs are integral.
    assert np.all(once >= space.lower_bounds) and np.all(once <= space.upper_bounds)
    integer = np.array([parameter.integer for parameter in space])
    assert np.array_equal(once[:, integer], np.rint(once[:, integer]))


@pytest.mark.parametrize("circuit", sorted(SPACES))
def test_applied_actions_are_already_snapped(circuit):
    """What the step writes: every action from every snapped value."""
    space = SPACES[circuit]
    start = space.snap_vector(_matrix(_columns(space)))
    for action in range(3):
        actions = np.full(start.shape, action, dtype=np.int64)
        applied = space.apply_actions(start, actions)
        assert applied.tobytes() == space.snap_vector(applied).tobytes()
