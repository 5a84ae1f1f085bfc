"""A NaN or infinite target is a structured ``bad_request``, never a deployment.

Such a target gives every observation NaN spec features, so the episode
would run its whole step budget on a meaningless policy input.  Both front
doors — ``DeploymentService.serve`` and the ``Gateway`` — answer it with an
error response and keep serving the requests around and after it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy
from repro.serve import DeploymentService, Gateway, ServeRequest
from repro.serve.protocol import target_error

MAX_STEPS = 6

BAD_VALUES = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def policy():
    env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=MAX_STEPS)
    return repro.make_policy("gcn_fc", env, np.random.default_rng(0))


@pytest.fixture(scope="module")
def targets():
    env = repro.make_env("opamp-p2s-v0", seed=0)
    return env.benchmark.spec_space.sample_batch(np.random.default_rng(4), 2)


@pytest.fixture
def service(policy):
    service = DeploymentService(batch_size=4)
    service.register_policy("opamp-p2s-v0", policy)
    return service


def _bad(target, value):
    return {**target, "gain": value}


def _assert_bad_request(response, request_id=None):
    assert not response.ok and not response.success
    assert response.error.code == "bad_request"
    assert "gain" in response.error.message and "non-finite" in response.error.message
    assert response.steps == 0 and response.result is None
    assert response.request_id == request_id


def _assert_served_like(response, policy, target):
    env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=MAX_STEPS)
    expected = deploy_policy(env, policy, target)
    assert response.ok
    assert response.steps == expected.steps
    assert response.final_specs == expected.final_specs


@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "inf", "-inf"])
def test_target_error_names_the_bad_specs(value):
    assert target_error({"gain": value, "power": 1e-3, "bandwidth": value}) == (
        "target_specs has non-finite values for ['bandwidth', 'gain']"
    )
    assert target_error({"gain": 1.0, "power": -0.0}) is None


@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "inf", "-inf"])
def test_service_answers_a_nonfinite_target_and_serves_the_rest(service, policy, targets, value):
    requests = [
        ServeRequest(target_specs=targets[0], max_steps=MAX_STEPS),
        ServeRequest(target_specs=_bad(targets[1], value), max_steps=MAX_STEPS, request_id="x"),
        ServeRequest(target_specs=targets[1], max_steps=MAX_STEPS),
    ]
    responses = service.serve(requests)
    assert [response.index for response in responses] == [0, 1, 2]
    _assert_bad_request(responses[1], "x")
    _assert_served_like(responses[0], policy, targets[0])
    _assert_served_like(responses[2], policy, targets[1])
    snapshot = service.stats.snapshot()
    assert snapshot.errors == 1 and snapshot.episodes == 2
    # A plain spec mapping takes the same path, and the next request is served.
    refused, served = service.serve([_bad(targets[0], value), dict(targets[0])])
    assert refused.error.code == "bad_request" and served.ok


def test_service_with_every_request_refused(service, targets):
    responses = service.serve([_bad(targets[0], math.nan)])
    assert [response.error.code for response in responses] == ["bad_request"]
    assert service.stats.snapshot().episodes == 0


@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "inf", "-inf"])
def test_gateway_resolves_a_nonfinite_target_at_once(service, policy, targets, value):
    with Gateway(service, num_workers=1, max_batch_delay_ms=1.0) as gateway:
        refused = gateway.submit(
            ServeRequest(target_specs=_bad(targets[0], value), max_steps=MAX_STEPS)
        )
        assert refused.done()
        _assert_bad_request(refused.result(timeout=0))
        mapping = gateway.submit(_bad(targets[1], value))
        assert mapping.done() and mapping.result(timeout=0).error.code == "bad_request"
        served = gateway.submit(ServeRequest(target_specs=targets[0], max_steps=MAX_STEPS))
        _assert_served_like(served.result(timeout=60), policy, targets[0])
    snapshot = service.stats.snapshot()
    assert snapshot.errors == 2 and snapshot.episodes == 1
