"""TieredSimulator: cold parity, warm consults, corpus feedback, refits."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_env
from repro.parallel import DiskSimulationCache
from repro.simulation.base import CircuitSimulator, SimulationResult
from repro.surrogate import SurrogateConfig, TieredSimulator, harvest_corpus

#: Small-but-learnable knobs shared by the warm-path tests.
FAST_CONFIG = dict(hidden=(16, 16), epochs=120, min_train_points=8, ensemble_size=2)


class CountingSimulator(CircuitSimulator):
    """Deterministic stand-in simulator that counts real evaluations."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def simulate_rows(self, layout, rows):
        return [self._row(row) for row in rows]

    def _row(self, row):
        self.calls += 1
        total = float(np.sum(row))
        return SimulationResult(
            specs={"gain": total, "power": total * 0.5},
            details={},
            valid=True,
        )


@pytest.fixture(scope="module")
def lna_env():
    return make_env("common_source_lna-p2s-v0", seed=0)


def sample_netlists(env, count, seed):
    rng = np.random.default_rng(seed)
    space = env.benchmark.design_space
    items = []
    for _ in range(count):
        netlist = env.benchmark.fresh_netlist()
        space.apply_to_netlist(netlist, space.sample(rng))
        items.append(netlist)
    return items


def warm_tier(env, seed=1, count=40):
    """A tier whose surrogate memorized ``count`` exact observations."""
    tier = TieredSimulator(CountingSimulator(), config=SurrogateConfig(**FAST_CONFIG))
    netlists = sample_netlists(env, count, seed)
    for netlist in netlists:
        tier.simulate(netlist)
    report = tier.refit()
    assert report is not None and report.threshold is not None
    return tier, netlists


class TestColdParity:
    def test_no_surrogate_matches_disk_cache_exactly(self, lna_env, tmp_path):
        netlists = sample_netlists(lna_env, 6, seed=0)
        plain_sim, tier_sim = CountingSimulator(), CountingSimulator()
        plain = DiskSimulationCache(plain_sim, tmp_path / "plain")
        tier = TieredSimulator(tier_sim, directory=tmp_path / "tier")
        for netlist in netlists:
            a = plain.simulate(netlist)
            b = tier.simulate(netlist)
            assert a.specs == b.specs and a.valid == b.valid
        assert plain_sim.calls == tier_sim.calls == len(netlists)
        assert plain.stats.misses == tier.stats.misses
        assert tier.stats.surrogate_hits == tier.stats.trust_rejections == 0

    def test_untrained_surrogate_answers_nothing(self, lna_env):
        from repro.surrogate import SpecSurrogate

        netlists = sample_netlists(lna_env, 4, seed=0)
        template = netlists[0].parameter_array()
        surrogate = SpecSurrogate(
            netlists[0].name, ["gain", "power"], num_inputs=template.size
        )
        simulator = CountingSimulator()
        tier = TieredSimulator(simulator, surrogate=surrogate)
        for netlist in netlists:
            result = tier.simulate(netlist)
            assert "surrogate" not in result.details
        assert simulator.calls == len(netlists)
        # Consulted-and-rejected is still counted, but answers stay exact.
        assert tier.stats.trust_rejections == len(netlists)
        assert tier.stats.surrogate_hits == 0
        assert tier.stats.exact_fallbacks == len(netlists)

    def test_disk_tier_serves_previous_process_entries(self, lna_env, tmp_path):
        netlists = sample_netlists(lna_env, 5, seed=0)
        first = TieredSimulator(CountingSimulator(), directory=tmp_path / "corpus")
        for netlist in netlists:
            first.simulate(netlist)
        second_sim = CountingSimulator()
        second = TieredSimulator(second_sim, directory=tmp_path / "corpus")
        for netlist in netlists:
            second.simulate(netlist)
        assert second_sim.calls == 0
        assert second.stats.disk_hits == len(netlists)


class TestWarmTier:
    def test_trusted_queries_skip_the_exact_simulator(self, lna_env):
        trained, netlists = warm_tier(lna_env)
        simulator = CountingSimulator()
        tier = TieredSimulator(simulator, surrogate=trained.surrogate)
        for netlist in netlists:
            tier.simulate(netlist)
        stats = tier.stats
        assert stats.surrogate_hits > 0
        assert stats.surrogate_hits + stats.trust_rejections == len(netlists)
        assert simulator.calls == stats.trust_rejections == stats.exact_fallbacks
        assert stats.misses == simulator.calls

    def test_surrogate_answers_are_flagged_and_not_persisted(self, lna_env, tmp_path):
        trained, netlists = warm_tier(lna_env)
        corpus = tmp_path / "corpus"
        tier = TieredSimulator(
            CountingSimulator(), surrogate=trained.surrogate, directory=corpus
        )
        for netlist in netlists:
            result = tier.simulate(netlist)
            if result.details.get("surrogate") == 1.0:
                assert "surrogate_disagreement" in result.details
        assert tier.stats.surrogate_hits > 0
        # Only exact fallbacks reach the corpus: a surrogate estimate on disk
        # would poison future disk hits and its own training set.
        entries = list(corpus.glob("*.json"))
        assert len(entries) == tier.stats.misses
        assert len(harvest_corpus(corpus)) == tier.stats.misses

    def test_foreign_topology_is_exact_not_rejected(self, lna_env):
        trained, _ = warm_tier(lna_env)
        opamp_env = make_env("opamp-p2s-v0", seed=0)
        simulator = CountingSimulator()
        tier = TieredSimulator(simulator, surrogate=trained.surrogate)
        for netlist in sample_netlists(opamp_env, 3, seed=0):
            tier.simulate(netlist)
        assert simulator.calls == 3
        assert tier.stats.surrogate_hits == 0
        assert tier.stats.trust_rejections == 0  # not consulted at all
        assert tier.stats.exact_fallbacks == 0

    def test_repeat_queries_hit_the_memory_tier(self, lna_env):
        trained, netlists = warm_tier(lna_env)
        tier = TieredSimulator(CountingSimulator(), surrogate=trained.surrogate)
        for netlist in netlists:
            tier.simulate(netlist)
        surrogate_hits = tier.stats.surrogate_hits
        for netlist in netlists:
            tier.simulate(netlist)
        assert tier.stats.surrogate_hits == surrogate_hits  # memoized, not re-asked
        assert tier.stats.hits == len(netlists)


class TestFeedbackLoop:
    def test_observations_buffer_only_valid_results(self, lna_env):
        class SometimesInvalid(CountingSimulator):
            def _row(self, row):
                result = super()._row(row)
                if self.calls % 2 == 0:
                    return SimulationResult(result.specs, result.details, valid=False)
                return result

        tier = TieredSimulator(SometimesInvalid())
        for netlist in sample_netlists(lna_env, 6, seed=0):
            tier.simulate(netlist)
        assert tier.num_observed() == 3

    def test_refit_below_min_train_points_returns_none(self, lna_env):
        tier = TieredSimulator(CountingSimulator(), config=SurrogateConfig(**FAST_CONFIG))
        for netlist in sample_netlists(lna_env, 4, seed=0):
            tier.simulate(netlist)
        assert tier.refit() is None
        assert tier.surrogate is None

    def test_refit_on_empty_buffer_returns_none(self):
        tier = TieredSimulator(CountingSimulator())
        assert tier.refit() is None
        with pytest.raises(ValueError, match="no exact observations"):
            tier.observed_dataset()

    def test_refit_interval_trains_online(self, lna_env):
        config = SurrogateConfig(**FAST_CONFIG)
        tier = TieredSimulator(CountingSimulator(), refit_interval=10, config=config)
        netlists = sample_netlists(lna_env, 10, seed=1)
        for netlist in netlists[:9]:
            tier.simulate(netlist)
        assert tier.surrogate is None
        tier.simulate(netlists[9])
        assert tier.surrogate is not None and tier.surrogate.is_trained
        assert tier.last_report is not None
        assert tier.last_report.num_points == 10

    def test_observed_dataset_matches_the_corpus_layout(self, lna_env, tmp_path):
        corpus = tmp_path / "corpus"
        tier = TieredSimulator(CountingSimulator(), directory=corpus)
        for netlist in sample_netlists(lna_env, 5, seed=2):
            tier.simulate(netlist)
        observed = tier.observed_dataset()
        harvested = harvest_corpus(corpus)
        assert observed.circuit == harvested.circuit
        assert observed.spec_names == harvested.spec_names
        assert observed.num_inputs == harvested.num_inputs
        assert len(observed) == len(harvested) == 5
        # Same rows up to file-name ordering: compare as sorted multisets.
        def as_multiset(rows):
            return sorted(map(tuple, rows))

        assert as_multiset(observed.parameters) == as_multiset(harvested.parameters)

    def test_invalid_refit_interval_raises(self):
        with pytest.raises(ValueError, match="refit_interval"):
            TieredSimulator(CountingSimulator(), refit_interval=0)
