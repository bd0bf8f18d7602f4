"""Tests for unified chaos campaigns and the resilience scorecard."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, SupervisionError
from repro.facility.weather import DAY
from repro.oda import (
    ChaosCampaign,
    ChaosEngine,
    ChaosFault,
    DataCenter,
    MultiPillarOrchestrator,
    standard_campaign,
)
from repro.oda.supervision import BreakerState


def _chaos_site(seed=7, shards=2, health_period=300.0):
    dc = DataCenter(
        seed=seed, racks=1, nodes_per_rack=8, shards=shards,
        replication=1 if shards else 0, health_period=health_period,
    )
    dc.enable_supervision()
    orchestrator = MultiPillarOrchestrator(dc)
    orchestrator.attach()
    return dc, orchestrator


class TestChaosFaultValidation:
    def test_unknown_pillar_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosFault("network", "x", "raise", 0.0, 10.0)

    def test_durability_is_a_drill_not_a_pillar(self):
        from repro.oda.chaos import PILLARS

        assert PILLARS == ("controller", "facility", "node", "shard")
        with pytest.raises(ConfigurationError):
            ChaosFault("durability", "0", "worker_kill", 0.0, 10.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosFault("controller", "x", "outage", 0.0, 10.0)

    def test_fault_outside_horizon_rejected(self):
        campaign = ChaosCampaign("c", seed=0, horizon_s=100.0)
        with pytest.raises(ConfigurationError):
            campaign.add(ChaosFault("controller", "x", "raise", 50.0, 100.0))

    def test_standard_campaign_within_horizon(self):
        campaign = standard_campaign(seed=1, horizon_s=43_200.0)
        assert all(f.end <= campaign.horizon_s for f in campaign.faults)
        assert {f.pillar for f in campaign.faults} == {
            "controller", "facility", "node", "shard"
        }

    def test_controller_fault_needs_supervisor(self):
        dc = DataCenter(seed=1, racks=1, nodes_per_rack=4)
        engine = ChaosEngine(dc)
        campaign = ChaosCampaign("c", seed=1, horizon_s=10_000.0)
        campaign.add(ChaosFault("controller", "orchestrator", "raise",
                                100.0, 1000.0))
        with pytest.raises(SupervisionError):
            engine.schedule(campaign)

    def test_unknown_facility_component_rejected(self):
        dc, _ = _chaos_site(shards=None, health_period=None)
        engine = ChaosEngine(dc)
        campaign = ChaosCampaign("c", seed=1, horizon_s=10_000.0)
        campaign.add(ChaosFault("facility", "loop9.pump", "outage",
                                100.0, 1000.0))
        with pytest.raises(ConfigurationError):
            engine.schedule(campaign)


class TestStandardCampaign:
    """One half-day acceptance-shaped run, scored end to end."""

    @pytest.fixture(scope="class")
    def run(self):
        dc, orchestrator = _chaos_site(seed=7)
        campaign = standard_campaign(seed=7, horizon_s=0.5 * DAY)
        engine = ChaosEngine(dc)
        engine.schedule(campaign)
        dc.generate_workload(days=0.5, jobs_per_day=40.0)
        dc.run(days=0.5)  # must complete without unhandled exceptions
        card = engine.scorecard(campaign)
        return dc, orchestrator, engine, campaign, card

    def test_all_faults_detected_with_finite_mttd(self, run):
        *_, card = run
        assert card["totals"]["detected"] == card["totals"]["faults"] == 5
        for row in card["faults"]:
            assert row["detected_at"] is not None
            assert np.isfinite(row["mttd_s"]) and row["mttd_s"] >= 0.0

    def test_all_faults_recovered_with_finite_mttr(self, run):
        *_, card = run
        assert card["totals"]["unrecovered"] == 0
        for row in card["faults"]:
            assert np.isfinite(row["mttr_s"]) and row["mttr_s"] >= row["mttd_s"]

    def test_safe_state_entered_and_breaker_recloses(self, run):
        dc, *_ , card = run
        supervised = dc.supervisor.loops["orchestrator"]
        assert supervised.safe_state_entries == 1
        assert supervised.breaker.state is BreakerState.CLOSED  # recovered
        assert card["totals"]["safe_state_entries"] == 1
        assert card["totals"]["breaker_closes"] >= 1

    def test_scorecard_json_roundtrip(self, run, tmp_path):
        _, _, engine, campaign, card = run
        path = tmp_path / "scorecard.json"
        engine.write_scorecard(campaign, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["campaign"] == "standard"
        assert loaded["seed"] == 7
        assert len(loaded["faults"]) == 5
        assert loaded["totals"]["recovered"] == 5
        assert "oda.supervisor.decide_failures" in loaded["supervisor"]

    def test_chaos_metrics_registry(self, run):
        _, _, engine, *_ = run
        snap = engine.metrics.snapshot()
        assert snap["oda.chaos.faults_injected"] == 5.0
        assert snap["oda.chaos.recovered"] == 5.0
        assert snap["oda.chaos.unrecovered"] == 0.0
        assert snap["oda.chaos.mean_mttr_s"] > 0.0

    def test_prometheus_includes_supervisor_metrics(self, run):
        dc, *_ = run
        text = dc.prometheus()
        assert "oda_supervisor_decide_failures" in text
        assert "telemetry_bus_published" in text  # pipeline still there

    def test_actions_counted_during_faults(self, run):
        *_, card = run
        by_pillar = {r["pillar"]: r for r in card["faults"]}
        # The orchestrator keeps acting (safe-state drives) during its own
        # fault window, and normal control continues during others'.
        assert by_pillar["controller"]["actions_during_fault"] >= 1


class TestScoringWithoutShards:
    def test_campaign_without_shards(self):
        dc, _ = _chaos_site(seed=3, shards=None)
        campaign = standard_campaign(seed=3, horizon_s=0.5 * DAY, shards=False)
        assert all(f.pillar != "shard" for f in campaign.faults)
        engine = ChaosEngine(dc)
        engine.schedule(campaign)
        dc.generate_workload(days=0.5, jobs_per_day=40.0)
        dc.run(days=0.5)
        card = engine.scorecard(campaign)
        assert card["totals"]["faults"] == 4
        assert card["totals"]["unrecovered"] == 0

    def test_same_seed_same_scorecard(self):
        cards = []
        for _ in range(2):
            dc, _ = _chaos_site(seed=5, shards=None)
            campaign = standard_campaign(seed=5, horizon_s=0.4 * DAY,
                                         shards=False)
            engine = ChaosEngine(dc)
            engine.schedule(campaign)
            dc.generate_workload(days=0.4, jobs_per_day=40.0)
            dc.run(days=0.4)
            cards.append(json.dumps(engine.scorecard(campaign), sort_keys=True))
        assert cards[0] == cards[1]


class TestChaosCli:
    def test_chaos_subcommand_writes_scorecard(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "card.json"
        code = main([
            "chaos", "--seed", "7", "--racks", "1", "--nodes-per-rack", "4",
            "--days", "0.5", "--jobs-per-day", "24", "--out", str(out),
        ])
        assert code == 0
        card = json.loads(out.read_text())
        assert card["totals"]["unrecovered"] == 0
        assert card["totals"]["detected"] == card["totals"]["faults"]
