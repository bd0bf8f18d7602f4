"""Tests for diagnostic analytics: detectors, classifiers, RCA, fingerprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics.diagnostic import (
    ApplicationFingerprinter,
    CrisisLibrary,
    CpuContentionDetector,
    DecisionTreeClassifier,
    EwmaDetector,
    GaussianNaiveBayes,
    IsolationForest,
    KNeighborsClassifier,
    MemoryLeakDetector,
    NetworkDiagnostician,
    OsNoiseDetector,
    PcaReconstructionDetector,
    PeerDeviationDetector,
    RandomForestClassifier,
    RootCauseAnalyzer,
    SubspaceDetector,
    ZScoreDetector,
    accuracy,
    confusion_matrix,
    detection_metrics,
    f1_score,
)
from repro.apps import JobRequest, default_catalog
from repro.cluster import FatTreeFabric
from repro.errors import InsufficientDataError, NotFittedError
from repro.software import Job
from repro.telemetry import TimeSeriesStore


def two_blobs(n=150, separation=4.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n, 3)), rng.normal(separation, 1, (n, 3))])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestClassifiers:
    @pytest.mark.parametrize("model", [
        KNeighborsClassifier(k=5),
        GaussianNaiveBayes(),
        DecisionTreeClassifier(max_depth=6),
        RandomForestClassifier(n_trees=10, seed=1),
    ], ids=["knn", "gnb", "tree", "forest"])
    def test_separable_blobs(self, model):
        X, y = two_blobs()
        model.fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    @pytest.mark.parametrize("model", [
        KNeighborsClassifier(), GaussianNaiveBayes(),
        DecisionTreeClassifier(), RandomForestClassifier(n_trees=3),
    ], ids=["knn", "gnb", "tree", "forest"])
    def test_not_fitted(self, model):
        with pytest.raises(NotFittedError):
            model.predict(np.ones((1, 3)))

    def test_tree_handles_pure_node(self):
        X = np.ones((10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == 0).all()

    def test_confusion_matrix(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], n_classes=2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_f1(self):
        assert f1_score([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(2 / 3)
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_shape_validation(self):
        with pytest.raises(InsufficientDataError):
            KNeighborsClassifier().fit(np.ones((3, 2)), np.ones(4))


class TestUnivariateDetectors:
    def test_zscore_flags_level_shift(self):
        values = np.concatenate([np.random.default_rng(0).normal(0, 1, 200), [15.0]])
        detector = ZScoreDetector(window=50, threshold=5.0)
        assert detector.detect(values)[-1]

    def test_zscore_quiet_on_stationary(self):
        values = np.random.default_rng(0).normal(0, 1, 300)
        assert ZScoreDetector(window=50, threshold=6.0).detect(values).sum() == 0

    def test_ewma_flags_spike(self):
        values = np.concatenate([np.ones(100), [50.0]])
        assert EwmaDetector(threshold=4.0).detect(values)[-1]

    def test_ewma_adapts_to_drift(self):
        """Slow drift should not alarm an adaptive chart."""
        values = np.linspace(0, 1, 500) + np.random.default_rng(0).normal(0, 0.05, 500)
        breaches = EwmaDetector(alpha=0.2, threshold=6.0).detect(values).sum()
        assert breaches == 0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            ZScoreDetector(window=60).score(np.ones(10))


class TestMultivariateDetectors:
    @pytest.fixture
    def healthy_and_anomalous(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 3, 400)
        healthy = np.column_stack([t, 2 * t, -t]) + rng.normal(0, 0.2, (400, 3))
        # Anomalies break the correlation structure, not the marginals.
        anomalous = rng.normal(0, 3, (40, 3))
        return healthy, anomalous

    @pytest.mark.parametrize("cls", [PcaReconstructionDetector, SubspaceDetector],
                             ids=["pca", "subspace"])
    def test_correlation_break_detected(self, cls, healthy_and_anomalous):
        healthy, anomalous = healthy_and_anomalous
        detector = cls(n_components=1, quantile=0.99).fit(healthy)
        false_rate = detector.detect(healthy).mean()
        hit_rate = detector.detect(anomalous).mean()
        assert false_rate < 0.05
        assert hit_rate > 0.5

    def test_peer_deviation(self):
        matrix = np.ones((8, 4))
        matrix[3] = 10.0
        detector = PeerDeviationDetector(threshold=3.0)
        detections = detector.detect(matrix, [f"n{i}" for i in range(8)])
        assert [d.entity for d in detections] == ["n3"]

    def test_peer_deviation_needs_three(self):
        with pytest.raises(InsufficientDataError):
            PeerDeviationDetector().score(np.ones((2, 3)))

    def test_detection_metrics(self):
        truth = np.array([True, True, False, False])
        pred = np.array([True, False, True, False])
        m = detection_metrics(truth, pred)
        assert m["precision"] == 0.5 and m["recall"] == 0.5


class TestIsolationForest:
    def test_isolates_global_outliers(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (500, 4))
        X[:5] = 10.0
        forest = IsolationForest(n_trees=50, contamination=0.02, seed=1).fit(X)
        scores = forest.score(X)
        assert scores[:5].min() > np.median(scores[5:])
        assert forest.detect(X)[:5].all()

    def test_scores_bounded(self):
        X = np.random.default_rng(0).normal(0, 1, (100, 2))
        scores = IsolationForest(n_trees=20, seed=0).fit(X).score(X)
        assert ((scores > 0) & (scores <= 1)).all()

    def test_invalid_contamination(self):
        with pytest.raises(ValueError):
            IsolationForest(contamination=0.9)


class TestRootCause:
    def make_incident_store(self):
        """Cause metric deviates at t=500, symptom follows at t=600."""
        store = TimeSeriesStore()
        t = np.arange(0.0, 1000.0, 10.0)
        rng = np.random.default_rng(0)
        cause = rng.normal(10, 0.1, t.size)
        cause[t >= 500] += 8.0
        symptom = rng.normal(5, 0.1, t.size)
        symptom[t >= 600] += 6.0
        bystander = rng.normal(1, 0.1, t.size)
        store.append_many("pump.power", t, cause)
        store.append_many("loop.supply_temp", t, symptom)
        store.append_many("weather.humidity", t, bystander)
        return store

    def test_cause_ranked_first(self):
        store = self.make_incident_store()
        rca = RootCauseAnalyzer(store, baseline_s=400.0, step=10.0)
        causes = rca.rank_causes(
            "loop.supply_temp", 600.0, 1000.0,
            ["pump.power", "weather.humidity"],
        )
        assert causes[0].metric == "pump.power"
        assert causes[0].lead_s > 0

    def test_bystander_not_flagged(self):
        store = self.make_incident_store()
        rca = RootCauseAnalyzer(store, baseline_s=400.0)
        causes = rca.rank_causes(
            "loop.supply_temp", 600.0, 1000.0, ["weather.humidity"]
        )
        assert causes == []

    def test_preceding_events(self, trace):
        trace.emit(100.0, "faults.pump", "fault_onset")
        trace.emit(550.0, "scheduler", "job_start")
        trace.emit(700.0, "scheduler", "job_start")
        events = RootCauseAnalyzer.preceding_events(trace, symptom_start=600.0, lookback_s=200.0)
        assert [e.time for e in events] == [550.0]


class TestFingerprinting:
    def test_application_fingerprinter_separates_classes(self):
        rng = np.random.default_rng(0)
        # Synthetic feature vectors: three app classes with distinct means.
        means = {"cfd": 0.0, "graph": 4.0, "cryptominer": -4.0}
        X, labels = [], []
        for label, mean in means.items():
            X.append(rng.normal(mean, 1.0, (40, 12)))
            labels += [label] * 40
        X = np.vstack(X)
        fp = ApplicationFingerprinter(n_trees=15, seed=0).fit(X, labels)
        predictions = fp.predict(X)
        assert np.mean([p == t for p, t in zip(predictions, labels)]) > 0.95
        rogue = fp.flag_rogue(rng.normal(-4.0, 1.0, (5, 12)))
        assert all(rogue)

    def test_crisis_library_matches_known_crisis(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 3000.0, 10.0)
        rng = np.random.default_rng(0)
        a = rng.normal(10, 0.2, t.size)
        b = rng.normal(5, 0.2, t.size)
        # Crisis 1 (t in [1000,1500]): metric a spikes. Crisis 2: b drops.
        a[(t >= 1000) & (t < 1500)] += 5
        b[(t >= 2000) & (t < 2500)] -= 3
        store.append_many("m.a", t, a)
        store.append_many("m.b", t, b)
        library = CrisisLibrary(store, ["m.a", "m.b"], baseline_s=500.0)
        library.learn("a_spike", 1000.0, 1500.0)
        library.learn("b_drop", 2000.0, 2500.0)
        # Probe a re-occurrence of crisis 1's shape.
        matches = library.identify(1050.0, 1450.0)
        assert matches[0][0] == "a_spike"

    def test_crisis_library_empty_raises(self):
        store = TimeSeriesStore()
        store.append("m.a", 0.0, 1.0)
        library = CrisisLibrary(store, ["m.a"])
        with pytest.raises(NotFittedError):
            library.identify(0.0, 1.0)


class TestSoftwareAnomalies:
    def test_memory_leak_detected(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 7200.0, 60.0)
        store.append_many("n0.mem", t, 0.2 + t / 7200.0 * 0.5)
        verdict = MemoryLeakDetector().check(store, "n0.mem", 0.0, 7200.0)
        assert verdict is not None and verdict.kind == "memory_leak"

    def test_stable_memory_not_flagged(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 7200.0, 60.0)
        rng = np.random.default_rng(0)
        store.append_many("n0.mem", t, 0.5 + rng.normal(0, 0.01, t.size))
        assert MemoryLeakDetector().check(store, "n0.mem", 0.0, 7200.0) is None

    def test_cpu_contention_detected(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 3600.0, 60.0)
        ipc = np.full(t.size, 1.8)
        ipc[t.size // 2:] = 1.0  # achievement drops
        store.append_many("n0.util", t, np.full(t.size, 0.95))
        store.append_many("n0.ipc", t, ipc)
        verdict = CpuContentionDetector().check(store, "n0.util", "n0.ipc", 0.0, 3600.0)
        assert verdict is not None and verdict.kind == "cpu_contention"

    def test_healthy_run_not_flagged(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 3600.0, 60.0)
        store.append_many("n0.util", t, np.full(t.size, 0.95))
        store.append_many("n0.ipc", t, np.full(t.size, 1.8))
        assert CpuContentionDetector().check(store, "n0.util", "n0.ipc", 0.0, 3600.0) is None


class TestOsNoiseDetector:
    def test_noisy_node_identified(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 600.0, 30.0)
        paths = {}
        for i in range(8):
            metric = f"c.n{i}.ctx"
            noise = 0.08 if i == 3 else 0.002
            store.append_many(metric, t, np.full(t.size, 200.0 + 50_000.0 * noise))
            paths[f"n{i}"] = metric
        detector = OsNoiseDetector(store)
        assert detector.noisy_nodes(paths, 0.0, 600.0) == ["n3"]
        verdicts = {v.node: v for v in detector.assess(paths, 0.0, 600.0)}
        assert verdicts["n3"].estimated_noise_fraction == pytest.approx(0.08, rel=0.1)

    def test_tight_fleet_no_flags(self):
        store = TimeSeriesStore()
        t = np.arange(0.0, 600.0, 30.0)
        rng = np.random.default_rng(0)
        paths = {}
        for i in range(6):
            metric = f"c.n{i}.ctx"
            store.append_many(metric, t, 300.0 + rng.normal(0, 5, t.size))
            paths[f"n{i}"] = metric
        assert OsNoiseDetector(store).noisy_nodes(paths, 0.0, 600.0) == []


class TestNetworkDiagnostician:
    """Link-level contention on a saturated two-job fat-tree.

    Job ``a`` spans both leaves of an 8-node, 4-per-leaf fabric at 100 B/s
    per pair; job ``b`` is one cross-leaf pair that shares ``a``'s spine-1
    uplinks (crc32 routing: ``n1``'s and ``n2``'s cross-leaf pairs take
    spine 1).  Every link ``a`` touches is offered 2–3× capacity.
    """

    SHARED = (("leaf0", "spine1"), ("leaf1", "spine1"))

    @pytest.fixture
    def setup(self):
        fabric = FatTreeFabric(
            [f"n{i}" for i in range(8)], nodes_per_leaf=4,
            spine_count=2, link_capacity=100.0,
        )
        fabric.begin_step()
        fabric.offer_flow("a", ["n0", "n1", "n4", "n5"], 600.0)
        fabric.offer_flow("b", ["n2", "n6"], 100.0)
        profile = default_catalog().get("cfd_solver")
        jobs = [
            Job(JobRequest(job_id=j, submit_time=0.0, user="u", profile=profile,
                           nodes=2, work_s=600.0, walltime_req_s=3600.0))
            for j in ("a", "b", "idle")
        ]
        return fabric, NetworkDiagnostician(fabric), jobs

    def test_routes_share_the_spine1_uplinks(self, setup):
        fabric, _, _ = setup
        assert set(fabric.route("n2", "n6")[1:3]) == set(self.SHARED)
        assert set(fabric.route("n1", "n4")[1:3]) == set(self.SHARED)

    def test_diagnose_names_link_utilisation_aggressor_and_victims(self, setup):
        fabric, diag, _ = setup
        incidents = diag.diagnose()
        assert [i.link for i in incidents] == [
            link for link, _ in fabric.hot_links(0.9)
        ]
        utils = [i.utilization for i in incidents]
        assert utils == sorted(utils, reverse=True)
        shared = [i for i in incidents if i.victims]
        assert sorted(i.link for i in shared) == sorted(self.SHARED)
        for incident in shared:
            # a crosses each shared uplink twice (n1->n4, n1->n5), b once.
            assert incident.utilization == 3.0
            assert incident.jobs == ("a", "b")
            assert incident.aggressor == "a"
            assert incident.victims == ("b",)
            assert "aggressor a" in incident.describe()
        # a's access link to n0 carries its three n0 pairs and nothing else.
        access = next(i for i in incidents if i.link == ("leaf0", "n0"))
        assert (access.utilization, access.jobs, access.victims) == (3.0, ("a",), ())

    def test_threshold_filters_incidents(self, setup):
        fabric, _, _ = setup
        strict = NetworkDiagnostician(fabric, saturation_threshold=2.5)
        assert {i.utilization for i in strict.diagnose()} == {3.0}

    def test_victim_slowdowns(self, setup):
        _, diag, jobs = setup
        # b alone would run at full speed; a's traffic on the shared
        # uplinks slows it 3x.  A job with no flow is not slowed.
        assert diag.victim_slowdowns(jobs) == {"a": 3.0, "b": 3.0, "idle": 1.0}

    def test_aggressor_is_the_job_with_the_most_traffic(self):
        # ``light`` crosses the shared spine uplink in more pairs (n1 and
        # n4/n5 sit on different leaves), but ``heavy`` carries 100x the
        # bytes: attribution weighs each crossing by its flow's rate.
        fabric = FatTreeFabric(
            [f"n{i}" for i in range(8)], nodes_per_leaf=4,
            spine_count=2, link_capacity=100.0,
        )
        fabric.begin_step()
        fabric.offer_flow("light", ["n1", "n4", "n5"], 3.0)
        fabric.offer_flow("heavy", ["n2", "n6"], 300.0)
        shared = [i for i in NetworkDiagnostician(fabric).diagnose() if i.victims]
        assert shared
        for incident in shared:
            assert (incident.aggressor, incident.victims) == ("heavy", ("light",))
            assert "aggressor heavy, victims: light" in incident.describe()

    def test_interference_matrix(self, setup):
        _, diag, jobs = setup
        assert diag.interference_matrix(jobs) == {("a", "b"): 2}
        assert diag.interference_matrix(jobs[::-1]) == {("a", "b"): 2}
        assert diag.interference_matrix(jobs[1:]) == {}
