"""Tests for the SLO engine: validation, burn-rate alerting, files.

The centerpiece is the determinism pin of the whole PR: a planted
latency fault starting at batch index 10 fires the fast-burn alert at
**exactly** batch index 11 -- an exact-match assertion on the alert
index, not a sleep-and-hope timing test.  The math, with budget 0.1,
windows fast=4/slow=8, burn fast=5.0/slow=2.5:

- tick 10 (first violation): fast = (1/4)/0.1 = 2.5x  -> below 5.0
- tick 11 (second):          fast = (2/4)/0.1 = 5.0x and
                             slow = (2/8)/0.1 = 2.5x  -> both at
  threshold, the alert fires.
"""

import pytest

from repro.obs.journal import JsonlJournal
from repro.obs.registry import scoped_registry
from repro.obs.slo import (
    SIGNALS,
    SLO,
    SLOError,
    SLOEvaluator,
    lint_slo_dir,
    lint_slo_file,
    load_slo_file,
    resolve_slo_path,
    slos_dir,
)
from tests.conftest import journal_records


def soak_slo(**overrides):
    """The pinned soak objective used throughout (see module docstring)."""
    kwargs = dict(
        name="soak-ingest-latency", signal="ingest_latency", op="<",
        threshold=1.0, budget=0.1, fast_window=4, slow_window=8,
        fast_burn=5.0, slow_burn=2.5, severity="page",
        runbook="overload-and-degradation",
    )
    kwargs.update(overrides)
    return SLO(**kwargs)


def run_plant(slo, plant_from=10, total=16, planted=9.9, journal=None):
    """Feed good samples, then planted violations from ``plant_from``."""
    evaluator = SLOEvaluator([slo], journal=journal)
    for index in range(total):
        value = planted if index >= plant_from else 0.01
        evaluator.tick({"ingest_latency": value}, index=index)
    return evaluator


class TestSLOValidation:
    def test_accepts_the_soak_objective(self):
        slo = soak_slo()
        assert slo.objective == "ingest_latency < 1"
        assert slo.is_good(0.5) and not slo.is_good(1.5)

    @pytest.mark.parametrize("overrides, match", [
        ({"name": "Bad Name"}, "kebab/snake"),
        ({"name": ""}, "kebab/snake"),
        ({"signal": "vibes"}, "unknown signal"),
        ({"op": "=="}, "op must be"),
        ({"budget": 0.0}, "budget"),
        ({"budget": 1.5}, "budget"),
        ({"fast_window": 0}, "fast_window"),
        ({"fast_window": 8, "slow_window": 4}, "fast_window"),
        ({"fast_burn": 0.0}, "positive"),
        ({"severity": "shrug"}, "severity"),
    ])
    def test_rejects_bad_definitions(self, overrides, match):
        with pytest.raises(SLOError, match=match):
            soak_slo(**overrides)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SLOError, match="duplicate"):
            SLOEvaluator([soak_slo(), soak_slo()])

    def test_signal_vocabulary_is_documented(self):
        for signal, description in SIGNALS.items():
            assert description, signal


class TestBurnRateAlerting:
    def test_planted_fault_fires_at_pinned_index(self):
        """THE determinism pin: plant at 10 -> page fires at 11."""
        with scoped_registry():
            evaluator = run_plant(soak_slo(), plant_from=10)
            firing = [a for a in evaluator.alerts if a.state == "firing"]
            assert len(firing) == 1
            alert = firing[0]
            assert alert.index == 11
            assert alert.slo == "soak-ingest-latency"
            assert alert.severity == "page"
            assert alert.fast_burn == pytest.approx(5.0)
            assert alert.slow_burn == pytest.approx(2.5)
            assert alert.value == pytest.approx(9.9)
            assert alert.runbook == "overload-and-degradation"

    def test_clean_run_fires_nothing(self):
        with scoped_registry():
            evaluator = run_plant(soak_slo(), plant_from=99, total=32)
            assert evaluator.alerts == []
            assert evaluator.firing == []

    def test_one_batch_blip_never_pages(self):
        """The slow window exists to filter single-batch spikes."""
        with scoped_registry():
            evaluator = SLOEvaluator([soak_slo()])
            # Blips only after warmup: with partial windows, a burn at
            # tick 0 is 1/1 of the budget and legitimately pages.
            for index in range(24):
                value = 9.9 if index in (8, 16) else 0.01
                evaluator.tick({"ingest_latency": value}, index=index)
            assert evaluator.alerts == []

    def test_alert_resolves_when_fast_burn_recovers(self):
        with scoped_registry():
            evaluator = run_plant(soak_slo(), plant_from=10, total=14)
            assert evaluator.firing == ["soak-ingest-latency"]
            # Recovery: good samples push violations out of the fast
            # window; after 3 good ticks fast = (1/4)/0.1 = 2.5 < 5.0.
            for index in range(14, 17):
                evaluator.tick({"ingest_latency": 0.01}, index=index)
            states = [(a.state, a.index) for a in evaluator.alerts]
            assert states == [("firing", 11), ("resolved", 16)]
            assert evaluator.firing == []

    def test_missing_signal_leaves_windows_untouched(self):
        with scoped_registry():
            evaluator = SLOEvaluator([soak_slo()])
            for index in range(20):
                evaluator.tick({"queue_depth": 0.0}, index=index)
            (row,) = evaluator.status()
            assert row["state"] == "no-data"
            assert row["ticks"] == 0

    def test_registry_surfaces_burn_and_firing(self):
        with scoped_registry() as registry:
            run_plant(soak_slo(), plant_from=10, total=12)
            prefix = "slo.soak-ingest-latency"
            assert registry.gauge(f"{prefix}.fast_burn").value == (
                pytest.approx(5.0))
            assert registry.gauge(f"{prefix}.firing").value == 1
            assert registry.counter("slo.alerts_fired").value == 1
            assert registry.counter("slo.alerts_resolved").value == 0

    def test_alerts_are_journaled_as_first_class_records(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        with scoped_registry():
            with JsonlJournal.open(path) as journal:
                run_plant(soak_slo(), plant_from=10, journal=journal)
        (record,) = journal_records(path, "alert")
        assert record["slo"] == "soak-ingest-latency"
        assert record["state"] == "firing"
        assert record["index"] == 11
        assert record["objective"] == "ingest_latency < 1"

    def test_status_rows_cover_every_slo(self):
        with scoped_registry():
            evaluator = SLOEvaluator([
                soak_slo(),
                soak_slo(name="queue-bound", signal="queue_depth",
                         op="<=", threshold=4.0),
            ])
            evaluator.tick({"ingest_latency": 0.1, "queue_depth": 2.0})
            rows = {row["name"]: row for row in evaluator.status()}
            assert rows["soak-ingest-latency"]["state"] == "ok"
            assert rows["queue-bound"]["last_value"] == 2.0


class TestSLOFiles:
    def test_bundled_files_load_and_lint_clean(self):
        for name in ("serving", "soak"):
            slos = load_slo_file(name)
            assert slos, name
        results = lint_slo_dir(slos_dir())
        assert results and not any(results.values())

    def test_soak_file_pins_the_ci_objective(self):
        by_name = {slo.name: slo for slo in load_slo_file("soak")}
        slo = by_name["soak-ingest-latency"]
        assert (slo.budget, slo.fast_window, slo.slow_window) == (
            0.1, 4, 8)
        assert (slo.fast_burn, slo.slow_burn) == (5.0, 2.5)
        assert slo.severity == "page"

    def test_resolve_bare_name_lands_in_slos_dir(self):
        path = resolve_slo_path("soak")
        assert path.startswith(slos_dir())
        assert path.endswith("soak.yaml")
        assert resolve_slo_path("custom/my.yaml") == "custom/my.yaml"

    def test_roundtrip_through_yaml(self, tmp_path):
        path = tmp_path / "custom.yaml"
        path.write_text(
            "schema: 1\n"
            "slos:\n"
            "  - name: my-latency\n"
            "    signal: ingest_latency\n"
            "    objective: \"< 0.75\"\n"
            "    budget: 0.2\n"
            "    windows: {fast: 3, slow: 9}\n"
            "    burn: {fast: 4.0, slow: 2.0}\n"
            "    severity: ticket\n"
            "    runbook: overload-and-degradation\n"
        )
        (slo,) = load_slo_file(str(path))
        assert slo == SLO(
            name="my-latency", signal="ingest_latency", op="<",
            threshold=0.75, budget=0.2, fast_window=3, slow_window=9,
            fast_burn=4.0, slow_burn=2.0, severity="ticket",
            runbook="overload-and-degradation",
        )

    @pytest.mark.parametrize("body, match", [
        ("schema: 99\nslos: [{name: a, signal: queue_depth, "
         "objective: '< 1'}]\n", "schema"),
        ("schema: 1\nslos: []\n", "non-empty"),
        ("schema: 1\nslos: [{name: a, signal: queue_depth}]\n",
         "objective"),
        ("schema: 1\nslos: [{name: a, signal: queue_depth, "
         "objective: 'about 5'}]\n", "must look like"),
        ("schema: 1\nslos: [{name: a, signal: queue_depth, "
         "objective: '< 1', frobnicate: 2}]\n", "unknown keys"),
        ("schema: 1\nslos: [{name: a, signal: queue_depth, "
         "objective: '< 1'}, {name: a, signal: queue_depth, "
         "objective: '< 2'}]\n", "duplicate"),
    ])
    def test_bad_files_rejected(self, tmp_path, body, match):
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        with pytest.raises(SLOError, match=match):
            load_slo_file(str(path))
        assert lint_slo_file(str(path))

    def test_lint_dir_reports_dirty_files(self, tmp_path):
        (tmp_path / "good.yaml").write_text(
            "schema: 1\nslos: [{name: ok, signal: queue_depth, "
            "objective: '<= 4'}]\n")
        (tmp_path / "bad.yaml").write_text("schema: 1\nslos: []\n")
        results = lint_slo_dir(str(tmp_path))
        assert list(results) == [str(tmp_path / "bad.yaml"),
                                 str(tmp_path / "good.yaml")]
        assert results[str(tmp_path / "bad.yaml")]
        assert results[str(tmp_path / "good.yaml")] == []

    def test_lint_empty_dir_is_a_problem(self, tmp_path):
        assert lint_slo_dir(str(tmp_path))
