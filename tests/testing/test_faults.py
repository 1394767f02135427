"""Tests for the deterministic failpoint registry."""

import pytest

from repro.testing.faults import (
    KNOWN_SITES,
    FailpointRegistry,
    InjectedCrash,
    InjectedFault,
    get_failpoints,
    hit,
    scoped_failpoints,
)


class TestArming:
    def test_unknown_site_rejected(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError, match="unknown failpoint"):
            registry.arm("wal.appendd")

    def test_unknown_kind_rejected(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError, match="kind"):
            registry.arm("wal.append", kind="explode")

    def test_hit_is_one_based(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError, match="1-based"):
            registry.arm("wal.append", hit=0)

    def test_every_known_site_armable(self):
        registry = FailpointRegistry()
        for site in KNOWN_SITES:
            registry.arm(site)
        assert all(registry.armed(site) for site in KNOWN_SITES)


class TestFiring:
    def test_unarmed_hits_only_count(self):
        registry = FailpointRegistry()
        for _ in range(3):
            registry.hit("wal.append")
        assert registry.hit_count("wal.append") == 3
        assert registry.fired == []

    def test_fires_on_exact_hit(self):
        registry = FailpointRegistry()
        registry.arm("engine.refine", kind="crash", hit=3)
        registry.hit("engine.refine")
        registry.hit("engine.refine")
        with pytest.raises(InjectedCrash) as excinfo:
            registry.hit("engine.refine")
        assert excinfo.value.site == "engine.refine"
        assert excinfo.value.hit_number == 3

    def test_once_disarms_after_firing(self):
        registry = FailpointRegistry()
        registry.arm("wal.append", hit=1)
        with pytest.raises(InjectedCrash):
            registry.hit("wal.append")
        registry.hit("wal.append")  # recovered process: no second crash
        assert [record.site for record in registry.fired] == ["wal.append"]

    def test_fault_kind_is_a_retryable_oserror(self):
        registry = FailpointRegistry()
        registry.arm("checkpoint.write", kind="fault", hit=1)
        with pytest.raises(InjectedFault):
            registry.hit("checkpoint.write")
        assert isinstance(InjectedFault("x"), OSError)

    def test_crash_is_not_an_exception_subclass(self):
        # Quarantine handlers catch Exception; a simulated SIGKILL must
        # tear straight through them.
        assert not issubclass(InjectedCrash, Exception)

    def test_counts_before_arming_are_respected(self):
        registry = FailpointRegistry()
        registry.hit("wal.append")
        registry.arm("wal.append", hit=2)
        with pytest.raises(InjectedCrash):
            registry.hit("wal.append")


class TestProcessWide:
    def test_scoped_registry_restores_previous(self):
        before = get_failpoints()
        with scoped_failpoints() as registry:
            assert get_failpoints() is registry
            registry.arm("wal.append", hit=1)
            with pytest.raises(InjectedCrash):
                hit("wal.append")
        assert get_failpoints() is before

    def test_module_hit_is_noop_by_default(self):
        with scoped_failpoints():
            hit("engine.refine")  # nothing armed: must not raise


class TestSiteRoster:
    # Which crash-sweep row arms which site (and on which topology) is
    # pinned next to the table, in tests/recovery/test_crash_equivalence.
    @pytest.mark.parametrize("site", [
        "admission.enqueue", "query.deadline", "breaker.probe",
        "replication.ship", "replication.reorder", "replication.receive",
        "replica.query", "storage.segment_write", "storage.seal",
        "wal.segment_read",
    ])
    def test_layer_sites_registered(self, site):
        assert site in KNOWN_SITES

    def test_a_corrupt_plan_waits_for_a_pass_that_can_corrupt(self):
        """``storage.segment_write`` is passed by every segment write
        (crash-only) and by the seal that fixes a CRC: a corrupt plan
        is neither fired nor consumed by the former."""
        registry = FailpointRegistry()
        registry.arm("storage.segment_write", kind="corrupt", hit=2)
        for _ in range(3):
            registry.hit("storage.segment_write")
        assert registry.fired == []
        assert registry.armed("storage.segment_write")
        assert registry.hit_corruptible("storage.segment_write")
        assert [f.hit_number for f in registry.fired] == [4]
        assert not registry.hit_corruptible("storage.segment_write")

    def test_read_path_site_is_corrupt_only_material(self):
        from repro.testing.faults import CORRUPT_SITES

        assert "wal.segment_read" in CORRUPT_SITES

    def test_new_sites_armable(self):
        registry = FailpointRegistry()
        registry.arm("breaker.probe", kind="crash", hit=2)
        registry.hit("breaker.probe")  # count-only, below the hit
        with pytest.raises(InjectedCrash):
            registry.hit("breaker.probe")
