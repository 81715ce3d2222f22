"""Tests for SimJob fingerprints and execution."""

import pytest

from repro.canonical import canonical_repr
from repro.core import BBConfig, BootSimulation
from repro.errors import SimulationError
from repro.kernel.config import KernelConfig
from repro.runner import SimJob, execute_job
from repro.workloads import opensource_tv_workload
from repro.workloads.tizen_tv import perturbed_tv_workload


class TestFingerprint:
    def test_equal_jobs_equal_fingerprints(self):
        a = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        b = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        assert a.fingerprint() == b.fingerprint()

    def test_label_does_not_affect_fingerprint(self):
        a = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(), label="x")
        b = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(), label="y")
        assert a.fingerprint() == b.fingerprint()

    def test_config_changes_fingerprint(self):
        full = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        none = SimJob.boot(opensource_tv_workload, bb=BBConfig.none())
        one_off = SimJob.boot(
            opensource_tv_workload,
            bb=BBConfig.full().with_feature("rcu_booster", False))
        assert len({full.fingerprint(), none.fingerprint(),
                    one_off.fingerprint()}) == 3

    def test_cores_change_fingerprint(self):
        a = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(), cores=2)
        b = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(), cores=4)
        assert a.fingerprint() != b.fingerprint()

    def test_seed_changes_fingerprint(self):
        a = SimJob.boot(perturbed_tv_workload, 0, 0.3)
        b = SimJob.boot(perturbed_tv_workload, 1, 0.3)
        assert a.fingerprint() != b.fingerprint()

    def test_kernel_config_changes_fingerprint(self):
        a = SimJob.kernel(KernelConfig.unoptimized())
        b = SimJob.kernel(KernelConfig())
        assert a.fingerprint() != b.fingerprint()

    def test_non_module_level_factory_rejected(self):
        with pytest.raises(SimulationError):
            SimJob.boot(lambda: opensource_tv_workload())


class TestCanonicalRepr:
    def test_frozenset_is_sorted(self):
        assert canonical_repr(frozenset({"b", "a"})) == \
            canonical_repr(frozenset({"a", "b"}))

    def test_dict_is_sorted(self):
        assert canonical_repr({"b": 1, "a": 2}) == canonical_repr(
            dict([("a", 2), ("b", 1)]))

    def test_callable_by_qualified_name(self):
        assert "opensource_tv_workload" in canonical_repr(
            opensource_tv_workload)


class TestExecute:
    def test_boot_job_matches_direct_simulation(self):
        job = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        via_job = execute_job(job)
        direct = BootSimulation(opensource_tv_workload(),
                                BBConfig.full()).run()
        assert via_job == direct

    def test_kernel_job_returns_total_ns(self):
        total = execute_job(SimJob.kernel(KernelConfig()))
        assert isinstance(total, int) and total > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            execute_job(SimJob(kind="mystery"))

    def test_unknown_preset_rejected(self):
        with pytest.raises(SimulationError):
            execute_job(SimJob.kernel(KernelConfig(), platform_preset="nope"))
