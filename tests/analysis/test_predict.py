"""Tests for the closed-form boot-time predictor."""

import pytest

from repro.analysis.predict import (
    BootPrediction,
    PREDICTION_TOLERANCE,
    compute_wall_ns,
    predict,
    predict_job,
    registry_text_stats,
)
from repro.core.bb import BootSimulation
from repro.core.config import BBConfig
from repro.errors import AnalysisError
from repro.faults.plan import FaultPlan
from repro.graph.critical_path import critical_path
from repro.initsys.units import SimCost, Unit
from repro.quantities import msec
from repro.runner.jobs import SimJob
from repro.sim.cpu import DEFAULT_QUANTUM_NS, DEFAULT_SWITCH_COST_NS
from repro.verify.oracles import check_prediction_matches_des
from repro.workloads import (
    GeneratorParams,
    camera_workload,
    generate_workload,
    opensource_tv_workload,
    wearable_workload,
)


def test_compute_wall_matches_cpu_slicing():
    q, s = DEFAULT_QUANTUM_NS, DEFAULT_SWITCH_COST_NS
    assert compute_wall_ns(0) == 0
    assert compute_wall_ns(1) == 1 + s
    assert compute_wall_ns(q) == q + s
    assert compute_wall_ns(q + 1) == q + 1 + 2 * s
    assert compute_wall_ns(10 * q) == 10 * q + 10 * s


@pytest.mark.parametrize("bb", [BBConfig.none(), BBConfig.full()],
                         ids=["none", "full"])
@pytest.mark.parametrize("cores", [1, 2, 4])
def test_predictor_matches_des_on_tv(bb, cores):
    """The core differential oracle, inline: predictor vs simulator."""
    des = BootSimulation(opensource_tv_workload(), bb, cores=cores).run()
    pred = predict(opensource_tv_workload(), bb, cores=cores)
    assert pred.boot_complete_ns == des.boot_complete_ns
    # Per-unit times agree for every unit the prediction covers.
    for name, ready_ns in pred.unit_ready_ns.items():
        assert des.unit_ready_ns.get(name) == ready_ns


def test_predictor_matches_des_on_camera():
    des = BootSimulation(camera_workload(), BBConfig.full(), cores=2).run()
    pred = predict(camera_workload(), BBConfig.full(), cores=2)
    assert pred.boot_complete_ns == des.boot_complete_ns


def test_stage_breakdown_matches_des():
    des = BootSimulation(wearable_workload(), BBConfig.none(), cores=2).run()
    pred = predict(wearable_workload(), BBConfig.none(), cores=2)
    assert pred.kernel_ns == des.stages.kernel_ns
    assert pred.init_init_ns == des.stages.init_init_ns


def test_bb_group_reported_when_isolation_enabled():
    pred = predict(opensource_tv_workload(), BBConfig.full(), cores=4)
    assert pred.bb_group
    assert not predict(opensource_tv_workload(), BBConfig.none(),
                       cores=4).bb_group


def test_more_cores_never_slower_on_presets():
    times = [predict(camera_workload(), BBConfig.none(),
                     cores=c).boot_complete_ns for c in (1, 2, 4)]
    assert times[0] >= times[1] >= times[2] * (1 - PREDICTION_TOLERANCE)


def test_critical_path_lower_bounds_services_phase():
    wl = opensource_tv_workload()
    pred = predict(wl, BBConfig.none(), cores=64)
    path = critical_path(wl.fresh_registry(), wl.completion_units)
    assert path.length_ns <= pred.services_ns


def test_text_stats_cache_gives_identical_prediction():
    wl = opensource_tv_workload()
    baseline = predict(wl, BBConfig.none(), cores=4)
    registry = opensource_tv_workload().fresh_registry()
    from repro.initsys.preparser import PreParser

    pp = PreParser()
    stats = registry_text_stats(registry, pp.parse_base_ns,
                                pp.parse_per_byte_ns)
    cached = predict(opensource_tv_workload(), BBConfig.none(), cores=4,
                     text_stats=stats)
    assert cached.boot_complete_ns == baseline.boot_complete_ns


def test_predict_job_round_trip():
    job = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(), cores=4)
    pred = predict_job(job)
    assert isinstance(pred, BootPrediction)
    assert pred.boot_complete_ns == predict(
        opensource_tv_workload(), BBConfig.full(), cores=4).boot_complete_ns


def test_fault_plans_rejected():
    job = SimJob.boot(opensource_tv_workload, bb=BBConfig.none(), cores=4)
    faulted = job.replace(fault_plan=FaultPlan()) if hasattr(job, "replace") \
        else None
    if faulted is None:
        import dataclasses
        faulted = dataclasses.replace(job, fault_plan=FaultPlan())
    with pytest.raises(AnalysisError, match="unperturbed"):
        predict_job(faulted)


def test_flaky_units_rejected():
    wl = opensource_tv_workload()
    registry = wl.fresh_registry()
    registry.add(Unit(name="flaky.service", failures_before_success=1,
                      wanted_by=["multi-user.target"],
                      cost=SimCost(init_cpu_ns=msec(1), exec_bytes=0)))
    import dataclasses
    rigged = dataclasses.replace(wl, registry_factory=lambda: registry)
    with pytest.raises(AnalysisError, match="failures_before_success"):
        predict(rigged, BBConfig.none(), cores=4)


def test_unknown_completion_unit_rejected():
    import dataclasses
    wl = dataclasses.replace(opensource_tv_workload(),
                             completion_units=("ghost.service",))
    with pytest.raises(AnalysisError):
        predict(wl, BBConfig.none(), cores=4)


# --------------------------------------------------------------------------
# SweepPredictor: the design-space cache must be invisible.


class TestSweepPredictor:
    def _sweep(self):
        from repro.analysis.predict import SweepPredictor

        return SweepPredictor(opensource_tv_workload)

    def test_fast_hits_are_bit_identical_to_direct_predict(self):
        from repro.analysis.predict import PREFIX_ONLY_FEATURES

        sweep = self._sweep()
        for base in (BBConfig.none(), BBConfig.full()):
            for feature in PREFIX_ONLY_FEATURES:
                bb = base.with_feature(feature,
                                       not getattr(base, feature))
                via_cache = sweep.predict(bb, cores=2)
                direct = predict(opensource_tv_workload(), bb, cores=2)
                assert via_cache.boot_complete_ns == direct.boot_complete_ns
                assert via_cache.unit_ready_ns == direct.unit_ready_ns
                assert via_cache.unit_started_ns == direct.unit_started_ns

    def test_prefix_only_flips_reuse_the_machine_solution(self):
        from repro.analysis.predict import PREFIX_ONLY_FEATURES

        sweep = self._sweep()
        sweep.predict(BBConfig.none(), cores=4)
        runs_after_reference = sweep.machine_runs
        for feature in PREFIX_ONLY_FEATURES:
            sweep.predict(BBConfig.none().with_feature(feature, True),
                          cores=4)
        assert sweep.machine_runs == runs_after_reference
        assert sweep.fast_hits == len(PREFIX_ONLY_FEATURES)

    def test_service_phase_flips_pay_a_machine_run(self):
        sweep = self._sweep()
        sweep.predict(BBConfig.none(), cores=4)
        before = sweep.machine_runs
        sweep.predict(BBConfig.none().with_feature("rcu_booster", True),
                      cores=4)
        assert sweep.machine_runs == before + 1

    def test_distinct_core_counts_are_distinct_solutions(self):
        sweep = self._sweep()
        two = sweep.predict(BBConfig.full(), cores=2)
        four = sweep.predict(BBConfig.full(), cores=4)
        assert sweep.machine_runs == 2
        assert two.boot_complete_ns >= four.boot_complete_ns


def test_deep_chain_predicts_without_recursion_error():
    """Acceptance: a 5,000-unit strong Requires/After chain must solve
    analytically without touching the interpreter recursion limit (the
    same graph shape that used to overflow critical_path)."""
    params = GeneratorParams(seed=7, services=0, chain_length=5_000,
                             mean_cpu_ms=1.0, rcu_sync_mean=0.0)
    workload = generate_workload(params)
    path = critical_path(workload.fresh_registry(),
                         workload.completion_units,
                         storage=workload.platform_factory().storage)
    assert len(path.units) == 5_000
    prediction = predict(generate_workload(params), BBConfig.none(),
                         cores=4)
    assert prediction.boot_complete_ns >= path.length_ns
    assert len(prediction.unit_ready_ns) >= 5_000


_MIXED_SUBJECTS = {
    "camera": camera_workload,
    "gen4242": lambda: generate_workload(
        GeneratorParams(seed=4242, services=20, rcu_sync_mean=3)),
}


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("boost", [False, True], ids=["noboost", "boost"])
@pytest.mark.parametrize("ondemand", [False, True], ids=["builtin", "ondemand"])
@pytest.mark.parametrize("booster", [False, True], ids=["rcu", "booster"])
@pytest.mark.parametrize("subject", sorted(_MIXED_SUBJECTS))
def test_predictor_matches_des_on_mixed_service_features(
        subject, booster, ondemand, boost, cores):
    """Exactness on the mixed corners of the service-phase features, where
    boosted priorities preempt conventional-RCU spinners mid-quantum.

    On one core, boost without the RCU Booster starves the generated
    graph's spinners forever: the DES never terminates there, so only the
    predictor's livelock verdict is checked.
    """
    factory = _MIXED_SUBJECTS[subject]
    bb = (BBConfig.full()
          .with_feature("rcu_booster", booster)
          .with_feature("ondemand_modularizer", ondemand)
          .with_feature("group_priority_boost", boost))
    if subject == "gen4242" and cores == 1 and boost and not booster:
        with pytest.raises(AnalysisError, match="livelock"):
            predict(factory(), bb, cores=cores)
        return
    violations = check_prediction_matches_des(factory, bb=bb, cores=cores)
    assert not violations, violations
