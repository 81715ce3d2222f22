"""Golden pins: the exact bytes and draws every persisted or compared
value depends on.

Job fingerprints name cache entries, generation fingerprints name objects
in existing stores, journal records are read back after a restart, and
every seeded draw decides which faults a replay injects.  Each pin below
was recorded once and must never be edited: a failing pin means an
encoding or a draw changed, which orphans stored data or changes what a
seeded experiment simulates.
"""

import dataclasses
import hashlib
import importlib

from repro.core.config import BBConfig
from repro.faults.fleet import FleetFaultPlan
from repro.faults.injector import BootFaultInjector
from repro.faults.plan import (DeferredFault, FaultPlan, ServiceFault,
                               SettleFault, StorageFault)
from repro.fleet.campaign import campaign_report
from repro.fleet.client import backoff_schedule
from repro.fleet.journal import encode_record
from repro.fleet.protocol import submission_key
from repro.generations.ota import demo_baseline, draw_update_fault
from repro.hw.presets import emmc_ue48h6200, ue48h6200
from repro.initsys.executor import JobExecutor, PathRegistry
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import Transaction
from repro.initsys.units import RestartPolicy, ServiceType, SimCost, Unit
from repro.kernel.rcu import RCUSubsystem
from repro.kernel.snapshot import HibernationModel, verify_snapshot
from repro.quantities import msec
from repro.runner.branch import canonical_bytes
from repro.runner.jobs import KIND_BOOT, SimJob, canonical_repr
from repro.sim import Simulator
from repro.workloads import opensource_tv_workload

PLAN = FaultPlan(
    seed=11,
    storage=(StorageFault(spike_rate=0.3, error_rate=0.2),),
    services=(ServiceFault(unit="net*.service", fail_attempts=1,
                           fail_rate=0.4, hang_ns=1000, hang_rate=0.5),),
    settles=(SettleFault(unit="*", multiplier=1.5, jitter=0.2),),
    deferred=(DeferredFault(task="*", fail_rate=0.5),),
    label="pin")

SPECS = [{"kind": "boot", "workload": "tv", "bb": "full", "repeat": 3,
          "label": "tv/full"},
         {"kind": "boot", "workload": "camera", "bb": "none",
          "fault": {"preset": "flaky-services", "seed": 1}}]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_encoder(module: str, name: str):
    """The canonical JSON encoder a report module uses.

    Resolved by name because the encoder may live in :mod:`repro.canonical`
    or under a per-module name; the pinned bytes must hold either way.
    """
    try:
        return importlib.import_module("repro.canonical").canonical_json
    except ImportError:
        return getattr(importlib.import_module(module), name)


@dataclasses.dataclass(frozen=True)
class Cell:
    name: str
    tags: frozenset
    weights: dict


# ------------------------------------------------------------ fingerprints


def test_canonical_repr_of_a_job_tuple():
    job_tuple = (KIND_BOOT, opensource_tv_workload, (), (("seed", 3),),
                 BBConfig.full(), 4, None, ("a.service",), None)
    assert _sha(canonical_repr(job_tuple).encode()) == (
        "39b8c79bcbd1074253bfa2a146fe2507b88a7f75e5b18c7836ef3b44fa227221")


def test_divergence_fingerprint_of_a_fault_plan():
    job = SimJob.boot(opensource_tv_workload, fault_plan=PLAN)
    assert job.divergence_fingerprint() == (
        "37794e403310dd4dca823f54cad3e1165120ed25e9ba670492fb40dbebee9f86")


def test_canonical_bytes_of_sets_and_dataclasses():
    nested = {"cells": [Cell("a", frozenset({"z", "y", "x"}),
                             {"b": 1.5, "a": None}),
                        Cell("b", frozenset(), {})],
              "set": {3, 1, 2}, "tuple": (True, b"raw", -7)}
    assert _sha(canonical_bytes(nested)) == (
        "95eaeba1ab97bec546de1f43cff6a114810c82a2b5ecf2bdb30e4dc3b49e4d78")


# ------------------------------------------------------- on-disk formats


def test_generation_fingerprint_of_the_demo_baseline():
    assert demo_baseline().fingerprint() == (
        "3eaf52f4b1371087e844c2a104e63b25f2f02aadb19a5217ff95dfa00f425bcb")


def test_journal_record_bytes():
    record = {"type": "submit", "key": "k1", "sid": "s",
              "specs": [{"workload": "tv", "repeat": 2}], "priority": 0}
    assert encode_record(record) == (
        b'{"crc":"f6fc753b69c4","key":"k1","priority":0,"sid":"s",'
        b'"specs":[{"repeat":2,"workload":"tv"}],"type":"submit"}\n')


def test_submission_key():
    assert submission_key("s", SPECS, 0) == "04d72f2856bd4c4c"


def test_ota_report_bytes():
    encode = _report_encoder("repro.generations.ota",
                             "canonical_report_bytes")
    report = {"campaign": "gen-1->gen-2", "devices": 3,
              "waves": [{"wave": 0, "devices": ["dev-000"],
                         "verdicts": {"healthy": 1}}],
              "rollbacks": 0, "halted_after": None, "ratio": 0.25,
              "device_states": {"dev-001": {"slot": "b"},
                                "dev-000": {"slot": "a"}}}
    assert encode(report) == (
        b'{"campaign":"gen-1->gen-2","device_states":{"dev-000":'
        b'{"slot":"a"},"dev-001":{"slot":"b"}},"devices":3,'
        b'"halted_after":null,"ratio":0.25,"rollbacks":0,"waves":'
        b'[{"devices":["dev-000"],"verdicts":{"healthy":1},"wave":0}]}')


def test_campaign_report_bytes():
    encode = _report_encoder("repro.fleet.campaign",
                             "canonical_campaign_bytes")
    report = campaign_report(3, ["f1", "f1", "f2"], [b"x", b"x", b"y"],
                             {2: "boom"})
    x_sha = "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881"
    y_sha = "a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa"
    assert encode(report) == (
        b'{"errors":{"2":"boom"},"jobs":['
        b'{"fingerprint":"f1","payload_sha256":"' + x_sha.encode() + b'"},'
        b'{"fingerprint":"f1","payload_sha256":"' + x_sha.encode() + b'"},'
        b'{"fingerprint":"f2","payload_sha256":"' + y_sha.encode() + b'"}'
        b'],"total":3}')


# ------------------------------------------------------------ seeded draws


def test_boot_fault_injector_draws():
    injector = BootFaultInjector(PLAN)
    assert [injector.storage_extra_ns(4096, False) for _ in range(24)] == [
        0, 5000000, 5000000, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 5000000, 0, 0, 5000000, 0, 2000000, 5000000, 0, 2000000, 0]
    decisions = [injector.service_decision(f"net{unit}.service", attempt)
                 for unit in range(3) for attempt in (1, 2, 3)]
    assert [(d.fail, d.hang_ns) for d in decisions] == [
        (True, 1000), (True, 1000), (False, 0), (True, 0), (True, 0),
        (False, 0), (True, 1000), (False, 0), (False, 0)]
    assert [injector.settle_ns("x.service", attempt, 1_000_000)
            for attempt in range(1, 6)] == [
        1498443, 1533655, 1564819, 1473687, 1384017]
    assert [injector.deferred_fails("t", attempt)
            for attempt in range(1, 9)] == [
        False, True, True, True, True, False, True, False]


def test_fleet_fault_plan_draws():
    injector = FleetFaultPlan(seed=5, kill_worker_rate=0.3,
                              drop_connection_rate=0.2).compile()
    assert [i for i in range(1, 41) if injector.kill_worker(i)] == [
        3, 6, 7, 13, 15, 19, 20, 23, 24, 31, 33, 35, 36, 38]
    assert [(conn, frame) for conn in range(3) for frame in range(1, 16)
            if injector.drop_connection(conn, frame)] == [
        (0, 8), (0, 15), (1, 1), (1, 2), (1, 5), (1, 6), (1, 15), (2, 4),
        (2, 8), (2, 10), (2, 12), (2, 14)]


def test_snapshot_verification_draws():
    verdicts = [verify_snapshot(HibernationModel(), ue48h6200(), seed,
                                corrupt_rate=0.5).intact
                for seed in range(24)]
    assert verdicts == [
        True, True, True, True, True, True, False, False, False, True,
        False, False, False, False, False, True, False, True, True, False,
        False, True, True, True]


def test_executor_restart_jitter_draws():
    sim = Simulator(cores=4)
    units = [Unit(name="goal.target", requires=["flaky.service"]),
             Unit(name="flaky.service", service_type=ServiceType.ONESHOT,
                  failures_before_success=4,
                  restart_policy=RestartPolicy.ON_FAILURE,
                  restart_delay_ns=msec(10), restart_backoff_factor=2.0,
                  max_restarts=5,
                  cost=SimCost(init_cpu_ns=msec(1), exec_bytes=0))]
    transaction = Transaction(UnitRegistry(units), ["goal.target"])
    executor = JobExecutor(sim, transaction, emmc_ue48h6200().attach(sim),
                           RCUSubsystem(sim), PathRegistry(sim),
                           restart_seed=7, restart_jitter=0.3)
    executor.start_all()
    sim.run()
    assert transaction.job("flaky.service").restart_delays_ns == [
        7596664, 22267676, 44593639, 89402602]


def test_update_fault_draws():
    assert [draw_update_fault(9, f"dev-{i:03d}", 0.2, 0.3)
            for i in range(16)] == [
        None, None, None, None, None, "interrupted-flash", "corrupt-image",
        "corrupt-image", None, "corrupt-image", None, None, "corrupt-image",
        None, "interrupted-flash", "interrupted-flash"]


def test_backoff_schedule_draws():
    assert backoff_schedule(5, seed=7) == [
        0.03904951162378578, 0.05281510257310325, 0.18555376469492327,
        0.2417131792280535, 0.42747057306104275]
