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

import pytest

from repro.core.config import BBConfig
from repro.core.degraded import DegradedBootError
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
from repro.runner.jobs import (KIND_BOOT, SimJob, canonical_repr, execute_job,
                               make_boot_simulation)
from repro.sim import Simulator
from repro.workloads import (WORKLOAD_FACTORIES, GeneratorParams,
                             generate_workload, opensource_tv_workload)

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


# ------------------------------------------------------------ boot reports

#: ``(sha256 of canonical_bytes(report), (dispatches, busy_ns, switch_ns,
#: peak_runnable, rcu spin_time_ns))`` for every named profile x
#: ``BBConfig.none()/full()`` x {1, 2, 4} cores.  The report digest pins
#: what a boot computes; the CPU counters and the RCU spin time pin how the
#: scheduler got there, slice by slice, so a change to the run queue or to
#: spin-waiting that kept the report but moved a dispatch still fails.
BOOT_PINS = {
    ("appliance", "none", 1): (
        "fe003a3f45e3187a7441a5e6f3bfa8563ca918c161ed00e2d4ac54f680fe0037",
        (2087, 2031123100, 4174000, 16, 0)),
    ("appliance", "none", 2): (
        "67de1ead582ab0bdee732eb53a7b816baaa3af7e3a09936362762c551b204ca0",
        (2090, 2032623100, 4180000, 12, 1500000)),
    ("appliance", "none", 4): (
        "4dd8a5b454c39abc0f1941b14dc7612a86aee8ae1212c551f75d586727869f03",
        (2099, 2037123100, 4198000, 4, 6000000)),
    ("appliance", "full", 1): (
        "0196d676ee0bee30fa77f714afb6bf03f982eaacf3221d504cddb43b7136ce48",
        (2030, 1976636200, 4060000, 27, 3000000)),
    ("appliance", "full", 2): (
        "df3116d5299d12e770233a090c07ad7319f692ee1e809395f4e258192b80b559",
        (2033, 1979315800, 4066000, 25, 5500000)),
    ("appliance", "full", 4): (
        "4dc16ad5ab761a2bb5e86df58e822250afd604eef8ce035d20cf1de9b431af31",
        (2018, 1974175000, 4036000, 10, 0)),
    ("camera", "none", 1): (
        "17201fce2f9100c1d11f1016c5fc950611a147fd141c2dda0dc7a5962c0482e4",
        (2857, 2762271700, 5714000, 27, 0)),
    ("camera", "none", 2): (
        "5b1818a091a99ab7fff46d3f8e42a1a96bbc28014a29fa949c644420b43fbb8c",
        (2861, 2764271700, 5722000, 16, 2000000)),
    ("camera", "none", 4): (
        "9bd613a5b729963861cc8221a278821cddb014c148bb464719292746e11e6fcd",
        (2878, 2772771700, 5756000, 3, 10500000)),
    ("camera", "full", 1): (
        "d77c1400bbf8f45f6378ae4668cc7e1d3928448db95122cd448ff062cc2d9a48",
        (2757, 2674465200, 5514000, 37, 0)),
    ("camera", "full", 2): (
        "25b67add84145c320ccaaeaab79bf4ffabd0cc986f0d6ace85ac7da735d27ced",
        (2755, 2674644800, 5510000, 27, 0)),
    ("camera", "full", 4): (
        "1f9a0615ed27b962431fa7d127376988ab4883be682e1a60c5b38670db49d7bf",
        (2751, 2675004000, 5502000, 12, 0)),
    ("phone", "none", 1): (
        "a6e1cad6eb7c209f589ef51299fde895da39b5295cc7942cc7a31699be94ef8e",
        (7347, 7101016900, 14694000, 47, 3000000)),
    ("phone", "none", 2): (
        "4267198d80f76e0912824d7a6f1c54b81b11a3364153b6d84a32fda6ea219995",
        (7376, 7115516900, 14752000, 61, 17500000)),
    ("phone", "none", 4): (
        "d39bb07fcc42141aa5449803d8258aa2ff99089c4fc2c41e74316a43872d8dcf",
        (7511, 7183016900, 15022000, 50, 85000000)),
    ("phone", "full", 1): (
        "e26988f7e502cb0723411e2e596b95df2bd3dad3ec6818d8a93587d048ac01ca",
        (7157, 6918239400, 14314000, 57, 3500000)),
    ("phone", "full", 2): (
        "15db406c00f00635c30ea22a276bb92954b4814d5b9b2e54cc13c741ff451dc7",
        (7151, 6918778200, 14302000, 58, 3500000)),
    ("phone", "full", 4): (
        "41a5a12b3f74f2943261d18ce60658e560705ddaf0d0943c1e45195f5336d77e",
        (7189, 6943836800, 14378000, 60, 27000000)),
    ("tv", "none", 1): (
        "90edc36595ec2b356dfb8b8403a71880afcb83913880383d60cdf14ba5241fbe",
        (15783, 13147631047, 31566000, 76, 1475500000)),
    ("tv", "none", 2): (
        "ba3af661aa2db9e5e1539028e1654d167c046ba0c76e3544ebef3e93fbb6f8a2",
        (20741, 15626631047, 41482000, 98, 3954500000)),
    ("tv", "none", 4): (
        "3b637eea71192ec4492bc62e8bd20a3111585f2e42d06bcbde06b177cdd225f8",
        (27852, 19182131047, 55704000, 86, 7510000000)),
    ("tv", "full", 1): (
        "9ce093d2a7512744da2ae5da1a0a86856d6e86ec2f7ab6f012106eef035359cc",
        (12759, 11492839297, 25518000, 61, 314000000)),
    ("tv", "full", 2): (
        "13de291204243378be160d5e755ab739273c3cdba85369617876671146f35450",
        (13449, 11875951497, 26898000, 50, 689500000)),
    ("tv", "full", 4): (
        "a5d5990e7a24872859d14289865ef3b1cf2987480672465bc95a67961c06f1e8",
        (12005, 11198320497, 24010000, 34, 0)),
    ("tv-commercial", "none", 1): (
        "779acfefde4e5e86e967845438a96a0f967e77544150fc999f5051ba6311a2e3",
        (28914, 23592946151, 57828000, 62, 2951000000)),
    ("tv-commercial", "none", 2): (
        "09278034f345418f99af6b16c5764b77c679cd6166a70984682ed376af54b466",
        (41830, 30050946151, 83660000, 91, 9409000000)),
    ("tv-commercial", "none", 4): (
        "9fbe85ef99b143359c630fc896546fbd790f0061637a2aad818984ddcf46be2a",
        (76942, 47606946151, 153884000, 202, 26965000000)),
    ("tv-commercial", "full", 1): (
        "14f75c15fd7e9275a60d66e2e276a03668259737aa022982a4c3561cd55b5db5",
        (22881, 20272123751, 45762000, 53, 580000000)),
    ("tv-commercial", "full", 2): (
        "e4dfe662d5fbe109c8d8789f763ad467cf29ffca6a4d6e9b27d0be2ecacf81de",
        (30966, 24352212151, 61932000, 70, 4653500000)),
    ("tv-commercial", "full", 4): (
        "c3538e94543eaf48c367e1bc8e543c62b8ba1f6631b76e619d759a8b62c71a4b",
        (35447, 26606165951, 70894000, 83, 6885500000)),
    ("wearable", "none", 1): (
        "7412e3de8d4a9882178eed125db5effcf202e91b8c84fa0de5da7bef97aabfd8",
        (2382, 2302258250, 4764000, 19, 1000000)),
    ("wearable", "none", 2): (
        "c3d4f4daae18df92af8773928321cdded09e9123debdfb2e4005add252d639fa",
        (2397, 2309758250, 4794000, 15, 8500000)),
    ("wearable", "none", 4): (
        "ff7dc7354d3c8a5035a7a989ce1ab791f3647977f802ac1d7029cadc5940260c",
        (2473, 2347758250, 4946000, 6, 46500000)),
    ("wearable", "full", 1): (
        "c14d84b5f1acb9e0fc4bb2d015a6aeb26ab876a2f795ad73ff7d94a35cde1095",
        (2312, 2235493400, 4624000, 31, 3000000)),
    ("wearable", "full", 2): (
        "74593ccd9a6b1387179122bb1df8664d13b889e2b77fff34a0747eafc08d147d",
        (2323, 2243352600, 4646000, 28, 10500000)),
    ("wearable", "full", 4): (
        "ae7923f35323182fad75e3c056717fb45457e1c8389cca94588009fbac730954",
        (2295, 2233574000, 4590000, 10, 0)),
}

#: The same pair for one generated graph with heavy RCU contention.
GENERATED_PIN = (
    "3f41dde66893c33c81546e7c48b8257f4cfbfff71b24c75029cc457adc74f818",
    (8956, 6315502166, 17912000, 38, 2143000000))

BOOT_CELLS = sorted(BOOT_PINS)


def _cell_id(cell) -> str:
    return "-".join(map(str, cell))


def _boot_job(profile: str, bb: str, cores: int) -> SimJob:
    return SimJob.boot(WORKLOAD_FACTORIES[profile],
                       bb=getattr(BBConfig, bb)(), cores=cores)


def _generated_job() -> SimJob:
    return SimJob.boot(generate_workload,
                       GeneratorParams(seed=3, rcu_sync_mean=3.0), cores=2)


def _scheduler_counters(job: SimJob) -> tuple[int, int, int, int, int]:
    simulation = make_boot_simulation(job)
    try:
        simulation.run()
    except DegradedBootError:
        pass
    stats = simulation.sim.cpu.stats
    rcu = simulation.booster.core_engine.rcu
    return (stats.dispatches, stats.busy_ns, stats.switch_ns,
            stats.peak_runnable, rcu.spin_time_ns)


@pytest.mark.parametrize("cell", BOOT_CELLS, ids=_cell_id)
def test_boot_report_bytes(cell):
    report = execute_job(_boot_job(*cell))
    assert _sha(canonical_bytes(report)) == BOOT_PINS[cell][0]


@pytest.mark.parametrize("cell", BOOT_CELLS, ids=_cell_id)
def test_boot_scheduler_counters(cell):
    assert _scheduler_counters(_boot_job(*cell)) == BOOT_PINS[cell][1]


def test_generated_graph_boot():
    job = _generated_job()
    assert _sha(canonical_bytes(execute_job(job))) == GENERATED_PIN[0]
    assert _scheduler_counters(job) == GENERATED_PIN[1]
