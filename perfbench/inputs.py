"""Seeded benchmark inputs.  Every function here is a pure function of its
arguments: the same seed gives the same jobs, specs and schedule.

The *shape* of each workload (which device profiles, how many cells, the
arrival rate) is fixed; the seed only draws the details inside it
(generated-graph seeds, perturbation instances, fault targets and fault
seeds, row order, which earlier spec a repeat arrival asks for).  That
keeps the cost of a run nearly the same across seeds, so run-to-run
spread measures the host, not the draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any

from repro.core import BBConfig
from repro.faults import DeferredFault, FaultPlan, ServiceFault, SettleFault
from repro.runner.jobs import SimJob, make_boot_simulation
from repro.sim.checkpoint import DEFERRED, SERVICE, SETTLE, InjectorSlot
from repro.workloads import (WORKLOAD_FACTORIES, GeneratorParams,
                             generate_workload, perturbed_tv_workload)

#: Core counts of every cold-sweep row.
SWEEP_CORES = (2, 4)

#: ``rcu_sync_mean`` of the generated graphs, cycled so every seed gets
#: the same spread of spin-lock contention.
RCU_SYNC_MEANS = (0.5, 1.0, 2.0, 3.0)

#: Fault-matrix prefixes: (profile, BB config) pairs whose boots are shared.
FAULT_PREFIXES = (("tv", "full"), ("tv", "none"), ("phone", "full"),
                  ("camera", "none"))

#: Service faults target one of the last this-many services a boot starts.
LATE_SERVICES = 8

#: Design-space axes (as in ``repro.experiments.design_space``) and cores.
DESIGN_AXES = ("rcu_booster", "preparser", "deferred_executor",
               "ondemand_modularizer", "defer_startup_tasks",
               "group_priority_boost")
DESIGN_CORES = (2, 4)
DESIGN_PROFILES = ("tv", "camera", "phone", "wearable", "appliance")

#: Frontier size the design-space DES confirms, per request.
DESIGN_TOP_K = 4

#: Fresh fleet arrivals cycle through these (profile, bb, cores) cells
#: under a freshly seeded ``storage-storm`` plan: 60% small profiles, 40%
#: phone.  No boot is long enough to hold up the ones queued behind it,
#: so latency follows execution time instead of amplifying host noise
#: through queueing.
FLEET_CELLS = (
    ("camera", "full", 2), ("phone", "none", 2), ("wearable", "full", 4),
    ("appliance", "none", 2), ("phone", "full", 4), ("camera", "none", 4),
    ("wearable", "none", 2), ("phone", "none", 4), ("appliance", "full", 4),
    ("phone", "full", 2),
)

#: Arrival ``i`` repeats an earlier spec when ``i % 3`` is 1.  A third of
#: the arrivals are repeats, so the median falls in the middle of the
#: small-profile boots, not on the edge of the cache-hit band.
FLEET_REPEAT_EVERY = 3

#: A healthy spec no arrival uses: warms a service's shard before timing.
FLEET_WARMUP_SPEC = {"kind": "boot", "workload": "appliance", "bb": "full",
                     "label": "warm-up"}


#: One batch a user would submit: a whole matrix, or one subject's.
Request = tuple[SimJob, ...]


@dataclass(frozen=True, slots=True)
class Arrival:
    """One open-loop fleet submission."""

    index: int
    due_s: float
    connection: int
    spec: dict[str, Any]
    repeat_of: int | None  # index of the arrival whose spec this repeats

    @property
    def arrival_id(self) -> str:
        return f"a{self.index}"


def _bb(name: str) -> BBConfig:
    return BBConfig.full() if name == "full" else BBConfig.none()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------- cold-sweep


def cold_sweep(seed: int, smoke: bool = False) -> list[Request]:
    """One batch: {none, full} x :data:`SWEEP_CORES` boots of every named
    profile, of seeded ``perturbed_tv_workload`` instances and of seeded
    generated graphs (``rcu_sync_mean`` from :data:`RCU_SYNC_MEANS`).

    The order is fixed (profiles, instances, graphs), so the pool's chunks
    carry the same costs whatever the seed.
    """
    rng = _rng("cold-sweep", seed)
    profiles = ("camera", "wearable") if smoke else tuple(
        sorted(WORKLOAD_FACTORIES))
    rows: list[tuple[str, Any, tuple]] = [
        (name, WORKLOAD_FACTORIES[name], ()) for name in profiles]
    for _ in range(1 if smoke else 3):
        instance = rng.randrange(1, 1_000_000)
        rows.append((f"tv-instance-{instance}", perturbed_tv_workload,
                     (instance,)))
    for mean in RCU_SYNC_MEANS[:1 if smoke else None]:
        params = GeneratorParams(seed=rng.randrange(1_000_000),
                                 rcu_sync_mean=mean)
        rows.append((f"generated-{params.seed}-rcu{mean}", generate_workload,
                     (params,)))
    return [tuple(SimJob.boot(factory, *args, bb=_bb(bb), cores=cores,
                              label=f"{label}/{bb}/c{cores}")
                  for label, factory, args in rows
                  for bb in ("none", "full") for cores in SWEEP_CORES)]


# --------------------------------------------------------------- fault-matrix


def _probe(job: SimJob) -> list[tuple]:
    """The fault queries a fault-free boot of ``job`` makes, in order."""
    slot = InjectorSlot(record=True)
    make_boot_simulation(job, injector_slot=slot).run()
    return slot.records


def fault_matrix(seed: int, smoke: bool = False) -> list[Request]:
    """One batch of late-phase fault cells over :data:`FAULT_PREFIXES`.

    Shaped like ``repro.runner.bench.checkpoint_matrix``: deferred-task
    faults (BB boots only), one-shot flakes of the last
    :data:`LATE_SERVICES` services the boot starts, and settle jitter —
    targets and fault seeds drawn from ``seed``.  Each prefix is probed
    once to find them.  Every cell diverges late, so its cost barely
    depends on which target the seed picked.
    """
    rng = _rng("fault-matrix", seed)
    per_prefix = 4 if smoke else 12
    jobs = []
    for name, bb in FAULT_PREFIXES[:2 if smoke else None]:
        def boot(plan, name=name, bb=bb):
            return SimJob.boot(WORKLOAD_FACTORIES[name], bb=_bb(bb),
                               fault_plan=plan,
                               label=f"{name}/{bb}/{plan.label if plan else ''}")

        records = _probe(boot(None))
        first: dict[str, int] = {}
        for record in records:
            if record[0] == SERVICE:
                first.setdefault(record[1], record[3])
        services = sorted(first, key=first.get)
        late = services[-LATE_SERVICES:]
        settles = sorted({r[1] for r in records if r[0] == SETTLE})
        tasks = sorted({r[1] for r in records if r[0] == DEFERRED})
        kinds = ["service", "settle"] + (["deferred"] if tasks else [])
        seeds = rng.sample(range(1_000_000), per_prefix)
        for index, plan_seed in enumerate(seeds):
            kind = kinds[index % len(kinds)]
            if kind == "service":
                plan = FaultPlan(seed=plan_seed, label="service", services=(
                    ServiceFault(unit=rng.choice(late), fail_attempts=1),))
            elif kind == "settle":
                plan = FaultPlan(seed=plan_seed, label="settle", settles=(
                    SettleFault(unit=rng.choice(settles),
                                jitter=rng.choice((0.25, 0.5, 0.75))),))
            else:
                plan = FaultPlan(seed=plan_seed, label="deferred", deferred=(
                    DeferredFault(task=rng.choice(tasks), fail_attempts=1),))
            jobs.append(boot(plan))
    return [tuple(jobs)]


# --------------------------------------------------------------- design-space


def design_space(seed: int, smoke: bool = False) -> list[Request]:
    """One feature x core matrix per profile or generated graph."""
    rng = _rng("design-space", seed)
    axes = DESIGN_AXES[:3] if smoke else DESIGN_AXES
    subjects: list[tuple[str, Any, tuple]] = [
        (name, WORKLOAD_FACTORIES[name], ())
        for name in (("camera",) if smoke else DESIGN_PROFILES)]
    for mean in RCU_SYNC_MEANS[:1 if smoke else 3]:
        params = GeneratorParams(seed=rng.randrange(1_000_000),
                                 rcu_sync_mean=mean)
        subjects.append((f"generated-{params.seed}-rcu{mean}",
                         generate_workload, (params,)))
    requests = []
    for label, factory, args in subjects:
        jobs = []
        for bits in itertools.product((False, True), repeat=len(axes)):
            bb = BBConfig.none()
            for axis, value in zip(axes, bits):
                bb = bb.with_feature(axis, value)
            for cores in DESIGN_CORES:
                jobs.append(SimJob.boot(factory, *args, bb=bb, cores=cores,
                                        label=f"ds {label}"))
        requests.append(tuple(jobs))
    return requests


# ----------------------------------------------------------------- fleet-open


def fleet_arrivals(seed: int, count: int, rate_per_s: float,
                   connections: int) -> list[Arrival]:
    """``count`` arrivals, evenly spaced at ``rate_per_s``.

    Every :data:`FLEET_REPEAT_EVERY`-th arrival repeats an earlier fresh spec,
    chosen with Zipf weights 1/rank over the fresh specs in order of first
    appearance; the rest are fresh fault-seeded boots cycling through
    :data:`FLEET_CELLS`.  Arrivals alternate over ``connections``.
    """
    rng = _rng("fleet-open", seed)
    fresh_seeds = rng.sample(range(1_000_000), count)
    fresh: list[int] = []
    arrivals: list[Arrival] = []
    for index in range(count):
        repeat_of = None
        if index % FLEET_REPEAT_EVERY == 1 and fresh:
            weights = [1.0 / (rank + 1) for rank in range(len(fresh))]
            repeat_of = rng.choices(fresh, weights=weights)[0]
            spec = dict(arrivals[repeat_of].spec)
        else:
            profile, bb, cores = FLEET_CELLS[len(fresh) % len(FLEET_CELLS)]
            spec = {"kind": "boot", "workload": profile, "bb": bb,
                    "cores": cores,
                    "fault": {"preset": "storage-storm",
                              "seed": fresh_seeds[len(fresh)]}}
            fresh.append(index)
        arrivals.append(Arrival(index=index, due_s=index / rate_per_s,
                                connection=index % connections, spec=spec,
                                repeat_of=repeat_of))
    return arrivals
