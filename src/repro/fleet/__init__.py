"""Fleet-scale async boot service: queue, worker shards, streaming results.

The runner tier (:mod:`repro.runner`) answers "run this batch"; the
fleet tier answers "keep running whatever the fleet sends".  It is a
long-running asyncio service built from four layers:

- :mod:`repro.fleet.protocol` — the JSON-lines wire format and the
  spec-to-:class:`~repro.runner.jobs.SimJob` translation;
- :mod:`repro.fleet.resources` — /proc-based CPU/RSS sampling and the
  :class:`ResourcePolicy` auto-scale rules;
- :mod:`repro.fleet.workers` — the elastic :class:`WorkerPool` of
  single-process shards that execute batches through ordinary
  :class:`~repro.runner.sweep.SweepRunner` instances;
- :mod:`repro.fleet.service` / :mod:`repro.fleet.client` — the TCP
  server (scheduler + dispatch + streaming delivery) and its client.

Durability rides below all of it: :mod:`repro.fleet.journal` is the
write-ahead job journal a restarted service resumes unfinished
submissions from, and :class:`~repro.fleet.client.RetryPolicy` +
:meth:`FleetClient.submit_with_retry` make clients ride out the restart.

:mod:`repro.fleet.campaign` drives the whole stack: a 10k+-job device
matrix streamed through the service and byte-compared against a serial
replay (in-process, or against an external service with crash-safe
chunked submission).  ``repro fleet serve|submit|status|campaign`` is
the CLI.
"""

from repro.fleet.campaign import CampaignResult, build_specs, run_external
from repro.fleet.campaign import run as run_campaign
from repro.fleet.client import (FleetClient, RetryPolicy,
                                SubmissionOutcome, backoff_schedule)
from repro.fleet.journal import JobJournal
from repro.fleet.protocol import (WORKLOAD_FACTORIES, job_from_spec,
                                  submission_key)
from repro.fleet.resources import ProcessSampler, ResourcePolicy, ResourceSample
from repro.fleet.service import FleetService
from repro.fleet.workers import WorkerPool, WorkerShard

__all__ = [
    "CampaignResult",
    "FleetClient",
    "FleetService",
    "JobJournal",
    "ProcessSampler",
    "ResourcePolicy",
    "ResourceSample",
    "RetryPolicy",
    "SubmissionOutcome",
    "WORKLOAD_FACTORIES",
    "WorkerPool",
    "WorkerShard",
    "backoff_schedule",
    "build_specs",
    "job_from_spec",
    "run_campaign",
    "run_external",
    "submission_key",
]
