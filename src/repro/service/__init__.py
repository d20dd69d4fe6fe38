"""Reproduction-as-a-service: an async job API over the execution engine.

The package splits into four layers:

* :mod:`repro.service.jobs` — job records, states, events, handles;
* :mod:`repro.service.failures` — failure classification + retry policy;
* :mod:`repro.service.ratelimit` — per-client token buckets;
* :mod:`repro.service.manager` — the in-process :class:`JobManager`
  (coalescing, bounded queue, warm worker pool, cancellation);
* :mod:`repro.service.http` — the stdlib asyncio HTTP front-end behind
  ``python -m repro serve``.
"""
