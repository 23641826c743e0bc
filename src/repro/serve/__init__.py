"""Placement-as-a-service: a crash-isolated async job runtime.

``python -m repro.serve`` starts an HTTP/JSON service that accepts
placement jobs into a bounded priority queue, runs each attempt in its
own worker *process* (so crashes never take the service down), retries
crashed attempts with exponential backoff, degrades gracefully under
queue pressure, and archives every finished job into the
:mod:`repro.runs` registry under its tenant's namespace.

See ``docs/serving.md`` for the API reference and failure-mode table.
"""

from .api import PlacementService, serve_forever
from .config import DEFAULT_TIERS, DegradationTier, ServeConfig
from .jobs import JobRecord, JobSpec, JobState, JobValidationError
from .queue import BoundedPriorityQueue, QueueFull
from .runtime import JobRuntime, ServiceStats, ServiceUnavailable
from .tenants import RateLimited, TenantTable
from .attempt import CRASH_EXIT_CODE

__all__ = [
    "BoundedPriorityQueue",
    "CRASH_EXIT_CODE",
    "DEFAULT_TIERS",
    "DegradationTier",
    "JobRecord",
    "JobRuntime",
    "JobSpec",
    "JobState",
    "JobValidationError",
    "PlacementService",
    "QueueFull",
    "RateLimited",
    "ServeConfig",
    "ServiceStats",
    "ServiceUnavailable",
    "TenantTable",
    "serve_forever",
]
