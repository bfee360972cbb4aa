"""repro.serving: a deterministic in-process request-serving tier.

The batch workloads answer "what does an epoch of platform activity
do?"; this package answers the operational question the paper's
"heavy traffic from millions of users" framing raises: what latency and
refusal behaviour does a *service* front-end exhibit under open-loop
load, and where does it saturate?

Layers (service/repository split):

* :mod:`~repro.serving.schemas` — typed request/response contracts for
  the four write surfaces and two read surfaces;
* :mod:`~repro.serving.loop` — the virtual-clock event loop (all
  latency is simulated time; runs are byte-identical);
* :mod:`~repro.serving.middleware` — validation, TTL+version read
  cache, token-bucket + bounded-queue admission control;
* :mod:`~repro.serving.repository` — the substrates behind a uniform
  call surface, with per-surface versions for cache invalidation;
* :mod:`~repro.serving.gateway` — the middleware chain wired onto the
  loop, plus periodic platform ticks (blocks, proposal windows,
  moderation review);
* :mod:`~repro.serving.run` — one-call runner returning p50/p99 and
  status breakdowns.
"""

from repro.serving.gateway import ServingConfig, ServingGateway
from repro.serving.loop import (
    EventLoop,
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    PRIORITY_PLATFORM,
)
from repro.serving.middleware import BoundedQueue, ReadCache, TokenBucket
from repro.serving.repository import ServingRepository
from repro.serving.schemas import (
    CastVoteRequest,
    Endpoint,
    FileReportRequest,
    GetBalanceRequest,
    GetTallyRequest,
    IngestFrameRequest,
    Request,
    Response,
    Status,
    SubmitTxRequest,
)

__all__ = [
    "ServingConfig",
    "ServingGateway",
    "ServingRepository",
    "ServingRunResult",
    "run_serving",
    "EventLoop",
    "PRIORITY_ARRIVAL",
    "PRIORITY_COMPLETION",
    "PRIORITY_PLATFORM",
    "BoundedQueue",
    "ReadCache",
    "TokenBucket",
    "Endpoint",
    "Status",
    "Request",
    "Response",
    "SubmitTxRequest",
    "FileReportRequest",
    "CastVoteRequest",
    "IngestFrameRequest",
    "GetBalanceRequest",
    "GetTallyRequest",
]


def __getattr__(name: str):
    # ``serving.run`` imports ``repro.workloads.traffic``, which imports
    # this package's schemas and repository: loading ``run`` on first use
    # lets either side be imported first.
    if name in ("ServingRunResult", "run_serving"):
        from repro.serving import run

        return getattr(run, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
