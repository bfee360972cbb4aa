"""Open-loop traffic generation for the serving tier.

The serving bench needs *open-loop* arrivals — the offered load must not
slow down when the service tier saturates, or the measured saturation
knee disappears (closed-loop generators self-throttle).  This module
draws every arrival ahead of time on the virtual clock:

* **Per-user Poisson processes** — each user is an independent
  non-homogeneous Poisson process whose rate is ``rate_per_user *
  weight(user) * spike(t)``.
* **Heavy-tailed users** — ``weight(user)`` is a Pareto draw normalised
  to mean 1, so a small set of power users carries a disproportionate
  share of traffic (the usual shape of social platforms).
* **Flash crowds** — :class:`SpikeWindow` multiplies every user's rate
  inside ``[start, end)``; overlapping windows compound.  Arrivals are
  generated by time-rescaling: unit-rate exponential targets inverted
  through the piecewise-linear integrated rate, which is exact for a
  piecewise-constant rate function.

Determinism contract (ShardPlan style): every draw for user ``u`` comes
from ``SeedSequence(entropy=seed, spawn_key=(TRAFFIC_DOMAIN, u))`` —
streams depend only on ``(seed, user)``, never on how many users exist
or the order they are generated, so traffic is byte-identical across
runs and stable under population growth.

Weighted draws (endpoint, ballot option) search a cdf built once per
scenario with ``bisect_right(cdf, rng.random())``: the cdf is the one
``Generator.choice(k, p=...)`` builds, so each draw returns the index
``choice`` would and consumes the same single double from the stream,
at a fraction of ``choice``'s per-call cost.  ``choice`` used to reject
NaN, infinite and negative weights at the first draw; with the bisect
draw :class:`TrafficConfig` rejects them at construction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import check_count
from repro.obs.context import derive_trace_ids
from repro.serving.repository import HOT_SUBJECT_STRIDE, SERVING_CHANNELS
from repro.serving.schemas import (
    CastVoteRequest,
    Endpoint,
    FileReportRequest,
    GetBalanceRequest,
    GetTallyRequest,
    IngestFrameRequest,
    REPORT_REASONS,
    Request,
    SubmitTxRequest,
)

__all__ = [
    "SpikeWindow",
    "TrafficConfig",
    "Arrival",
    "generate_traffic",
    "user_stream",
    "TRAFFIC_DOMAIN",
]

#: Spawn-key namespace for traffic streams (domain 7 follows the
#: workload phases 0–6; reusing one would alias streams).
TRAFFIC_DOMAIN = 7


@dataclass(frozen=True)
class SpikeWindow:
    """A flash-crowd window: every user's rate × ``multiplier`` inside
    ``[start, end)``.  ``end`` may be infinite (the horizon clips it);
    the multiplier must be finite."""

    start: float
    end: float
    multiplier: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not self.end > self.start:
            raise ValueError(
                f"spike window must have end > start, got [{self.start}, {self.end})"
            )
        if not 0 <= self.multiplier < math.inf:
            raise ValueError(
                f"multiplier must be finite and >= 0, got {self.multiplier}"
            )


@dataclass(frozen=True)
class TrafficConfig:
    """One open-loop traffic scenario.

    ``endpoint_mix`` weights need not sum to 1 (they are normalised) but
    must be finite and non-negative with a positive sum;
    ``invalid_frac`` of write requests are deliberately malformed so the
    validation middleware carries real 400 traffic; ``pareto_shape``
    controls how heavy the per-user tail is (smaller = heavier; must be
    > 1 so the mean exists).  ``n_users`` is an integer (not a
    ``bool``) of at least 2; ``horizon``, ``rate_per_user`` and
    ``pareto_shape`` must be finite.
    """

    n_users: int
    horizon: float
    rate_per_user: float
    seed: int
    spikes: Tuple[SpikeWindow, ...] = ()
    pareto_shape: float = 2.5
    invalid_frac: float = 0.01
    endpoint_mix: Tuple[Tuple[Endpoint, float], ...] = (
        (Endpoint.GET_BALANCE, 0.35),
        (Endpoint.GET_TALLY, 0.15),
        (Endpoint.SUBMIT_TX, 0.20),
        (Endpoint.INGEST_FRAME, 0.15),
        (Endpoint.FILE_REPORT, 0.08),
        (Endpoint.CAST_VOTE, 0.07),
    )

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        check_count("n_users", self.n_users, 2)
        if not 0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}"
            )
        if not 0 < self.rate_per_user < math.inf:
            raise ValueError(
                f"rate_per_user must be positive and finite, got {self.rate_per_user}"
            )
        if not 1 < self.pareto_shape < math.inf:
            raise ValueError(
                f"pareto_shape must be > 1 (finite mean) and finite, "
                f"got {self.pareto_shape}"
            )
        if not 0 <= self.invalid_frac <= 1:
            raise ValueError(
                f"invalid_frac must be in [0, 1], got {self.invalid_frac}"
            )
        weights = [weight for _, weight in self.endpoint_mix]
        if not (
            all(0 <= weight < math.inf for weight in weights)
            and 0 < sum(weights) < math.inf
        ):
            raise ValueError(
                "endpoint_mix weights must be finite and >= 0 with a "
                f"positive finite sum, got {weights}"
            )
        for spike in self.spikes:
            if not spike.start < self.horizon:
                raise ValueError(
                    f"spike at {spike.start} starts beyond horizon {self.horizon}"
                )


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: who sends what, when.

    ``trace_id`` is the request's causal identity — a pure function of
    ``(seed, user, seq)`` via :func:`repro.obs.context.derive_trace_ids`,
    assigned at generation time so every downstream consumer (gateway,
    sampler, exporters) sees the same id for the same logical request.
    """

    time: float
    user: int
    seq: int
    request: Request
    trace_id: str = ""


def user_stream(seed: int, user: int) -> np.random.Generator:
    """The stream owning *all* of user ``u``'s draws (weight, arrival
    exponentials, endpoint choices, payloads) — a pure function of
    ``(seed, user)``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(TRAFFIC_DOMAIN, user))
    )


def _rate_segments(
    horizon: float, spikes: Sequence[SpikeWindow]
) -> List[Tuple[float, float, float]]:
    """Piecewise-constant rate multiplier over ``[0, horizon)``.

    Returns ``(t0, t1, mult)`` segments; overlapping spikes compound
    multiplicatively.
    """
    cuts = {0.0, horizon}
    for spike in spikes:
        cuts.add(max(0.0, spike.start))
        cuts.add(min(horizon, spike.end))
    points = sorted(cuts)
    segments = []
    for t0, t1 in zip(points, points[1:]):
        mult = 1.0
        mid = (t0 + t1) / 2.0
        for spike in spikes:
            if spike.start <= mid < spike.end:
                mult *= spike.multiplier
        segments.append((t0, t1, mult))
    return segments


def _arrival_times(
    rng: np.random.Generator,
    base_rate: float,
    segments: Sequence[Tuple[float, float, float]],
) -> List[float]:
    """NHPP arrivals by time-rescaling over piecewise-constant rates.

    Unit-rate exponential targets are inverted through the integrated
    rate Λ(t), which is linear within each segment — exact, no thinning
    waste, and the draw count per user depends only on that user's
    targets (stream stability under config changes elsewhere).
    """
    times: List[float] = []
    accumulated = 0.0  # Λ consumed by completed segments
    target = accumulated + float(rng.exponential(1.0))
    for t0, t1, mult in segments:
        rate = base_rate * mult
        segment_hazard = rate * (t1 - t0)
        while rate > 0 and target <= accumulated + segment_hazard:
            times.append(t0 + (target - accumulated) / rate)
            target += float(rng.exponential(1.0))
        accumulated += segment_hazard
    return times


def _choice_cdf(probabilities) -> List[float]:
    """The cdf ``Generator.choice(k, p=probabilities)`` searches.

    Built with numpy's own arithmetic (``cumsum``, then divide by the
    last entry), so ``bisect_right(cdf, rng.random())`` returns the
    index ``choice`` would and consumes the same one double.  A list of
    Python floats, because bisecting it is cheaper than ``searchsorted``.
    """
    cdf = np.asarray(probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


#: Ballot options and the cdf of their 50/35/15 split.
_BALLOT_OPTIONS = ("yes", "no", "abstain")
_BALLOT_CDF = _choice_cdf([0.5, 0.35, 0.15])


def _draw_request(
    rng: np.random.Generator,
    user: int,
    config: TrafficConfig,
    endpoints: Sequence[Endpoint],
    endpoint_cdf: Sequence[float],
    channels: Sequence[str],
    n_hot: int,
) -> Request:
    """One request for ``user``: endpoint from the mix, payload from the
    user's own stream, occasionally malformed on purpose."""
    endpoint = endpoints[bisect_right(endpoint_cdf, rng.random())]
    invalid = (
        endpoint not in (Endpoint.GET_BALANCE, Endpoint.GET_TALLY)
        and config.invalid_frac > 0
        and float(rng.random()) < config.invalid_frac
    )
    if endpoint == Endpoint.GET_BALANCE:
        return GetBalanceRequest(user=user)
    if endpoint == Endpoint.GET_TALLY:
        return GetTallyRequest(user=user)
    if endpoint == Endpoint.SUBMIT_TX:
        recipient = int(rng.integers(config.n_users))
        if recipient == user:
            recipient = (recipient + 1) % config.n_users
        amount = int(rng.integers(1, 200))
        fee = int(rng.integers(1, 6))
        if invalid:
            amount = -amount  # fails schema validation, not the ledger
        return SubmitTxRequest(user=user, recipient=recipient, amount=amount, fee=fee)
    if endpoint == Endpoint.FILE_REPORT:
        accused = int(rng.integers(config.n_users))
        if accused == user:
            accused = (accused + 1) % config.n_users
        severity = float(rng.uniform(0.05, 1.0))
        reason = REPORT_REASONS[int(rng.integers(len(REPORT_REASONS)))]
        if invalid:
            severity = float("nan")
        return FileReportRequest(
            user=user, accused=accused, severity=severity, reason=reason
        )
    if endpoint == Endpoint.CAST_VOTE:
        option = _BALLOT_OPTIONS[bisect_right(_BALLOT_CDF, rng.random())]
        if invalid:
            option = "maybe"
        return CastVoteRequest(user=user, option=option)
    # INGEST_FRAME: frames target the hot-subject grid so per-subject DP
    # budgets genuinely exhaust under sustained load.
    subject = int(rng.integers(n_hot)) * HOT_SUBJECT_STRIDE
    channel = channels[int(rng.integers(len(channels)))]
    magnitude = float(rng.normal(0.0, 1.0))
    if invalid:
        magnitude = float("inf")
    return IngestFrameRequest(user=subject, channel=channel, magnitude=magnitude)


def _scenario_tables(config: TrafficConfig) -> Tuple:
    """Per-scenario constants shared by every user's generation."""
    segments = _rate_segments(config.horizon, config.spikes)
    endpoints = tuple(endpoint for endpoint, _ in config.endpoint_mix)
    weights = np.asarray([w for _, w in config.endpoint_mix], dtype=float)
    endpoint_cdf = _choice_cdf(weights / weights.sum())
    channels = tuple(channel for channel, _ in SERVING_CHANNELS)
    n_hot = max(1, (config.n_users + HOT_SUBJECT_STRIDE - 1) // HOT_SUBJECT_STRIDE)
    # Pareto(shape) + 1 has mean shape/(shape-1); dividing by it makes
    # the weights mean-1 in expectation while keeping the heavy tail.
    pareto_mean = config.pareto_shape / (config.pareto_shape - 1.0)
    return segments, endpoints, endpoint_cdf, channels, n_hot, pareto_mean


def _user_arrivals(
    config: TrafficConfig, user: int, tables: Tuple
) -> List[Arrival]:
    """Every arrival of one user — a pure function of (config, user)."""
    segments, endpoints, endpoint_cdf, channels, n_hot, pareto_mean = tables
    rng = user_stream(config.seed, user)
    weight = (1.0 + float(rng.pareto(config.pareto_shape))) / pareto_mean
    times = _arrival_times(rng, config.rate_per_user * weight, segments)
    trace_ids = derive_trace_ids(config.seed, user, len(times))
    return [
        Arrival(
            time, user, seq,
            _draw_request(
                rng, user, config, endpoints, endpoint_cdf, channels, n_hot
            ),
            trace_id,
        )
        for seq, (time, trace_id) in enumerate(zip(times, trace_ids))
    ]


def generate_traffic(config: TrafficConfig) -> List[Arrival]:
    """All arrivals for the scenario, sorted by ``(time, user, seq)``.

    Each user's stream yields, in order: the Pareto weight, then for
    each arrival one exponential target, then that arrival's endpoint
    and payload draws — so user ``u``'s requests are identical no matter
    what any other user does.  Arrivals are built in ``(user, seq)``
    order and ``list.sort`` is stable, so sorting on time alone yields
    the ``(time, user, seq)`` order.  Endpoint and ballot draws equal
    ``Generator.choice`` (see the module docstring).
    """
    tables = _scenario_tables(config)
    arrivals: List[Arrival] = []
    for user in range(config.n_users):
        arrivals.extend(_user_arrivals(config, user, tables))
    arrivals.sort(key=attrgetter("time"))
    return arrivals
