"""The seeded flash crowd that the serving tests share.

400 users at 0.9 requests/s for 20 s, with a x6 spike over 8-11 s, on 2
servers: the servers saturate inside the spike, so requests shed and
the availability SLO burns fast, then recovers after the crowd
disperses.  Both dicts are keyword arguments of ``run_serving``.
"""

from repro.obs.context import SamplingPolicy
from repro.obs.slo import SLOSpec
from repro.serving.gateway import ServingConfig
from repro.workloads.traffic import SpikeWindow, TrafficConfig

SPIKE = SpikeWindow(start=8.0, end=11.0, multiplier=6.0)
FLASH_CROWD = dict(
    traffic=TrafficConfig(
        n_users=400, horizon=20.0, rate_per_user=0.9, seed=2022, spikes=(SPIKE,)
    ),
    serving=ServingConfig(n_servers=2, queue_limit=48, cache_ttl=0.5),
)
AVAILABILITY = SLOSpec(
    name="availability-all",
    sli="availability",
    target=0.99,
    endpoint="all",
    short_windows=2,
    long_windows=10,
    burn_factor=2.0,
)
HEAD_RATE = 0.05
# The same crowd with the availability SLO and 5% head sampling.
FLASH_CROWD_SLO = dict(
    FLASH_CROWD,
    slos=(AVAILABILITY,),
    sampling=SamplingPolicy(head_rate=HEAD_RATE),
)
