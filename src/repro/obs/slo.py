"""Declarative SLOs, error budgets, and multi-window burn-rate alerts.

The paper treats platform guarantees as governance obligations: an
operator must be able to show, mechanically, whether the service honored
its stated targets.  This module closes that loop for the serving tier.
An :class:`SLOSpec` declares a target ("p-fraction of submit_tx under
40 ms", "availability ≥ 99%"); the :class:`SLOEngine` evaluates it
window-by-window over a :class:`~repro.obs.timeseries.WindowedTelemetry`
rollup, accounts the error budget, and produces a burn-rate alert
timeline.

Everything runs on the **virtual clock**: windows are simulated-time
windows, trailing burn rates are sums over those windows, and alert
events are stamped with window-end times.  The whole report — budgets
and timeline — is a deterministic function of the telemetry rollup, so
its JSON has one committed sha256 across reruns and worker counts
(``tests/integration/test_determinism.py``).

Burn-rate alerting follows the SRE-workbook multi-window shape: with
``budget_fraction = 1 - target``, the burn rate over a trailing window
is ``bad_fraction / budget_fraction`` (burn 1.0 = spending exactly the
budget).  An alert **fires** at the first window where both the short
and the long trailing burn reach ``burn_factor`` (the long window
confirms it is sustained, the short window makes it recent), and
**clears** when the short-window burn drops back below the factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import check_count
from repro.obs.timeseries import WindowedTelemetry, WindowScope

__all__ = [
    "SLOSpec",
    "AlertEvent",
    "SLOReport",
    "SLOEngine",
    "thresholds_for",
    "DEFAULT_SLOS",
]

#: SLI kinds the engine evaluates.
_SLI_KINDS = ("availability", "latency")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Parameters
    ----------
    name:
        Stable identifier (keys the report and the alert timeline).
    sli:
        ``"availability"`` — good = responses not shed (429) and not
        errored (500); or ``"latency"`` — good = responses whose latency
        is at or under ``threshold_ms`` (sheds excluded, as they carry
        no service latency).
    target:
        Required good fraction, e.g. ``0.99``.  The error budget is
        ``1 - target``.
    endpoint:
        Telemetry scope: one endpoint name, or ``"all"``.
    threshold_ms:
        Latency cut-off; required for (and only for) latency SLIs.
        Declare the engine's thresholds to the telemetry via
        :func:`thresholds_for` so windows count exceedances exactly.
    short_windows / long_windows:
        Trailing burn-rate horizons, as integer counts of telemetry
        windows.  A latency SLO "over 10s windows" with 1 s telemetry
        windows uses ``long_windows=10``.
    burn_factor:
        Burn-rate multiple that pages.  1.0 = budget spent exactly at
        the sustainable rate; the classic fast-burn page is 14.4.
    """

    name: str
    sli: str
    target: float
    endpoint: str = "all"
    threshold_ms: Optional[float] = None
    short_windows: int = 2
    long_windows: int = 10
    burn_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.sli not in _SLI_KINDS:
            raise ValueError(
                f"sli must be one of {_SLI_KINDS}, got {self.sli!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target}"
            )
        if self.sli == "latency":
            threshold = self.threshold_ms
            if threshold is None or not 0 < threshold < math.inf:
                raise ValueError(
                    "latency SLIs need a positive finite threshold_ms, got "
                    f"{threshold}"
                )
        elif self.threshold_ms is not None:
            raise ValueError(
                "threshold_ms only applies to latency SLIs"
            )
        check_count("short_windows", self.short_windows, 1)
        check_count("long_windows", self.long_windows, 1)
        if self.long_windows < self.short_windows:
            raise ValueError(
                "need 1 <= short_windows <= long_windows, got "
                f"{self.short_windows}/{self.long_windows}"
            )
        if self.burn_factor <= 0 or not math.isfinite(self.burn_factor):
            raise ValueError(
                f"burn_factor must be positive, got {self.burn_factor}"
            )

    @property
    def budget_fraction(self) -> float:
        return 1.0 - self.target


def thresholds_for(slos: Sequence[SLOSpec]) -> Tuple[float, ...]:
    """The latency thresholds a telemetry rollup must count for these
    SLOs — pass as ``WindowedTelemetry(latency_thresholds_ms=...)``."""
    return tuple(
        sorted({s.threshold_ms for s in slos if s.threshold_ms is not None})
    )


@dataclass(frozen=True)
class AlertEvent:
    """One burn-rate alert transition on the virtual clock."""

    time: float
    slo: str
    state: str  # "fire" | "clear"
    burn_short: float
    burn_long: float
    window_index: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "slo": self.slo,
            "state": self.state,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "window_index": self.window_index,
        }


@dataclass
class SLOReport:
    """The engine's verdict: per-SLO budgets plus the alert timeline."""

    window_s: float
    budgets: Dict[str, Dict[str, object]]
    alerts: List[AlertEvent]

    def alerts_for(self, slo: str) -> List[AlertEvent]:
        return [a for a in self.alerts if a.slo == slo]

    def met(self, slo: str) -> bool:
        """Whether the SLO held over the whole run."""
        return self.budgets[slo]["good_fraction"] >= self.budgets[slo]["target"]

    def as_dict(self) -> Dict[str, object]:
        return {
            "window_s": self.window_s,
            "budgets": self.budgets,
            "alerts": [a.as_dict() for a in self.alerts],
        }

    def to_json(self) -> str:
        """Sorted-key JSON (the determinism matrix digests it)."""
        return json.dumps(self.as_dict(), sort_keys=True)


class SLOEngine:
    """Evaluates declared SLOs over a windowed telemetry rollup."""

    def __init__(self, specs: Sequence[SLOSpec]):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.specs: Tuple[SLOSpec, ...] = tuple(specs)

    def latency_thresholds(self) -> Tuple[float, ...]:
        return thresholds_for(self.specs)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _cell_counts(
        spec: SLOSpec,
        cell: Optional[WindowScope],
        threshold_index: Optional[int],
    ) -> Tuple[int, int]:
        """``(total, bad)`` for one (spec, window) pair."""
        if cell is None:
            return 0, 0
        if spec.sli == "availability":
            return cell.count, cell.shed + cell.error
        total = int(cell.latency.count)
        bad = cell.over[threshold_index] if cell.over else 0
        return total, bad

    def evaluate(self, telemetry: WindowedTelemetry) -> SLOReport:
        """Walk every telemetry window in virtual-time order and build
        the burn-rate alert timeline plus run-wide budget accounting."""
        thresholds = telemetry.thresholds
        threshold_index: Dict[str, Optional[int]] = {}
        for spec in self.specs:
            if spec.sli != "latency":
                threshold_index[spec.name] = None
                continue
            try:
                threshold_index[spec.name] = thresholds.index(
                    float(spec.threshold_ms)
                )
            except ValueError:
                raise ValueError(
                    f"telemetry does not count threshold "
                    f"{spec.threshold_ms} ms needed by SLO {spec.name!r}; "
                    f"construct it with latency_thresholds_ms="
                    f"thresholds_for(specs)"
                )

        last = telemetry.last_index()
        width = telemetry.window
        budgets: Dict[str, Dict[str, object]] = {}
        alerts: List[AlertEvent] = []

        for spec in self.specs:
            index = threshold_index[spec.name]
            # Per-window (total, bad) across the contiguous run span —
            # empty windows contribute zeros, which keeps trailing sums
            # honest across quiet periods.
            counts = [
                self._cell_counts(
                    spec, telemetry.scope_stats(w, spec.endpoint), index
                )
                for w in range(0, last + 1)
            ]
            total = sum(c[0] for c in counts)
            bad = sum(c[1] for c in counts)
            good_fraction = ((total - bad) / total) if total else 1.0
            budget_events = spec.budget_fraction * total
            budgets[spec.name] = {
                "sli": spec.sli,
                "endpoint": spec.endpoint,
                "target": spec.target,
                "total": float(total),
                "bad": float(bad),
                "good_fraction": good_fraction,
                "budget_events": budget_events,
                "budget_consumed": (
                    (bad / budget_events) if budget_events > 0 else 0.0
                ),
                "met": 1.0 if good_fraction >= spec.target else 0.0,
            }

            firing = False
            budget_fraction = spec.budget_fraction
            for w in range(0, last + 1):
                burn_short = self._trailing_burn(
                    counts, w, spec.short_windows, budget_fraction
                )
                burn_long = self._trailing_burn(
                    counts, w, spec.long_windows, budget_fraction
                )
                if not firing:
                    if (
                        burn_short >= spec.burn_factor
                        and burn_long >= spec.burn_factor
                    ):
                        firing = True
                        alerts.append(AlertEvent(
                            time=(w + 1) * width, slo=spec.name,
                            state="fire", burn_short=burn_short,
                            burn_long=burn_long, window_index=w,
                        ))
                elif burn_short < spec.burn_factor:
                    firing = False
                    alerts.append(AlertEvent(
                        time=(w + 1) * width, slo=spec.name,
                        state="clear", burn_short=burn_short,
                        burn_long=burn_long, window_index=w,
                    ))

        # Timeline in (time, slo, state) order: deterministic and
        # readable as one merged pager feed.
        alerts.sort(key=lambda a: (a.time, a.slo, a.state))
        return SLOReport(window_s=width, budgets=budgets, alerts=alerts)

    @staticmethod
    def _trailing_burn(
        counts: Sequence[Tuple[int, int]],
        at: int,
        horizon: int,
        budget_fraction: float,
    ) -> float:
        """Burn rate over the trailing ``horizon`` windows ending at
        ``at`` (inclusive); 0.0 when the span carried no events."""
        start = max(0, at - horizon + 1)
        total = 0
        bad = 0
        for w in range(start, at + 1):
            t, b = counts[w]
            total += t
            bad += b
        if total == 0 or budget_fraction <= 0:
            return 0.0
        return (bad / total) / budget_fraction


#: A reasonable default SLO set for the serving tier: platform-wide
#: availability and a submit_tx latency objective (the flash-crowd
#: e2e scenario fires the availability burn alert during the spike).
DEFAULT_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec(
        name="availability-all",
        sli="availability",
        target=0.99,
        endpoint="all",
        short_windows=2,
        long_windows=10,
        burn_factor=2.0,
    ),
    SLOSpec(
        name="latency-submit_tx-p99-40ms",
        sli="latency",
        target=0.99,
        endpoint="submit_tx",
        threshold_ms=40.0,
        short_windows=2,
        long_windows=10,
        burn_factor=2.0,
    ),
)
