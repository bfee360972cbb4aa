"""Framework configuration.

One :class:`FrameworkConfig` fully determines a scenario together with
its seed (see DESIGN.md §6 on determinism).  The two named presets are
the architectures experiment E9 compares:

* :meth:`FrameworkConfig.modular_default` — the paper's proposal:
  DAO-governed, ledger-audited, PET-protected, transparent modules.
* :meth:`FrameworkConfig.monolithic_baseline` — a centralised platform:
  operator-decided, unaudited, permissive defaults, opaque internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.policy import GDPR_LIKE, PERMISSIVE, PolicyProfile
from repro.errors import ConfigurationError

__all__ = ["FrameworkConfig"]


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything needed to build a :class:`MetaverseFramework`."""

    seed: int = 0

    # Population ---------------------------------------------------------
    n_users: int = 60
    user_id_prefix: str = "user"  # namespace ids when federating platforms
    harasser_fraction: float = 0.06
    spammer_fraction: float = 0.03
    troll_fraction: float = 0.02
    creator_fraction: float = 0.15
    scammer_creator_fraction: float = 0.25  # of creators
    developer_count: int = 3
    regulator_count: int = 2
    moderator_count: int = 2

    # World ----------------------------------------------------------------
    world_size: float = 80.0
    default_bubble_radius: float = 1.5  # 0 disables default bubbles
    rate_limit_per_epoch: int = 15

    # Governance -----------------------------------------------------------
    governance_mode: str = "modular"  # "modular" | "monolithic"
    moderation_config: str = "hybrid"  # "none"|"automated"|"reports"|"hybrid"
    moderator_capacity: int = 30
    report_probability: float = 0.35
    classifier_tpr: float = 0.8
    classifier_fpr: float = 0.05

    # Privacy ---------------------------------------------------------------
    policy_profile: PolicyProfile = GDPR_LIKE
    enable_privacy_pipeline: bool = True
    pet_epsilon: float = 1.0
    consent_rate: float = 0.9  # opt-in probability per user/channel
    sensor_sample_fraction: float = 0.3  # users sampled per epoch

    # Ledger ------------------------------------------------------------------
    enable_ledger: bool = True
    collector_parties: int = 3

    # DAO -------------------------------------------------------------------
    voting_period: float = 5.0
    attention_budget: float = 6.0
    member_engagement: float = 0.8
    dao_quorum: float = 0.15

    # Economy -----------------------------------------------------------------
    enable_market: bool = True
    buyer_budget: float = 200.0

    # Safety ------------------------------------------------------------------
    safety_shadow_avatars: bool = True
    safety_redirected_walking: bool = True

    # Observability ----------------------------------------------------------
    # Causal spans + substrate events + metrics (the paper's §IV-C
    # transparency requirement); deterministic, so it defaults on.
    enable_observability: bool = True
    # Wall-clock timing of engine event callbacks; off by default since
    # wall times are not deterministic (they never enter the trace log).
    enable_profiling: bool = False

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ConfigurationError(f"n_users must be >= 1, got {self.n_users}")
        if self.governance_mode not in ("modular", "monolithic"):
            raise ConfigurationError(
                f"governance_mode must be modular|monolithic, "
                f"got {self.governance_mode!r}"
            )
        if self.moderation_config not in ("none", "automated", "reports", "hybrid"):
            raise ConfigurationError(
                f"unknown moderation_config {self.moderation_config!r}"
            )
        fractions = (
            self.harasser_fraction
            + self.spammer_fraction
            + self.troll_fraction
        )
        if fractions > 1:
            raise ConfigurationError("misconduct fractions exceed 1")
        if not 0 <= self.consent_rate <= 1:
            raise ConfigurationError(
                f"consent_rate must be in [0, 1], got {self.consent_rate}"
            )
        if not 0 <= self.sensor_sample_fraction <= 1:
            raise ConfigurationError(
                "sensor_sample_fraction must be in [0, 1], "
                f"got {self.sensor_sample_fraction}"
            )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def modular_default(cls, seed: int = 0, **overrides) -> "FrameworkConfig":
        """The paper's architecture (Fig. 3)."""
        return cls(seed=seed, **overrides)

    @classmethod
    def monolithic_baseline(cls, seed: int = 0, **overrides) -> "FrameworkConfig":
        """A centralised, opaque, permissive platform."""
        defaults = dict(
            governance_mode="monolithic",
            policy_profile=PERMISSIVE,
            enable_ledger=False,
            enable_privacy_pipeline=False,
            default_bubble_radius=0.0,
            moderation_config="automated",
            safety_shadow_avatars=False,
            safety_redirected_walking=False,
        )
        defaults.update(overrides)
        return cls(seed=seed, **defaults)

    def with_overrides(self, **overrides) -> "FrameworkConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
