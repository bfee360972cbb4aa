"""Privacy substrate (paper §II).

The executable version of the paper's privacy story: synthetic XR
sensors whose signals genuinely leak latent attributes, PET mechanisms
(DP noise, generalisation, downsampling, suppression), a data-centric
pipeline with consent gates + budget metering + disclosure LEDs (Fig. 2
made runnable), inference attackers measuring residual leakage, privacy
bubbles, and secondary-avatar unlinkability with a re-identification
adversary.
"""

from repro.privacy.avatars import (
    AvatarIdentityManager,
    LinkageAttacker,
    SessionObservation,
)
from repro.privacy.bubbles import BubbleManager, PrivacyBubble
from repro.privacy.budget import BudgetLedgerEntry, PrivacyBudget
from repro.privacy.consent import ConsentRegistry, DisclosureIndicator
from repro.privacy.erasure import ErasureReceipt, ErasureService, RetainedDataStore
from repro.privacy.inference import (
    CentroidAttacker,
    RegressionAttacker,
    featurize,
    utility_loss,
)
from repro.privacy.pets import (
    PET,
    Aggregator,
    GaussianMechanism,
    LaplaceMechanism,
    Passthrough,
    PETChain,
    SpatialGeneralizer,
    Suppressor,
    TemporalDownsampler,
)
from repro.privacy.pipeline import PipelineStats, PrivacyPipeline
from repro.privacy.profiles import (
    PREFERENCE_CATEGORIES,
    UserProfile,
    generate_population,
)
from repro.privacy.sensors import (
    FrameBatch,
    GaitSensor,
    GazeSensor,
    HeartRateSensor,
    Sensor,
    SensorFrame,
    SensorRig,
    SpatialMapSensor,
)

__all__ = [
    "AvatarIdentityManager",
    "LinkageAttacker",
    "SessionObservation",
    "BubbleManager",
    "PrivacyBubble",
    "BudgetLedgerEntry",
    "PrivacyBudget",
    "ConsentRegistry",
    "DisclosureIndicator",
    "ErasureReceipt",
    "ErasureService",
    "RetainedDataStore",
    "CentroidAttacker",
    "RegressionAttacker",
    "featurize",
    "utility_loss",
    "PET",
    "Aggregator",
    "GaussianMechanism",
    "LaplaceMechanism",
    "Passthrough",
    "PETChain",
    "SpatialGeneralizer",
    "Suppressor",
    "TemporalDownsampler",
    "PipelineStats",
    "PrivacyPipeline",
    "PREFERENCE_CATEGORIES",
    "UserProfile",
    "generate_population",
    "FrameBatch",
    "GaitSensor",
    "GazeSensor",
    "HeartRateSensor",
    "Sensor",
    "SensorFrame",
    "SensorRig",
    "SpatialMapSensor",
]
