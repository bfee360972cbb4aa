"""World substrate: embodied avatars in shared virtual space (paper §II).

Avatars with moderation-aware statuses, a spatial-hash grid, a gated
interaction system (status → code rules → privacy bubble), and the
room-scale multi-user VR safety simulator with shadow avatars and
potential-field redirected walking.
"""

from repro.world.avatar import Avatar, AvatarStatus
from repro.world.columnar import (
    BYTES_PER_AGENT_COLUMNS,
    AddressBook,
    AgentTable,
    ColumnMap,
)
from repro.world.interactions import (
    Interaction,
    InteractionBatch,
    InteractionKind,
    InteractionLog,
)
from repro.world.safety import Obstacle, RoomSimulation, SafetyConfig, SafetyReport
from repro.world.sessions import Session, SessionManager
from repro.world.space import SpatialGrid
from repro.world.world import World

__all__ = [
    "AddressBook",
    "AgentTable",
    "Avatar",
    "AvatarStatus",
    "BYTES_PER_AGENT_COLUMNS",
    "ColumnMap",
    "Interaction",
    "InteractionBatch",
    "InteractionKind",
    "InteractionLog",
    "Obstacle",
    "RoomSimulation",
    "SafetyConfig",
    "SafetyReport",
    "Session",
    "SessionManager",
    "SpatialGrid",
    "World",
]
