"""Exception hierarchy shared by every ``repro`` subpackage.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class at the framework boundary.  Substrate-specific bases
(:class:`LedgerError`, :class:`DaoError`, ...) live here rather than in
their subpackages so that cross-substrate code (the core framework, the
benchmarks) does not need to import deep modules just for ``except``
clauses.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event engine was misused (e.g. scheduling in the past)."""


class LedgerError(ReproError):
    """Base class for blockchain substrate errors."""


class InvalidBlockError(LedgerError):
    """A block failed structural or consensus validation."""


class InvalidTransactionError(LedgerError):
    """A transaction failed signature, balance, or nonce validation."""


class ContractError(LedgerError):
    """A smart contract rejected a call or reverted."""


class DaoError(ReproError):
    """Base class for DAO substrate errors."""


class ProposalError(DaoError):
    """A proposal was created, amended, or executed illegally."""


class VotingError(DaoError):
    """A ballot was cast or tallied illegally."""


class NftError(ReproError):
    """Base class for NFT substrate errors."""


class MintingError(NftError):
    """Minting was rejected by the active minting policy."""


class MarketError(NftError):
    """A listing, bid, or settlement violated marketplace rules."""


class ReputationError(ReproError):
    """Base class for reputation substrate errors."""


class PrivacyError(ReproError):
    """Base class for privacy substrate errors."""


class ConsentError(PrivacyError):
    """Data flowed through a channel the subject did not consent to."""


class PrivacyBudgetExceeded(PrivacyError):
    """A differential-privacy budget was exhausted."""


class WorldError(ReproError):
    """Base class for world/spatial substrate errors."""


class GovernanceError(ReproError):
    """Base class for governance substrate errors."""


class ModerationError(GovernanceError):
    """A moderation action could not be applied."""


class FrameworkError(ReproError):
    """The core modular framework was composed or driven illegally."""


class ModuleNotFound(FrameworkError):
    """A framework slot has no module bound to it."""


class PolicyViolation(FrameworkError):
    """An action violated the active policy profile."""


def check_count(name: str, value: object, minimum: int = 0) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an
    integer of at least ``minimum``.

    An integer is any :class:`numbers.Integral` (numpy's included) that
    is not a ``bool``: ``2.0``, ``2.5`` and ``True`` are not counts.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
