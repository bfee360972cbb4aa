"""End-to-end observability scenario: one causally-traced platform run.

Drives a full seeded platform — a DAO proposal enters the decision
pipeline, epochs fire as *named simulator events* (so engine profiling
has real content), the ledger settles anchors into blocks, moderation
processes the epoch's interactions, and the privacy pipeline releases
sensor frames — then exports the trace as JSONL and reconstructs the
span forest.

Two properties hold (the paper's §IV-C transparency bar made
executable):

* **causal integrity** — every exported span reconstructs into exactly
  one tree per root action, with no orphans;
* **determinism** — a seeded run exports the same JSONL bytes every
  time (span ids derive from the sim clock and a per-run counter, never
  wall time).

``tests/integration/test_determinism.py`` pins both: the seed-2022
export's sha256 is committed there, and its check requires a complete
span forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import FrameworkConfig
from repro.core.framework import MetaverseFramework
from repro.obs import SpanNode, span_forest, trace_to_jsonl

__all__ = ["ObservabilityRunResult", "run_observability_scenario"]


@dataclass(frozen=True)
class ObservabilityRunResult:
    """One scenario run's exported trace and reconstruction summary."""

    jsonl: str
    n_records: int
    n_roots: int
    n_orphans: int
    chain_height: int
    released_frames: int
    moderation_cases: int
    proposal_id: Optional[str]
    root_names: List[str]
    hottest: List[Dict[str, object]]

    @property
    def causally_complete(self) -> bool:
        """Every span landed in exactly one tree (no orphans)."""
        return self.n_orphans == 0 and self.n_roots > 0


def _tree_consistent(root: SpanNode) -> bool:
    """Every descendant shares the root's trace id and links upward."""
    for node in root.walk():
        if node.trace_id != root.trace_id:
            return False
        for child in node.children:
            if child.parent_id != node.span_id:
                return False
    return True


def run_observability_scenario(
    seed: int = 2022,
    n_users: int = 40,
    epochs: int = 8,
    profile: bool = False,
) -> ObservabilityRunResult:
    """Run the full DAO → ledger → moderation → privacy scenario.

    Epochs are scheduled on the framework's simulator as named events,
    so with ``profile=True`` the engine's per-handler histograms have
    content and :meth:`MetaverseFramework.hottest_handlers` renders.
    """
    config = FrameworkConfig(
        seed=seed,
        n_users=n_users,
        voting_period=3.0,
        enable_observability=True,
        enable_profiling=profile,
    )
    fw = MetaverseFramework(config)

    # A platform change proposed by an actual privacy-DAO member: the
    # root action whose causal tree threads proposal → ballots → close
    # → ledger anchor.
    proposal_id: Optional[str] = None
    if fw.federation is not None:
        privacy_dao = fw.federation.dao_for_topic("privacy")
        proposer = sorted(privacy_dao.members.addresses())[0]
        proposal = fw.propose_change(
            title="Tighten gaze epsilon",
            kind="parameter",
            topic="privacy",
            proposer=proposer,
            payload={"pet_epsilon": 0.5},
        )
        if proposal is not None:
            proposal_id = proposal.proposal_id

    for epoch in range(epochs):
        fw.simulator.schedule(float(epoch), fw.run_epoch, name="framework.run_epoch")
    fw.simulator.run_until(float(epochs))

    roots, orphans = span_forest(fw.trace.records)
    assert all(_tree_consistent(root) for root in roots)
    stats = fw.pipeline.stats if fw.pipeline is not None else None
    return ObservabilityRunResult(
        jsonl=trace_to_jsonl(fw.trace),
        n_records=len(fw.trace),
        n_roots=len(roots),
        n_orphans=len(orphans),
        chain_height=fw.chain.height if fw.chain is not None else 0,
        released_frames=stats.released if stats is not None else 0,
        moderation_cases=(
            len(fw.moderation.cases) if fw.moderation is not None else 0
        ),
        proposal_id=proposal_id,
        root_names=[root.name for root in roots],
        hottest=fw.simulator.hottest_handlers(top_n=5),
    )
