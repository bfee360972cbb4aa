"""``MetaverseFramework``: the paper's modular architecture, assembled.

The facade builds every substrate from one :class:`FrameworkConfig`,
wires them the way Fig. 3 sketches (modules connected through an event
bus, decisions through DAOs, trust through the ledger and reputation),
and drives scenario epochs.  Each epoch runs the step sequence:

1. **behaviour** — avatars move and interact through the world's gates;
2. **moderation** — the configured pipeline processes the epoch;
3. **privacy** — a sample of users' sensors fire; frames pass the
   Fig.-2 pipeline; released collections are ledger-registered;
4. **economy** — creators mint/list, buyers purchase, scams get
   reported;
5. **decisions** — members read agendas and vote; due proposals close
   and approved changes execute;
6. **ledger** — the epoch's transactions are sealed into a block;
7. **upkeep** — incentives/reputation decay, module epoch hooks.

In ``modular`` mode the steps run through mounted, swappable,
self-describing modules; in ``monolithic`` mode the framework runs them
directly (same mechanics, none of the transparency/participation) —
the comparison that is experiment E9.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.config import FrameworkConfig
from repro.core.decisions import ChangeRequest, DecisionPipeline, DecisionRecord
from repro.core.ethics import EthicsScorecard, score_platform
from repro.core.events import EventBus
from repro.core.modules import FrameworkModule, ModuleRegistry, ModuleSlot
from repro.core.policy import PolicyEngine
from repro.core.stakeholders import (
    RepresentationRequirement,
    StakeholderRegistry,
    StakeholderRole,
)
from repro.dao import (
    DAO,
    Member,
    ModularDaoFederation,
    ParticipationModel,
    TurnoutQuorum,
)
from repro.errors import FrameworkError
from repro.governance import (
    AbuseClassifier,
    GraduatedSanctionPolicy,
    HumanModeratorPool,
    IncentiveSystem,
    ModerationService,
    RateLimitRule,
    ReportDesk,
    RuleEngine,
)
from repro.ledger import (
    Blockchain,
    ContractRegistry,
    DataCollectionAuditor,
    PoAConsensus,
    RegistryContract,
    VotingContract,
    Wallet,
)
from repro.nft import (
    CreateToEarnStudio,
    NFTCollection,
    NFTMarketplace,
    OpenMinting,
    ReputationVetted,
)
from repro.obs import (
    NULL_OBS,
    Instrumentation,
    export_trace_jsonl,
    hot_handlers_report,
    prometheus_text,
    transparency_report,
)
from repro.privacy import (
    ConsentRegistry,
    ErasureService,
    LaplaceMechanism,
    PrivacyBudget,
    PrivacyPipeline,
    RetainedDataStore,
    SensorRig,
    UserProfile,
    generate_population,
)
from repro.reputation import ReputationSystem
from repro.sim import MetricsRegistry, RngRegistry, Simulator, TraceLog
from repro.social import Archetype, BehaviorSimulator
from repro.world import World

__all__ = ["MetaverseFramework"]

_GOVERNANCE_TOPICS = ("privacy", "moderation", "economy", "safety")
_SENSOR_CHANNELS = ("gaze", "gait", "heart_rate", "spatial_map")


class MetaverseFramework:
    """A full simulated metaverse platform.

    Examples
    --------
    >>> fw = MetaverseFramework(FrameworkConfig(seed=1, n_users=20))
    >>> fw.run(epochs=3)
    >>> 0.0 <= fw.ethics_scorecard().overall <= 1.0
    True
    """

    def __init__(self, config: FrameworkConfig):
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.simulator = Simulator(profile=config.enable_profiling)
        self.bus = EventBus()
        self.trace = TraceLog()
        self.metrics = MetricsRegistry()
        if config.enable_observability:
            self.obs: Instrumentation = Instrumentation(
                trace=self.trace,
                metrics=self.metrics,
                clock=lambda: float(self.epoch),
                run_id=str(config.seed),
            )
        else:
            self.obs = NULL_OBS
        self.epoch = 0
        self._nonce_cache: Dict[str, int] = {}
        self._all_interactions: List[Any] = []

        self._build_world()
        self._build_reputation()
        self._build_ledger()
        self._build_population()
        self._build_privacy()
        self._build_governance()
        self._build_daos()
        self._build_economy()
        self._build_modules()

    # ==================================================================
    # Construction
    # ==================================================================
    def _build_world(self) -> None:
        self.rule_engine = RuleEngine(
            [RateLimitRule(self.config.rate_limit_per_epoch, window=1.0)]
        )
        self.world = World(
            "metaverse", size=self.config.world_size, rule_check=self.rule_engine
        )

    def _build_reputation(self) -> None:
        self.reputation = ReputationSystem(
            pretrusted=["operator"], blend=0.7,
            anchor=self._make_record_anchor("reputation"),
            obs=self.obs,
        )

    def _build_ledger(self) -> None:
        self.chain: Optional[Blockchain] = None
        self.auditor: Optional[DataCollectionAuditor] = None
        self._collector_wallets: List[Wallet] = []
        self._collector_cursor = 0
        if not self.config.enable_ledger:
            return
        contracts = ContractRegistry(obs=self.obs)
        self.voting_contract_address = contracts.deploy(VotingContract())
        self.registry_contract_address = contracts.deploy(RegistryContract())
        self.operator_wallet = Wallet(seed=f"operator:{self.config.seed}".encode())
        self._collector_wallets = [
            Wallet(seed=f"collector:{i}:{self.config.seed}".encode())
            for i in range(self.config.collector_parties)
        ]
        balances = {self.operator_wallet.address: 1_000_000}
        for wallet in self._collector_wallets:
            balances[wallet.address] = 100_000
        self.chain = Blockchain(
            PoAConsensus([self.operator_wallet.address]),
            genesis_balances=balances,
            contracts=contracts,
            obs=self.obs,
        )
        self.auditor = DataCollectionAuditor(self.chain)

    def _build_population(self) -> None:
        cfg = self.config
        rng = self.rngs.stream("population")
        self.profiles: Dict[str, UserProfile] = {
            u.user_id: u
            for u in generate_population(
                cfg.n_users, rng, prefix=cfg.user_id_prefix
            )
        }
        self.stakeholders = StakeholderRegistry()
        self.archetypes: Dict[str, Archetype] = {}
        self.user_ids: List[str] = sorted(self.profiles)

        creators = []
        for i, user_id in enumerate(self.user_ids):
            roles = {StakeholderRole.USER}
            if rng.random() < cfg.creator_fraction:
                roles.add(StakeholderRole.CREATOR)
                creators.append(user_id)
            self.stakeholders.register(user_id, roles)
            draw = rng.random()
            if draw < cfg.harasser_fraction:
                archetype = Archetype.HARASSER
            elif draw < cfg.harasser_fraction + cfg.spammer_fraction:
                archetype = Archetype.SPAMMER
            elif draw < (
                cfg.harasser_fraction + cfg.spammer_fraction + cfg.troll_fraction
            ):
                archetype = Archetype.TROLL
            else:
                archetype = Archetype.CIVIL
            self.archetypes[user_id] = archetype
            x = float(rng.uniform(0, cfg.world_size))
            y = float(rng.uniform(0, cfg.world_size))
            self.world.spawn(user_id, (x, y))
            if cfg.default_bubble_radius > 0:
                self.world.bubbles.enable(
                    user_id, radius=cfg.default_bubble_radius
                )
        self.creator_ids = creators
        for i in range(cfg.developer_count):
            self.stakeholders.register(f"dev-{i}", {StakeholderRole.DEVELOPER})
        for i in range(cfg.regulator_count):
            self.stakeholders.register(f"reg-{i}", {StakeholderRole.REGULATOR})
        for i in range(cfg.moderator_count):
            self.stakeholders.register(f"mod-{i}", {StakeholderRole.MODERATOR})
        self.stakeholders.register("operator", {StakeholderRole.DEVELOPER})

    def _build_privacy(self) -> None:
        cfg = self.config
        self.policy_engine = PolicyEngine(cfg.policy_profile)
        self.pipeline: Optional[PrivacyPipeline] = None
        self.sensor_rig: Optional[SensorRig] = None
        self.retained_data: Optional[RetainedDataStore] = None
        self.erasure: Optional[ErasureService] = None
        if not cfg.enable_privacy_pipeline:
            return
        profile = cfg.policy_profile
        cap = (
            profile.max_epsilon_per_subject
            if profile.max_epsilon_per_subject is not None
            else 1e9
        )
        budget = PrivacyBudget(default_cap=cap * 1000)  # per-scenario cap
        consent = ConsentRegistry()
        rng = self.rngs.stream("consent")
        for user_id in self.user_ids:
            for channel in _SENSOR_CHANNELS:
                if profile.consent_model == "opt-in":
                    if rng.random() < cfg.consent_rate:
                        consent.grant(user_id, channel)
                elif profile.consent_model == "opt-out":
                    if rng.random() > 0.05:  # few bother opting out
                        consent.grant(user_id, channel)
                else:
                    consent.grant(user_id, channel)
        self.pipeline = PrivacyPipeline(
            consent=consent,
            budget=budget,
            audit_hook=self._audit_collection if self.auditor else None,
            obs=self.obs,
        )
        pet_rng = self.rngs.stream("pets")
        for channel in _SENSOR_CHANNELS:
            self.pipeline.set_pet(
                channel, LaplaceMechanism(cfg.pet_epsilon, pet_rng)
            )
        self.sensor_rig = SensorRig.default(
            self.rngs.stream("sensors"), bystanders_nearby=1
        )
        # Platform-side retention + the GDPR right-to-erasure service.
        self.retained_data = RetainedDataStore(name="platform-store")
        for channel in _SENSOR_CHANNELS:
            self.pipeline.subscribe(channel, self.retained_data.retain)
        self.erasure = ErasureService(
            consent=consent,
            tombstone_anchor=self._make_record_anchor("erasure"),
        )
        self.erasure.register_store(self.retained_data.purge)

    def _build_governance(self) -> None:
        cfg = self.config
        self.sanctions = GraduatedSanctionPolicy(
            self.world,
            reputation_hook=lambda member, delta: self.reputation.record(
                rater="operator",
                target=member,
                positive=delta > 0,
                weight=abs(delta),
                time=float(self.epoch),
                context="sanction",
            ),
        )
        self.incentives = IncentiveSystem()
        self.behavior = BehaviorSimulator(
            self.world, self.archetypes, self.rngs.stream("behavior")
        )
        self.moderation: Optional[ModerationService] = None
        if cfg.moderation_config == "none":
            return
        classifier = (
            AbuseClassifier(
                self.rngs.stream("classifier"),
                true_positive_rate=cfg.classifier_tpr,
                false_positive_rate=cfg.classifier_fpr,
            )
            if cfg.moderation_config in ("automated", "hybrid")
            else None
        )
        desk = (
            ReportDesk(
                self.rngs.stream("reports"),
                report_probability=cfg.report_probability,
            )
            if cfg.moderation_config in ("reports", "hybrid")
            else None
        )
        reviewer = (
            HumanModeratorPool(
                self.rngs.stream("moderators"),
                capacity_per_epoch=cfg.moderator_capacity,
            )
            if cfg.moderation_config in ("reports", "hybrid")
            else None
        )
        self.moderation = ModerationService(
            self.sanctions,
            classifier=classifier,
            report_desk=desk,
            reviewer=reviewer,
            obs=self.obs,
        )

    def _build_daos(self) -> None:
        cfg = self.config
        self.federation: Optional[ModularDaoFederation] = None
        self.participation: Optional[ParticipationModel] = None
        anchor = self._make_record_anchor("decision")

        if cfg.governance_mode == "monolithic":
            self.decisions = DecisionPipeline(
                self.stakeholders, mode="operator", anchor=anchor
            )
            return

        rng = self.rngs.stream("dao-membership")
        rule = TurnoutQuorum(cfg.dao_quorum)
        root = DAO("root", rule=rule, obs=self.obs)
        self.federation = ModularDaoFederation(
            root, constitutional_topics=["constitution"]
        )
        sub_daos = {
            topic: DAO(f"{topic}-dao", rule=rule, obs=self.obs)
            for topic in _GOVERNANCE_TOPICS
        }
        for topic, dao in sub_daos.items():
            self.federation.add_sub_dao(dao, [topic])

        non_user_members = (
            [f"dev-{i}" for i in range(cfg.developer_count)]
            + [f"reg-{i}" for i in range(cfg.regulator_count)]
            + ["operator"]
        )
        for member_id in self.user_ids + non_user_members:
            interests = set(
                np.asarray(_GOVERNANCE_TOPICS)[
                    rng.random(len(_GOVERNANCE_TOPICS)) < 0.5
                ]
            )
            member = Member(
                address=member_id,
                tokens=float(rng.integers(1, 100)),
                interests=interests if member_id in self.profiles else set(),
                attention_budget=cfg.attention_budget,
                engagement=cfg.member_engagement,
            )
            root.add_member(member)
            for topic, dao in sub_daos.items():
                if member.interested_in(topic):
                    dao.add_member(
                        Member(
                            address=member_id,
                            tokens=member.tokens,
                            interests={topic},
                            attention_budget=cfg.attention_budget,
                            engagement=cfg.member_engagement,
                        )
                    )
        self.participation = ParticipationModel(self.rngs.stream("participation"))
        self.decisions = DecisionPipeline(
            self.stakeholders,
            federation=self.federation,
            representation=RepresentationRequirement(min_roles_present=2),
            mode="dao",
            anchor=anchor,
        )

    def _build_economy(self) -> None:
        cfg = self.config
        self.market: Optional[NFTMarketplace] = None
        self.studio: Optional[CreateToEarnStudio] = None
        if not cfg.enable_market:
            return
        collection = NFTCollection("metaverse-assets")
        policy = (
            ReputationVetted(self.reputation, threshold=0.4)
            if cfg.governance_mode == "modular"
            else OpenMinting()
        )
        self.market = NFTMarketplace(
            collection, policy=policy, reputation=self.reputation, obs=self.obs
        )
        self.studio = CreateToEarnStudio(self.market, self.rngs.stream("studio"))
        rng = self.rngs.stream("economy")
        for creator in self.creator_ids:
            is_scammer = bool(rng.random() < cfg.scammer_creator_fraction)
            skill = float(rng.uniform(0.5, 0.95)) if not is_scammer else 0.1
            self.studio.register_creator(creator, skill=skill, is_scammer=is_scammer)
        for user_id in self.user_ids:
            self.market.deposit(user_id, cfg.buyer_budget)

    def _build_modules(self) -> None:
        self.modules = ModuleRegistry()
        if self.config.governance_mode != "modular":
            return
        # Local import: builtin modules reference MetaverseFramework hooks.
        from repro.core.builtin_modules import default_modules

        for module in default_modules():
            self.modules.mount(module, self, time=0.0, authorized_by="bootstrap")

    # ==================================================================
    # Anchoring helpers
    # ==================================================================
    def _make_record_anchor(self, context: str):
        """A callback that registers a payload on the ledger (no-op when
        the ledger is disabled)."""

        def anchor(payload: Dict[str, Any]) -> None:
            self.trace.emit(float(self.epoch), context, "anchor", payload=dict(payload))
            if self.chain is None:
                return
            wallet = self.operator_wallet
            nonce = self._next_nonce(wallet)
            stx = wallet.record(nonce=nonce, record_payload=dict(payload))
            self.chain.mempool.submit(
                stx, state=self.chain.state, time=float(self.epoch)
            )

        return anchor

    def _audit_collection(self, frame, pet_name: str) -> None:
        """Pipeline audit hook: register a collection activity on-chain,
        rotating collector identities so monopoly is measurable."""
        if self.auditor is None:
            return
        wallet = self._collector_wallets[
            self._collector_cursor % len(self._collector_wallets)
        ]
        self._collector_cursor += 1
        self.auditor.register_activity(
            wallet,
            subject=frame.subject,
            category=frame.channel,
            purpose="experience-personalisation",
            pet_applied=pet_name,
        )

    def _next_nonce(self, wallet: Wallet) -> int:
        assert self.chain is not None
        base = self.chain.state.nonce_of(wallet.address)
        cached = self._nonce_cache.get(wallet.address, 0)
        nonce = max(base, cached)
        self._nonce_cache[wallet.address] = nonce + 1
        return nonce

    # ==================================================================
    # Epoch steps (called by modules in modular mode, directly otherwise)
    # ==================================================================
    def step_behavior(self, time: float) -> None:
        with self.obs.span("framework", "step.behavior", time=time):
            self._step_behavior(time)

    def _step_behavior(self, time: float) -> None:
        interactions = self.behavior.run_epoch(time)
        self._epoch_interactions = interactions
        self._all_interactions.extend(interactions)
        self.metrics.counter("behavior.attempts").inc(len(interactions))
        delivered_benign = sum(
            1 for i in interactions if i.delivered and not i.abusive
        )
        self.metrics.counter("behavior.delivered_benign").inc(delivered_benign)
        # Preventive incentives: reward civil members who interacted.
        for interaction in interactions:
            if interaction.delivered and not interaction.abusive:
                if self.archetypes.get(interaction.initiator) == Archetype.CIVIL:
                    self.incentives.reward(interaction.initiator, weight=0.1)

    def step_moderation(self, time: float) -> None:
        if self.moderation is None:
            return
        with self.obs.span("framework", "step.moderation", time=time):
            self.moderation.process_epoch(self._epoch_interactions, time)

    def step_privacy(self, time: float) -> None:
        if self.pipeline is None or self.sensor_rig is None:
            return
        with self.obs.span("framework", "step.privacy", time=time):
            self._step_privacy(time)

    def _step_privacy(self, time: float) -> None:
        assert self.pipeline is not None and self.sensor_rig is not None
        rng = self.rngs.stream("sensor-sampling")
        count = max(1, int(self.config.sensor_sample_fraction * len(self.user_ids)))
        chosen = rng.choice(len(self.user_ids), size=count, replace=False)
        for index in sorted(int(i) for i in chosen):
            user = self.profiles[self.user_ids[index]]
            for frame in self.sensor_rig.sample_all(user, time):
                self.pipeline.ingest(frame)

    def step_economy(self, time: float) -> None:
        if self.market is None or self.studio is None:
            return
        with self.obs.span("framework", "step.economy", time=time):
            self._step_economy(time)

    def _step_economy(self, time: float) -> None:
        assert self.market is not None and self.studio is not None
        rng = self.rngs.stream("market")
        for profile in self.studio.creators():
            if rng.random() < 0.5:
                self.studio.produce_and_list(profile.name, time)
        # A few buyers sweep the cheapest listings.
        listings = sorted(self.market.active_listings(), key=lambda l: l.price)
        buyers = [u for u in self.user_ids if self.market.balance_of(u) > 10]
        purchases = min(len(listings), max(1, len(buyers) // 10))
        for listing in listings[:purchases]:
            if not buyers:
                break
            buyer = buyers[int(rng.integers(len(buyers)))]
            if buyer == listing.seller:
                continue
            if self.market.balance_of(buyer) < listing.price:
                continue
            sale = self.market.buy(buyer, listing.listing_id, time)
            token = self.market.collection.token(sale.token_id)
            if token.is_scam:
                self.market.report_scam(buyer, token.token_id, time)
            elif rng.random() < 0.5:
                self.market.praise(buyer, token.token_id, time)

    def step_decisions(self, time: float) -> None:
        if self.federation is not None and self.participation is not None:
            with self.obs.span("framework", "step.decisions", time=time):
                self.participation.run_federation_epoch(self.federation, time)
                self.decisions.finalize_due(time)
                for dao in self.federation.all_daos():
                    dao.close_due(time)
                for dao in self.federation.all_daos():
                    for member in dao.members:
                        member.reset_attention()

    def step_ledger(self, time: float) -> None:
        if self.chain is None:
            return
        if len(self.chain.mempool) == 0:
            return
        with self.obs.span("framework", "step.ledger", time=time):
            self.chain.propose_block(
                self.operator_wallet.address, timestamp=time, max_txs=500
            )

    def step_upkeep(self, time: float) -> None:
        self.incentives.end_epoch()
        if self.epoch % 10 == 9:
            self.reputation.decay()

    # ==================================================================
    # Driving
    # ==================================================================
    def run_epoch(self) -> None:
        """Advance the platform by one epoch."""
        time = float(self.epoch)
        if not hasattr(self, "_all_interactions"):
            self._all_interactions = []
        self._epoch_interactions = []
        with self.obs.span(
            "framework", "epoch", time=time, epoch=self.epoch,
            mode=self.config.governance_mode,
        ):
            if self.config.governance_mode == "modular" and self.modules.mounted():
                self.modules.run_epoch(self, time)
            else:
                self.step_behavior(time)
                self.step_moderation(time)
                self.step_privacy(time)
                self.step_economy(time)
                self.step_decisions(time)
                self.step_ledger(time)
                self.step_upkeep(time)
            self.bus.publish("epoch.completed", time, "framework", epoch=self.epoch)
        self.epoch += 1

    def run(self, epochs: int) -> None:
        """Run ``epochs`` epochs, dispatched through the event engine so
        profiling (``enable_profiling``) sees every epoch callback."""
        start = self.epoch
        for offset in range(epochs):
            self.simulator.schedule(
                float(start + offset), self.run_epoch, name="framework.run_epoch"
            )
        self.simulator.run_until(float(start + epochs))

    # ==================================================================
    # Change requests (the §IV-C loop)
    # ==================================================================
    def propose_change(
        self,
        title: str,
        kind: str,
        topic: str,
        proposer: str,
        executor=None,
        payload: Optional[Dict[str, Any]] = None,
        voting_period: Optional[float] = None,
    ):
        """Submit a platform change through the decision pipeline."""
        with self.obs.span(
            "framework",
            "change.propose",
            time=float(self.epoch),
            title=title,
            topic=topic,
            proposer=proposer,
        ):
            request = self.decisions.make_request(
                title=title,
                kind=kind,
                topic=topic,
                proposer=proposer,
                executor=executor,
                payload=payload,
            )
            return self.decisions.submit(
                request,
                time=float(self.epoch),
                voting_period=voting_period or self.config.voting_period,
            )

    def request_erasure(self, subject: str):
        """Execute the GDPR right to erasure for ``subject`` (§II-D):
        purge retained sensor data, revoke all consent, and write an
        on-chain tombstone.  Returns the receipt.

        Raises
        ------
        FrameworkError
            When the platform runs without a privacy pipeline (nothing
            is retained and nothing can be erased — the compliance gap
            the monolithic baseline exhibits).
        """
        if self.erasure is None:
            raise FrameworkError(
                "platform has no erasure service (privacy pipeline disabled)"
            )
        return self.erasure.request_erasure(subject, time=float(self.epoch))

    # ==================================================================
    # Observation / scoring
    # ==================================================================
    def capabilities(self) -> Dict[str, Any]:
        """Capability description for policy-compliance checking."""
        profile = self.config.policy_profile
        return {
            "consent_default_deny": self.pipeline is not None,
            "audit_ledger": self.auditor is not None,
            "budget_default_cap": (
                profile.max_epsilon_per_subject
                if self.pipeline is not None
                else None
            ),
            "supports_erasure": self.erasure is not None,
            "disclosure_indicator": self.pipeline is not None,
            "channels": list(_SENSOR_CHANNELS) if self.pipeline else [],
        }

    def ethics_observations(self) -> Dict[str, Any]:
        """Live measurements feeding :func:`score_platform`."""
        obs: Dict[str, Any] = {}
        profile = self.config.policy_profile

        # Human rights ------------------------------------------------
        obs["consent_default_deny"] = (
            self.pipeline is not None and profile.consent_model == "opt-in"
        )
        if self.pipeline is not None:
            protected = sum(
                1
                for channel in _SENSOR_CHANNELS
                if self.pipeline.pet_for(channel).name != "passthrough"
            )
            obs["pet_coverage"] = protected / len(_SENSOR_CHANNELS)
        else:
            obs["pet_coverage"] = 0.0
        obs["budget_capped"] = (
            self.pipeline is not None
            and profile.max_epsilon_per_subject is not None
        )
        obs["audit_ledger"] = self.auditor is not None
        obs["transparency_described_modules"] = (
            len(self.modules.mounted()) / len(ModuleSlot)
        )
        obs["decisions_anchored"] = self.chain is not None
        if self.auditor is not None:
            obs["data_monopoly_hhi"] = self.auditor.monopoly_report().herfindahl_index
        else:
            obs["data_monopoly_hhi"] = 1.0
        obs["bystander_protection"] = self.pipeline is not None

        # Human effort --------------------------------------------------
        stats = self.decisions.stats()
        if self.federation is not None:
            turnouts = [
                s["mean_turnout"]
                for s in self.federation.federation_stats().values()
                if s["closed"] > 0
            ]
            obs["mean_turnout"] = float(np.mean(turnouts)) if turnouts else 0.0
        else:
            obs["mean_turnout"] = 0.0
        obs["representative_fraction"] = stats["representative_fraction"]
        obs["reputation_active"] = self.reputation.feedback_count() > 0
        if self.moderation is not None and self._all_interactions:
            score = self.moderation.score(self._all_interactions)
            obs["moderation_recall"] = score.recall
            obs["moderation_precision"] = score.precision
        else:
            obs["moderation_recall"] = 0.0
            obs["moderation_precision"] = 0.0

        # Human experience ---------------------------------------------
        interactions = getattr(self, "_all_interactions", [])
        benign = [i for i in interactions if not i.abusive]
        obs["benign_delivery_rate"] = (
            sum(1 for i in benign if i.delivered) / len(benign) if benign else 0.0
        )
        abusive_delivered = sum(
            1 for i in interactions if i.abusive and i.delivered
        )
        per_member_per_epoch = (
            abusive_delivered / (len(self.user_ids) * max(1, self.epoch))
        )
        obs["harassment_exposure"] = min(1.0, per_member_per_epoch)
        obs["safety_mitigations"] = (
            0.5 * self.config.safety_shadow_avatars
            + 0.5 * self.config.safety_redirected_walking
        )
        if self.market is not None:
            policy = self.market.policy
            attempts = policy.admitted_count + policy.refused_count
            obs["creation_openness"] = (
                policy.admitted_count / attempts if attempts else 1.0
            )
        else:
            obs["creation_openness"] = 0.0
        return obs

    def ethics_scorecard(self) -> EthicsScorecard:
        return score_platform(self.ethics_observations())

    def summary(self) -> Dict[str, Any]:
        """One-dict platform status for examples and docs."""
        return {
            "epoch": self.epoch,
            "mode": self.config.governance_mode,
            "population": self.world.population(),
            "interactions": len(getattr(self, "_all_interactions", [])),
            "chain_height": self.chain.height if self.chain else None,
            "mounted_modules": self.modules.mounted(),
            "decision_stats": self.decisions.stats(),
            "ethics_overall": self.ethics_scorecard().overall,
        }

    # ==================================================================
    # Observability exports
    # ==================================================================
    def export_trace(self, path) -> int:
        """Write the full trace log as JSONL; returns the record count."""
        return export_trace_jsonl(self.trace, path)

    def transparency_report(self):
        """Per-module activity table (records, spans, errors, counters)."""
        return transparency_report(self.trace, self.metrics)

    def prometheus_metrics(self) -> str:
        """Prometheus text-format dump of the metrics registry."""
        return prometheus_text(self.metrics)

    def hottest_handlers(self, top_n: int = 10):
        """Engine profiling report (requires ``enable_profiling``)."""
        return hot_handlers_report(self.simulator, top_n=top_n)
