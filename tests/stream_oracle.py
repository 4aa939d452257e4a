"""Epoch-replay differential oracle for the streaming core.

The oracle feeds **one seeded batch schedule** to two independent
implementations — the production service (stream core) and
:class:`ReplayReference`, the epoch-replay reference kept here — and
asserts the stores they leave behind are *bit-identical*: every label
row (probability, label, flip, time point), every trust-trajectory row,
every epoch row (modulo the ``action`` tag and wall-clock timestamp),
and the final trust vector of the continuation state.  No tolerances
anywhere: the stream engine's claim is exact equivalence, not numerical
closeness (see ``docs/streaming.md`` for why it holds).

The reference continues each epoch by grafting the *entire* previous
session snapshot — full trust history, committed probabilities, verdict
history — into a fresh session (:func:`graft_snapshot`), and persists
each epoch by rewriting the whole trajectory table
(:func:`record_epoch`).  It writes the ``serve-epoch-carry`` state that
older builds of the service persisted, so it doubles as the source of
stores for the upgrade-path tests.

The pieces are reusable on purpose: :func:`random_schedule` builds
seeded adversarial schedules (random batch sizes, in-batch reordering,
duplicate and stale votes that the quarantine policy must drop),
:func:`run_schedule` drives one implementation over a schedule, and
:func:`assert_identical` is the bit-for-bit comparison.  The fuzz suite
(``tests/test_stream_oracle.py``), the metamorphic suite and the bench
floor checks all build on these.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core.entropy import binary_entropy
from repro.core.fact_groups import group_facts, group_probability
from repro.core.incestimate import IncEstimate
from repro.core.result import CorroborationResult
from repro.core.selection import IncEstHeu, IncEstPS
from repro.model.dataset import Dataset
from repro.model.matrix import FactId, VoteMatrix
from repro.model.votes import Vote
from repro.serve import (
    DEFAULT_ENTROPY_THRESHOLD,
    CorroborationService,
    RefreshDecision,
)
from repro.store import IngestBatch, LedgerError, VoteLedger
from repro.stream import REPLAY_CARRY_FORMAT

#: The ingest policy every adversarial schedule runs under: duplicate and
#: stale votes are quarantined rows, not errors.
SCHEDULE_POLICY = "quarantine"


@dataclasses.dataclass(frozen=True)
class ScheduleStep:
    """One ingest step: a vote batch, optionally followed by a refresh."""

    rows: tuple[tuple[str, str, str], ...]
    refresh: bool = True
    force: str | None = None


def vote_rows(dataset: Dataset, facts: list[str]) -> list[tuple[str, str, str]]:
    """The ``(fact, source, symbol)`` triples of ``facts``, source-sorted."""
    return [
        (fact, source, vote.value)
        for fact in facts
        for source, vote in sorted(dataset.matrix.votes_on(fact).items())
    ]


def random_schedule(
    dataset: Dataset,
    seed: int,
    *,
    max_batch: int = 40,
    duplicates: bool = True,
    stale: bool = True,
) -> list[ScheduleStep]:
    """A seeded adversarial batch schedule over ``dataset``'s votes.

    Splits the fact list into random-size batches (1..``max_batch``
    facts), shuffles the vote rows *within* each batch (vote order inside
    an epoch must not matter), and salts later batches with a duplicate
    of one of their own rows and with a re-delivered vote on an
    already-labelled fact — both must be quarantined identically by both
    cores.  Same ``seed`` → same schedule, so every oracle failure is
    replayable.
    """
    rng = random.Random(seed)
    facts = list(dataset.matrix.facts)
    steps: list[ScheduleStep] = []
    position = 0
    while position < len(facts):
        size = rng.randint(1, max_batch)
        chunk = facts[position : position + size]
        position += size
        rows = vote_rows(dataset, chunk)
        rng.shuffle(rows)
        if duplicates and rows and rng.random() < 0.5:
            rows.append(rng.choice(rows))
        if stale and steps and rng.random() < 0.5:
            prior_step = rng.choice(steps)
            if prior_step.rows:
                rows.append(rng.choice(prior_step.rows))
        steps.append(ScheduleStep(rows=tuple(rows)))
    return steps


# ---------------------------------------------------------------------------
# The epoch-replay reference: carry/graft continuation, whole-table writes
# ---------------------------------------------------------------------------
def carry_from_snapshot(snapshot: dict, prior: float, epoch: int) -> dict:
    """Distil a finalized epoch's session snapshot into the carry state.

    The carry is backend-neutral: per-source ``[correct, total, trust]``
    counter triples keyed by source id (extracted from the engine's
    position-ordered lists or the scalar dicts), the full trajectory
    state, the verdict history, and the epoch-0 prior ``k0`` that anchors
    every later source's counters.
    """
    sources = list(snapshot["trajectory"]["sources"])
    counters: dict[str, list[float]] = {}
    if "engine" in snapshot:
        engine = snapshot["engine"]
        for index, source in enumerate(sources):
            counters[source] = [
                float(engine["correct"][index]),
                float(engine["total"][index]),
                float(engine["trust"][index]),
            ]
    else:
        scalar = snapshot["scalar"]
        for source in sources:
            counters[source] = [
                float(scalar["correct"][source]),
                float(scalar["total"][source]),
                float(scalar["trust"][source]),
            ]
    return {
        "format": REPLAY_CARRY_FORMAT,
        "epoch": epoch,
        "prior": prior,
        "time_point": snapshot["time_point"],
        "sources": sources,
        "counters": counters,
        "trajectory": snapshot["trajectory"],
        "probabilities": snapshot["probabilities"],
        "label_overrides": snapshot["label_overrides"],
        "rounds": snapshot["rounds"],
    }


def graft_snapshot(base: dict, carry: dict, default_trust: float) -> dict:
    """Splice ``carry`` into a fresh delta session's snapshot ``base``.

    ``base`` must be the :meth:`~repro.core.session.CorroborationSession
    .snapshot` of a *freshly constructed* session over the epoch's delta
    dataset — its fingerprint, params and group state stay; the carried
    trajectory, counters and verdict history replace the blank ones.  The
    delta dataset registers the carried sources first, in their original
    order, so they form a prefix of the delta source list; sources the
    carry has never seen get the default trust λ and the epoch-0 prior
    ``k0`` — the counters they would have had as voteless sources from
    the start (``correct = λ·k0, total = k0``, Equation 8).

    ``finalized`` is forced ``False`` so the epoch's own finalize records
    its trust vector (a finalized snapshot would suppress it).
    """
    if carry.get("format") != REPLAY_CARRY_FORMAT:
        raise LedgerError(
            f"not a {REPLAY_CARRY_FORMAT} state: {carry.get('format')!r}"
        )
    grafted = dict(base)
    delta_sources = list(base["trajectory"]["sources"])
    carried = set(carry["sources"])
    if carry["sources"] != delta_sources[: len(carry["sources"])]:
        raise LedgerError(
            "carried sources are not a prefix of the delta source list; "
            "the store's position order was violated"
        )
    prior = float(carry["prior"])
    history = [
        {s: vector.get(s, default_trust) for s in delta_sources}
        for vector in carry["trajectory"]["history"]
    ]
    grafted["trajectory"] = {
        "sources": delta_sources,
        "history": history,
        "evaluation_time": dict(carry["trajectory"]["evaluation_time"]),
    }
    grafted["time_point"] = carry["time_point"]
    grafted["finalized"] = False
    grafted["probabilities"] = dict(carry["probabilities"])
    grafted["label_overrides"] = dict(carry["label_overrides"])
    grafted["rounds"] = list(carry["rounds"])
    counters = carry["counters"]
    fresh = [default_trust * prior, prior, default_trust]

    def triple(source: str) -> list[float]:
        return list(counters[source]) if source in carried else list(fresh)

    if "engine" in base:
        engine = dict(base["engine"])
        engine["correct"] = [triple(s)[0] for s in delta_sources]
        engine["total"] = [triple(s)[1] for s in delta_sources]
        engine["trust"] = [triple(s)[2] for s in delta_sources]
        grafted["engine"] = engine
        grafted["evaluated_count"] = len(carry["probabilities"])
    else:
        scalar = dict(base["scalar"])
        scalar["correct"] = {s: triple(s)[0] for s in delta_sources}
        scalar["total"] = {s: triple(s)[1] for s in delta_sources}
        scalar["trust"] = {s: triple(s)[2] for s in delta_sources}
        grafted["scalar"] = scalar
    return grafted


def record_epoch(
    ledger: VoteLedger,
    *,
    epoch: int,
    action: str,
    last_batch: int,
    entropy_mass: float | None,
    labels: list[dict],
    trajectory: list[dict[str, float]],
    state: dict,
) -> None:
    """Persist one reference epoch in a single transaction.

    Writes the new ``labels`` rows, replaces the whole trust trajectory
    with the epoch's full history (O(T·S) per epoch), appends the
    ``epochs`` row and upserts the continuation ``session_state``.
    """
    conn = ledger._conn
    with conn:
        for row in labels:
            conn.execute(
                "INSERT INTO labels (fact_id, probability, label, flipped, "
                "epoch, time_point) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    row["fact"],
                    row["probability"],
                    int(row["label"]),
                    int(row["flipped"]),
                    epoch,
                    row["time_point"],
                ),
            )
        conn.execute("DELETE FROM trust_trajectory")
        for time_point, vector in enumerate(trajectory):
            conn.executemany(
                "INSERT INTO trust_trajectory (time_point, source_id, trust) "
                "VALUES (?, ?, ?)",
                [(time_point, s, float(t)) for s, t in vector.items()],
            )
        conn.execute(
            "INSERT INTO epochs (epoch, last_batch, action, facts, "
            "time_points, entropy_mass, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                epoch,
                last_batch,
                action,
                len(labels),
                len(trajectory),
                entropy_mass,
                datetime.now(timezone.utc).isoformat(timespec="seconds"),
            ),
        )
        conn.execute(
            "INSERT INTO session_state (id, epoch, state) VALUES (1, ?, ?) "
            "ON CONFLICT(id) DO UPDATE SET epoch=excluded.epoch, "
            "state=excluded.state",
            (epoch, json.dumps(state, separators=(",", ":"))),
        )


def delta_dataset(
    ledger: VoteLedger, facts: list[FactId], last_batch: int
) -> Dataset:
    """The epoch's problem instance: ``facts`` plus every source known
    once ``last_batch`` had committed, registered first in store order."""
    matrix = VoteMatrix()
    for source in ledger.sources_up_to_batch(last_batch):
        matrix.add_source(source)
    for fact in facts:
        matrix.add_fact(fact)
    for fact in facts:
        for source, symbol in ledger.votes_on(fact):
            matrix.add_vote(fact, source, Vote.from_symbol(symbol))
    return Dataset(matrix=matrix, truth={}, name=ledger.name)


class ReplayReference:
    """The epoch-replay reference, driven like the service.

    ``incremental`` continues from the stored carry, ``full`` rebuilds
    the carry by replaying every committed epoch (checking each stored
    probability exactly) before running the new epoch, and ``entropy``
    escalates to ``full`` on Σ n·H(σ(FG)) ≥ ``entropy_threshold`` under
    the carried trust.  The bootstrap epoch is tagged ``full``.
    """

    def __init__(
        self,
        ledger: VoteLedger,
        *,
        refresh: str = "incremental",
        engine: bool = True,
        method: str = "incestimate",
        entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD,
    ) -> None:
        self.ledger = ledger
        self.refresh_policy = refresh
        self.engine = engine
        self.method = method
        self.entropy_threshold = float(entropy_threshold)

    def _estimator(self) -> IncEstimate:
        strategy = IncEstHeu() if self.method == "incestimate" else IncEstPS()
        return IncEstimate(strategy, engine=self.engine)

    def _run_epoch(
        self, delta: Dataset, carry: dict | None, epoch: int
    ) -> tuple[CorroborationResult, dict]:
        estimator = self._estimator()
        session = estimator.session(delta)
        if carry is None:
            prior = estimator.trust_prior_strength * delta.matrix.num_facts
        else:
            prior = float(carry["prior"])
            session.restore(
                graft_snapshot(session.snapshot(), carry, estimator.default_trust)
            )
        while not session.done:
            session.step()
        result = session.finalize()
        return result, carry_from_snapshot(session.snapshot(), prior, epoch)

    def _replay_epochs(self) -> dict | None:
        carry: dict | None = None
        stored = self.ledger.labels_map()
        for row in self.ledger.list_epochs():
            epoch = int(row["epoch"])
            facts = self.ledger.facts_in_epoch(epoch)
            delta = delta_dataset(self.ledger, facts, int(row["last_batch"]))
            result, carry = self._run_epoch(delta, carry, epoch)
            for fact in facts:
                if result.probabilities[fact] != stored[fact]["probability"]:
                    raise LedgerError(
                        f"reference replay mismatch at epoch {epoch}, "
                        f"fact {fact!r}"
                    )
        return carry

    def _dirty_entropy_mass(self, delta: Dataset, carry: dict) -> float:
        estimator = self._estimator()
        history = carry["trajectory"]["history"]
        last = history[-1] if history else {}
        trust = {
            s: last.get(s, estimator.default_trust)
            for s in delta.matrix.sources
        }
        mass = 0.0
        for group in group_facts(delta.matrix):
            probability = group_probability(
                group.signature, trust, estimator.default_fact_probability
            )
            mass += group.size * binary_entropy(probability)
        return mass

    def apply_votes(
        self, rows, *, on_error: str = "strict", refresh: bool = True
    ) -> tuple[IngestBatch, RefreshDecision | None]:
        batch = self.ledger.ingest_votes(rows, on_error=on_error)
        return batch, self.refresh() if refresh else None

    def refresh(self, *, force: str | None = None) -> RefreshDecision:
        started = time.perf_counter()
        policy = force or self.refresh_policy
        pending = self.ledger.pending_facts()
        state = self.ledger.load_session_state()
        if not pending:
            return RefreshDecision(
                policy=policy,
                action="none",
                epoch=None if state is None else state[0],
                dirty_facts=0,
                entropy_mass=None,
                threshold=None,
                seconds=time.perf_counter() - started,
            )
        last_batch = self.ledger.max_batch_id()
        epoch = 0 if state is None else state[0] + 1
        delta = delta_dataset(self.ledger, pending, last_batch)
        entropy_mass: float | None = None
        threshold: float | None = None
        if policy == "entropy" and state is not None:
            threshold = self.entropy_threshold
            entropy_mass = self._dirty_entropy_mass(delta, state[1])
        if state is None:
            action, carry = "full", None
        elif policy == "full" or (
            threshold is not None and entropy_mass >= threshold
        ):
            action, carry = "full", self._replay_epochs()
        else:
            action, carry = "incremental", state[1]
        result, next_carry = self._run_epoch(delta, carry, epoch)
        labels = [
            {
                "fact": fact,
                "probability": result.probabilities[fact],
                "label": result.label(fact),
                "flipped": fact in result.label_overrides,
                "time_point": result.trajectory.evaluation_time(fact),
            }
            for fact in pending
        ]
        record_epoch(
            self.ledger,
            epoch=epoch,
            action=action,
            last_batch=last_batch,
            entropy_mass=entropy_mass,
            labels=labels,
            trajectory=next_carry["trajectory"]["history"],
            state=next_carry,
        )
        return RefreshDecision(
            policy=policy,
            action=action,
            epoch=epoch,
            dirty_facts=len(pending),
            entropy_mass=entropy_mass,
            threshold=threshold,
            seconds=time.perf_counter() - started,
        )


# ---------------------------------------------------------------------------
# Driving a schedule and comparing stores
# ---------------------------------------------------------------------------
def implementation(
    ledger: VoteLedger, core: str, **kwargs
) -> CorroborationService | ReplayReference:
    """``core="replay"``: the reference; anything else: the service."""
    if core == "replay":
        return ReplayReference(ledger, **kwargs)
    return CorroborationService(ledger, core=core, **kwargs)


def run_schedule(
    path: Path,
    schedule: list[ScheduleStep],
    *,
    core: str,
    engine: bool = True,
    refresh: str = "incremental",
    **service_kwargs,
) -> tuple[
    VoteLedger, CorroborationService | ReplayReference, list[RefreshDecision]
]:
    """Drive one fresh implementation over ``schedule``.

    ``core="stream"`` drives the production service, ``core="replay"``
    the :class:`ReplayReference`.  The caller closes the ledger.
    """
    ledger = VoteLedger(path)
    service = implementation(
        ledger, core, refresh=refresh, engine=engine, **service_kwargs
    )
    decisions: list[RefreshDecision] = []
    for step in schedule:
        if step.rows:
            service.apply_votes(
                step.rows, on_error=SCHEDULE_POLICY, refresh=False
            )
        if step.refresh:
            decisions.append(service.refresh(force=step.force))
    return ledger, service, decisions


def labels_table(ledger: VoteLedger) -> dict[str, tuple]:
    """Every label row as a comparable tuple (no timestamps involved)."""
    return {
        fact: (
            row["probability"],
            row["label"],
            row["flipped"],
            row["epoch"],
            row["time_point"],
        )
        for fact, row in ledger.labels_map().items()
    }


def trajectory_table(ledger: VoteLedger) -> dict[tuple[int, str], float]:
    """The raw trust table keyed by ``(time_point, source)``.

    Unlike :meth:`VoteLedger.trajectory_rows` this keeps the *absolute*
    time points, which is what compaction-aware comparisons need (a
    compacted store holds a suffix of the uncompacted table).
    """
    return {
        (row["time_point"], row["source_id"]): row["trust"]
        for row in ledger._conn.execute(
            "SELECT time_point, source_id, trust FROM trust_trajectory"
        )
    }


def epochs_table(ledger: VoteLedger) -> list[tuple]:
    """Epoch rows minus the core-dependent fields (action, timestamp)."""
    return [
        (
            row["epoch"],
            row["last_batch"],
            row["facts"],
            row["time_points"],
            row["entropy_mass"],
        )
        for row in ledger.list_epochs()
    ]


def final_trust(ledger: VoteLedger) -> dict[str, float]:
    """The continuation state's trust vector, whichever format is stored.

    A stream state's counter trust and a reference carry's last history
    vector are the same mathematical object (the trust vector after the
    last finalize); the oracle checks they are the same *bits*.
    """
    state = ledger.load_session_state()
    assert state is not None, "no continuation state stored"
    payload = state[1]
    if payload.get("format") == "serve-stream-state":
        return {s: c[2] for s, c in payload["counters"].items()}
    return dict(payload["trajectory"]["history"][-1])


def assert_identical(
    stream_ledger: VoteLedger, replay_ledger: VoteLedger
) -> None:
    """Bit-for-bit store equivalence (the oracle's verdict).

    Exact ``==`` on floats throughout — the differential claim is
    identity, not closeness.
    """
    assert labels_table(stream_ledger) == labels_table(replay_ledger)
    assert trajectory_table(stream_ledger) == trajectory_table(replay_ledger)
    assert epochs_table(stream_ledger) == epochs_table(replay_ledger)
    assert final_trust(stream_ledger) == final_trust(replay_ledger)
    stream_counts = stream_ledger.counts()
    replay_counts = replay_ledger.counts()
    for key in ("facts", "sources", "votes", "labels", "pending"):
        assert stream_counts[key] == replay_counts[key]


def run_differential(
    tmp_path: Path,
    schedule: list[ScheduleStep],
    *,
    engine: bool = True,
    tag: str = "oracle",
    **service_kwargs,
) -> tuple[
    list[RefreshDecision], list[RefreshDecision], CorroborationService
]:
    """Run one schedule through the service and the reference and
    assert store identity.

    Also re-runs the stream-written store from its ingest log
    (``service.verify()``) — the service must leave a log a cold re-run
    reproduces exactly.  Returns both decision lists plus the stream
    service (callers assert on actions / verify further).
    """
    replay_ledger, _, replay_decisions = run_schedule(
        tmp_path / f"{tag}-replay.db",
        schedule,
        core="replay",
        engine=engine,
        **service_kwargs,
    )
    stream_ledger, stream_service, stream_decisions = run_schedule(
        tmp_path / f"{tag}-stream.db",
        schedule,
        core="stream",
        engine=engine,
        **service_kwargs,
    )
    try:
        assert_identical(stream_ledger, replay_ledger)
        assert stream_service.verify() == stream_ledger.counts()["labels"]
    finally:
        replay_ledger.close()
        stream_ledger.close()
    return stream_decisions, replay_decisions, stream_service
