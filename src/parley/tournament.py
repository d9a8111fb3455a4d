"""Round-robin scheduling and checkpointed tournament execution.

The schedule covers every ordered pair of agents (including self-play) once
per exercise, so each agent occupies both role seats against every opponent.
Execution plays sessions on the calling thread at a concurrency limit of 1,
and above it under a bounded worker pool through a window of at most
``WINDOW_PER_WORKER × concurrency_limit`` sessions. Either way it stores each
finished session in schedule order, flushes a checkpoint of the failures
after each, and skips the pairings the transcript store already holds on
resume. The checkpoint lists the completed ids only when the run starts and
when it stops, so each write mid-run costs the same however many sessions
are stored. The store's bytes depend on neither the concurrency nor the
timing of a run, and a resumed store equals an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import islice
from pathlib import Path

from .agents import AgentSpec, ChatModelClient
from .catalog import ScenarioSpec
from .errors import ConfigurationError, ParleyError, SchemaError, SessionAbortError
from .session import Transcript, load_svi_items, negotiation_id, run_session
from .tables import parse_provenance, provenance_line

CHECKPOINT_SCHEMA_VERSION = 1

# sessions in flight or finished but not yet stored, per worker
WINDOW_PER_WORKER = 2

# the Transcript fields without a default: a store line lacking one is no record
RECORD_KEYS = frozenset(
    f.name
    for f in fields(Transcript)
    if f.default is MISSING and f.default_factory is MISSING
)


def stable_seed(*parts) -> int:
    """Order-independent reproducible seed from arbitrary parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Pairing:
    exercise: str
    first_role_agent: str
    second_role_agent: str
    seed: int
    first_mover_seat: int = 0  # 0 = first role opens, 1 = second role opens

    def role_map(self, scenario: ScenarioSpec) -> dict[str, str]:
        first, second = scenario.role_names
        return {first: self.first_role_agent, second: self.second_role_agent}

    def negotiation_id(self, scenario: ScenarioSpec) -> str:
        return negotiation_id(scenario.scenario_id, self.role_map(scenario), self.seed)


@dataclass
class TournamentState:
    roster: list[AgentSpec]
    schedule: list[Pairing]
    failed: list[tuple[Pairing, str]] = field(default_factory=list)

    def pending(
        self, scenarios: dict[str, ScenarioSpec], done: Iterable[str]
    ) -> list[Pairing]:
        """Scheduled pairings whose id is neither done (in the transcript
        store) nor failed."""
        skip = set(done) | {
            p.negotiation_id(scenarios[p.exercise]) for p, _ in self.failed
        }
        return [
            p for p in self.schedule if p.negotiation_id(scenarios[p.exercise]) not in skip
        ]


def build_schedule(
    roster: list[AgentSpec], exercises: list[str], base_seed: int
) -> list[Pairing]:
    """All ordered agent pairs (self-play included) once per exercise.

    Seeds derive from (base_seed, exercise, i, j) so resuming or reordering
    never changes them; the opening seat alternates with pair parity so each
    agent opens half its sessions.
    """
    if not roster:
        raise ConfigurationError("roster is empty")
    ids = [a.agent_id for a in roster]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ConfigurationError(f"duplicate agent_id(s) in roster: {', '.join(dupes)}")

    schedule = []
    for exercise in exercises:
        for i, first in enumerate(ids):
            for j, second in enumerate(ids):
                schedule.append(
                    Pairing(
                        exercise=exercise,
                        first_role_agent=first,
                        second_role_agent=second,
                        seed=stable_seed(base_seed, exercise, first, second),
                        first_mover_seat=(i + j) % 2,
                    )
                )
    return schedule


# ---------------------------------------------------------------------------
# Transcript store


class TranscriptStore:
    """Append-only, line-delimited transcript records, one negotiation per line.

    The store alone decides the line format (``Transcript.to_record`` as one
    compact UTF-8 JSON object with sorted keys) and the read order
    (negotiation-id order). Lines
    written with other separators, with ``\\uXXXX`` escapes, or with
    ``"truncated": false``, read the same, so a store resumed from an older
    version may hold several forms.
    One scan at open checks the provenance stamp and indexes every record by
    its negotiation_id; a line that is not a record, or repeats an id, is
    refused there. Given ``on_record``, the same scan also builds each
    record's transcript and hands it over, in file order, so a reader of the
    whole store decodes each line once. Appending an id that is already stored is a no-op, so no
    pairing can execute twice. When a config hash is given, existing stores
    must carry it in their stamp, and a new store is stamped with it. A new
    store is created by its first append, which writes the stamp with the
    first record, so opening a store never creates a file.

    An unterminated final line is an append that a crash cut short: readers
    treat it as absent, and the first append cuts it off. Only the writer
    truncates, because a reader may run while a writer is appending.
    """

    def __init__(
        self,
        path: str | Path,
        config_hash: str | None = None,
        on_record: Callable[[Transcript], None] | None = None,
    ):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._spans: dict[str, tuple[int, int]] = {}  # id -> (offset, length)
        self._torn_at: int | None = None  # byte offset of a torn final line
        self._stamp = b""  # written ahead of the first line of a new store
        if self.path.exists():
            self._scan(config_hash, on_record)
        elif config_hash is not None:
            self._stamp = (provenance_line(config_hash) + "\n").encode()

    def _scan(
        self, config_hash: str | None, on_record: Callable[[Transcript], None] | None
    ) -> None:
        offset = 0
        with open(self.path, "rb") as fh:
            if config_hash is not None:
                parse_provenance(self.path, fh.readline().decode(), config_hash)
                fh.seek(0)
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    self._torn_at = offset
                    return
                span = (offset, len(line))
                offset += len(line)
                if line.isspace() or line.startswith(b"#"):
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise SchemaError(
                        f"{self.path}:{lineno}: not a transcript record: {exc}"
                    ) from exc
                if not (
                    isinstance(record, dict)
                    and RECORD_KEYS <= record.keys()
                    and isinstance(record["negotiation_id"], str)
                ):
                    raise SchemaError(
                        f"{self.path}:{lineno}: not a transcript record: needs the "
                        f"keys {', '.join(sorted(RECORD_KEYS))} and a string id"
                    )
                neg_id = record["negotiation_id"]
                if neg_id in self._spans:
                    raise SchemaError(
                        f"{self.path}:{lineno}: negotiation_id {neg_id!r} is stored twice"
                    )
                self._spans[neg_id] = span
                if on_record is not None:
                    on_record(self._transcript(neg_id, record))

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(self._spans)

    def append(self, transcript: Transcript) -> bool:
        dump = partial(json.dumps, transcript.to_record(), sort_keys=True, separators=(",", ":"))
        try:
            line = dump(ensure_ascii=False).encode() + b"\n"
        except UnicodeEncodeError:
            # text with no UTF-8 form, such as a lone surrogate, is escaped
            line = dump().encode() + b"\n"
        with self._lock:
            if transcript.negotiation_id in self._spans:
                return False
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            with open(self.path, "ab") as fh:
                offset = fh.tell() + len(self._stamp)
                fh.write(self._stamp + line)
            self._stamp = b""
            self._spans[transcript.negotiation_id] = (offset, len(line))
            return True

    def _transcript(self, neg_id: str, record: dict) -> Transcript:
        """The transcript of a decoded line. The scan checks only a record's
        top-level keys; a record whose nested parts do not decode raises
        SchemaError here, naming its id."""
        try:
            return Transcript.from_record(record)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"{self.path}: negotiation_id {neg_id!r} is not a transcript "
                f"record: {type(exc).__name__}: {exc}"
            ) from exc

    def load(self) -> Iterator[Transcript]:
        """The stored transcripts in negotiation-id order, decoded one at a
        time from their byte spans, so a reader holds one transcript."""
        ids = sorted(self._spans)
        if not ids:
            return
        with open(self.path, "rb", buffering=0) as fh:
            for neg_id in ids:
                offset, length = self._spans[neg_id]
                fh.seek(offset)
                yield self._transcript(neg_id, json.loads(fh.read(length)))


# ---------------------------------------------------------------------------
# Checkpointing


def write_checkpoint(
    path: str | Path, state: TournamentState, done: Iterable[str] | None = None
) -> None:
    """Atomic write-then-rename so a crash never leaves a torn checkpoint.

    ``completed`` lists the ``done`` ids, and is written only when they are
    given: ``run_tournament`` gives them when the run starts and when it
    stops, and its writes in between record only the failures. Nothing
    reads ``completed`` back, because the transcript store is the record of
    what is done.
    """
    path = Path(path)
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "failed": [
            {
                "exercise": p.exercise,
                "first_role_agent": p.first_role_agent,
                "second_role_agent": p.second_role_agent,
                "seed": p.seed,
                "first_mover_seat": p.first_mover_seat,
                "cause": cause,
            }
            for p, cause in state.failed
        ],
    }
    if done is not None:
        payload["completed"] = sorted(done)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def read_checkpoint(path: str | Path, state: TournamentState) -> TournamentState:
    """Restore the failed pairings; what is done comes from the store.

    A checkpoint that does not decode, or whose ``failed`` entries lack a
    key, raises SchemaError naming the file."""
    path = Path(path)
    if not path.exists():
        return state
    try:
        payload = json.loads(path.read_text())
        state.failed = [
            (
                Pairing(
                    exercise=f["exercise"],
                    first_role_agent=f["first_role_agent"],
                    second_role_agent=f["second_role_agent"],
                    seed=f["seed"],
                    first_mover_seat=f.get("first_mover_seat", 0),
                ),
                f["cause"],
            )
            for f in payload.get("failed", [])
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"{path}: not a parley checkpoint: {type(exc).__name__}: {exc}"
        ) from exc
    return state


# ---------------------------------------------------------------------------
# Execution


@dataclass
class RunReport:
    scheduled: int
    executed: int
    skipped: int
    failed: int
    wall_clock_seconds: float


def run_tournament(
    state: TournamentState,
    scenarios: dict[str, ScenarioSpec],
    store: TranscriptStore,
    checkpoint_path: str | Path,
    concurrency_limit: int = 4,
    client: ChatModelClient | None = None,
    svi_items: list[dict] | None = None,
    on_stored: Callable[[Transcript], None] | None = None,
) -> RunReport:
    """Execute every pending pairing at most ``concurrency_limit`` (at least
    1, as ``load_config`` requires) at a time.

    At a limit of 1 each session plays on this thread, and no thread is
    started. Above it, sessions play on a worker pool, and at most
    ``WINDOW_PER_WORKER × concurrency_limit`` of them are in flight or
    finished but not yet stored. Either way results are taken oldest first, so
    transcripts are stored and failures recorded in schedule order, and the
    next pairing is submitted as each is taken. The checkpoint is flushed
    after each result with the failures so far; the write after the last
    result, and the one when an error or an interrupt ends the run, also
    list the stored ids. A rerun skips the pairings the store holds, making
    the tournament idempotent under kill-and-resume with scripted agents. A
    session that raises fails only its pairing, and so does a backend abort
    (``SessionAbortError``) once the client has given up; any other
    ``ParleyError`` (a refused key among them) stops any session from
    starting, surfaces when its session reaches the head of the window,
    leaves the finished sessions behind it unstored, cancels the queued ones
    and ends the run.

    Every session is given ``svi_items``, or, when None, the built-in
    questionnaire read once for the call. ``on_stored``, when given, is
    called on this thread with each transcript the store has just taken.
    """
    for pairing in state.schedule:
        if pairing.exercise not in scenarios:
            raise ConfigurationError(f"no scenario loaded for exercise {pairing.exercise!r}")

    # prove the checkpoint is writable before any session starts
    try:
        write_checkpoint(checkpoint_path, state, store.ids)
    except OSError as exc:
        raise ConfigurationError(f"checkpoint {checkpoint_path} unwritable: {exc}") from exc

    agents = {a.agent_id: a for a in state.roster}
    if svi_items is None:
        svi_items = load_svi_items()
    pending = state.pending(scenarios, store.ids)
    skipped = len(state.schedule) - len(pending)
    start = time.monotonic()
    # set by the first ParleyError, so no later session starts; their results
    # are never taken, as that error's session is ahead of them in the window
    stopped = threading.Event()

    def execute(pairing: Pairing) -> tuple[Pairing, Transcript | None, str]:
        if stopped.is_set():
            return pairing, None, "not started: the run was ended"
        scenario = scenarios[pairing.exercise]
        role_map = pairing.role_map(scenario)
        first_mover = scenario.role_names[pairing.first_mover_seat]
        try:
            transcript = run_session(
                scenario,
                role_map,
                agents,
                pairing.seed,
                client=client,
                first_mover=first_mover,
                svi_items=svi_items,
            )
        except SessionAbortError as exc:
            # the client has already retried what a retry could mend
            return pairing, None, f"{type(exc).__name__}: {exc}"
        except ParleyError:
            stopped.set()
            raise
        except Exception as exc:
            # one broken session is this pairing's failure, not the run's
            return pairing, None, f"{type(exc).__name__}: {exc}"
        return pairing, transcript, ""

    def store_in_order(results: Iterable[tuple[Pairing, Transcript | None, str]]) -> int:
        """Store or record each result; the number of sessions played."""
        executed = 0
        try:
            for taken, (pairing, transcript, cause) in enumerate(results, start=1):
                if transcript is None:
                    state.failed.append((pairing, cause))
                else:
                    if store.append(transcript) and on_stored is not None:
                        on_stored(transcript)
                    executed += 1
                last = taken == len(pending)
                write_checkpoint(checkpoint_path, state, store.ids if last else None)
        except BaseException:
            # the run ends early: list what it stored, but report why it ended
            with contextlib.suppress(OSError):
                write_checkpoint(checkpoint_path, state, store.ids)
            raise
        return executed

    if concurrency_limit == 1:
        # one session at a time: a worker thread would only make this thread
        # wait for the GIL at each store and checkpoint write
        executed = store_in_order(map(execute, pending))
    else:
        with ThreadPoolExecutor(max_workers=concurrency_limit) as pool:
            try:
                executed = store_in_order(
                    _oldest_first(pool, execute, pending, WINDOW_PER_WORKER * concurrency_limit)
                )
            except BaseException:
                # a ParleyError or an interrupt ends the run: queued sessions
                # must not start
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    return RunReport(
        scheduled=len(state.schedule),
        executed=executed,
        skipped=skipped,
        failed=len(state.failed),
        wall_clock_seconds=time.monotonic() - start,
    )


def _oldest_first(pool: ThreadPoolExecutor, fn: Callable, items: Iterable, window: int) -> Iterator:
    """``fn`` of each item, run on ``pool`` with at most ``window`` items
    submitted and not yet taken, yielded in ``items``' order. The next item
    is submitted when the caller asks for the next result, so a result being
    stored still counts against the window."""
    submitted = (pool.submit(fn, item) for item in items)
    in_flight = deque(islice(submitted, window))
    while in_flight:
        yield in_flight.popleft().result()
        in_flight.extend(islice(submitted, 1))
