"""Single-negotiation state machine and post-negotiation questionnaire.

A session alternates turns between two agents until an explicit acceptance,
an explicit walkaway, or the exchange cap (one exchange = one utterance by
each side). After termination both seats answer the subjective-value
questionnaire with their ratings by item id, which are averaged into facet
and composite scores.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .agents import AgentSpec, ChatModelClient, SessionView, bind_seat
from .catalog import ScenarioSpec, read_yaml, typed, typed_mapping
from .errors import ConfigurationError, SchemaError, SessionAbortError
from .protocol import ACCEPT_MARKER, WALKAWAY_MARKER, parse_block, terms_to_assignment

TRANSCRIPT_SCHEMA_VERSION = 1

SVI_FACETS = ("instrumental", "self", "process", "relationship")


@dataclass
class Utterance:
    index: int
    speaker_agent_id: str
    role_name: str
    text: str
    truncated: bool = False


@dataclass(frozen=True)
class SviResponse:
    items: tuple[tuple[int, int], ...]  # (item_id, rating 1-7)
    facets: dict[str, float]
    composite: float


@dataclass
class Transcript:
    negotiation_id: str
    scenario_id: str
    role_map: dict[str, str]  # role_name -> agent_id
    utterances: list[Utterance]
    termination: str  # accepted | walkaway | cap_reached
    seed: int
    # keyed by role seat so self-play records both questionnaires
    svi: dict[str, SviResponse | None] = field(default_factory=dict)
    schema_version: int = TRANSCRIPT_SCHEMA_VERSION

    def to_record(self) -> dict:
        """The record the store writes and ``from_record`` reads: the fields
        by name, with an utterance's ``truncated`` left out when false, the
        value ``from_record`` assumes for a missing key."""
        return {
            **vars(self),
            "utterances": [
                vars(u) if u.truncated
                else {"index": u.index, "role_name": u.role_name, "text": u.text,
                      "speaker_agent_id": u.speaker_agent_id}
                for u in self.utterances
            ],
            "svi": {role: None if resp is None else vars(resp) for role, resp in self.svi.items()},
        }

    @classmethod
    def from_record(cls, record: dict) -> "Transcript":
        svi: dict[str, SviResponse | None] = {}
        for role_name, resp in record.get("svi", {}).items():
            if resp is None:
                svi[role_name] = None
            else:
                svi[role_name] = SviResponse(
                    items=tuple((int(i), int(r)) for i, r in resp["items"]),
                    facets=dict(resp["facets"]),
                    composite=float(resp["composite"]),
                )
        return cls(
            negotiation_id=record["negotiation_id"],
            scenario_id=record["scenario_id"],
            role_map=dict(record["role_map"]),
            utterances=[
                Utterance(
                    index=u["index"],
                    speaker_agent_id=u["speaker_agent_id"],
                    role_name=u["role_name"],
                    text=u["text"],
                    truncated=u.get("truncated", False),
                )
                for u in record["utterances"]
            ],
            termination=record["termination"],
            seed=record["seed"],
            svi=svi,
            schema_version=record.get("schema_version", TRANSCRIPT_SCHEMA_VERSION),
        )


def negotiation_id(scenario_id: str, role_map: dict[str, str], seed: int) -> str:
    """Stable identifier: hash of scenario, seat assignment, and seed."""
    seats = "|".join(f"{role}={agent}" for role, agent in sorted(role_map.items()))
    digest = hashlib.sha256(f"{scenario_id}|{seats}|{seed}".encode()).hexdigest()
    return digest[:16]


def detect_termination(utterances: list[Utterance], scenario: ScenarioSpec) -> str:
    """Inspect the latest utterance for a protocol-complete close.

    Returns "accepted" only when the utterance carries the acceptance marker
    AND a complete terms block (all issues for integrative scenarios);
    "walkaway" on the explicit exit marker; "continue" otherwise.
    """
    if not utterances:
        return "continue"
    text = utterances[-1].text
    upper = text.upper()
    if WALKAWAY_MARKER in upper:
        return "walkaway"
    if ACCEPT_MARKER in upper:
        terms = parse_block(text, "TERMS")
        if terms is not None and terms_to_assignment(scenario, terms) is not None:
            return "accepted"
    return "continue"


# ---------------------------------------------------------------------------
# Subjective-value questionnaire


def load_svi_items(path=None) -> list[dict]:
    """The questionnaire's items: 16 mappings with a distinct integer ``id``
    of at least 0 (a reply's ``N: R`` lines name it), a string ``text`` and
    a ``facet`` of ``SVI_FACETS``, every facet covered. A file that breaks
    this raises SchemaError naming it and the key."""
    source = Path(path) if path is not None else resources.files("parley.data") / "svi_items.yaml"
    raw = typed_mapping(source, "top level", read_yaml(source), ("items", "schema_version"))
    items = typed(source, "items", raw.get("items"), list)
    for i, item in enumerate(items):
        typed_mapping(source, f"items[{i}]", item, ("id", "text", "facet"))
        typed(source, f"items[{i}].id", item.get("id"), int, bounds=(0, None))
        typed(source, f"items[{i}].text", item.get("text"), str)
        typed(source, f"items[{i}].facet", item.get("facet"), str, choices=SVI_FACETS)
    if len(items) != 16 or {item["facet"] for item in items} != set(SVI_FACETS):
        raise SchemaError(f"{source}: items must be 16 items covering the four facets")
    if len({item["id"] for item in items}) != len(items):
        raise SchemaError(f"{source}: items must have distinct ids")
    return items


def svi_response(items: list[dict], ratings: dict[int, int]) -> SviResponse | None:
    """The questionnaire response that ``ratings``, by item id, make.

    Any missing item or out-of-scale rating invalidates the whole response
    (recorded as missing; such negotiations drop out of SV analyses).
    """
    parsed = tuple((item["id"], ratings.get(item["id"])) for item in items)
    if not all(rating in range(1, 8) for _, rating in parsed):  # a 7-point scale
        return None
    by_facet: dict[str, list[int]] = {facet: [] for facet in SVI_FACETS}
    for item, (_, rating) in zip(items, parsed):
        by_facet[item["facet"]].append(rating)
    facets = {facet: sum(vals) / len(vals) for facet, vals in by_facet.items()}
    return SviResponse(parsed, facets, composite=sum(r for _, r in parsed) / len(parsed))


# ---------------------------------------------------------------------------
# Session loop


def run_session(
    scenario: ScenarioSpec,
    role_map: dict[str, str],
    agents: dict[str, AgentSpec],
    seed: int,
    client: ChatModelClient | None = None,
    first_mover: str | None = None,
    svi_items: list[dict] | None = None,
) -> Transcript:
    """Run one negotiation to termination and administer the questionnaire
    (``svi_items``, or the built-in one when None), storing each seat's
    ratings as its ``svi_response``.

    A backend abort during the negotiation raises ``SessionAbortError``; one
    while a questionnaire is answered leaves that questionnaire missing. A
    refused key (``ConfigurationError``) raises in either case.
    """
    role_names = scenario.role_names
    for role in role_names:
        if role not in role_map:
            raise ConfigurationError(f"role_map missing role {role!r}")
        if role_map[role] not in agents:
            raise ConfigurationError(f"agent {role_map[role]!r} not resolvable")

    first_mover = first_mover or role_names[0]
    if first_mover not in role_names:
        raise ConfigurationError(f"first_mover {first_mover!r} is not a role")

    history: list[tuple[str, str]] = []
    # each seat's agent and the seat bound to its view, which reads the one
    # history list that the session appends to
    seats = {}
    for role_name in role_names:
        agent = agents[role_map[role_name]]
        view = SessionView(scenario, role_name, history)
        seats[role_name] = agent, bind_seat(agent, view, seed, client)
    counterpart = dict(zip(role_names, reversed(role_names)))

    neg_id = negotiation_id(scenario.scenario_id, role_map, seed)
    utterances: list[Utterance] = []
    cap = 2 * scenario.max_exchanges
    current = first_mover
    termination = "cap_reached"

    while len(utterances) < cap:
        agent, seat = seats[current]
        reply = seat.speak()
        utterances.append(
            Utterance(len(utterances), agent.agent_id, current, reply.text, reply.truncated)
        )
        history.append((current, reply.text))
        status = detect_termination(utterances, scenario)
        if status != "continue":
            termination = status
            break
        current = counterpart[current]

    transcript = Transcript(
        negotiation_id=neg_id,
        scenario_id=scenario.scenario_id,
        role_map=dict(role_map),
        utterances=utterances,
        termination=termination,
        seed=seed,
    )

    items = svi_items if svi_items is not None else load_svi_items()
    for role_name, (_, seat) in seats.items():
        try:
            ratings = seat.answer(items)
        except SessionAbortError:
            ratings = {}  # a missing questionnaire
        transcript.svi[role_name] = svi_response(items, ratings)
    return transcript
