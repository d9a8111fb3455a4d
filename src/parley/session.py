"""Single-negotiation state machine and post-negotiation questionnaire.

A session alternates turns between two agents until an explicit acceptance,
an explicit walkaway, or the exchange cap (one exchange = one utterance by
each side). After termination both agents fill in the subjective-value
questionnaire; answers are parsed by pattern match and averaged into facet
and composite scores.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .agents import (
    AgentSpec,
    ChatModelClient,
    SessionView,
    assemble_system_prompt,
    get_policy,
    next_message,
)
from .catalog import ScenarioSpec
from .errors import ConfigurationError, SessionAbortError
from .protocol import has_accept, has_walkaway, moderator_suffix, parse_block, terms_to_assignment

TRANSCRIPT_SCHEMA_VERSION = 1

SVI_FACETS = ("instrumental", "self", "process", "relationship")

_RATING_LINE_RE = re.compile(r"^\s*(\d{1,2})\s*[:.)\-]\s*(\d+)\s*$", re.MULTILINE)


@dataclass(frozen=True)
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
    termination: str  # accepted | walkaway | cap_reached | aborted
    seed: int
    # keyed by role seat so self-play records both questionnaires
    svi: dict[str, SviResponse | None] = field(default_factory=dict)
    schema_version: int = TRANSCRIPT_SCHEMA_VERSION

    def roles(self) -> tuple[str, str]:
        first, second = self.role_map.keys()
        return first, second

    def counterpart_role(self, role_name: str) -> str:
        first, second = self.roles()
        return second if role_name == first else first

    def to_record(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "negotiation_id": self.negotiation_id,
            "scenario_id": self.scenario_id,
            "role_map": self.role_map,
            "termination": self.termination,
            "seed": self.seed,
            "utterances": [
                {
                    "index": u.index,
                    "speaker_agent_id": u.speaker_agent_id,
                    "role_name": u.role_name,
                    "text": u.text,
                    "truncated": u.truncated,
                }
                for u in self.utterances
            ],
            "svi": {
                role_name: (
                    None
                    if resp is None
                    else {
                        "items": [list(pair) for pair in resp.items],
                        "facets": resp.facets,
                        "composite": resp.composite,
                    }
                )
                for role_name, resp in self.svi.items()
            },
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
    if has_walkaway(text):
        return "walkaway"
    if has_accept(text):
        terms = parse_block(text, "TERMS")
        if terms is not None and terms_to_assignment(scenario, terms) is not None:
            return "accepted"
    return "continue"


# ---------------------------------------------------------------------------
# Subjective-value questionnaire


def load_svi_items(path=None) -> list[dict]:
    if path is not None:
        raw = yaml.safe_load(Path(path).read_text())
    else:
        ref = resources.files("parley.data") / "svi_items.yaml"
        raw = yaml.safe_load(ref.read_text())
    items = raw["items"]
    if len(items) != 16 or {it["facet"] for it in items} != set(SVI_FACETS):
        raise ConfigurationError("questionnaire file must define 16 items across the four facets")
    return items


def questionnaire_text(items: list[dict]) -> str:
    lines = [
        "The negotiation has ended. Please answer this questionnaire about your",
        "experience. Rate every item on a scale from 1 (not at all) to 7 (very",
        "much). Reply with one line per item, in exactly the form 'N: R' where N",
        "is the item number and R is your rating.",
        "",
    ]
    lines += [f"{it['id']}. {it['text']}" for it in items]
    return "\n".join(lines)


def parse_svi_response(text: str, items: list[dict]) -> SviResponse | None:
    """Pattern-match ratings out of a structured reply.

    Any missing item or out-of-scale rating invalidates the whole response
    (recorded as missing; such negotiations drop out of SV analyses).
    """
    ratings: dict[int, int] = {}
    for num, rating in _RATING_LINE_RE.findall(text or ""):
        ratings[int(num)] = int(rating)
    parsed = []
    for item in items:
        rating = ratings.get(item["id"])
        if rating is None or not 1 <= rating <= 7:
            return None
        parsed.append((item["id"], rating))

    by_facet: dict[str, list[int]] = {facet: [] for facet in SVI_FACETS}
    for item, (_, rating) in zip(items, parsed):
        by_facet[item["facet"]].append(rating)
    facets = {facet: sum(vals) / len(vals) for facet, vals in by_facet.items()}
    composite = sum(r for _, r in parsed) / len(parsed)
    return SviResponse(items=tuple(parsed), facets=facets, composite=composite)


def administer_svi(
    agent: AgentSpec,
    view: SessionView,
    seed: int,
    client: ChatModelClient | None = None,
    items: list[dict] | None = None,
) -> SviResponse | None:
    """Ask one agent to fill in the questionnaire; None when unparseable."""
    items = items if items is not None else load_svi_items()
    if agent.backend.kind == "scripted":
        reply_text = get_policy(agent.backend).answer_questionnaire(
            [it["text"] for it in items], seed
        )
    else:
        if client is None:
            raise ConfigurationError("chat_model backend requires a ChatModelClient")
        messages = view.chat_messages()
        messages.append({"role": "user", "content": questionnaire_text(items)})
        try:
            reply_text = client.complete(
                agent.backend, view.assembly.system_text, messages, seed=seed
            ).text
        except SessionAbortError:
            return None
    return parse_svi_response(reply_text, items)


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
    """Run one negotiation to termination and administer the questionnaire.

    On a backend abort the partial transcript is preserved with
    termination="aborted" and no questionnaire is administered.
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

    assemblies = {}
    suffix = moderator_suffix(scenario)
    for role_name in role_names:
        agent = agents[role_map[role_name]]
        assemblies[role_name] = assemble_system_prompt(
            agent, scenario.role(role_name), protocol_suffix=suffix
        )

    neg_id = negotiation_id(scenario.scenario_id, role_map, seed)
    utterances: list[Utterance] = []
    history: list[tuple[str, str]] = []
    cap = 2 * scenario.max_exchanges
    current = first_mover
    termination = "cap_reached"

    while len(utterances) < cap:
        agent = agents[role_map[current]]
        view = SessionView(
            scenario=scenario,
            role_name=current,
            assembly=assemblies[current],
            history=tuple(history),
        )
        try:
            reply = next_message(agent, view, seed, client=client)
        except SessionAbortError:
            return Transcript(
                negotiation_id=neg_id,
                scenario_id=scenario.scenario_id,
                role_map=dict(role_map),
                utterances=utterances,
                termination="aborted",
                seed=seed,
            )
        utterances.append(
            Utterance(
                index=len(utterances),
                speaker_agent_id=agent.agent_id,
                role_name=current,
                text=reply.text,
                truncated=reply.truncated,
            )
        )
        history.append((current, reply.text))
        status = detect_termination(utterances, scenario)
        if status != "continue":
            termination = status
            break
        current = scenario.counterpart_role(current)

    transcript = Transcript(
        negotiation_id=neg_id,
        scenario_id=scenario.scenario_id,
        role_map=dict(role_map),
        utterances=utterances,
        termination=termination,
        seed=seed,
    )

    items = svi_items if svi_items is not None else load_svi_items()
    for role_name in role_names:
        agent = agents[role_map[role_name]]
        view = SessionView(
            scenario=scenario,
            role_name=role_name,
            assembly=assemblies[role_name],
            history=tuple(history),
        )
        transcript.svi[role_name] = administer_svi(
            agent, view, seed, client=client, items=items
        )
    return transcript
