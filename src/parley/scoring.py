"""Outcome extraction and scoring: every metric the analysis pipeline consumes.

Two extractors recover final terms from a transcript. The marker-protocol
extractor parses the structured close deterministically; the model-assisted
extractor asks a chat model to read the transcript against a fixed terms
schema. Both enforce the all-issues rule and code premature closes as
impasses.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .agents import BackendBinding, ChatModelClient
from .catalog import Assignment, ScenarioSpec, evaluate_assignment
from .errors import EvaluationError, ExtractionConflictError, ScoringError
from .protocol import extraction_schema, parse_block, terms_to_assignment
from .session import Transcript


@dataclass
class SeatScore:
    agent_id: str
    value_claimed: float
    points: int | None = None  # integrative only
    proportion_of_pie: float | None = None
    counterpart_sv: float | None = None


@dataclass
class Outcome:
    negotiation_id: str
    scenario_id: str
    deal: bool
    terms: Assignment
    per_role: dict[str, SeatScore]
    value_created: float
    efficiency: int  # messages exchanged


def _latest_counterpart_terms(transcript: Transcript) -> dict[str, str] | None:
    """Raw pairs from the counterpart's most recent proposal before the close."""
    if len(transcript.utterances) < 2:
        return None
    closer = transcript.utterances[-1].role_name
    for utterance in reversed(transcript.utterances[:-1]):
        if utterance.role_name == closer:
            continue
        for block in ("TERMS", "OFFER"):
            terms = parse_block(utterance.text, block)
            if terms is not None and terms.pairs:
                return terms.pairs
    return None


def _normalize(key: str, value: str) -> str:
    value = value.strip().upper()
    if key == "price":
        value = value.replace("$", "").replace(",", "")
        try:
            return f"{float(value):g}"
        except ValueError:
            return value
    return value


def extract_agreement_marker(
    transcript: Transcript, scenario: ScenarioSpec
) -> Assignment:
    """Deterministic extraction from the bracketed closing protocol."""
    if transcript.termination != "accepted":
        return Assignment.impasse_marker()
    closing = transcript.utterances[-1].text
    terms = parse_block(closing, "TERMS")
    assignment = terms_to_assignment(scenario, terms) if terms else None
    if assignment is None:
        # session layer only marks accepted on complete terms; a transcript
        # edited or produced elsewhere may still disagree
        return Assignment.impasse_marker()

    proposed = _latest_counterpart_terms(transcript)
    if proposed:
        for key, value in proposed.items():
            if key in terms.pairs and _normalize(key, terms.pairs[key]) != _normalize(key, value):
                raise ExtractionConflictError(
                    f"negotiation {transcript.negotiation_id}: restated {key!r}="
                    f"{terms.pairs[key]!r} contradicts proposed {value!r}"
                )
    return assignment


_JSON_RE = re.compile(r"\{.*\}", re.DOTALL)


def extract_agreement_model(
    transcript: Transcript,
    scenario: ScenarioSpec,
    client: ChatModelClient,
    binding: BackendBinding,
) -> Assignment:
    """Model-assisted extraction: transcript + fixed terms schema -> JSON reply."""
    lines = [
        f"{u.role_name}: {u.text}" for u in transcript.utterances
    ]
    prompt = (
        extraction_schema(scenario)
        + "\n\nTRANSCRIPT:\n"
        + "\n".join(lines)
        + f"\n\n(The conversation ended with status: {transcript.termination}.)"
    )
    reply = client.complete(
        binding,
        "You extract negotiation outcomes into JSON.",
        [{"role": "user", "content": prompt}],
    )
    match = _JSON_RE.search(reply.text)
    if not match:
        raise ScoringError("extractor reply contained no JSON object", raw_reply=reply.text)
    try:
        parsed = json.loads(match.group(0))
    except json.JSONDecodeError as exc:
        raise ScoringError(f"extractor reply is not valid JSON: {exc}", raw_reply=reply.text)

    if not parsed.get("deal") or not isinstance(parsed.get("terms"), dict):
        return Assignment.impasse_marker()
    from .protocol import Terms

    assignment = terms_to_assignment(
        scenario, Terms({str(k).lower(): str(v) for k, v in parsed["terms"].items()})
    )
    # all-issues rule: anything incomplete is an impasse
    return assignment if assignment is not None else Assignment.impasse_marker()


def extract_agreement(
    transcript: Transcript,
    scenario: ScenarioSpec,
    extractor: str = "marker",
    client: ChatModelClient | None = None,
    binding: BackendBinding | None = None,
) -> Assignment:
    if extractor == "marker":
        return extract_agreement_marker(transcript, scenario)
    if extractor == "model":
        if client is None or binding is None:
            raise ScoringError("model-assisted extraction requires a client and binding")
        return extract_agreement_model(transcript, scenario, client, binding)
    raise ScoringError(f"unknown extractor {extractor!r}")


def score_outcome(
    transcript: Transcript, scenario: ScenarioSpec, terms: Assignment
) -> Outcome:
    """Compute all per-seat and joint metrics for one negotiation."""
    values, joint = evaluate_assignment(scenario, terms)
    deal = not terms.impasse
    per_role: dict[str, SeatScore] = {}
    for role_name in scenario.role_names:
        counterpart = scenario.counterpart_role(role_name)
        counterpart_svi = transcript.svi.get(counterpart)
        seat = SeatScore(
            agent_id=transcript.role_map[role_name],
            value_claimed=values[role_name],
            counterpart_sv=None if counterpart_svi is None else counterpart_svi.composite,
        )
        if scenario.kind == "integrative":
            seat.points = int(values[role_name])
        per_role[role_name] = seat

    outcome = Outcome(
        negotiation_id=transcript.negotiation_id,
        scenario_id=scenario.scenario_id,
        deal=deal,
        terms=terms,
        per_role=per_role,
        value_created=joint,
        efficiency=len(transcript.utterances),
    )
    if scenario.kind == "integrative":
        shares = proportion_of_pie(outcome)
        for role_name, share in shares.items():
            per_role[role_name].proportion_of_pie = share
    return outcome


def proportion_of_pie(outcome: Outcome) -> dict[str, float]:
    """Each seat's share of the final pie; impasses are 0% for both parties."""
    first_seat = next(iter(outcome.per_role.values()))
    if first_seat.points is None:
        raise EvaluationError("proportion of pie applies to integrative outcomes only")
    if not outcome.deal:
        return {role: 0.0 for role in outcome.per_role}
    if outcome.value_created == 0:
        raise EvaluationError(
            f"negotiation {outcome.negotiation_id}: deal with zero value created"
        )
    return {
        role: seat.points / outcome.value_created
        for role, seat in outcome.per_role.items()
    }


@dataclass
class AgentSummary:
    agent_id: str
    scenario_id: str
    n: int = 0
    deal_rate: float = 0.0
    mean_value_claimed: float = 0.0
    mean_points: float | None = None
    mean_value_created: float = 0.0
    mean_proportion_of_pie: float | None = None
    mean_counterpart_sv: float | None = None
    mean_efficiency: float = 0.0


def aggregate_outcomes(outcomes: list[Outcome]) -> list[AgentSummary]:
    """Per-agent, per-exercise means and deal rates, ordered deterministically."""
    if not outcomes:
        raise EvaluationError("no outcomes to aggregate")
    buckets: dict[tuple[str, str], list[tuple[Outcome, SeatScore]]] = {}
    for outcome in outcomes:
        for seat in outcome.per_role.values():
            buckets.setdefault((seat.agent_id, outcome.scenario_id), []).append(
                (outcome, seat)
            )

    def mean(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else None

    summaries = []
    for (agent_id, scenario_id), rows in sorted(buckets.items()):
        summary = AgentSummary(agent_id=agent_id, scenario_id=scenario_id, n=len(rows))
        summary.deal_rate = sum(1 for o, _ in rows if o.deal) / len(rows)
        summary.mean_value_claimed = mean(s.value_claimed for _, s in rows)
        summary.mean_points = mean(s.points for _, s in rows)
        summary.mean_value_created = mean(o.value_created for o, _ in rows)
        summary.mean_proportion_of_pie = mean(s.proportion_of_pie for _, s in rows)
        summary.mean_counterpart_sv = mean(s.counterpart_sv for _, s in rows)
        summary.mean_efficiency = mean(o.efficiency for o, _ in rows)
        summaries.append(summary)
    return summaries


OUTCOME_TABLE_COLUMNS = (
    "negotiation_id",
    "exercise",
    "agent_id",
    "counterpart_id",
    "role",
    "deal",
    "value_claimed",
    "points",
    "proportion_of_pie",
    "value_created",
    "counterpart_sv",
    "efficiency",
    "cluster_agent",
    "cluster_dyad",
    "cluster_negotiation",
)


def dyad_id(agent_a: str, agent_b: str, scenario_id: str) -> str:
    pair = "~".join(sorted((agent_a, agent_b)))
    return f"{pair}:{scenario_id}"


def observation_keys(transcript: Transcript, role_name: str) -> dict:
    """The key and cluster columns of one seat's row, shared by the outcome
    and feature tables."""
    agent_id = transcript.role_map[role_name]
    counterpart_id = transcript.role_map[transcript.counterpart_role(role_name)]
    return {
        "negotiation_id": transcript.negotiation_id,
        "exercise": transcript.scenario_id,
        "agent_id": agent_id,
        "counterpart_id": counterpart_id,
        "role": role_name,
        "cluster_agent": agent_id,
        "cluster_dyad": dyad_id(agent_id, counterpart_id, transcript.scenario_id),
        "cluster_negotiation": transcript.negotiation_id,
    }


def outcome_rows(outcome: Outcome, transcript: Transcript) -> list[dict]:
    """Two agent-observation rows per negotiation, in the scenario's role
    order."""
    rows = []
    for role_name, seat in outcome.per_role.items():
        rows.append(
            {
                **observation_keys(transcript, role_name),
                "deal": int(outcome.deal),
                "value_claimed": seat.value_claimed,
                "points": seat.points,
                "proportion_of_pie": seat.proportion_of_pie,
                "value_created": outcome.value_created,
                "counterpart_sv": seat.counterpart_sv,
                "efficiency": outcome.efficiency,
            }
        )
    return rows
