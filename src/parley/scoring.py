"""Outcome extraction and scoring: every metric the analysis pipeline consumes.

Two extractors recover final terms from a transcript. The marker-protocol
extractor (``extract_agreement``, the one the score stage runs) parses the
structured close deterministically; the model-assisted extractor
(``extract_agreement_model``, a cross-check) asks a chat model to read the
transcript against a fixed terms schema. Both enforce the all-issues rule
and code premature closes as impasses.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
from random import Random

from .agents import BackendBinding, ChatModelClient
from .catalog import Assignment, ScenarioSpec, evaluate_assignment
from .errors import EvaluationError, ExtractionConflictError, NotFoundError, ParleyError, ScoringError
from .protocol import Terms, extraction_schema, parse_block, read_price, terms_to_assignment
from .session import Transcript
from .tournament import stable_seed


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


def _normalize(key: str, value: str) -> str | float:
    """A price as a number where it reads as one; any other value as upper-case text."""
    price = read_price(value) if key == "price" else None
    return value.strip().upper() if price is None else price


def extract_agreement(transcript: Transcript, scenario: ScenarioSpec) -> Assignment:
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
    assignment = terms_to_assignment(
        scenario, Terms({str(k).lower(): str(v) for k, v in parsed["terms"].items()})
    )
    # all-issues rule: anything incomplete is an impasse
    return assignment if assignment is not None else Assignment.impasse_marker()


# the columns that lead an agent-observation row, and the cluster columns that
# close it; the outcome and feature tables share both
KEY_COLUMNS = ("negotiation_id", "exercise", "agent_id", "counterpart_id", "role")
CLUSTER_COLUMNS = ("cluster_agent", "cluster_dyad", "cluster_negotiation")


def dyad_id(agent_a: str, agent_b: str, scenario_id: str) -> str:
    pair = "~".join(sorted((agent_a, agent_b)))
    return f"{pair}:{scenario_id}"


def observation_keys(transcript: Transcript, role_name: str) -> dict:
    """The key and cluster columns of one seat's row."""
    agent_id = transcript.role_map[role_name]
    (counterpart_role,) = transcript.role_map.keys() - {role_name}
    counterpart_id = transcript.role_map[counterpart_role]
    keys = (
        transcript.negotiation_id,
        transcript.scenario_id,
        agent_id,
        counterpart_id,
        role_name,
    )
    clusters = (
        agent_id,
        dyad_id(agent_id, counterpart_id, transcript.scenario_id),
        transcript.negotiation_id,
    )
    return dict(zip(KEY_COLUMNS + CLUSTER_COLUMNS, keys + clusters))


# the per-seat metrics of an outcome row, in table order; each can rank agents
RANKING_METRICS = (
    "deal",
    "value_claimed",
    "points",
    "proportion_of_pie",
    "value_created",
    "counterpart_sv",
    "efficiency",
)

OUTCOME_TABLE_COLUMNS = (*KEY_COLUMNS, *RANKING_METRICS, *CLUSTER_COLUMNS)


def score_outcome(
    transcript: Transcript, scenario: ScenarioSpec, terms: Assignment
) -> list[dict]:
    """The negotiation's two outcome rows, one per seat in the scenario's role
    order: the seat's key and cluster columns and its ``RANKING_METRICS``.
    ``points`` and ``proportion_of_pie`` are None outside integrative
    exercises."""
    values, joint = evaluate_assignment(scenario, terms)
    deal = not terms.impasse
    integrative = scenario.kind == "integrative"
    if integrative and deal and joint == 0:
        raise EvaluationError(
            f"negotiation {transcript.negotiation_id}: deal with zero value created"
        )
    rows = []
    for role_name in scenario.role_names:
        counterpart_svi = transcript.svi.get(scenario.counterpart_role(role_name))
        row = {
            **observation_keys(transcript, role_name),
            "deal": int(deal),
            "value_claimed": values[role_name],
            "points": None,
            "proportion_of_pie": None,
            "value_created": joint,
            "counterpart_sv": None if counterpart_svi is None else counterpart_svi.composite,
            "efficiency": len(transcript.utterances),  # messages exchanged
        }
        if integrative:
            row["points"] = int(values[role_name])
            # the seat's share of the final pie; an impasse is 0% for both
            row["proportion_of_pie"] = row["points"] / joint if deal else 0.0
        rows.append(row)
    return rows


# the summary table's columns: an agent's exercise, its seat count, its deal
# rate and the mean of every other ``RANKING_METRICS`` column
SUMMARY_COLUMNS = (
    "agent_id",
    "exercise",
    "n",
    "deal_rate",
    "mean_value_claimed",
    "mean_points",
    "mean_value_created",
    "mean_proportion_of_pie",
    "mean_counterpart_sv",
    "mean_efficiency",
)


def aggregate_outcomes(rows: list[dict]) -> list[dict]:
    """The summary table of outcome rows (one per seat, as ``score_outcome``
    makes them): per-agent, per-exercise means and deal rates, ordered by
    agent and exercise; a metric a seat lacks (None) is left out of its
    mean."""
    if not rows:
        raise EvaluationError("no outcomes to aggregate")
    buckets: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        buckets.setdefault((row["agent_id"], row["exercise"]), []).append(row)

    def mean(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else None

    summaries = []
    for (agent_id, exercise), seats in sorted(buckets.items()):
        values = {"agent_id": agent_id, "exercise": exercise, "n": len(seats)}
        for metric in RANKING_METRICS:
            values[f"mean_{metric}"] = mean(seat[metric] for seat in seats)
        values["deal_rate"] = values["mean_deal"]
        summaries.append({column: values[column] for column in SUMMARY_COLUMNS})
    return summaries


RANKING_COLUMNS = ("agent_id", "samples", "cumulative_mean", "rank")


def ranking_rows(rows: list[dict], metric: str, order_seed: int) -> list[dict]:
    """The rankings table of per-seat outcome rows, by agent and then sample
    count k, from 1 to the most any agent has: the cumulative mean of the
    agent's first k ``metric`` values in a shuffle seeded by ``order_seed``
    and its id (None values skipped; an agent with fewer values keeps its
    last mean), and its rank among all agents at k (higher mean = better
    rank, ties broken by agent id)."""
    if metric not in RANKING_METRICS:
        raise NotFoundError(
            f"unknown metric {metric!r}; valid metrics: {', '.join(RANKING_METRICS)}"
        )
    values: dict[str, list[float]] = {}
    for row in rows:
        if row[metric] is not None:
            values.setdefault(row["agent_id"], []).append(float(row[metric]))
    if not values:
        raise ParleyError(f"no observations carry metric {metric!r}")

    curves: dict[str, list[float]] = {}
    for agent_id, agent_values in values.items():
        Random(stable_seed(order_seed, agent_id)).shuffle(agent_values)
        sums = accumulate(agent_values, initial=0.0)
        curves[agent_id] = [total / k for k, total in enumerate(sums) if k]
    samples = max(len(curve) for curve in curves.values())
    for curve in curves.values():
        curve.extend(curve[-1:] * (samples - len(curve)))

    ranks: dict[tuple[str, int], int] = {}
    for k in range(samples):
        snapshot = sorted((-curve[k], agent_id) for agent_id, curve in curves.items())
        for rank, (_, agent_id) in enumerate(snapshot, start=1):
            ranks[agent_id, k] = rank
    return [
        dict(zip(RANKING_COLUMNS, (agent_id, k + 1, curves[agent_id][k], ranks[agent_id, k])))
        for agent_id in sorted(curves)
        for k in range(samples)
    ]
