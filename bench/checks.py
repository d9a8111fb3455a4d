"""Correctness checks of each workload's outputs.

Each check returns a list of problems (empty when the outputs are right).
Expectations come from the generated inputs, the documented formulas and
the reference computations in ``reference.py``, never from a stored copy of
earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from pathlib import Path
from statistics import fmean

import yaml

import fake_chat
import reference as ref
from inputs import Sizes

OFFERERS = ("fixed_concession", "stonewaller")
# feature columns that count matches of the lexicon of the same name
LEXICON_COLUMNS = ("hedges", "apologies", "gratitude", "first_person_plural")
# Std errors of a fit whose residuals are rounding noise (a response that is
# an exact linear function of the style columns) are themselves rounding
# noise, so they are compared to this absolute floor (standardized units).
SE_FLOOR = 1e-6


class Inputs:
    """The generated config and roster of one run, read back from disk."""

    def __init__(self, workdir: Path):
        self.config = yaml.safe_load((workdir / "config.yaml").read_text())
        roster = yaml.safe_load((workdir / "roster.yaml").read_text())["agents"]
        self.agents = [a["agent_id"] for a in roster]
        self.backend = {a["agent_id"]: a["backend"] for a in roster}
        self.scenarios = {s: ref.Scenario(s) for s in self.config["scenarios"]}
        self.out = workdir / self.config["output_dir"]


def read_csv_table(path: Path) -> list[dict]:
    """Rows of a stamped table, read without the program's table reader."""
    with open(path, newline="") as fh:
        if not fh.readline().startswith("#"):
            raise ValueError(f"{path}: missing provenance line")
        return list(csv.DictReader(fh))


def stable_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def expected_schedule(inputs: Inputs) -> dict[str, dict]:
    """negotiation id -> pairing, from the documented sha256 formulas."""
    schedule = {}
    base_seed = inputs.config["base_seed"]
    for exercise, scenario in inputs.scenarios.items():
        for i, first in enumerate(inputs.agents):
            for j, second in enumerate(inputs.agents):
                seed = stable_seed(base_seed, exercise, first, second)
                role_map = dict(zip(scenario.roles, (first, second)))
                seats = "|".join(f"{r}={a}" for r, a in sorted(role_map.items()))
                neg_id = hashlib.sha256(f"{exercise}|{seats}|{seed}".encode()).hexdigest()[:16]
                schedule[neg_id] = {
                    "exercise": exercise,
                    "role_map": role_map,
                    "seed": seed,
                    "opener": scenario.roles[(i + j) % 2],
                }
    return schedule


def load_store(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip() and not line.startswith("#")]


def check_store(inputs: Inputs, problems: list[str]) -> tuple[dict, list[dict]]:
    """One transcript per scheduled pairing, a matching checkpoint, and the
    session protocol in every transcript."""
    schedule = expected_schedule(inputs)
    records = load_store(inputs.out / "transcripts.jsonl")
    ids = [r["negotiation_id"] for r in records]
    if len(ids) != len(set(ids)) or set(ids) != set(schedule):
        problems.append(
            f"store holds {len(ids)} records ({len(set(ids))} distinct) for "
            f"{len(schedule)} scheduled pairings"
        )
    checkpoint = json.loads((inputs.out / "checkpoint.json").read_text())
    if checkpoint.get("completed") != sorted(schedule) or checkpoint.get("failed"):
        problems.append("checkpoint does not list exactly the scheduled ids")
    for record in records:
        pairing = schedule.get(record["negotiation_id"])
        if pairing is None:
            continue
        scenario = inputs.scenarios[pairing["exercise"]]
        if record["role_map"] != pairing["role_map"] or record["seed"] != pairing["seed"]:
            problems.append(f"{record['negotiation_id']}: seats or seed differ from the schedule")
            continue
        utterances = record["utterances"]
        role = pairing["opener"]
        for k, u in enumerate(utterances):
            if u["index"] != k or u["role_name"] != role or u["speaker_agent_id"] != pairing["role_map"][role]:
                problems.append(f"{record['negotiation_id']}: utterance {k} breaks alternation")
                break
            role = scenario.roles[1 - scenario.roles.index(role)]
        closes = [ref.closing(u["text"], scenario) for u in utterances]
        termination = record["termination"]
        if len(utterances) > scenario.cap or any(closes[:-1]):
            problems.append(f"{record['negotiation_id']}: ran past a close or the cap")
        elif termination == "cap_reached":
            if len(utterances) != scenario.cap:
                problems.append(f"{record['negotiation_id']}: cap_reached after {len(utterances)}")
        elif not closes or closes[-1] != termination:
            problems.append(
                f"{record['negotiation_id']}: {termination} but the last utterance does not close so"
            )
    return schedule, records


def final_terms(record: dict, scenario: ref.Scenario) -> dict | None:
    if record["termination"] != "accepted":
        return None
    return scenario.terms(ref.block_pairs(record["utterances"][-1]["text"], "TERMS"))


def _first_offer(backend: dict, role: str, scenario: ref.Scenario) -> dict:
    params = backend.get("policy_params", {})
    if backend["policy_name"] == "fixed_concession":
        if scenario.kind == "distributive":
            return {"price": float(params["ladder"][0])}
        return {key: params["label_ladder"][0] for key in scenario.issues}
    if scenario.kind == "integrative":
        # stonewaller demands its own best option on every issue (first of ties)
        return {
            key: max(options, key=lambda label: options[label][role])
            for key, options in scenario.issues.items()
        }
    if "demand_price" in params:
        return {"price": float(params["demand_price"])}
    if role == scenario.roles[0]:
        return {"price": float(scenario.price_frame.get("original_new_price", 0))}
    return {"price": 0.0}


def check_scripted_outcomes(inputs: Inputs, schedule: dict, records: list[dict], problems: list[str]):
    """Outcomes the scripted policies fix: an offerer meeting an acceptor
    closes on the offerer's first offer; every other pairing runs to the cap;
    questionnaires carry the policy's rating (none for silent agents)."""
    for record in records:
        pairing = schedule[record["negotiation_id"]]
        scenario = inputs.scenarios[pairing["exercise"]]
        policies = {r: inputs.backend[a]["policy_name"] for r, a in pairing["role_map"].items()}
        offerer = [r for r, p in policies.items() if p in OFFERERS]
        acceptor = [r for r, p in policies.items() if p == "immediate_acceptor"]
        n = len(record["utterances"])
        if len(offerer) == 1 and len(acceptor) == 1:
            role = offerer[0]
            expected = _first_offer(inputs.backend[pairing["role_map"][role]], role, scenario)
            want_n = 2 if pairing["opener"] == role else 3
            if record["termination"] != "accepted" or n != want_n or final_terms(record, scenario) != expected:
                problems.append(
                    f"{record['negotiation_id']}: offerer vs acceptor should close on {expected} "
                    f"after {want_n} utterances, got {record['termination']} after {n}"
                )
        elif record["termination"] != "cap_reached":
            problems.append(f"{record['negotiation_id']}: {policies} should reach the cap")
        for role, agent in pairing["role_map"].items():
            backend = inputs.backend[agent]
            svi = record["svi"].get(role)
            if backend["policy_name"] == "silent":
                ok = svi is None
            else:
                ok = svi is not None and svi["composite"] == backend["policy_params"]["svi_rating"]
            if not ok:
                problems.append(f"{record['negotiation_id']}: questionnaire of {role} is {svi}")


# ---------------------------------------------------------------------------
# workloads


def check_executed(rounds: list[dict], sizes: Sizes, problems: list[str]) -> None:
    for k, r in enumerate(rounds):
        if r["executed"] != sizes.negotiations or r["run_failed"]:
            problems.append(
                f"round {k}: executed {r['executed']} of {sizes.negotiations}, failed {r['run_failed']}"
            )


def check_tournament_chat(inputs: Inputs, sizes: Sizes, rounds: list[dict]) -> list[str]:
    problems: list[str] = []
    schedule, records = check_store(inputs, problems)
    check_executed(rounds, sizes, problems)
    items = len(yaml.safe_load((ref.DATA_DIR / "svi_items.yaml").read_text())["items"])
    expected_requests = 0
    for record in records:
        seed = record["seed"]
        length, termination = fake_chat.plan(seed)
        expected_requests += length + 2
        if len(record["utterances"]) != length or record["termination"] != termination:
            problems.append(
                f"{record['negotiation_id']}: {record['termination']} after "
                f"{len(record['utterances'])}, rules imply {termination} after {length}"
            )
        composite = fmean(fake_chat.svi_rating(seed, n) for n in range(1, items + 1))
        for role, svi in record["svi"].items():
            if svi is None or not ref.close(svi["composite"], composite):
                problems.append(f"{record['negotiation_id']}: questionnaire of {role} is {svi}")
    stored = sum(len(r["utterances"]) for r in records)
    if stored + 2 * len(records) != expected_requests:
        problems.append(f"store holds {stored} utterances, rules imply {expected_requests - 2 * len(records)}")
    for k, r in enumerate(rounds):
        if not r["transport_calls"] == r["usage"]["requests"] == expected_requests:
            problems.append(
                f"round {k}: transport saw {r['transport_calls']} requests, client counted "
                f"{r['usage']['requests']}, expected {expected_requests}"
            )
        floor = expected_requests * sizes.latency_s / sizes.concurrency_limit
        if r["wall_s"] < floor:
            problems.append(f"round {k}: wall {r['wall_s']:.3f} s below the latency floor {floor:.3f} s")
    return problems


def _styles(out: Path) -> dict[str, tuple[float, float]]:
    return {r["agent_id"]: (float(r["warmth"]), float(r["dominance"])) for r in read_csv_table(out / "style.csv")}


def _compare_fit(key: str, model: dict, beta, se, n, problems: list[str]) -> None:
    coefs = model["coefficients"]
    names = ["intercept", "warmth", "dominance"]
    if model["n"] != n or sorted(coefs) != sorted(names):
        problems.append(f"{key}: n={model['n']} terms={sorted(coefs)}, reference n={n}")
        return
    for name, b, s in zip(names, beta, se):
        if not ref.close(coefs[name]["estimate"], b):
            problems.append(f"{key}: {name} estimate {coefs[name]['estimate']!r} != reference {b!r}")
        if not ref.close(coefs[name]["std_error"], s, floor=SE_FLOOR):
            problems.append(f"{key}: {name} std_error {coefs[name]['std_error']!r} != reference {s!r}")


def check_pipeline_scripted(inputs: Inputs, sizes: Sizes, rounds: list[dict]) -> list[str]:
    problems: list[str] = []
    schedule, records = check_store(inputs, problems)
    check_scripted_outcomes(inputs, schedule, records, problems)
    check_executed(rounds, sizes, problems)
    by_id = {r["negotiation_id"]: r for r in records}
    outcomes = read_csv_table(inputs.out / "outcomes.csv")
    features = read_csv_table(inputs.out / "features.csv")
    for name, table in (("outcomes", outcomes), ("features", features)):
        per_neg = defaultdict(list)
        for row in table:
            per_neg[row["negotiation_id"]].append(row["role"])
        if set(per_neg) != set(schedule) or any(
            sorted(roles) != sorted(inputs.scenarios[schedule[i]["exercise"]].roles)
            for i, roles in per_neg.items()
        ):
            problems.append(f"{name}.csv does not hold one row per seat of every negotiation")
    check_outcome_rows(inputs, by_id, outcomes, problems)
    check_feature_rows(by_id, features, problems)

    styles = _styles(inputs.out)
    results = json.loads((inputs.out / "analysis" / "analysis_results.json").read_text())["models"]
    standardize = inputs.config.get("standardize", True)
    for key, model in sorted(results.items()):
        if "skipped" in model:
            continue
        if key.startswith("features_"):
            rows, column = features, key[len("features_"):]
        else:
            exercise, column = key.split("_", 1)
            rows = [r for r in outcomes if r["exercise"] == exercise]
        beta, se, n = ref.clustered_fit(rows, styles, column, model["family"], standardize)
        _compare_fit(key, model, beta, se, n, problems)

    summary = read_csv_table(inputs.out / "summary.csv")
    deals = defaultdict(list)
    for row in outcomes:
        deals[(row["agent_id"], row["exercise"])].append(int(row["deal"]))
    got = {(r["agent_id"], r["exercise"]): (int(r["n"]), float(r["deal_rate"])) for r in summary}
    want = {k: (len(v), sum(v) / len(v)) for k, v in deals.items()}
    if got.keys() != want.keys() or any(
        got[k][0] != want[k][0] or not ref.close(got[k][1], want[k][1]) for k in want
    ):
        problems.append("summary.csv deal rates differ from those of outcomes.csv")
    return problems


def check_outcome_rows(inputs: Inputs, by_id: dict, outcomes: list[dict], problems: list[str]):
    """Payoffs recomputed from the YAML tables for the closing terms;
    distributive deals split exactly the BATNA surplus."""
    for row in outcomes:
        record = by_id.get(row["negotiation_id"])
        if record is None:
            continue
        scenario = inputs.scenarios[row["exercise"]]
        terms = final_terms(record, scenario)
        values = scenario.payoffs(terms)
        role = row["role"]
        other = scenario.roles[1 - scenario.roles.index(role)]
        agent, counterpart = record["role_map"][role], record["role_map"][other]
        dyad = "~".join(sorted((agent, counterpart))) + ":" + row["exercise"]
        svi = record["svi"].get(other)
        expect = {
            "deal": int(terms is not None),
            "value_claimed": values[role],
            "value_created": sum(values.values()),
            "counterpart_sv": None if svi is None else svi["composite"],
            "efficiency": len(record["utterances"]),
        }
        if scenario.kind == "integrative":
            expect["points"] = values[role]
        elif terms is not None and not ref.close(
            sum(values.values()), scenario.batna[scenario.roles[1]] - scenario.batna[scenario.roles[0]]
        ):
            problems.append(f"{row['negotiation_id']}: distributive deal does not conserve surplus")
        for column, value in expect.items():
            raw = row.get(column, "")
            if (value is None) != (raw == "") or (value is not None and not ref.close(float(raw), value)):
                problems.append(f"{row['negotiation_id']} {role}: {column}={raw!r}, reference {value!r}")
        if (row["agent_id"], row["counterpart_id"], row["cluster_agent"], row["cluster_dyad"], row["cluster_negotiation"]) != (
            agent, counterpart, agent, dyad, row["negotiation_id"]
        ):
            problems.append(f"{row['negotiation_id']} {role}: key columns differ from the transcript")


def check_feature_rows(by_id: dict, features: list[dict], problems: list[str]):
    """Word, question and lexicon counts redone with the reference matcher;
    mimicry is a cosine mean, so it lies in [0, 1]."""
    lexicons = {name: ref.load_lexicon(name) for name in (*LEXICON_COLUMNS, "sentiment")}
    for row in features:
        record = by_id.get(row["negotiation_id"])
        if record is None:
            continue
        role = row["role"]
        utterances = record["utterances"]
        own = [u["text"] for u in utterances if u["role_name"] == role]
        expect = {
            "message_length": fmean(ref.word_count(t) for t in own),
            "questions": fmean(ref.question_count(t) for t in own),
        }
        for column in LEXICON_COLUMNS:
            expect[column] = fmean(len(ref.lexicon_matches(t, lexicons[column][0])) for t in own)
        phrases, polarity = lexicons["sentiment"]
        per_utterance = []
        for text in own:
            scores = [polarity[p] for p in ref.lexicon_matches(text, phrases)]
            per_utterance.append(sum(scores) / len(scores) if scores else 0.0)
        expect["positivity"] = fmean(per_utterance)
        for column, value in expect.items():
            if not ref.close(float(row[column]), value, rel=1e-9):
                problems.append(f"{row['negotiation_id']} {role}: {column}={row[column]!r}, reference {value!r}")
        replies = sum(
            1 for k in range(1, len(utterances))
            if utterances[k]["role_name"] == role and utterances[k - 1]["role_name"] != role
        )
        mimicry = row["mimicry"]
        if (replies == 0) != (mimicry == "") or (mimicry != "" and not 0.0 <= float(mimicry) <= 1.0 + 1e-12):
            problems.append(f"{row['negotiation_id']} {role}: mimicry={mimicry!r} after {replies} replies")


CHECKS = {
    "pipeline_scripted": check_pipeline_scripted,
    "tournament_chat": check_tournament_chat,
}
