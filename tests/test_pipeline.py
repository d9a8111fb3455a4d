import hashlib
import json
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from click.testing import CliRunner

from parley.agents import ChatModelClient
from parley.cli import main as cli_main
from parley.errors import ArtifactMismatchError, PrerequisiteError, SchemaError
from parley.features import FEATURE_TABLE_COLUMNS, feature_rows, load_default_lexicons
from parley.pipeline import (
    HEATMAP_COLUMNS,
    Pipeline,
    build_observation_rows,
    emit_fit,
    heatmap_rows,
    load_config,
)
from parley.scoring import (
    OUTCOME_TABLE_COLUMNS,
    RANKING_COLUMNS,
    SUMMARY_COLUMNS,
    aggregate_outcomes,
    extract_agreement,
    ranking_rows,
    score_outcome,
)
from parley.stats import ModelSpec, fit_with_clusters
from parley.style import STYLE_TABLE_COLUMNS
from parley.tables import read_table, write_table
from parley.tournament import TranscriptStore

from conftest import make_transcript

ROSTER = {
    "agents": [
        {"agent_id": "acceptor", "backend": {"kind": "scripted", "policy_name": "immediate_acceptor", "policy_params": {"svi_rating": 6}}},
        {
            "agent_id": "ladder",
            "backend": {
                "kind": "scripted",
                "policy_name": "fixed_concession",
                "policy_params": {"ladder": [150, 130, 110], "label_ladder": ["B", "C"], "svi_rating": 5},
            },
        },
        {"agent_id": "wall", "backend": {"kind": "scripted", "policy_name": "stonewaller", "policy_params": {"svi_rating": 2}}},
        {"agent_id": "echo", "backend": {"kind": "scripted", "policy_name": "mirror"}},
        {"agent_id": "mute", "backend": {"kind": "scripted", "policy_name": "silent"}},
    ]
}


def write_workspace(tmp_path, scenarios=("chair",), agents=None, extra=None):
    roster = {"agents": agents or ROSTER["agents"]}
    (tmp_path / "roster.yaml").write_text(yaml.safe_dump(roster))
    config = {
        "roster": "roster.yaml",
        "scenarios": list(scenarios),
        "output_dir": "out",
        "base_seed": 7,
        "concurrency_limit": 4,
        "style": {"mode": "synthetic", "seed": 11},
    }
    config.update(extra or {})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


# ---------------------------------------------------------------------------
# Config


@pytest.mark.parametrize(
    "file, damage, message",
    [
        ("config.yaml", lambda raw: raw.pop("output_dir"), "top level missing field 'output_dir'"),
        ("roster.yaml", lambda raw: raw["agents"][0].pop("agent_id"),
         "agent record missing field 'agent_id'"),
        ("chair.yaml", lambda raw: raw.pop("kind"), "top level missing field 'kind'"),
        ("chair.yaml", lambda raw: raw["roles"][1].pop("role_name"),
         "roles[1] missing field 'role_name'"),
        ("rental.yaml", lambda raw: raw["issues"][2].pop("issue_name"),
         "issues[2] missing field 'issue_name'"),
        ("rental.yaml", lambda raw: raw["issues"][1]["options"][3].pop("term"),
         "issue 'Deposit' option missing field 'term'"),
    ],
    ids=["config", "roster", "scenario", "role", "issue", "option"],
)
def test_every_reader_refuses_a_missing_key_in_one_form(tmp_path, file, damage, message):
    from importlib import resources

    write_workspace(tmp_path)
    for name in ("chair", "rental"):
        text = (resources.files("parley.data.scenarios") / f"{name}.yaml").read_text()
        (tmp_path / f"{name}.yaml").write_text(text)
    path = tmp_path / file
    raw = yaml.safe_load(path.read_text())
    damage(raw)
    path.write_text(yaml.safe_dump(raw))
    command = {"config.yaml": ["run", "--config"], "roster.yaml": ["roster", "validate"]}
    result = CliRunner().invoke(cli_main, [*command.get(file, ["catalog"]), str(path)])
    assert result.exit_code == 2, result.output
    assert f"{path}: {message}\n" in result.output
    assert "Traceback" not in result.output


def test_config_requires_core_keys(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"roster": "r.yaml"}))
    with pytest.raises(SchemaError, match="scenarios"):
        load_config(path)


def test_config_hash_stable_and_sensitive(tmp_path):
    path = write_workspace(tmp_path)
    first = load_config(path).config_hash
    second = load_config(path).config_hash
    assert first == second
    path2 = write_workspace(tmp_path, extra={"base_seed": 8})
    assert load_config(path2).config_hash != first


def test_default_temperature_is_020(tmp_path):
    path = write_workspace(tmp_path)
    config = load_config(path)
    assert config.backend_defaults.get("temperature", 0.20) == pytest.approx(0.20)
    bad = write_workspace(tmp_path, extra={"backend": {"temperature": 3.0}})
    with pytest.raises(SchemaError, match="temperature"):
        load_config(bad)


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"base_seed": "seven"}, "base_seed"),
        ({"base_seed": 7.5}, "base_seed"),
        ({"base_seed": True}, "base_seed"),
        ({"concurrency_limit": "4"}, "concurrency_limit"),
        ({"heatmap_bins": [10]}, "heatmap_bins"),
        ({"heatmap_bins": 0}, "heatmap_bins"),
        ({"style": {"mode": "synthetic", "seed": "eleven"}}, "style.seed"),
        ({"style": "synthetic"}, "style"),
        ({"style": {"mode": "model", "rater": "gpt"}}, "style.rater"),
        ({"backend": ["chat_model"]}, "backend"),
        ({"backend": {"temperature": "warm"}}, "backend.temperature"),
        ({"scenarios": "chair"}, "scenarios"),
        ({"analysis_terms": "main"}, "analysis_terms"),
        ({"standardize": "no"}, "standardize"),
        ({"small_sample": 1}, "small_sample"),
        ({"concurrency_limit": 0}, "concurrency_limit"),
        # config-level backend defaults are checked at config load, even when
        # no agent of the roster takes them
        ({"backend": {"max_reply_tokens": "lots"}}, "backend.max_reply_tokens"),
        ({"backend": {"max_reply_tokens": 0}}, "backend.max_reply_tokens"),
        ({"backend": {"temperature": 3.0}}, "backend.temperature"),
        ({"backend": {"kind": 5}}, "backend.kind"),
        ({"backend": {"model_name": 5}}, "backend.model_name"),
        ({"backend": {"endpoint": 7}}, "backend.endpoint"),
        ({"backend": {"policy_name": ["mirror"]}}, "backend.policy_name"),
        ({"backend": {"api_key": 1234}}, "backend.api_key"),
        # the style rater is checked at load too, not when the style stage
        # builds its binding
        ({"style": {"mode": "model", "rater": {"temperature": "warm"}}},
         "style.rater.temperature"),
        ({"style": {"mode": "model", "rater": {"temperature": 2.5}}},
         "style.rater.temperature"),
        ({"style": {"mode": "model", "rater": {"model_name": 5}}}, "style.rater.model_name"),
        ({"style": {"mode": "model", "rater": {"endpoint": None}}}, "style.rater.endpoint"),
        # values checked against their choices and bounds at load, and a
        # model rater without a model or an endpoint refused before any
        # negotiation is played
        ({"ranking_metric": ["value_claimed"]}, "ranking_metric"),
        ({"analysis_terms": ["cubic"]}, "analysis_terms[0]"),
        ({"style": {"mode": "synthetc"}}, "style.mode"),
        ({"style": {"mode": "model", "rater": {"temperature": 0.0}}}, "style.rater.model_name"),
        ({"style": {"mode": "model", "rater": {"model_name": "r"}}}, "style.rater.endpoint"),
        # a key the reader does not read is refused, not ignored
        ({"concurency_limit": 8}, "top level key"),
        ({"backend": {"temprature": 1.5}}, "backend key"),
        ({"style": {"mod": "model"}}, "style key"),
        ({"style": {"rater": {"temprature": 0.5}}}, "style.rater key"),
        # each scenario entry is a name or a path
        ({"scenarios": [5]}, "scenarios[0]"),
    ],
)
def test_malformed_config_value_exits_2_naming_file_and_key(tmp_path, extra, key):
    path = write_workspace(tmp_path, extra=extra)
    result = CliRunner().invoke(cli_main, ["run", "--config", str(path), "--stages", "run"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{path}: {key} must be" in result.output
    assert "Traceback" not in result.output
    # refused at load, before any stage
    assert not (tmp_path / "out").exists()


def scripted_backend(**extra):
    return {"kind": "scripted", "policy_name": "immediate_acceptor", **extra}


@pytest.mark.parametrize(
    "agents, key",
    [
        ([{"agent_id": "a", "backend": scripted_backend(temperature="hot")}],
         "agent 'a' backend.temperature"),
        ([{"agent_id": "a", "backend": "scripted"}], "agent 'a' backend"),
        (3, "agents"),
        ([3], "agents[0]"),
        ([{"agent_id": "a", "backend": scripted_backend(max_reply_tokens="lots")}],
         "agent 'a' backend.max_reply_tokens"),
        ([{"agent_id": "a", "backend": scripted_backend(max_reply_tokens=0)}],
         "agent 'a' backend.max_reply_tokens"),
        ([{"agent_id": "a", "backend": scripted_backend(policy_params=[1, 2])}],
         "agent 'a' backend.policy_params"),
        ([{"agent_id": "a", "backend": {"kind": 5, "policy_name": "mirror"}}],
         "agent 'a' backend.kind"),
        ([{"agent_id": "a", "prompt": "p",
           "backend": {"kind": "chat_model", "model_name": 5, "endpoint": "http://e"}}],
         "agent 'a' backend.model_name"),
        ([{"agent_id": "a", "prompt": "p",
           "backend": {"kind": "chat_model", "model_name": "m", "endpoint": 7}}],
         "agent 'a' backend.endpoint"),
        ([{"agent_id": "a", "backend": {"kind": "scripted", "policy_name": 3}}],
         "agent 'a' backend.policy_name"),
        ([{"agent_id": "a", "prompt": "p", "backend": {
            "kind": "chat_model", "model_name": "m", "endpoint": "http://e", "temperature": 5}}],
         "agent 'a' backend.temperature"),
        ([{"agent_id": "a", "prompt": "p", "backend": {"kind": "chat_model", "model_name": "m"}}],
         "agent 'a' backend.endpoint"),
        ([{"agent_id": "a", "backend": {"kind": "gpt", "policy_name": "mirror"}}],
         "agent 'a' backend.kind"),
        ([{"agent_id": "a", "backend": scripted_backend(model_name="m")}],
         "agent 'a' backend.model_name"),
        ([{"agent_id": "a", "backend": scripted_backend(policy_params={"svi_rating": 9})}],
         "agent 'a' backend.policy_params.svi_rating"),
        ([{"agent_id": "a", "backend": scripted_backend(policy_params={"svi_rating": "x"})}],
         "agent 'a' backend.policy_params.svi_rating"),
        ([{"agent_id": "a", "backend": scripted_backend(
            policy_name="fixed_concession", policy_params={"ladder": []})}],
         "agent 'a' backend.policy_params.ladder"),
        ([{"agent_id": "a", "backend": scripted_backend(
            policy_name="fixed_concession", policy_params={"ladder": ["a"]})}],
         "agent 'a' backend.policy_params.ladder[0]"),
        ([{"agent_id": "a", "backend": scripted_backend(
            policy_name="stonewaller", policy_params={"demand_price": -1})}],
         "agent 'a' backend.policy_params.demand_price"),
        ([{"agent_id": "a", "backend": scripted_backend(
            policy_name="mirror", policy_params={"opener": 3})}],
         "agent 'a' backend.policy_params.opener"),
        ([{"agent_id": "a", "backend": scripted_backend(policy_params={"svi_ratting": 6})}],
         "agent 'a' backend.policy_params key"),
        ([{"agent_id": "a", "prompt": "p", "backend": {
            "kind": "chat_model", "model_name": "m", "endpoint": "http://e", "temprature": 1.5}}],
         "agent 'a' backend key"),
        ([{"agent_id": "a", "prompt": "p", "backend": {
            "kind": "chat_model", "model_name": "m", "endpoint": "http://e", "max_reply_token": 5}}],
         "agent 'a' backend key"),
        ([{"agent_id": "a", "backend": scripted_backend(api_key="k")}], "agent 'a' backend key"),
        ([{"agent_id": "a", "promt": "p", "backend": scripted_backend()}], "agent 'a' key"),
        # names and prompts are strings as written, not converted with str()
        ([{"agent_id": 7, "backend": scripted_backend()}], "agent_id"),
        ([{"agent_id": "a", "nickname": 7, "backend": scripted_backend()}], "agent 'a' nickname"),
        ([{"agent_id": "a", "prompt": ["be", "warm"], "backend": scripted_backend()}],
         "agent 'a' prompt"),
    ],
    ids=[
        "temperature", "backend", "agents", "agent-record", "max_reply_tokens",
        "max_reply_tokens-zero", "policy_params", "kind", "model_name", "endpoint",
        "policy_name", "temperature-range", "chat-without-endpoint", "kind-unknown",
        "scripted-with-model_name", "svi_rating-range", "svi_rating-string", "ladder-empty",
        "ladder-string", "demand_price-negative", "opener-number", "policy_params-unknown-key",
        "backend-unknown-key", "backend-unknown-key-max_reply_token", "backend-api_key",
        "record-unknown-key", "agent_id-number", "nickname-number", "prompt-list",
    ],
)
def test_mistyped_roster_value_exits_2_naming_file_and_key(tmp_path, agents, key):
    path = write_workspace(tmp_path, agents=agents)
    roster = tmp_path / "roster.yaml"
    for args in (["run", "--config", str(path), "--stages", "run"], ["roster", "validate", str(roster)]):
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 2, result.output
        assert f"{roster}: {key} must be" in result.output
        assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "transcripts.jsonl").exists()


@pytest.mark.parametrize(
    "questionnaire, key",
    [
        ({"schema_version": 1}, "items"),
        ({"items": [{"id": 1, "text": "How satisfied are you?"}]}, "items[0].facet"),
    ],
    ids=["no-items", "item-without-facet"],
)
def test_malformed_questionnaire_exits_2_naming_file_and_key(tmp_path, questionnaire, key):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2], extra={"svi_items": "svi.yaml"})
    (tmp_path / "svi.yaml").write_text(yaml.safe_dump(questionnaire))
    result = CliRunner().invoke(cli_main, ["run", "--config", str(path), "--stages", "run,score"])
    assert result.exit_code == 2, result.output
    assert f"{tmp_path / 'svi.yaml'}: {key} must be" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "transcripts.jsonl").exists()


def test_model_rater_gets_a_chat_client(tmp_path, monkeypatch):
    # a scripted roster has no endpoint of its own; the model rater still
    # needs a client
    rated = []

    def rater(endpoint, payload, api_key, timeout):
        rated.append((endpoint, payload["model"], payload["temperature"]))
        reply = '{"warmth_score": 60, "dominance_score": 40}'
        return {"choices": [{"message": {"content": reply}, "finish_reason": "stop"}]}

    monkeypatch.setattr("parley.agents._http_transport", rater)
    agents = [dict(a, prompt=f"Play as {a['agent_id']}.") for a in ROSTER["agents"][:2]]
    style = {"mode": "model", "rater": {"model_name": "r", "endpoint": "https://rater.invalid/v1",
                                        "temperature": 0.5}}
    path = write_workspace(tmp_path, agents=agents, extra={"style": style})
    result = CliRunner().invoke(cli_main, ["run", "--config", str(path), "--stages", "run,score,style"])
    assert result.exit_code == 0, result.output
    assert rated == [("https://rater.invalid/v1", "r", 0.5)] * 2
    _, rows = read_table(tmp_path / "out" / "style.csv", load_config(path).config_hash)
    assert [(r["agent_id"], r["rater"]) for r in rows] == [("acceptor", "r"), ("ladder", "r")]


def test_chat_agent_with_its_own_endpoint_gets_a_chat_client(tmp_path, monkeypatch):
    # the config sets no backend endpoint; the agent's own is enough
    asked = []

    def walk_away(endpoint, payload, api_key, timeout):
        asked.append(endpoint)
        return {"choices": [{"message": {"content": "[WALKAWAY]"}, "finish_reason": "stop"}]}

    monkeypatch.setattr("parley.agents._http_transport", walk_away)
    model = {"agent_id": "model", "prompt": "Negotiate.",
             "backend": {"kind": "chat_model", "model_name": "m", "endpoint": "https://own.invalid/v1"}}
    path = write_workspace(tmp_path, agents=[model, ROSTER["agents"][2]])
    result = CliRunner().invoke(cli_main, ["resume", "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert "executed=4 skipped=0 failed=0" in result.output
    assert set(asked) == {"https://own.invalid/v1"}


def test_config_api_key_reaches_the_client_and_not_the_agents(tmp_path):
    # the per-agent key check refuses an agent's own api_key, but not the
    # config's, which the chat models' defaults carry with them
    model = {"agent_id": "model", "prompt": "Negotiate."}
    backend = {"model_name": "m", "endpoint": "https://own.invalid/v1", "api_key": "k"}
    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=[model], extra={"backend": backend})))
    (agent,) = pipeline.roster
    assert (agent.backend.model_name, agent.backend.endpoint) == ("m", "https://own.invalid/v1")
    assert pipeline.client.api_key == "k"


def test_model_rated_style_refuses_an_agent_without_a_prompt_before_the_run(tmp_path):
    style = {"mode": "model", "rater": {"model_name": "r", "endpoint": "https://rater.invalid/v1"}}
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2], extra={"style": style})
    result = CliRunner().invoke(cli_main, ["run", "--config", str(path), "--stages", ",".join(SIX_STAGES)])
    assert result.exit_code == 2, result.output
    roster = tmp_path / "roster.yaml"
    assert f"{roster}: agent 'acceptor' prompt must be set when style.mode is model" in result.output
    assert not (tmp_path / "out" / "transcripts.jsonl").exists()
    assert not (tmp_path / "out" / "outcomes.csv").exists()


def test_relative_config_path_resolves_checkpoint_once(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    write_workspace(sub)
    monkeypatch.chdir(tmp_path)
    config = load_config("sub/config.yaml")
    assert config.checkpoint_path == Path("sub/out/checkpoint.json")


# ---------------------------------------------------------------------------
# Stage ordering and prerequisites


def test_analyze_without_outcomes_is_prerequisite_error(tmp_path):
    config = load_config(write_workspace(tmp_path))
    pipeline = Pipeline(config)
    with pytest.raises(PrerequisiteError, match="score|style"):
        pipeline.run_stages(["analyze"])


def test_score_without_transcripts_is_prerequisite_error(tmp_path):
    config = load_config(write_workspace(tmp_path))
    pipeline = Pipeline(config)
    with pytest.raises(PrerequisiteError, match="run"):
        pipeline.run_stages(["score"])


def test_reading_stage_without_transcripts_fails_before_any_stage_writes(tmp_path):
    pipeline = Pipeline(load_config(write_workspace(tmp_path)))
    with pytest.raises(PrerequisiteError, match="run"):
        pipeline.run_stages(["style", "report"])
    assert not pipeline.style_path.exists()
    assert not pipeline.transcripts_path.exists()


def test_bad_roster_with_a_reading_stage_leaves_no_store(tmp_path):
    agents = [{"agent_id": "a", "backend": {"kind": "scripted", "policy_name": "nosuch"}}]
    path = write_workspace(tmp_path, agents=agents)
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run,score"])
    assert result.exit_code == 2, result.output
    assert "nosuch" in result.output
    assert not (tmp_path / "out" / "transcripts.jsonl").exists()
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score"])
    assert result.exit_code == 2, result.output
    assert "run the 'run' stage first" in result.output
    assert not (tmp_path / "out" / "outcomes.csv").exists()


@pytest.mark.parametrize(
    "extra, command, exit_code",
    [
        ({"checkpoint": "nodir/ckpt.json"}, ["run", "--stages", "run,score"], 2),
        ({}, ["status"], 0),
    ],
    ids=["unwritable-checkpoint", "status"],
)
def test_store_is_created_by_its_first_append(tmp_path, extra, command, exit_code):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:1], extra=extra)
    runner = CliRunner()
    result = runner.invoke(cli_main, [*command, "--config", str(path)])
    assert result.exit_code == exit_code, result.output
    assert not (tmp_path / "out" / "transcripts.jsonl").exists()
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score"])
    assert result.exit_code == 2, result.output
    assert "run the 'run' stage first" in result.output
    assert not (tmp_path / "out" / "outcomes.csv").exists()


def test_tournament_stage_produces_n_squared_transcripts(tmp_path):
    config = load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3]))
    pipeline = Pipeline(config)
    report = pipeline.run_stages(["run"])["run"]
    assert report.executed == 9
    assert pipeline.transcripts_path.exists()
    lines = pipeline.transcripts_path.read_text().strip().splitlines()
    assert lines[0].startswith(f"# parley=") and config.config_hash in lines[0]
    assert len(lines) == 10  # provenance stamp + one record per negotiation


def test_score_and_feature_tables_have_two_rows_per_negotiation(tmp_path):
    config = load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3]))
    pipeline = Pipeline(config)
    pipeline.run_stages(["run", "score", "features"])
    _, outcome_rows = read_table(pipeline.outcomes_path)
    _, feature_rows = read_table(pipeline.features_path)
    assert len(outcome_rows) == 18
    assert len(feature_rows) == 18
    # the same seats, in negotiation-id order in both tables; within a
    # negotiation, outcomes follow chair's role order and features sorted
    # role names
    outcome_seats = [(r["negotiation_id"], r["role"]) for r in outcome_rows]
    feature_seats = [(r["negotiation_id"], r["role"]) for r in feature_rows]
    assert sorted(outcome_seats) == sorted(feature_seats)
    assert len(set(outcome_seats)) == 18
    assert [n for n, _ in outcome_seats] == [n for n, _ in feature_seats]
    assert [role for _, role in outcome_seats] == ["seller", "buyer"] * 9
    assert [role for _, role in feature_seats] == ["buyer", "seller"] * 9


def test_artifacts_stamped_and_mismatch_refused(tmp_path):
    config = load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:2]))
    pipeline = Pipeline(config)
    pipeline.run_stages(["run", "score", "features", "style"])
    meta, _ = read_table(pipeline.outcomes_path)
    assert meta["config"] == config.config_hash

    # a config change invalidates previously produced artifacts
    changed = load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:2], extra={"base_seed": 99}))
    stale = Pipeline(changed)
    with pytest.raises(ArtifactMismatchError):
        stale.run_stages(["analyze"])


def test_rerun_rewrites_identical_data_artifacts(tmp_path):
    def snapshot(pipeline):
        paths = [
            pipeline.transcripts_path,
            pipeline.outcomes_path,
            pipeline.features_path,
            pipeline.style_path,
            pipeline.config.output_dir / "summary.csv",
        ]
        paths += sorted(pipeline.analysis_dir.glob("*"))
        return {str(p.relative_to(pipeline.config.output_dir)): p.read_bytes() for p in paths}

    stages = ["score", "features", "style", "analyze", "report"]
    config = load_config(write_workspace(tmp_path))
    pipeline = Pipeline(config)
    pipeline.run_stages(["run"] + stages)
    first = snapshot(pipeline)
    pipeline2 = Pipeline(load_config(tmp_path / "config.yaml"))
    pipeline2.run_stages(stages)
    assert snapshot(pipeline2) == first


# summary.csv and the value-claimed rankings of three scripted agents over
# chair and rental; a change in what report sums, or in the order it sums
# them, changes these bytes
SUMMARY_GOLDEN = (
    "# parley=0.1.0 config=5a2e3c54c5658535\n"
    "agent_id,exercise,n,deal_rate,mean_value_claimed,mean_points,mean_value_created,"
    "mean_proportion_of_pie,mean_counterpart_sv,mean_efficiency\r\n"
    "acceptor,chair,6,0.6666666666666666,-6.666666666666667,,53.333333333333336,,"
    "4.333333333333333,35.0\r\n"
    "acceptor,rental,6,0.6666666666666666,1466.6666666666667,1466.6666666666667,"
    "3633.3333333333335,0.2719298245614035,4.333333333333333,35.0\r\n"
    "ladder,chair,6,0.3333333333333333,13.333333333333334,,26.666666666666668,,"
    "4.333333333333333,67.5\r\n"
    "ladder,rental,6,0.3333333333333333,866.6666666666666,866.6666666666666,"
    "1733.3333333333333,0.16666666666666666,4.333333333333333,67.5\r\n"
    "wall,chair,6,0.3333333333333333,46.666666666666664,,26.666666666666668,,"
    "4.333333333333333,67.5\r\n"
    "wall,rental,6,0.3333333333333333,1300.0,1300.0,1900.0,0.2280701754385965,"
    "4.333333333333333,67.5\r\n"
)
RANKINGS_GOLDEN = (
    "# parley=0.1.0 config=5a2e3c54c5658535\n"
    "agent_id,samples,cumulative_mean,rank\r\n"
) + "".join(
    f"{row}\r\n"
    for row in (
        "acceptor,1,1800.0,2", "acceptor,2,955.0,2", "acceptor,3,636.6666666666666,2",
        "acceptor,4,467.5,2", "acceptor,5,358.0,2", "acceptor,6,698.3333333333334,2",
        "acceptor,7,594.2857142857143,2", "acceptor,8,870.0,2",
        "acceptor,9,973.3333333333334,1", "acceptor,10,876.0,1",
        "acceptor,11,796.3636363636364,1", "acceptor,12,730.0,1",
        "ladder,1,0.0,3", "ladder,2,55.0,3", "ladder,3,36.666666666666664,3",
        "ladder,4,27.5,3", "ladder,5,16.0,3", "ladder,6,13.333333333333334,3",
        "ladder,7,11.428571428571429,3", "ladder,8,310.0,3",
        "ladder,9,586.6666666666666,3", "ladder,10,528.0,3", "ladder,11,480.0,3",
        "ladder,12,440.0,3",
        "wall,1,3900.0,1", "wall,2,1950.0,1", "wall,3,1300.0,1", "wall,4,975.0,1",
        "wall,5,1560.0,1", "wall,6,1326.6666666666667,1", "wall,7,1137.142857142857,1",
        "wall,8,995.0,1", "wall,9,884.4444444444445,2", "wall,10,796.0,2",
        "wall,11,723.6363636363636,2", "wall,12,673.3333333333334,2",
    )
)


def test_report_bytes_match_the_golden_tables(tmp_path):
    path = write_workspace(
        tmp_path, scenarios=("chair", "rental"), agents=ROSTER["agents"][:3],
        extra={"concurrency_limit": 1},
    )
    Pipeline(load_config(path)).run_stages(["run", "score", "report"])
    out = tmp_path / "out"
    assert (out / "summary.csv").read_bytes() == SUMMARY_GOLDEN.encode()
    assert (out / "rankings_value_claimed.csv").read_bytes() == RANKINGS_GOLDEN.encode()
    # chair's rows leave points and proportion_of_pie blank; rental's fill them
    assert hashlib.sha256((out / "outcomes.csv").read_bytes()).hexdigest() == (
        "f7d7e2f1361ce7c23b8fb7949f541ddc48cd08eda66890ea6850825ab321ea0a"
    )


def test_all_blank_response_skips_its_model_and_the_run_goes_on(tmp_path):
    # silent agents never close, so no seat fills in the questionnaire and
    # chair's counterpart_sv is blank in every row
    silent = [
        {"agent_id": f"s{i}", "backend": {"kind": "scripted", "policy_name": "silent"}}
        for i in range(3)
    ]
    path = write_workspace(tmp_path, agents=silent)
    result = CliRunner().invoke(
        cli_main,
        ["run", "--config", str(path), "--stages", "run,score,features,style,analyze,report"],
    )
    assert result.exit_code == 0, result.output
    analysis = tmp_path / "out" / "analysis"
    models = json.loads((analysis / "analysis_results.json").read_text())["models"]
    assert "skipped" in models["chair_counterpart_sv"]
    note = (analysis / "chair_counterpart_sv.txt").read_text()
    assert note.startswith("chair_counterpart_sv: skipped (")
    _, summary = read_table(tmp_path / "out" / "summary.csv")
    assert len(summary) == 3


def test_skipped_model_removes_a_stale_fit_table(tmp_path):
    # the same all-silent roster: chair_counterpart_sv is skipped, and a
    # table an earlier config fitted under that key must not outlive it
    silent = [
        {"agent_id": f"s{i}", "backend": {"kind": "scripted", "policy_name": "silent"}}
        for i in range(3)
    ]
    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=silent)))
    pipeline.analysis_dir.mkdir()
    stale = pipeline.analysis_dir / "chair_counterpart_sv.csv"
    stale.write_text("# parley=0 config=earlier\nterm,estimate\nwarmth,1.0\n")
    pipeline.run_stages(["run", "score", "style", "analyze"])
    assert (pipeline.analysis_dir / "chair_counterpart_sv.txt").exists()
    assert not stale.exists()


def test_failed_analyze_leaves_no_analysis_results(tmp_path, monkeypatch):
    # analysis_results.json is written last, so it lists the models of the
    # last analyze that completed
    import parley.pipeline

    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3])))
    pipeline.run_stages(["run", "score", "features", "style", "analyze"])
    results = pipeline.analysis_dir / "analysis_results.json"
    assert "chair_value_claimed" in json.loads(results.read_text())["models"]
    results.unlink()
    error = PrerequisiteError("no heatmap")

    def failing_heatmap_rows(*args):
        raise error

    monkeypatch.setattr(parley.pipeline, "heatmap_rows", failing_heatmap_rows)
    with pytest.raises(PrerequisiteError) as raised:
        pipeline.run_stages(["analyze"])
    assert raised.value is error
    assert not results.exists()


def test_analysis_terms_fit_quadratic_and_interaction_variants(tmp_path):
    path = write_workspace(
        tmp_path, extra={"analysis_terms": ["main", "quadratic", "interaction"]}
    )
    pipeline = Pipeline(load_config(path))
    pipeline.run_stages(["run", "score", "features", "style", "analyze"])
    models = json.loads(
        (pipeline.analysis_dir / "analysis_results.json").read_text()
    )["models"]
    quadratic = models["chair_value_claimed_quadratic"]
    interaction = models["chair_value_claimed_interaction"]
    assert quadratic["terms"] == "quadratic"
    assert {"warmth_sq", "dominance_sq"} <= set(quadratic["coefficients"])
    assert interaction["terms"] == "interaction"
    assert "warmth_x_dominance" in interaction["coefficients"]
    assert "warmth_x_dominance" not in models["chair_value_claimed"]["coefficients"]
    for key, terms in (
        ("chair_value_claimed_quadratic", "quadratic"),
        ("chair_value_claimed_interaction", "interaction"),
    ):
        text = (pipeline.analysis_dir / f"{key}.txt").read_text()
        assert text.splitlines()[1] == f"chair: value_claimed (linear, {terms})"


# ---------------------------------------------------------------------------
# emit_fit


def fit_fixture():
    from test_stats import rows_from_arrays

    rows = rows_from_arrays(
        [10.0, 12.0, 15.0, 11.0, 14.0, 13.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        [6.0, 5.0, 4.0, 3.0, 1.0, 2.0],
        agents=["a1", "a1", "a2", "a2", "a3", "a3"],
        dyads=["d1", "d2", "d1", "d2", "d1", "d2"],
        negotiations=[f"n{i}" for i in range(6)],
    )
    return fit_with_clusters(rows, ModelSpec(family="linear", cluster_dims=("agent",)))


def test_emit_fit_text_golden(tmp_path):
    fit = fit_fixture()
    emit_fit(fit, tmp_path / "t", config_hash="h1")
    body = (tmp_path / "t.txt").read_text()
    assert body.startswith("# parley=")
    assert "SEs clustered by agent." in body
    # byte stability across rewrites
    emit_fit(fit, tmp_path / "t2", config_hash="h1")
    assert (tmp_path / "t2.txt").read_text() == body


def test_emit_fit_delimited_round_trips(tmp_path):
    fit = fit_fixture()
    emit_fit(fit, tmp_path / "t", config_hash="h1")
    _, rows = read_table(tmp_path / "t.csv")
    by_term = {r["term"]: r for r in rows}
    for i, name in enumerate(fit.columns):
        assert float(by_term[name]["estimate"]) == fit.coefficients[i]
        assert float(by_term[name]["std_error"]) == fit.std_errors[i]
        assert float(by_term[name]["p_value"]) == fit.p_values[i]


# ---------------------------------------------------------------------------
# Heatmap grid


def test_heatmap_two_corner_agents():
    table = [
        {"agent_id": "cold", "value_claimed": "1.0"},
        {"agent_id": "warm", "value_claimed": "3.0"},
        # blank cells, as read back and as kept in memory, are left out
        {"agent_id": "warm", "value_claimed": ""},
        {"agent_id": "cold", "value_claimed": None},
    ]
    styles = {"cold": (0.0, 0.0), "warm": (100.0, 100.0)}
    cells = heatmap_rows(table, styles, "value_claimed", bins=10)
    assert len(cells) == 2
    means = {(c["warmth_bin"], c["dominance_bin"]): c["mean"] for c in cells}
    assert means[(0, 0)] == 1.0
    assert means[(9, 9)] == 3.0


def test_heatmap_uniform_outcomes_constant():
    table = [
        {"agent_id": f"a{i}", "value_claimed": "5.0"} for i in range(8)
    ]
    styles = {f"a{i}": (i * 12.0, 100 - i * 12.0) for i in range(8)}
    cells = heatmap_rows(table, styles, "value_claimed", bins=4)
    assert all(cell["mean"] == 5.0 for cell in cells)


def test_heatmap_single_cell_warns():
    table = [{"agent_id": "a", "value_claimed": "1"}, {"agent_id": "b", "value_claimed": "2"}]
    styles = {"a": (50.0, 50.0), "b": (51.0, 51.0)}
    with pytest.warns(UserWarning, match="single"):
        cells = heatmap_rows(table, styles, "value_claimed", bins=2)
    assert len(cells) == 1


def test_heatmap_fixture_matches_spreadsheet_oracle(tmp_path):
    table = [
        {"agent_id": "a", "deal": "1"},
        {"agent_id": "a", "deal": "0"},
        {"agent_id": "b", "deal": "1"},
        {"agent_id": "c", "deal": "0"},
    ]
    styles = {"a": (10.0, 10.0), "b": (15.0, 12.0), "c": (80.0, 90.0)}
    rows = heatmap_rows(table, styles, "deal", bins=5)
    # bin width 20: a and b share cell (0,0): means 0.5 and 1.0 -> 0.75
    cells = {(c["warmth_bin"], c["dominance_bin"]): c for c in rows}
    assert cells[(0, 0)]["mean"] == pytest.approx(0.75)
    assert cells[(0, 0)]["count"] == 2
    assert cells[(4, 4)]["mean"] == 0.0
    write_table(tmp_path / "g.csv", HEATMAP_COLUMNS, rows, "h")
    _, rows = read_table(tmp_path / "g.csv")
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# Observation-row join


def test_missing_style_entry_is_prerequisite_error():
    table = [
        {
            "exercise": "chair",
            "agent_id": "ghost",
            "value_claimed": "10",
            "cluster_agent": "ghost",
            "cluster_dyad": "g~x:chair",
            "cluster_negotiation": "n1",
        }
    ]
    with pytest.raises(PrerequisiteError, match="ghost"):
        build_observation_rows(table, {}, exercise="chair", y_column="value_claimed")


def test_blank_response_rows_are_dropped():
    table = [
        {
            "exercise": "chair",
            "agent_id": "a",
            "counterpart_sv": "",
            "cluster_agent": "a",
            "cluster_dyad": "a~b:chair",
            "cluster_negotiation": "n1",
        },
        {
            "exercise": "chair",
            "agent_id": "a",
            "counterpart_sv": "5.5",
            "cluster_agent": "a",
            "cluster_dyad": "a~b:chair",
            "cluster_negotiation": "n2",
        },
        # a row kept in memory holds None where its table has a blank cell
        {
            "exercise": "chair",
            "agent_id": "a",
            "counterpart_sv": None,
            "cluster_agent": "a",
            "cluster_dyad": "a~b:chair",
            "cluster_negotiation": "n3",
        },
    ]
    rows = build_observation_rows(
        table, {"a": (50.0, 50.0)}, exercise="chair", y_column="counterpart_sv"
    )
    assert len(rows) == 1
    assert rows[0].y == 5.5


# ---------------------------------------------------------------------------
# Table rows


def fixed_rater():
    def transport(endpoint, payload, api_key, timeout):
        reply = '{"warmth_score": 60, "dominance_score": 40}'
        return {"choices": [{"message": {"content": reply}, "finish_reason": "stop"}]}

    return ChatModelClient(transport=transport)


@pytest.fixture(scope="module")
def played(tmp_path_factory):
    """A three-agent chair and rental run with a model rater: its config,
    transcripts and outcome rows."""
    tmp_path = tmp_path_factory.mktemp("played")
    agents = [dict(a, prompt=f"Play as {a['agent_id']}.") for a in ROSTER["agents"][:3]]
    style = {"mode": "model", "rater": {"model_name": "r", "endpoint": "https://rater.invalid/v1"}}
    config = load_config(write_workspace(
        tmp_path, scenarios=("chair", "rental"), agents=agents, extra={"style": style}
    ))
    pipeline = Pipeline(config)
    pipeline.run_stages(["run"])
    transcripts = []
    TranscriptStore(pipeline.transcripts_path, config.config_hash, transcripts.append)
    outcomes = []
    for transcript in transcripts:
        scenario = pipeline.scenarios[transcript.scenario_id]
        outcomes += score_outcome(transcript, scenario, extract_agreement(transcript, scenario))
    return SimpleNamespace(config=config, transcripts=transcripts, outcomes=outcomes)


def style_rows(config, mode):
    client = fixed_rater() if mode == "model" else None
    return Pipeline(replace(config, style_mode=mode), client).run_stages(["style"])["style"]


def style_plane(config):
    rows = style_rows(config, "synthetic")
    return {r["agent_id"]: (float(r["warmth"]), float(r["dominance"])) for r in rows}


# each builder's rows from the played run, and its table's columns
TABLE_BUILDERS = {
    "score_outcome": (OUTCOME_TABLE_COLUMNS, lambda run: run.outcomes),
    "feature_rows": (FEATURE_TABLE_COLUMNS, lambda run: [
        row for t in run.transcripts for row in feature_rows(t, load_default_lexicons())
    ]),
    "aggregate_outcomes": (SUMMARY_COLUMNS, lambda run: aggregate_outcomes(run.outcomes)),
    "ranking_rows": (RANKING_COLUMNS, lambda run: ranking_rows(run.outcomes, "value_claimed", 7)),
    "heatmap_rows": (HEATMAP_COLUMNS, lambda run: heatmap_rows(
        run.outcomes, style_plane(run.config), "value_claimed", 10
    )),
    "style_synthetic": (STYLE_TABLE_COLUMNS, lambda run: style_rows(run.config, "synthetic")),
    "style_model": (STYLE_TABLE_COLUMNS, lambda run: style_rows(run.config, "model")),
}


@pytest.mark.parametrize("builder", TABLE_BUILDERS)
def test_every_row_a_builder_yields_has_its_tables_columns(played, builder):
    # write_table would write a misspelt key's column as blank cells, and
    # leave the column out once it is blank in every row
    columns, build = TABLE_BUILDERS[builder]
    rows = build(played)
    assert rows
    for row in rows:
        assert set(row) == set(columns)


# ---------------------------------------------------------------------------
# Table provenance primitives


def test_write_read_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
    write_table(path, ("a", "b"), rows, "hash123")
    meta, back = read_table(path, expect_config_hash="hash123")
    assert back == rows
    assert meta["config"] == "hash123"
    with pytest.raises(ArtifactMismatchError):
        read_table(path, expect_config_hash="other")


def test_entirely_empty_column_omitted_with_note(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"a": "1", "points": ""}, {"a": "2", "points": ""}]
    write_table(path, ("a", "points"), rows, "h")
    meta, back = read_table(path)
    assert meta["omitted_empty"] == "points"
    assert back == [{"a": "1"}, {"a": "2"}]
    # None is a blank cell: the same table, byte for byte
    write_table(tmp_path / "n.csv", ("a", "points"), [{"a": "1", "points": None}, {"a": "2"}], "h")
    assert (tmp_path / "n.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("tail", ["4,\n", "4,5,6,7\n"], ids=["cut", "extra-field"])
def test_torn_table_row_is_refused_naming_file_and_line(tmp_path, tail):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b", "c"), [{"a": "1", "b": "2", "c": "3"}], "h")
    with open(path, "a", newline="") as fh:
        fh.write(tail)
    with pytest.raises(SchemaError, match=f"{path}: line 4 does not have the header's 3 fields"):
        read_table(path)


def test_half_cut_outcome_table_exits_2_naming_file_and_line(tmp_path):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:3])
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run,score,style"]).exit_code == 0
    outcomes = tmp_path / "out" / "outcomes.csv"
    data = outcomes.read_bytes()
    # cut a row from the middle of the table just after its first field
    cut = data.index(b",", data.index(b"\n", len(data) // 2)) + 1
    outcomes.write_bytes(data[:cut])
    line = data[:cut].count(b"\n") + 1
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "analyze"])
    assert result.exit_code == 2, result.output
    assert f"{outcomes}: line {line} does not have the header's" in result.output
    assert not (tmp_path / "out" / "analysis" / "analysis_results.json").exists()


def test_transcript_store_refuses_foreign_config(tmp_path):
    from parley.tournament import TranscriptStore

    store = TranscriptStore(tmp_path / "s.jsonl", config_hash="aaa")
    # a new store is stamped by its first append
    assert not (tmp_path / "s.jsonl").exists()
    store.append(
        make_transcript("chair", {"seller": "a", "buyer": "b"}, ["hi"], ["seller"], "cap_reached")
    )
    assert (tmp_path / "s.jsonl").read_text().startswith("# parley=")
    TranscriptStore(tmp_path / "s.jsonl", config_hash="aaa")  # same config: fine
    with pytest.raises(ArtifactMismatchError):
        TranscriptStore(tmp_path / "s.jsonl", config_hash="bbb")


# ---------------------------------------------------------------------------
# Resume: the transcript store is the record of what is done


def test_resume_trusts_the_store_over_a_lagging_checkpoint(tmp_path):
    pipeline = Pipeline(load_config(write_workspace(tmp_path)))
    assert pipeline.run_stages(["run"])["run"].executed == 25
    store_bytes = pipeline.transcripts_path.read_bytes()
    checkpoint = json.loads(pipeline.config.checkpoint_path.read_text())
    checkpoint["completed"] = checkpoint["completed"][:5]
    pipeline.config.checkpoint_path.write_text(json.dumps(checkpoint))

    report = pipeline.run_stages(["run"])["run"]
    assert (report.executed, report.skipped) == (0, 25)
    assert pipeline.transcripts_path.read_bytes() == store_bytes


def test_torn_store_tail_is_cut_and_rerun(tmp_path):
    from parley.tournament import TranscriptStore

    runner = CliRunner()
    stores = {}
    for tag in ("reference", "torn"):
        (tmp_path / tag).mkdir()
        path = write_workspace(tmp_path / tag)
        result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"])
        assert result.exit_code == 0, result.output
        stores[tag] = tmp_path / tag / "out" / "transcripts.jsonl"
    torn = stores["torn"]
    torn_bytes = torn.read_bytes()[:-50]
    torn.write_bytes(torn_bytes)

    # a reader treats the torn line as absent and leaves the file alone
    assert len(TranscriptStore(torn)) == 24
    assert torn.read_bytes() == torn_bytes

    path = tmp_path / "torn" / "config.yaml"
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"])
    assert result.exit_code == 0, result.output
    assert torn.read_bytes() == stores["reference"].read_bytes()


def test_resume_on_an_older_format_store_appends_compact_lines(tmp_path):
    pipelines = {}
    for tag in ("reference", "older"):
        (tmp_path / tag).mkdir()
        pipelines[tag] = Pipeline(load_config(write_workspace(tmp_path / tag)))
    pipelines["reference"].run_stages(["run", "score"])

    # the store of a run stopped after 10 negotiations, in the line format
    # of earlier versions: default separators, every "truncated" key written
    store = pipelines["older"].transcripts_path
    pipelines["older"].run_stages(["run"])
    stamp, *lines = store.read_text().splitlines(keepends=True)
    older_lines = []
    for line in lines[:10]:
        record = json.loads(line)
        for utterance in record["utterances"]:
            utterance["truncated"] = False
        older_lines.append(json.dumps(record, sort_keys=True) + "\n")
    store.write_text(stamp + "".join(older_lines))

    pipelines["older"].run_stages(["run", "score"])
    stamp_after, *lines_after = store.read_text().splitlines(keepends=True)
    assert stamp_after == stamp
    assert lines_after[:10] == older_lines
    assert len(lines_after) == 25
    for line in lines_after[10:]:
        assert '": ' not in line and '"truncated"' not in line
    assert (
        pipelines["older"].outcomes_path.read_bytes()
        == pipelines["reference"].outcomes_path.read_bytes()
    )


def test_corrupt_store_line_exits_with_schema_error(tmp_path):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2])
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0
    store = tmp_path / "out" / "transcripts.jsonl"
    lines = store.read_text().splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
    store.write_text("".join(lines))

    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "transcripts.jsonl:3" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
        pytest.param(lambda text: "[1]", id="not_an_object"),
        pytest.param(
            lambda text: json.dumps({"schema_version": 1, "failed": [{"exercise": "chair"}]}),
            id="failed_entry_lacks_a_key",
        ),
    ],
)
def test_damaged_checkpoint_exits_with_schema_error(tmp_path, damage):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2])
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0
    checkpoint = tmp_path / "out" / "checkpoint.json"
    checkpoint.write_text(damage(checkpoint.read_text()))

    for args in (["run", "--stages", "run"], ["status"]):
        result = runner.invoke(cli_main, [*args, "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "checkpoint.json: not a parley checkpoint" in result.output
        assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda lines: '{"termination": "accepted"}\n', id="not_a_record"),
        pytest.param(lambda lines: lines[2], id="repeated_id"),
    ],
)
def test_store_line_that_is_not_a_new_record_exits_with_schema_error(tmp_path, damage):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2])
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0
    store = tmp_path / "out" / "transcripts.jsonl"
    lines = store.read_text().splitlines(keepends=True)
    store.write_text("".join(lines) + damage(lines))

    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "transcripts.jsonl:6" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "outcomes.csv").exists()


def test_damaged_nested_record_exits_with_schema_error(tmp_path):
    # every top-level key is there, so the scan at open accepts the line;
    # decoding its first utterance fails while the stage reads it
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2])
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0
    store = tmp_path / "out" / "transcripts.jsonl"
    lines = store.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    del record["utterances"][0]["text"]
    lines[1] = json.dumps(record, sort_keys=True) + "\n"
    store.write_text("".join(lines))

    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "transcripts.jsonl" in result.output
    assert record["negotiation_id"] in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "outcomes.csv").exists()


def test_damaged_record_stored_before_the_call_ends_it_before_the_run_stage(tmp_path):
    # a store cut to 10 records, one with a damaged nested part: the call
    # reads it before playing the 15 negotiations still to run
    path = write_workspace(tmp_path)
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0
    store = tmp_path / "out" / "transcripts.jsonl"
    stamp, *lines = store.read_text().splitlines(keepends=True)
    record = json.loads(lines[4])
    del record["utterances"][0]["text"]
    lines[4] = json.dumps(record, sort_keys=True) + "\n"
    store.write_text(stamp + "".join(lines[:10]))
    before = store.read_bytes()

    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run,score"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert record["negotiation_id"] in result.output
    assert "Traceback" not in result.output
    assert store.read_bytes() == before
    assert not (tmp_path / "out" / "outcomes.csv").exists()


# ---------------------------------------------------------------------------
# One scan of the store per run_stages call


@pytest.fixture
def store_scans(monkeypatch):
    from parley.tournament import TranscriptStore

    scans = []
    scan = TranscriptStore._scan

    def counting_scan(self, config_hash, on_record):
        scans.append(self.path)
        return scan(self, config_hash, on_record)

    monkeypatch.setattr(TranscriptStore, "_scan", counting_scan)
    return scans


def test_fresh_run_through_report_never_scans_the_store(tmp_path, store_scans):
    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3])))
    pipeline.run_stages(["run", "score", "features", "report"])
    assert store_scans == []
    _, rows = read_table(pipeline.outcomes_path)
    assert len(rows) == 18


def test_reading_stages_share_one_scan_of_an_existing_store(tmp_path, store_scans):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:3])
    Pipeline(load_config(path)).run_stages(["run"])
    pipeline = Pipeline(load_config(path))
    pipeline.run_stages(["score", "features", "report"])
    assert store_scans == [pipeline.transcripts_path]


@pytest.fixture
def store_loads(monkeypatch):
    from parley.tournament import TranscriptStore

    loads = []
    load = TranscriptStore.load

    def counting_load(self, *args, **kwargs):
        loads.append(self.path)
        return load(self, *args, **kwargs)

    monkeypatch.setattr(TranscriptStore, "load", counting_load)
    return loads


@pytest.fixture
def decoded(monkeypatch):
    """The ids of the stored records decoded, in decoding order."""
    from parley.session import Transcript

    ids = []
    from_record = Transcript.from_record

    def counting_from_record(record):
        ids.append(record["negotiation_id"])
        return from_record(record)

    monkeypatch.setattr(Transcript, "from_record", staticmethod(counting_from_record))
    return ids


def test_reading_stages_share_one_pass_over_the_store(
    tmp_path, store_scans, store_loads, decoded
):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:3])
    Pipeline(load_config(path)).run_stages(["run"])
    stored = [
        json.loads(line)["negotiation_id"]
        for line in (tmp_path / "out" / "transcripts.jsonl").read_text().splitlines()[1:]
    ]
    assert len(stored) == 9 and decoded == []
    pipeline = Pipeline(load_config(path))
    pipeline.run_stages(["score", "features", "report"])
    # the scan that indexes the store is the one decode of each record
    assert store_scans == [pipeline.transcripts_path]
    assert store_loads == []
    assert decoded == stored
    for table in (pipeline.outcomes_path, pipeline.features_path):
        assert len(read_table(table)[1]) == 18
    assert (pipeline.config.output_dir / "summary.csv").exists()


SIX_STAGES = ["run", "score", "features", "style", "analyze", "report"]


def data_artifacts(out):
    """Every file under ``out`` but the run report, which carries wall clock."""
    return {
        str(f.relative_to(out)): f.read_bytes()
        for f in sorted(out.rglob("*"))
        if f.is_file() and f.name != "run_report.txt"
    }


def test_six_stage_call_reads_the_store_once(tmp_path, store_scans, store_loads, decoded):
    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3])))
    pipeline.run_stages(SIX_STAGES)
    assert store_scans == [] and store_loads == []
    # the run stage handed every transcript it stored to the reading stages
    assert decoded == []


@pytest.mark.parametrize("concurrency_limit", [1, 4])
def test_six_stage_call_on_a_resumed_store_decodes_only_the_records_stored_before_it(
    tmp_path, decoded, concurrency_limit
):
    pipelines = {}
    for tag in ("whole", "resumed"):
        (tmp_path / tag).mkdir()
        path = write_workspace(tmp_path / tag, extra={"concurrency_limit": concurrency_limit})
        pipelines[tag] = Pipeline(load_config(path))
    pipelines["whole"].run_stages(SIX_STAGES)

    # the store of a run killed after 10 negotiations, while storing the 11th
    resumed = pipelines["resumed"]
    resumed.run_stages(["run"])
    stamp, *records = resumed.transcripts_path.read_bytes().splitlines(keepends=True)
    resumed.transcripts_path.write_bytes(stamp + b"".join(records[:10]) + records[10][:40])
    assert decoded == []

    resumed.run_stages(SIX_STAGES)
    # in the store file's order, which is the schedule's
    assert decoded == [json.loads(line)["negotiation_id"] for line in records[:10]]
    assert data_artifacts(resumed.config.output_dir) == data_artifacts(
        pipelines["whole"].config.output_dir
    )


def test_step_error_in_the_run_stage_surfaces_before_any_reading_stage_writes(
    tmp_path, monkeypatch
):
    import parley.pipeline

    seen = []
    feature_rows = parley.pipeline.feature_rows
    error = SchemaError("damaged transcript")

    def failing_feature_rows(transcript, lexicons):
        seen.append(transcript.negotiation_id)
        if len(seen) == 2:
            raise error
        return feature_rows(transcript, lexicons)

    monkeypatch.setattr(parley.pipeline, "feature_rows", failing_feature_rows)
    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3])))
    with pytest.raises(SchemaError) as raised:
        pipeline.run_stages(["run", "score", "features", "report"])
    assert raised.value is error
    # the run went on and stored every scheduled negotiation; no step ran
    # after the error
    state, store = pipeline.tournament()
    assert store.ids == {p.negotiation_id(pipeline.scenarios[p.exercise]) for p in state.schedule}
    assert len(store) == 9 and len(seen) == 2
    assert pipeline.report_path.exists()
    assert not pipeline.outcomes_path.exists()
    assert not pipeline.features_path.exists()
    assert not (pipeline.config.output_dir / "summary.csv").exists()


def test_error_in_the_store_pass_fails_before_any_reading_stage_writes(
    tmp_path, monkeypatch
):
    # at the second transcript, after score's step has taken the first
    import parley.pipeline

    seen = []
    feature_rows = parley.pipeline.feature_rows

    def failing_feature_rows(transcript, lexicons):
        seen.append(transcript.negotiation_id)
        if len(seen) == 2:
            raise SchemaError(f"damaged: {transcript.negotiation_id}")
        return feature_rows(transcript, lexicons)

    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2])
    Pipeline(load_config(path)).run_stages(["run"])
    monkeypatch.setattr(parley.pipeline, "feature_rows", failing_feature_rows)
    pipeline = Pipeline(load_config(path))
    with pytest.raises(SchemaError, match="damaged"):
        pipeline.run_stages(["score", "features", "report"])
    assert not pipeline.outcomes_path.exists()
    assert not pipeline.features_path.exists()
    assert not (pipeline.config.output_dir / "summary.csv").exists()


def test_malformed_questionnaire_exits_before_reading_the_store(tmp_path, decoded):
    from importlib import resources

    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2], extra={"svi_items": "svi.yaml"})
    svi = tmp_path / "svi.yaml"
    svi.write_text((resources.files("parley.data") / "svi_items.yaml").read_text())
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0
    store = tmp_path / "out" / "transcripts.jsonl"
    before = store.read_bytes()

    svi.write_text(yaml.safe_dump({"schema_version": 1}))
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run,score"])
    assert result.exit_code == 2, result.output
    assert f"{svi}: items must be" in result.output
    assert "Traceback" not in result.output
    assert decoded == []
    assert store.read_bytes() == before
    assert not (tmp_path / "out" / "outcomes.csv").exists()


def workspace_with_unscored_sentiment(tmp_path):
    """A 2-agent workspace whose lexicon directory has a sentiment.txt
    without polarity scores; returns the config path and that file."""
    from parley.features import DEFAULT_LEXICONS

    lexicons = tmp_path / "lexicons"
    lexicons.mkdir()
    for name in DEFAULT_LEXICONS:
        (lexicons / f"{name}.txt").write_text("great\nfair enough\n")
    path = write_workspace(
        tmp_path, agents=ROSTER["agents"][:2], extra={"lexicons": "lexicons"}
    )
    return path, lexicons / "sentiment.txt"


def test_sentiment_lexicon_without_polarity_exits_before_the_run_stage(tmp_path):
    path, sentiment = workspace_with_unscored_sentiment(tmp_path)
    result = CliRunner().invoke(
        cli_main, ["run", "--config", str(path), "--stages", "run,score,features"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert str(sentiment) in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "transcripts.jsonl").exists()


def test_sentiment_lexicon_without_polarity_exits_before_reading_the_store(
    tmp_path, store_scans, store_loads
):
    path, sentiment = workspace_with_unscored_sentiment(tmp_path)
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"]).exit_code == 0

    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score,features"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert str(sentiment) in result.output
    assert "Traceback" not in result.output
    assert store_scans == [] and store_loads == []
    assert not (tmp_path / "out" / "outcomes.csv").exists()
    assert not (tmp_path / "out" / "features.csv").exists()


def test_configured_lexicon_directory_reaches_features_csv(tmp_path):
    # hedges.txt holds only "offer", which the fixed-concession policy says
    # in every turn and no built-in hedge matches
    import re
    from importlib import resources

    from parley.features import DEFAULT_LEXICONS, load_default_lexicons

    lexicons = tmp_path / "lexicons"
    lexicons.mkdir()
    builtin = resources.files("parley.data.lexicons")
    for name in DEFAULT_LEXICONS:
        (lexicons / f"{name}.txt").write_text((builtin / f"{name}.txt").read_text())
    (lexicons / "hedges.txt").write_text("offer\n")
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2], extra={"lexicons": "lexicons"})
    pipeline = Pipeline(load_config(path))
    pipeline.run_stages(["run", "score", "features"])

    builtin_hedges = load_default_lexicons()["hedges"]
    _, *records = pipeline.transcripts_path.read_text().splitlines()
    expected, builtin_value = {}, {}
    for record in map(json.loads, records):
        for role in record["role_map"]:
            own = [u["text"].lower() for u in record["utterances"] if u["role_name"] == role]
            key = record["negotiation_id"], role
            expected[key] = sum(len(re.findall(r"\boffer\b", text)) for text in own) / len(own)
            builtin_value[key] = sum(builtin_hedges.count(text) for text in own) / len(own)
    _, rows = read_table(pipeline.features_path)
    assert len(rows) == len(expected) == 8
    assert {(row["negotiation_id"], row["role"]): float(row["hedges"]) for row in rows} == expected
    assert expected != builtin_value


def test_each_run_stages_call_reads_the_store_as_it_is_then(tmp_path):
    pipeline = Pipeline(load_config(write_workspace(tmp_path, agents=ROSTER["agents"][:3])))
    pipeline.run_stages(["run"])
    stamp, *records = pipeline.transcripts_path.read_text().splitlines(keepends=True)
    kept = records[:2]
    pipeline.transcripts_path.write_text(stamp + "".join(kept))

    pipeline.run_stages(["score"])
    _, rows = read_table(pipeline.outcomes_path)
    kept_ids = sorted(json.loads(line)["negotiation_id"] for line in kept)
    assert [row["negotiation_id"] for row in rows] == [i for i in kept_ids for _ in (0, 1)]


def test_one_six_stage_call_writes_what_six_single_stage_calls_write(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "six").mkdir()
    one = Pipeline(load_config(write_workspace(tmp_path / "one")))
    one.run_stages(SIX_STAGES)
    six = Pipeline(load_config(write_workspace(tmp_path / "six")))
    for stage in SIX_STAGES:
        six.run_stages([stage])
    assert data_artifacts(six.config.output_dir) == data_artifacts(one.config.output_dir)
    assert "summary.csv" in data_artifacts(one.config.output_dir)


@pytest.fixture
def table_reads(monkeypatch):
    """The paths the pipeline reads tables from, in reading order."""
    import parley.pipeline

    paths = []

    def recording_read_table(path, *args, **kwargs):
        paths.append(Path(path))
        return read_table(path, *args, **kwargs)

    monkeypatch.setattr(parley.pipeline, "read_table", recording_read_table)
    return paths


def test_six_stage_call_reads_no_table_back(tmp_path, monkeypatch):
    import parley.pipeline

    def refusing_read_table(*args, **kwargs):
        raise AssertionError(f"read_table{args}")

    monkeypatch.setattr(parley.pipeline, "read_table", refusing_read_table)
    pipeline = Pipeline(load_config(write_workspace(tmp_path, scenarios=("chair", "rental"))))
    results = pipeline.run_stages(SIX_STAGES)
    assert "chair_value_claimed" in results["analyze"]
    assert "features_hedges" in results["analyze"]


def test_analyze_in_a_later_call_reads_the_tables_and_writes_the_same_bytes(
    tmp_path, table_reads
):
    (tmp_path / "one").mkdir()
    (tmp_path / "split").mkdir()
    extra = {"analysis_terms": ["main", "quadratic"]}
    one = Pipeline(load_config(write_workspace(tmp_path / "one", extra=extra)))
    one.run_stages(SIX_STAGES)
    split = Pipeline(load_config(write_workspace(tmp_path / "split", extra=extra)))
    split.run_stages(SIX_STAGES[:4])
    assert table_reads == []
    split.run_stages(["analyze", "report"])
    assert table_reads == [split.outcomes_path, split.style_path, split.features_path]

    def analysis(pipeline):
        artifacts = data_artifacts(pipeline.config.output_dir)
        return {name: data for name, data in artifacts.items() if name.startswith("analysis")}

    assert analysis(split) == analysis(one)
    assert "analysis/analysis_results.json" in analysis(one)


def run_probe(source, *args):
    """Run ``source`` in a fresh interpreter and return its stripped stdout."""
    import os
    import subprocess
    import sys

    import parley

    src = os.path.dirname(os.path.dirname(parley.__file__))
    result = subprocess.run(
        [sys.executable, "-c", source, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


# argv: config path, comma-separated stages, module name
_PIPELINE_PROBE = """
import sys
from parley.pipeline import Pipeline, load_config
Pipeline(load_config(sys.argv[1])).run_stages(sys.argv[2].split(","))
print(sys.argv[3] in sys.modules)
"""


def test_analyze_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs an import on every fresh process that reaches analyze
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:3])
    stages = "run,score,features,style,analyze"
    assert run_probe(_PIPELINE_PROBE, path, stages, "numpy.ma") == "False"
    assert (tmp_path / "out" / "analysis" / "analysis_results.json").exists()


_INJECTED_TRANSPORT_PROBE = """
import sys
from parley.agents import AgentSpec, BackendBinding, ChatModelClient
from parley.catalog import load_builtin
from parley.session import run_session

def fake(endpoint, payload, api_key, timeout):
    return {"choices": [{"message": {"content": "Hello."}, "finish_reason": "stop"}]}

binding = BackendBinding(kind="chat_model", model_name="m", endpoint="https://example.invalid/v1")
agents = {a: AgentSpec(a, a, "Negotiate.", binding) for a in ("s", "b")}
client = ChatModelClient(transport=fake)
run_session(load_builtin("chair"), {"seller": "s", "buyer": "b"}, agents, 1, client=client)
print(client.usage["requests"] > 0, "requests" in sys.modules)
"""


def test_scripted_pipeline_does_not_import_requests(tmp_path):
    # the HTTP stack loads on the first network request, which a scripted
    # run never makes
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:3])
    stages = "run,score,features,style,analyze,report"
    assert run_probe(_PIPELINE_PROBE, path, stages, "requests") == "False"
    # the pipeline makes its own client, which a scripted run never uses
    report = (tmp_path / "out" / "run_report.txt").read_text()
    assert 'token_usage={"completion_tokens": 0, "prompt_tokens": 0, "requests": 0, "retries": 0}' in report


def test_injected_transport_does_not_import_requests():
    assert run_probe(_INJECTED_TRANSPORT_PROBE) == "True False"


def test_run_stage_keeps_concurrency_limit_requests_in_flight(tmp_path):
    # four chat agents on chair: 16 sessions for 12 workers. The transport
    # holds each request until 12 are in flight at once (or a timeout), and
    # every reply walks away, so each session ends on its first utterance.
    agents = [
        {
            "agent_id": f"m{i}",
            "prompt": "Negotiate.",
            "backend": {"kind": "chat_model", "model_name": "m", "endpoint": "fake://chat"},
        }
        for i in range(4)
    ]
    path = write_workspace(tmp_path, agents=agents, extra={"concurrency_limit": 12})
    lock = threading.Lock()
    all_in = threading.Event()
    in_flight, peak = 0, 0

    def transport(endpoint, payload, api_key, timeout):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
            if in_flight == 12:
                all_in.set()
        all_in.wait(timeout=5)
        all_in.set()  # one timeout releases every later request too
        with lock:
            in_flight -= 1
        return {"choices": [{"message": {"content": "[WALKAWAY]"}, "finish_reason": "stop"}]}

    pipeline = Pipeline(load_config(path), client=ChatModelClient(transport=transport))
    report = pipeline.run_stages(["run"])["run"]
    assert (report.executed, report.failed) == (16, 0)
    assert peak == 12


# ---------------------------------------------------------------------------
# CLI


def test_cli_catalog_lists_builtins():
    runner = CliRunner()
    result = runner.invoke(cli_main, ["catalog"])
    assert result.exit_code == 0
    for name in ("lamp", "table", "chair", "rental", "employment"):
        assert name in result.output


def test_cli_catalog_refuses_an_invalid_scenario_file(tmp_path):
    # the loader refuses a scenario that breaks an invariant, so no listing
    # line can mark one INVALID
    from importlib import resources

    chair = yaml.safe_load((resources.files("parley.data.scenarios") / "chair.yaml").read_text())
    (tmp_path / "chair.yaml").write_text(yaml.safe_dump(chair))
    (tmp_path / "short.yaml").write_text(yaml.safe_dump(dict(chair, scenario_id="short", max_exchanges=0)))
    result = CliRunner().invoke(cli_main, ["catalog", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert f"{tmp_path / 'short.yaml'}: max_exchanges must be >= 1" in result.output
    assert "INVALID" not in result.output
    assert "Traceback" not in result.output


def test_cli_roster_validate(tmp_path):
    (tmp_path / "roster.yaml").write_text(yaml.safe_dump(ROSTER))
    runner = CliRunner()
    result = runner.invoke(cli_main, ["roster", "validate", str(tmp_path / "roster.yaml")])
    assert result.exit_code == 0
    assert "5 agents ok" in result.output


def test_cli_roster_validate_refuses_unknown_policy(tmp_path):
    agents = [dict(a) for a in ROSTER["agents"][:2]]
    agents[0]["backend"] = {"kind": "scripted", "policy_name": "immediate_acceptr"}
    (tmp_path / "roster.yaml").write_text(yaml.safe_dump({"agents": agents}))
    result = CliRunner().invoke(cli_main, ["roster", "validate", str(tmp_path / "roster.yaml")])
    assert result.exit_code == 2
    assert "unknown scripted policy 'immediate_acceptr'" in result.output
    assert "agents ok" not in result.output


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "config.yaml"
    bad.write_text(yaml.safe_dump({"roster": "missing.yaml", "scenarios": ["chair"], "output_dir": "out"}))
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", "--config", str(bad)])
    assert result.exit_code == 2


def test_cli_prerequisite_exit_code(tmp_path):
    path = write_workspace(tmp_path)
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "analyze"])
    assert result.exit_code == 2


def test_cli_run_status_and_resume(tmp_path):
    path = write_workspace(tmp_path, agents=ROSTER["agents"][:2])
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "run"])
    assert result.exit_code == 0, result.output
    # a call that runs the run stage prints its counts before "done"
    assert result.output.splitlines() == ["scheduled=4 executed=4 skipped=0 failed=0", "done"]
    score = runner.invoke(cli_main, ["run", "--config", str(path), "--stages", "score"])
    assert score.output.splitlines() == ["done"]
    status = runner.invoke(cli_main, ["status", "--config", str(path)])
    assert status.exit_code == 0
    assert "scheduled=4" in status.output
    assert "pending=0" in status.output
    resume = runner.invoke(cli_main, ["resume", "--config", str(path)])
    assert resume.exit_code == 0
    assert "executed=0" in resume.output
    assert "skipped=4" in resume.output


# Run in a fresh process: prints OPENBLAS_NUM_THREADS after the import,
# whether numpy is loaded, and the process's thread count where /proc lists
# it (None elsewhere).
_BLAS_THREADS_PROBE = """
import os
import sys
import parley.pipeline
tasks = "/proc/self/task"
print(
    os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy" in sys.modules,
    len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
)
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_numpy_blas_runs_on_one_thread_unless_the_environment_says(preset, expected):
    import os
    import subprocess
    import sys

    import parley

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(parley.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    value, numpy_loaded, tasks = result.stdout.split()
    assert (value, numpy_loaded) == (expected, "True")
    if preset is None and tasks != "None":
        # no helper thread was started with numpy
        assert tasks == "1"
