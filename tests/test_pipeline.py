import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from parley.cli import main as cli_main
from parley.errors import ArtifactMismatchError, PrerequisiteError, SchemaError
from parley.pipeline import (
    Pipeline,
    build_observation_rows,
    emit_fit,
    emit_heatmap_grid,
    heatmap_grid,
    load_config,
)
from parley.stats import ModelSpec, fit_with_clusters
from parley.tables import read_table, write_table

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
    ]
    styles = {"cold": (0.0, 0.0), "warm": (100.0, 100.0)}
    grid = heatmap_grid(table, styles, "value_claimed", bins=10)
    assert len(grid.cells) == 2
    means = {(
        c["warmth_bin"], c["dominance_bin"]): c["mean"] for c in grid.cells}
    assert means[(0, 0)] == 1.0
    assert means[(9, 9)] == 3.0


def test_heatmap_uniform_outcomes_constant():
    table = [
        {"agent_id": f"a{i}", "value_claimed": "5.0"} for i in range(8)
    ]
    styles = {f"a{i}": (i * 12.0, 100 - i * 12.0) for i in range(8)}
    grid = heatmap_grid(table, styles, "value_claimed", bins=4)
    assert all(cell["mean"] == 5.0 for cell in grid.cells)


def test_heatmap_single_cell_warns():
    table = [{"agent_id": "a", "value_claimed": "1"}, {"agent_id": "b", "value_claimed": "2"}]
    styles = {"a": (50.0, 50.0), "b": (51.0, 51.0)}
    with pytest.warns(UserWarning, match="single"):
        grid = heatmap_grid(table, styles, "value_claimed", bins=2)
    assert len(grid.cells) == 1


def test_heatmap_fixture_matches_spreadsheet_oracle(tmp_path):
    table = [
        {"agent_id": "a", "deal": "1"},
        {"agent_id": "a", "deal": "0"},
        {"agent_id": "b", "deal": "1"},
        {"agent_id": "c", "deal": "0"},
    ]
    styles = {"a": (10.0, 10.0), "b": (15.0, 12.0), "c": (80.0, 90.0)}
    grid = heatmap_grid(table, styles, "deal", bins=5)
    # bin width 20: a and b share cell (0,0): means 0.5 and 1.0 -> 0.75
    cells = {(c["warmth_bin"], c["dominance_bin"]): c for c in grid.cells}
    assert cells[(0, 0)]["mean"] == pytest.approx(0.75)
    assert cells[(0, 0)]["count"] == 2
    assert cells[(4, 4)]["mean"] == 0.0
    path = emit_heatmap_grid(grid, tmp_path / "g.csv", "h")
    _, rows = read_table(path)
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
    ]
    rows = build_observation_rows(
        table, {"a": (50.0, 50.0)}, exercise="chair", y_column="counterpart_sv"
    )
    assert len(rows) == 1
    assert rows[0].y == 5.5


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


def test_transcript_store_refuses_foreign_config(tmp_path):
    from parley.tournament import TranscriptStore

    store = TranscriptStore(tmp_path / "s.jsonl", config_hash="aaa")
    assert (tmp_path / "s.jsonl").read_text().startswith("# parley=")
    TranscriptStore(tmp_path / "s.jsonl", config_hash="aaa")  # same config: fine
    with pytest.raises(ArtifactMismatchError):
        TranscriptStore(tmp_path / "s.jsonl", config_hash="bbb")


# ---------------------------------------------------------------------------
# Resume: the transcript store is the record of what is done


def test_resume_trusts_the_store_over_a_lagging_checkpoint(tmp_path):
    pipeline = Pipeline(load_config(write_workspace(tmp_path)))
    assert pipeline.stage_run().executed == 25
    store_bytes = pipeline.transcripts_path.read_bytes()
    checkpoint = json.loads(pipeline.config.checkpoint_path.read_text())
    checkpoint["completed"] = checkpoint["completed"][:5]
    pipeline.config.checkpoint_path.write_text(json.dumps(checkpoint))

    report = pipeline.stage_run()
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
    assert sorted(torn.read_text().splitlines()) == sorted(
        stores["reference"].read_text().splitlines()
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


# ---------------------------------------------------------------------------
# CLI


def test_cli_catalog_lists_builtins():
    runner = CliRunner()
    result = runner.invoke(cli_main, ["catalog"])
    assert result.exit_code == 0
    for name in ("lamp", "table", "chair", "rental", "employment"):
        assert name in result.output


def test_cli_roster_validate(tmp_path):
    (tmp_path / "roster.yaml").write_text(yaml.safe_dump(ROSTER))
    runner = CliRunner()
    result = runner.invoke(cli_main, ["roster", "validate", str(tmp_path / "roster.yaml")])
    assert result.exit_code == 0
    assert "5 agents ok" in result.output


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
    status = runner.invoke(cli_main, ["status", "--config", str(path)])
    assert status.exit_code == 0
    assert "scheduled=4" in status.output
    assert "pending=0" in status.output
    resume = runner.invoke(cli_main, ["resume", "--config", str(path)])
    assert resume.exit_code == 0
    assert "executed=0" in resume.output
    assert "skipped=4" in resume.output
