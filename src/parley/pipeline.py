"""Operator pipeline: catalog -> tournament -> scoring -> features -> style ->
analysis, with every artifact stamped by the configuration hash.

Stages are idempotent for scripted rosters: rerunning a stage with unchanged
inputs rewrites byte-identical data artifacts (the run report carries wall
clock and is the one status artifact excluded from that guarantee).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from random import Random

import yaml

from .agents import (
    AgentSpec,
    BackendBinding,
    ChatModelClient,
    load_roster,
)
from .catalog import ScenarioSpec, load_catalog
from .errors import (
    ConfigurationError,
    ParleyError,
    PrerequisiteError,
    SchemaError,
)
from .features import (
    FEATURE_NAMES,
    FEATURE_TABLE_COLUMNS,
    feature_rows,
    load_default_lexicons,
)
from .scoring import (
    OUTCOME_TABLE_COLUMNS,
    AgentSummary,
    aggregate_outcomes,
    extract_agreement,
    outcome_rows,
    score_outcome,
)
from .session import load_svi_items
from .stats import FitResult, ModelSpec, ObservationRow, fit_with_clusters, summarize_fit
from .style import STYLE_TABLE_COLUMNS, StyleScores, score_prompt_style
from .tables import provenance_line, read_table, write_table
from .tournament import (
    RANKING_METRICS,
    TournamentState,
    TranscriptStore,
    build_schedule,
    ranking_trajectory,
    read_checkpoint,
    run_tournament,
)

STAGES = ("run", "score", "features", "style", "analyze", "report")

# regression outcomes per scenario kind: (column, family)
ANALYSIS_MODELS = {
    "distributive": (
        ("deal", "logistic"),
        ("value_claimed", "linear"),
        ("counterpart_sv", "linear"),
    ),
    "integrative": (
        ("deal", "logistic"),
        ("points", "linear"),
        ("value_created", "linear"),
        ("counterpart_sv", "linear"),
        ("proportion_of_pie", "linear"),
    ),
}


@dataclass
class RunConfig:
    roster_path: Path
    scenario_set: list[str]
    output_dir: Path
    checkpoint_path: Path
    base_seed: int = 7
    concurrency_limit: int = 4
    backend_defaults: dict = field(default_factory=dict)
    style_mode: str = "synthetic"  # "synthetic" | "model"
    style_seed: int = 11
    style_rater: dict = field(default_factory=dict)
    standardize: bool = True
    small_sample: bool = False
    analysis_terms: list[str] = field(default_factory=lambda: ["main"])
    heatmap_bins: int = 10
    ranking_metric: str = "value_claimed"
    svi_items_path: Path | None = None
    lexicon_dir: Path | None = None
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a mapping")
    for key in ("roster", "scenarios", "output_dir"):
        if key not in raw:
            raise SchemaError(f"{path}: missing config key {key!r}")

    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    output_dir = resolve(raw["output_dir"])
    style = raw.get("style", {})
    backend = dict(raw.get("backend", {}))
    temperature = float(backend.get("temperature", 0.20))
    if not 0.0 <= temperature <= 2.0:
        raise SchemaError(f"{path}: temperature must lie in [0, 2]")
    backend["temperature"] = temperature

    config = RunConfig(
        roster_path=resolve(raw["roster"]),
        scenario_set=list(raw["scenarios"]),
        output_dir=output_dir,
        checkpoint_path=(
            resolve(raw["checkpoint"])
            if "checkpoint" in raw
            else output_dir / "checkpoint.json"
        ),
        base_seed=int(raw.get("base_seed", 7)),
        concurrency_limit=int(raw.get("concurrency_limit", 4)),
        backend_defaults=backend,
        style_mode=style.get("mode", "synthetic"),
        style_seed=int(style.get("seed", 11)),
        style_rater=dict(style.get("rater", {})),
        standardize=bool(raw.get("standardize", True)),
        small_sample=bool(raw.get("small_sample", False)),
        analysis_terms=list(raw.get("analysis_terms", ["main"])),
        heatmap_bins=int(raw.get("heatmap_bins", 10)),
        ranking_metric=raw.get("ranking_metric", "value_claimed"),
        svi_items_path=resolve(raw["svi_items"]) if "svi_items" in raw else None,
        lexicon_dir=resolve(raw["lexicons"]) if "lexicons" in raw else None,
        raw=raw,
    )
    if not config.roster_path.exists():
        raise SchemaError(f"roster file not found: {config.roster_path}")
    if config.style_mode not in ("synthetic", "model"):
        raise SchemaError(f"unknown style mode {config.style_mode!r}")
    if config.ranking_metric not in RANKING_METRICS:
        raise SchemaError(f"unknown ranking metric {config.ranking_metric!r}")
    for terms in config.analysis_terms:
        if terms not in ("main", "quadratic", "interaction"):
            raise SchemaError(f"unknown analysis terms {terms!r}")
    return config


class Pipeline:
    """Binds a config to its artifacts and runs stages in dependency order."""

    def __init__(self, config: RunConfig, client: ChatModelClient | None = None):
        self.config = config
        self.client = client
        config.output_dir.mkdir(parents=True, exist_ok=True)
        self.transcripts_path = config.output_dir / "transcripts.jsonl"
        self.outcomes_path = config.output_dir / "outcomes.csv"
        self.features_path = config.output_dir / "features.csv"
        self.style_path = config.output_dir / "style.csv"
        self.analysis_dir = config.output_dir / "analysis"
        self.report_path = config.output_dir / "run_report.txt"
        self._roster: list[AgentSpec] | None = None
        self._scenarios: dict[str, ScenarioSpec] | None = None

    # shared inputs ---------------------------------------------------------

    @property
    def roster(self) -> list[AgentSpec]:
        if self._roster is None:
            self._roster = load_roster(
                self.config.roster_path, self.config.backend_defaults
            )
        return self._roster

    @property
    def scenarios(self) -> dict[str, ScenarioSpec]:
        if self._scenarios is None:
            specs = {}
            for entry in self.config.scenario_set:
                for spec in load_catalog(entry):
                    specs[spec.scenario_id] = spec
            self._scenarios = specs
        return self._scenarios

    def _svi_items(self):
        return load_svi_items(self.config.svi_items_path)

    def _lexicons(self):
        return load_default_lexicons(self.config.lexicon_dir)

    def tournament(self) -> tuple[TournamentState, TranscriptStore]:
        """The schedule with its restored failures, and the transcript store,
        which alone says which negotiations are done."""
        schedule = build_schedule(
            self.roster, list(self.scenarios.keys()), self.config.base_seed
        )
        state = TournamentState(roster=self.roster, schedule=schedule)
        read_checkpoint(self.config.checkpoint_path, state)
        return state, TranscriptStore(self.transcripts_path, self.config.config_hash)

    def _load_transcripts(self):
        """The stored transcripts in negotiation-id order."""
        if not self.transcripts_path.exists():
            raise PrerequisiteError(
                "no transcript store found; run the 'run' stage first"
            )
        store = TranscriptStore(self.transcripts_path, self.config.config_hash)
        return sorted(store.load(), key=lambda t: t.negotiation_id)

    def _scored(self):
        """Yield each stored transcript with its outcome, scored from the
        marker-extracted terms, in negotiation-id order."""
        for transcript in self._load_transcripts():
            scenario = self.scenarios[transcript.scenario_id]
            terms = extract_agreement(transcript, scenario, extractor="marker")
            yield transcript, score_outcome(transcript, scenario, terms)

    # stages ----------------------------------------------------------------

    def run_stages(self, stages: list[str]) -> dict:
        unknown = [s for s in stages if s not in STAGES]
        if unknown:
            raise ConfigurationError(
                f"unknown stage(s): {', '.join(unknown)}; valid: {', '.join(STAGES)}"
            )
        results = {}
        for stage in STAGES:
            if stage in stages:
                results[stage] = getattr(self, f"stage_{stage}")()
        return results

    def stage_run(self):
        state, store = self.tournament()
        report = run_tournament(
            state,
            self.scenarios,
            store,
            self.config.checkpoint_path,
            concurrency_limit=self.config.concurrency_limit,
            client=self.client,
            svi_items=self._svi_items(),
        )
        lines = [
            f"config={self.config.config_hash}",
            f"scheduled={report.scheduled}",
            f"executed={report.executed}",
            f"skipped={report.skipped}",
            f"failed={report.failed}",
            f"wall_clock_seconds={report.wall_clock_seconds:.3f}",
        ]
        if self.client is not None:
            lines.append(f"token_usage={json.dumps(self.client.usage, sort_keys=True)}")
        for pairing, cause in state.failed:
            lines.append(
                f"failed_pairing={pairing.exercise}:{pairing.first_role_agent}"
                f"~{pairing.second_role_agent} cause={cause}"
            )
        self.report_path.write_text("\n".join(lines) + "\n")
        return report

    def stage_score(self):
        rows = [
            row
            for transcript, outcome in self._scored()
            for row in outcome_rows(outcome, transcript)
        ]
        write_table(
            self.outcomes_path, OUTCOME_TABLE_COLUMNS, rows, self.config.config_hash
        )
        return rows

    def stage_features(self):
        transcripts = self._load_transcripts()
        lexicons = self._lexicons()
        rows = []
        for transcript in transcripts:
            rows.extend(feature_rows(transcript, lexicons))
        write_table(
            self.features_path, FEATURE_TABLE_COLUMNS, rows, self.config.config_hash
        )
        return rows

    def stage_style(self):
        scores: list[StyleScores] = []
        if self.config.style_mode == "synthetic":
            for agent in self.roster:
                rng = Random(f"{self.config.style_seed}:{agent.agent_id}")
                scores.append(
                    StyleScores(
                        agent_id=agent.agent_id,
                        warmth=rng.randint(0, 100),
                        dominance=rng.randint(0, 100),
                        rater=f"synthetic@{self.config.style_seed}",
                    )
                )
        else:
            if self.client is None:
                raise ConfigurationError("style mode 'model' requires a chat client")
            rater = self.config.style_rater
            binding = BackendBinding(
                kind="chat_model",
                model_name=rater.get("model_name", ""),
                endpoint=rater.get("endpoint", ""),
                temperature=float(rater.get("temperature", 0.0)),
            )
            binding.validate()
            for agent in self.roster:
                scores.append(
                    score_prompt_style(
                        agent.prompt_text, self.client, binding, agent_id=agent.agent_id
                    )
                )
        rows = sorted((asdict(s) for s in scores), key=lambda r: r["agent_id"])
        write_table(self.style_path, STYLE_TABLE_COLUMNS, rows, self.config.config_hash)
        return rows

    # analysis ----------------------------------------------------------------

    def _styles_by_agent(self) -> dict[str, tuple[float, float]]:
        if not self.style_path.exists():
            raise PrerequisiteError("no style table found; run the 'style' stage first")
        _, style_rows = read_table(self.style_path, self.config.config_hash)
        return {
            r["agent_id"]: (float(r["warmth"]), float(r["dominance"]))
            for r in style_rows
        }

    def _outcome_rows(self) -> list[dict]:
        if not self.outcomes_path.exists():
            raise PrerequisiteError("no outcome table found; run the 'score' stage first")
        _, rows = read_table(self.outcomes_path, self.config.config_hash)
        return rows

    def stage_analyze(self):
        out_rows = self._outcome_rows()
        styles = self._styles_by_agent()
        self.analysis_dir.mkdir(parents=True, exist_ok=True)

        # (key, table, exercise or None for pooled, column, family, terms, title)
        jobs = []
        for scenario_id, spec in sorted(self.scenarios.items()):
            for column, family in ANALYSIS_MODELS[spec.kind]:
                for terms in self.config.analysis_terms:
                    suffix = "" if terms == "main" else f"_{terms}"
                    jobs.append((
                        f"{scenario_id}_{column}{suffix}", out_rows, scenario_id,
                        column, family, terms,
                        f"{scenario_id}: {column} ({family}, {terms})",
                    ))
        # communication features as responses, pooled across exercises
        if self.features_path.exists():
            _, feat_rows = read_table(self.features_path, self.config.config_hash)
            for column in FEATURE_NAMES:
                jobs.append((
                    f"features_{column}", feat_rows, None, column, "linear", "main",
                    f"pooled: {column} (linear, main)",
                ))

        results: dict[str, dict] = {}
        for key, table, exercise, column, family, terms, title in jobs:
            rows = build_observation_rows(
                table, styles, exercise=exercise, y_column=column
            )
            # logistic fits standardize predictors only; the response stays
            # binary
            model = ModelSpec(
                family=family, terms=terms, standardize=self.config.standardize
            )
            try:
                fit = fit_with_clusters(rows, model, small_sample=self.config.small_sample)
            except ParleyError as exc:
                results[key] = {"skipped": str(exc)}
                (self.analysis_dir / f"{key}.txt").write_text(f"{key}: skipped ({exc})\n")
                continue
            emit_fit(fit, self.analysis_dir / key, self.config.config_hash, title)
            results[key] = fit_result_payload(fit)

        grid_metrics = ("value_claimed", "deal")
        for metric in grid_metrics:
            grid = heatmap_grid(out_rows, styles, metric, bins=self.config.heatmap_bins)
            emit_heatmap_grid(
                grid,
                self.analysis_dir / f"heatmap_{metric}.csv",
                self.config.config_hash,
            )

        payload = json.dumps(
            {"config": self.config.config_hash, "models": results},
            indent=1,
            sort_keys=True,
        )
        (self.analysis_dir / "analysis_results.json").write_text(payload + "\n")
        return results

    def stage_report(self):
        outcomes = [outcome for _, outcome in self._scored()]
        summaries = aggregate_outcomes(outcomes)
        # summary.csv names the scenario "exercise", like every other table
        summary_rows = []
        for summary in summaries:
            row = asdict(summary)
            row["exercise"] = row.pop("scenario_id")
            summary_rows.append(row)
        write_table(
            self.config.output_dir / "summary.csv",
            tuple(
                "exercise" if f.name == "scenario_id" else f.name
                for f in fields(AgentSummary)
            ),
            summary_rows,
            self.config.config_hash,
        )

        trajectory = ranking_trajectory(
            outcomes, self.config.ranking_metric, self.config.base_seed
        )
        rank_rows = []
        for agent_id in sorted(trajectory.ranks):
            for k, rank in zip(trajectory.sample_counts, trajectory.ranks[agent_id]):
                curve = trajectory.curves[agent_id]
                rank_rows.append(
                    {
                        "agent_id": agent_id,
                        "samples": k,
                        "cumulative_mean": curve[min(k, len(curve)) - 1],
                        "rank": rank,
                    }
                )
        write_table(
            self.config.output_dir / f"rankings_{self.config.ranking_metric}.csv",
            ("agent_id", "samples", "cumulative_mean", "rank"),
            rank_rows,
            self.config.config_hash,
        )
        return summaries


def build_observation_rows(
    outcome_table: list[dict],
    styles: dict[str, tuple[float, float]],
    exercise: str | None,
    y_column: str,
) -> list[ObservationRow]:
    """Join an agent-observation table against style scores into regression
    rows; ``exercise=None`` pools every exercise.

    Rows whose response column is blank (e.g. missing counterpart SV, or
    mimicry for a seat that only opened) are excluded, mirroring how missing
    questionnaires drop out of SV analyses.
    """
    rows = []
    for record in outcome_table:
        if exercise is not None and record["exercise"] != exercise:
            continue
        raw = record.get(y_column, "")
        if raw == "":
            continue
        agent_id = record["agent_id"]
        if agent_id not in styles:
            raise PrerequisiteError(
                f"agent {agent_id!r} missing from the style table; rerun 'style'"
            )
        warmth, dominance = styles[agent_id]
        rows.append(
            ObservationRow(
                y=float(raw),
                warmth=warmth,
                dominance=dominance,
                cluster_agent=record["cluster_agent"],
                cluster_dyad=record["cluster_dyad"],
                cluster_negotiation=record["cluster_negotiation"],
                exercise=record["exercise"],
            )
        )
    return rows


def fit_result_payload(fit: FitResult) -> dict:
    payload = {
        "family": fit.spec.family,
        "terms": fit.spec.terms,
        "standardized": fit.spec.standardize,
        "n": fit.n,
        "cluster_dims": list(fit.cluster_dims),
        "vcov_repaired": fit.vcov_repaired,
        "coefficients": {
            name: {
                "estimate": float(coef),
                "std_error": float(se),
                "ci_low": float(lo),
                "ci_high": float(hi),
                "p_value": float(p),
            }
            for name, coef, se, (lo, hi), p in zip(
                fit.columns,
                fit.coefficients,
                fit.std_errors,
                fit.conf_int,
                fit.p_values,
            )
        },
    }
    if fit.r_squared is not None:
        payload["r_squared"] = float(fit.r_squared)
    if fit.log_likelihood is not None:
        payload["log_likelihood"] = float(fit.log_likelihood)
    return payload


def emit_fit(fit: FitResult, stem: str | Path, config_hash: str, title: str = "") -> None:
    """Write a regression table twice: ``stem.txt``, stamped and laid out for
    reading, and ``stem.csv``, whose floats round-trip losslessly."""
    stem = Path(stem)
    (stem.parent / f"{stem.name}.txt").write_text(
        provenance_line(config_hash) + "\n" + summarize_fit(fit, title=title)
    )
    rows = [
        {
            "term": name,
            "estimate": repr(float(coef)),
            "std_error": repr(float(se)),
            "ci_low": repr(float(lo)),
            "ci_high": repr(float(hi)),
            "p_value": repr(float(p)),
        }
        for name, coef, se, (lo, hi), p in zip(
            fit.columns, fit.coefficients, fit.std_errors, fit.conf_int, fit.p_values
        )
    ]
    write_table(
        stem.parent / f"{stem.name}.csv",
        ("term", "estimate", "std_error", "ci_low", "ci_high", "p_value"),
        rows,
        config_hash,
    )


@dataclass
class HeatmapGrid:
    metric: str
    bins: int
    cells: list[dict]  # warmth_bin, dominance_bin, mean, count


def heatmap_grid(
    outcome_table: list[dict],
    styles: dict[str, tuple[float, float]],
    metric: str,
    bins: int = 10,
) -> HeatmapGrid:
    """Bin per-agent outcome means on the warmth x dominance plane.

    Emits the pre-interpolation grid (bin means plus occupancy counts) for
    external contour plotting.
    """
    import warnings

    if bins < 1:
        raise ConfigurationError("bins must be >= 1")
    per_agent: dict[str, list[float]] = {}
    for record in outcome_table:
        raw = record.get(metric, "")
        if raw == "":
            continue
        per_agent.setdefault(record["agent_id"], []).append(float(raw))
    if not per_agent:
        raise PrerequisiteError(f"no outcomes carry metric {metric!r}")

    step = 100.0 / bins
    cells: dict[tuple[int, int], list[float]] = {}
    for agent_id, values in per_agent.items():
        if agent_id not in styles:
            continue
        warmth, dominance = styles[agent_id]
        wb = min(int(warmth // step), bins - 1)
        db = min(int(dominance // step), bins - 1)
        cells.setdefault((wb, db), []).append(sum(values) / len(values))

    if not cells:
        raise PrerequisiteError(
            f"no agent has both style scores and {metric!r} outcomes"
        )
    if len(cells) == 1:
        warnings.warn(
            f"all agents fall in a single {metric} heatmap cell", stacklevel=2
        )
    grid = HeatmapGrid(metric=metric, bins=bins, cells=[])
    for (wb, db), means in sorted(cells.items()):
        grid.cells.append(
            {
                "warmth_bin": wb,
                "dominance_bin": db,
                "warmth_low": wb * step,
                "dominance_low": db * step,
                "mean": sum(means) / len(means),
                "count": len(means),
            }
        )
    return grid


def emit_heatmap_grid(grid: HeatmapGrid, path: str | Path, config_hash: str) -> Path:
    write_table(
        path,
        ("warmth_bin", "dominance_bin", "warmth_low", "dominance_low", "mean", "count"),
        grid.cells,
        config_hash,
    )
    return Path(path)
