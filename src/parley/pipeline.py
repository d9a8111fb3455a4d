"""Operator pipeline: catalog -> tournament -> scoring -> features -> style ->
analysis, with every artifact stamped by the configuration hash.

Stages are idempotent for scripted rosters: rerunning a stage with unchanged
inputs rewrites byte-identical data artifacts (the run report carries wall
clock and is the one status artifact excluded from that guarantee).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from random import Random

from .agents import (
    BACKEND_KEYS,
    AgentSpec,
    BackendBinding,
    ChatModelClient,
    checked_backend,
    load_roster,
)
from .catalog import ScenarioSpec, load_catalog, read_yaml, typed, typed_mapping
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
    RANKING_COLUMNS,
    RANKING_METRICS,
    SUMMARY_COLUMNS,
    aggregate_outcomes,
    extract_agreement,
    ranking_rows,
    score_outcome,
)
from .session import load_svi_items
from .stats import MODEL_TERMS, FitResult, ModelSpec, ObservationRow, fit_with_clusters, summarize_fit
from .style import STYLE_TABLE_COLUMNS, score_prompt_style
from .tables import is_blank, provenance_line, read_table, write_table
from .tournament import (
    TournamentState,
    TranscriptStore,
    build_schedule,
    read_checkpoint,
    run_tournament,
)

STAGES = ("run", "score", "features", "style", "analyze", "report")
# the stages that read transcripts: those stored before the call in one pass
# over the store, then each one the call's run stage stores as it stores it
READING_STAGES = ("score", "features", "report")
STYLE_MODES = ("synthetic", "model")
# the keys a config, its style section and the style rater may set
CONFIG_KEYS = (
    "roster", "scenarios", "output_dir", "checkpoint", "base_seed", "concurrency_limit",
    "backend", "style", "standardize", "small_sample", "analysis_terms", "heatmap_bins",
    "ranking_metric", "svi_items", "lexicons",
)
STYLE_KEYS = ("mode", "seed", "rater")
RATER_KEYS = ("model_name", "endpoint", "temperature")

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
    base_seed: int
    concurrency_limit: int
    backend_defaults: dict
    style_mode: str  # one of STYLE_MODES
    style_seed: int
    style_rater: BackendBinding  # the model rater
    standardize: bool
    small_sample: bool
    analysis_terms: list[str]
    heatmap_bins: int
    ranking_metric: str
    svi_items_path: Path | None
    lexicon_dir: Path | None
    raw: dict

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    raw = typed_mapping(
        path, "top level", read_yaml(path), CONFIG_KEYS, required=("roster", "scenarios", "output_dir")
    )

    def resolve(key: str) -> Path | None:
        """The path at ``key``, taken from the config's folder; None when unset."""
        if key not in raw:
            return None
        p = Path(typed(path, key, raw[key], str))
        return p if p.is_absolute() else path.parent / p

    output_dir = resolve("output_dir")
    style = typed_mapping(path, "style", raw.get("style", {}), STYLE_KEYS)
    style_mode = typed(path, "style.mode", style.get("mode", "synthetic"), str, choices=STYLE_MODES)
    rater = typed_mapping(path, "style.rater", style.get("rater", {}), RATER_KEYS)
    style_rater = checked_backend(path, "style.rater", {"temperature": 0.0, **rater})
    if style_mode == "model":
        # refused now, not once every negotiation has been played
        for name in ("model_name", "endpoint"):
            if not getattr(style_rater, name):
                raise SchemaError(f"{path}: style.rater.{name} must be set when style.mode is model")
    # the config's api_key goes to the chat client; the rest are defaults
    # for each chat model's backend, checked here even when no agent takes them
    backend = typed_mapping(path, "backend", raw.get("backend", {}), (*BACKEND_KEYS, "api_key"))
    checked_backend(path, "backend", backend)
    typed(path, "backend.api_key", backend.get("api_key", ""), str)
    analysis_terms = list(typed(path, "analysis_terms", raw.get("analysis_terms", ["main"]), list))
    for i, terms in enumerate(analysis_terms):
        typed(path, f"analysis_terms[{i}]", terms, str, choices=MODEL_TERMS)

    config = RunConfig(
        roster_path=resolve("roster"),
        scenario_set=[
            typed(path, f"scenarios[{i}]", entry, str)
            for i, entry in enumerate(typed(path, "scenarios", raw["scenarios"], list))
        ],
        output_dir=output_dir,
        checkpoint_path=resolve("checkpoint") or output_dir / "checkpoint.json",
        base_seed=typed(path, "base_seed", raw.get("base_seed", 7), int),
        concurrency_limit=typed(
            path, "concurrency_limit", raw.get("concurrency_limit", 4), int, bounds=(1, None)
        ),
        backend_defaults=backend,
        style_mode=style_mode,
        style_seed=typed(path, "style.seed", style.get("seed", 11), int),
        style_rater=style_rater,
        standardize=typed(path, "standardize", raw.get("standardize", True), bool),
        small_sample=typed(path, "small_sample", raw.get("small_sample", False), bool),
        analysis_terms=analysis_terms,
        heatmap_bins=typed(path, "heatmap_bins", raw.get("heatmap_bins", 10), int, bounds=(1, None)),
        ranking_metric=typed(
            path, "ranking_metric", raw.get("ranking_metric", "value_claimed"), str,
            choices=RANKING_METRICS,
        ),
        svi_items_path=resolve("svi_items"),
        lexicon_dir=resolve("lexicons"),
        raw=raw,
    )
    if not config.roster_path.exists():
        raise SchemaError(f"{path}: roster file not found: {config.roster_path}")
    return config


class Pipeline:
    """Binds a config to its artifacts and runs stages in dependency order."""

    def __init__(self, config: RunConfig, client: ChatModelClient | None = None):
        self.config = config
        # a scripted run sends nothing; a caller may pass a client with its own transport
        self.client = client or ChatModelClient(api_key=config.backend_defaults.get("api_key", ""))
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

    def tournament(
        self, store: TranscriptStore | None = None
    ) -> tuple[TournamentState, TranscriptStore]:
        """The schedule with its restored failures, and the transcript store,
        which alone says which negotiations are done: ``store``, or the file
        opened (and scanned) now."""
        schedule = build_schedule(
            self.roster, list(self.scenarios.keys()), self.config.base_seed
        )
        state = TournamentState(roster=self.roster, schedule=schedule)
        read_checkpoint(self.config.checkpoint_path, state)
        if store is None:
            store = TranscriptStore(self.transcripts_path, self.config.config_hash)
        return state, store

    def _outcome(self, transcript) -> list[dict]:
        """The transcript's two outcome rows, scored from its marker-extracted
        terms."""
        scenario = self.scenarios[transcript.scenario_id]
        terms = extract_agreement(transcript, scenario)
        return score_outcome(transcript, scenario, terms)

    # stages ----------------------------------------------------------------

    def run_stages(self, stages: list[str]) -> dict:
        unknown = [s for s in stages if s not in STAGES]
        if unknown:
            raise ConfigurationError(
                f"unknown stage(s): {', '.join(unknown)}; valid: {', '.join(STAGES)}"
            )
        call = _Call(self, stages)
        return {
            stage: getattr(self, f"stage_{stage}")(call) for stage in STAGES if stage in stages
        }

    def stage_run(self, call: _Call):
        state, store = self.tournament(call.store)
        report = run_tournament(
            state,
            self.scenarios,
            store,
            self.config.checkpoint_path,
            concurrency_limit=self.config.concurrency_limit,
            client=self.client,
            svi_items=call.svi_items,
            on_stored=call.hand_over if call.steps else None,
        )
        lines = [
            f"config={self.config.config_hash}",
            f"scheduled={report.scheduled}",
            f"executed={report.executed}",
            f"skipped={report.skipped}",
            f"failed={report.failed}",
            f"wall_clock_seconds={report.wall_clock_seconds:.3f}",
            f"token_usage={json.dumps(self.client.usage, sort_keys=True)}",
        ]
        for pairing, cause in state.failed:
            lines.append(
                f"failed_pairing={pairing.exercise}:{pairing.first_role_agent}"
                f"~{pairing.second_role_agent} cause={cause}"
            )
        self.report_path.write_text("\n".join(lines) + "\n")
        return report

    def stage_score(self, call: _Call):
        return call.write(self.outcomes_path, OUTCOME_TABLE_COLUMNS, call.take("score"))

    def stage_features(self, call: _Call):
        return call.write(self.features_path, FEATURE_TABLE_COLUMNS, call.take("features"))

    def stage_style(self, call: _Call):
        seed = self.config.style_seed
        rows = []
        for agent in self.roster:
            if self.config.style_mode == "synthetic":
                rng = Random(f"{seed}:{agent.agent_id}")
                scores = (rng.randint(0, 100), rng.randint(0, 100), f"synthetic@{seed}")
                rows.append(dict(zip(STYLE_TABLE_COLUMNS, (agent.agent_id, *scores))))
            else:
                rows.append(score_prompt_style(
                    agent.prompt_text, self.client, self.config.style_rater, agent.agent_id
                ))
        rows.sort(key=lambda r: r["agent_id"])
        return call.write(self.style_path, STYLE_TABLE_COLUMNS, rows)

    # analysis ----------------------------------------------------------------

    def stage_analyze(self, call: _Call):
        out_rows = call.table_rows(self.outcomes_path)
        if out_rows is None:
            raise PrerequisiteError("no outcome table found; run the 'score' stage first")
        style_rows = call.table_rows(self.style_path)
        if style_rows is None:
            raise PrerequisiteError("no style table found; run the 'style' stage first")
        styles = {
            r["agent_id"]: (float(r["warmth"]), float(r["dominance"]))
            for r in style_rows
        }
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
        feat_rows = call.table_rows(self.features_path)
        if feat_rows is not None:
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
                # a fit an earlier config wrote must not sit beside the note
                (self.analysis_dir / f"{key}.csv").unlink(missing_ok=True)
                continue
            emit_fit(fit, self.analysis_dir / key, self.config.config_hash, title)
            results[key] = fit_result_payload(fit)

        for metric in ("value_claimed", "deal"):
            write_table(
                self.analysis_dir / f"heatmap_{metric}.csv",
                HEATMAP_COLUMNS,
                heatmap_rows(out_rows, styles, metric, self.config.heatmap_bins),
                self.config.config_hash,
            )

        payload = json.dumps(
            {"config": self.config.config_hash, "models": results},
            indent=1,
            sort_keys=True,
        )
        (self.analysis_dir / "analysis_results.json").write_text(payload + "\n")
        return results

    def stage_report(self, call: _Call):
        rows = call.take("report")
        summaries = aggregate_outcomes(rows)
        write_table(
            self.config.output_dir / "summary.csv",
            SUMMARY_COLUMNS,
            summaries,
            self.config.config_hash,
        )
        write_table(
            self.config.output_dir / f"rankings_{self.config.ranking_metric}.csv",
            RANKING_COLUMNS,
            ranking_rows(rows, self.config.ranking_metric, self.config.base_seed),
            self.config.config_hash,
        )
        return summaries


class _Call:
    """What one ``run_stages`` call owns: the transcript store as the call
    found it, the per-transcript step of each of its reading stages (outcome
    rows for score and for report, feature rows for features) with the rows
    each gathered, the first error a step raised during the run stage, the
    questionnaire items, and the rows of each table analyze reads that the
    call wrote.

    Making one reads every input the call needs before any stage runs: the
    lexicons, then for a model-rated style stage the roster, which must give
    every agent a prompt, then for a run stage the roster, scenarios and
    questionnaire, then the store. The scan that opens the store hands every transcript
    stored before the call to the steps, in file order; the run stage hands
    over each one it stores after. A bad input file, a damaged record or a
    step that raises on a stored record fails here, before anything is
    played or written."""

    def __init__(self, pipeline: Pipeline, stages: list[str]):
        config = pipeline.config
        self.config_hash = config.config_hash
        lexicons = load_default_lexicons(config.lexicon_dir) if "features" in stages else None
        if "style" in stages and config.style_mode == "model":
            for agent in pipeline.roster:
                if not agent.prompt_text:
                    raise SchemaError(
                        f"{config.roster_path}: agent {agent.agent_id!r} prompt must be set "
                        "when style.mode is model"
                    )
        steps = {
            "score": pipeline._outcome,
            "features": lambda t: feature_rows(t, lexicons),
        }
        # report scores each transcript a second time, into the same rows
        steps["report"] = steps["score"]
        self.steps: dict[str, Callable] = {
            stage: steps[stage] for stage in READING_STAGES if stage in stages
        }
        # each reading stage's rows, keyed by negotiation id
        self.gathered: dict[str, dict[str, list]] = {stage: {} for stage in self.steps}
        self.step_error: Exception | None = None
        self.written: dict[Path, list[dict]] = {}
        self.svi_items: list[dict] | None = None
        self.store: TranscriptStore | None = None
        if "run" in stages:
            _ = pipeline.roster, pipeline.scenarios
            self.svi_items = load_svi_items(config.svi_items_path)
        elif self.steps and not pipeline.transcripts_path.exists():
            raise PrerequisiteError("no transcript store found; run the 'run' stage first")
        if "run" in stages or self.steps:
            self.store = TranscriptStore(
                pipeline.transcripts_path, self.config_hash, self.gather if self.steps else None
            )

    def gather(self, transcript) -> None:
        for stage, step in self.steps.items():
            self.gathered[stage][transcript.negotiation_id] = step(transcript)

    def hand_over(self, transcript) -> None:
        """Feed a transcript the run stage has just stored to every step. A
        step that raises does not end the run; the first error is kept for
        the first reading stage to raise."""
        if self.step_error is None:
            try:
                self.gather(transcript)
            except Exception as exc:
                self.step_error = exc

    def take(self, stage: str) -> list:
        """What the steps gathered for ``stage``, in negotiation-id order; the
        first reading stage raises a step error kept from the run stage."""
        if self.step_error is not None:
            raise self.step_error
        rows = self.gathered.pop(stage)
        return [row for neg_id in sorted(rows) for row in rows[neg_id]]

    def write(self, path: Path, columns: tuple[str, ...], rows: list[dict]) -> list[dict]:
        """Write a table analyze reads, and keep its rows for this call's
        analyze stage."""
        write_table(path, columns, rows, self.config_hash)
        self.written[path] = rows
        return rows

    def table_rows(self, path: Path) -> list[dict] | None:
        """The rows of the table at ``path``: those this call wrote there,
        else the file's, read back under this config's hash; None when this
        call wrote no such table and there is no file."""
        if path in self.written:
            return self.written[path]
        if not path.exists():
            return None
        return read_table(path, self.config_hash)[1]


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
        raw = record.get(y_column)
        if is_blank(raw):
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
            )
        )
    return rows


TERM_STATS = ("estimate", "std_error", "ci_low", "ci_high", "p_value")


def term_rows(fit: FitResult) -> list[tuple[str, dict[str, float]]]:
    """One (term, {statistic: value}) per coefficient, in design order."""
    return [
        (name, dict(zip(TERM_STATS, map(float, (coef, se, lo, hi, p)))))
        for name, coef, se, (lo, hi), p in zip(
            fit.columns, fit.coefficients, fit.std_errors, fit.conf_int, fit.p_values
        )
    ]


def fit_result_payload(fit: FitResult) -> dict:
    payload = {
        "family": fit.spec.family,
        "terms": fit.spec.terms,
        "standardized": fit.spec.standardize,
        "n": fit.n,
        "cluster_dims": list(fit.cluster_dims),
        "vcov_repaired": fit.vcov_repaired,
        "coefficients": dict(term_rows(fit)),
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
        {"term": name, **{key: repr(value) for key, value in values.items()}}
        for name, values in term_rows(fit)
    ]
    write_table(stem.parent / f"{stem.name}.csv", ("term", *TERM_STATS), rows, config_hash)


HEATMAP_COLUMNS = ("warmth_bin", "dominance_bin", "warmth_low", "dominance_low", "mean", "count")


def heatmap_rows(
    outcome_table: list[dict],
    styles: dict[str, tuple[float, float]],
    metric: str,
    bins: int,
) -> list[dict]:
    """The heatmap table of ``metric``: per-agent outcome means binned on the
    warmth x dominance plane, one row per occupied cell in bin order with
    the mean of its agents' means and their count. This is the
    pre-interpolation grid, for external contour plotting."""
    per_agent: dict[str, list[float]] = {}
    for record in outcome_table:
        raw = record.get(metric)
        if is_blank(raw):
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
    return [
        dict(zip(HEATMAP_COLUMNS, (
            wb, db, wb * step, db * step, sum(means) / len(means), len(means)
        )))
        for (wb, db), means in sorted(cells.items())
    ]
