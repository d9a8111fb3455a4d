"""Command-line operator surface.

Exit codes: 0 success, 2 configuration error, 3 runtime failure,
4 validation failure.
"""

from __future__ import annotations

import sys

import click

from .agents import load_roster
from .catalog import BUILTIN_SCENARIOS, load_catalog
from .errors import (
    ArtifactMismatchError,
    ConfigurationError,
    NotFoundError,
    ParleyError,
    PrerequisiteError,
    SchemaError,
)
from .pipeline import Pipeline, load_config

EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VALIDATION = 4


def _fail(exc: ParleyError) -> None:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, (SchemaError, ConfigurationError, NotFoundError, PrerequisiteError)):
        sys.exit(EXIT_CONFIG)
    if isinstance(exc, ArtifactMismatchError):
        sys.exit(EXIT_VALIDATION)
    sys.exit(EXIT_RUNTIME)


@click.group()
def main():
    """Round-robin negotiation tournaments and their analysis pipeline."""


@main.command()
@click.argument("source", required=False)
def catalog(source):
    """List built-in scenarios, or validate scenario files at SOURCE."""
    try:
        specs = load_catalog(source)
    except ParleyError as exc:
        _fail(exc)
    # the loader refuses a scenario that breaks an invariant
    for spec in specs:
        shape = (
            f"{len(spec.issues)} issues" if spec.kind == "integrative" else "price only"
        )
        click.echo(f"{spec.scenario_id:<12} {spec.kind:<13} {shape:<10} ok")
    if source is None:
        click.echo(f"\nbuilt-ins: {', '.join(BUILTIN_SCENARIOS)}")


@main.group()
def roster():
    """Roster file operations."""


@roster.command("validate")
@click.argument("path")
def roster_validate(path):
    """Check a roster file parses and every backend binding is legal."""
    try:
        agents = load_roster(path)
    except ParleyError as exc:
        _fail(exc)
    for agent in agents:
        kind = agent.backend.kind
        detail = (
            agent.backend.policy_name if kind == "scripted" else agent.backend.model_name
        )
        click.echo(f"{agent.agent_id:<20} {kind:<11} {detail}")
    click.echo(f"{len(agents)} agents ok")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--stages", default="run", help="comma-separated subset of: run,score,features,style,analyze,report")
def run(config_path, stages):
    """Execute pipeline stages in dependency order."""
    try:
        pipeline = Pipeline(load_config(config_path))
        results = pipeline.run_stages([s.strip() for s in stages.split(",") if s.strip()])
    except ParleyError as exc:
        _fail(exc)
    if "run" in results:
        report = results["run"]
        click.echo(
            f"scheduled={report.scheduled} executed={report.executed} "
            f"skipped={report.skipped} failed={report.failed}"
        )
    click.echo("done")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.pass_context
def resume(ctx, config_path):
    """Resume an interrupted tournament (``run --stages run``); the transcript
    store says what is done."""
    ctx.invoke(run, config_path=config_path, stages="run")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def status(config_path):
    """Report schedule progress without executing anything."""
    try:
        pipeline = Pipeline(load_config(config_path))
        state, store = pipeline.tournament()
        pending = state.pending(pipeline.scenarios, store.ids)
    except ParleyError as exc:
        _fail(exc)
    click.echo(
        f"scheduled={len(state.schedule)} completed={len(store)} "
        f"failed={len(state.failed)} pending={len(pending)}"
    )


if __name__ == "__main__":
    main()
