"""Negotiation scenario definitions: payoff schedules, validation, evaluation.

Scenarios come in two kinds. Distributive scenarios negotiate a single price
and score each side's surplus against its BATNA. Integrative scenarios
negotiate several discrete issues, each with five labeled options worth a
different number of points to each role; an agreement must cover every issue.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import yaml

from .errors import EvaluationError, NotFoundError, SchemaError

BUILTIN_SCENARIOS = ("lamp", "table", "chair", "rental", "employment")


# What a close's key=value pairs can name, stated once: protocol reads a key
# of MARKER_KEY, and a scenario loads only when each issue's key matches it
# and each option label matches MARKER_LABEL, which a stated value always
# reads back as (so every complete close on it can be accepted).
MARKER_KEY = r"[A-Za-z_][A-Za-z0-9_]*"
MARKER_LABEL = r"[A-Z0-9_]+"


def issue_key(issue_name: str) -> str:
    """Machine-readable key for an issue name ("Rent Amount" -> "rent_amount")."""
    return issue_name.strip().lower().replace(" ", "_")


@dataclass(frozen=True)
class IssueSchedule:
    """One negotiable issue: five options, each worth points to each role."""

    issue_name: str
    # ordered (label, term, {role: points}) triples
    options: tuple[tuple[str, str, dict[str, int]], ...]

    @cached_property
    def key(self) -> str:
        return issue_key(self.issue_name)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.options)

    def points_for(self, label: str, role_name: str) -> int:
        for opt_label, _, points in self.options:
            if opt_label == label:
                return points[role_name]
        raise EvaluationError(
            f"issue {self.issue_name!r} has no option {label!r}"
        )


@dataclass(frozen=True)
class RoleSpec:
    """One seat at the table, with its confidential briefing and fallback."""

    role_name: str
    confidential_instructions: str
    batna_price: float | None = None  # distributive only
    impasse_points: int | None = None  # integrative only


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete negotiation case."""

    scenario_id: str
    kind: str  # "distributive" | "integrative"
    roles: tuple[RoleSpec, RoleSpec]
    issues: tuple[IssueSchedule, ...] = ()
    price_frame: dict[str, float] = field(default_factory=dict)
    max_exchanges: int = 50

    @property
    def role_names(self) -> tuple[str, str]:
        return (self.roles[0].role_name, self.roles[1].role_name)

    def role(self, role_name: str) -> RoleSpec:
        for role in self.roles:
            if role.role_name == role_name:
                return role
        raise NotFoundError(f"scenario {self.scenario_id!r} has no role {role_name!r}")

    def counterpart_role(self, role_name: str) -> str:
        first, second = self.role_names
        if role_name == first:
            return second
        if role_name == second:
            return first
        raise NotFoundError(f"scenario {self.scenario_id!r} has no role {role_name!r}")

    def issue(self, name_or_key: str) -> IssueSchedule:
        for issue in self.issues:
            if name_or_key in (issue.issue_name, issue.key):
                return issue
        raise EvaluationError(
            f"scenario {self.scenario_id!r} has no issue {name_or_key!r}"
        )


@dataclass(frozen=True)
class Assignment:
    """Final negotiated terms: option labels per issue, or a price, or impasse."""

    chosen: dict[str, str] = field(default_factory=dict)  # issue_name -> label
    agreed_price: float | None = None
    impasse: bool = False

    @classmethod
    def impasse_marker(cls) -> "Assignment":
        return cls(impasse=True)


def _render_points_schedule(issues: tuple[IssueSchedule, ...], role_name: str) -> str:
    """Render a role's option/points tables from the checked schedules."""
    blocks = []
    for issue in issues:
        lines = [
            f"{issue.issue_name.upper()} - Option & Points"
            " (you can only agree to these; no in-between or other options):"
        ]
        for label, term, points in issue.options:
            lines.append(f"  {label}. {term} = {points[role_name]} points")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# the keys a scenario file may set at each level; ``price_frame`` is free-form
SCENARIO_KEYS = (*(f.name for f in fields(ScenarioSpec)), "schema_version")
ROLE_KEYS = tuple(f.name for f in fields(RoleSpec))
ISSUE_KEYS = tuple(f.name for f in fields(IssueSchedule))
OPTION_KEYS = ("label", "term", "points")


def _parse_scenario(raw, source: str) -> ScenarioSpec:
    typed_mapping(source, "top level", raw, SCENARIO_KEYS, required=("scenario_id", "kind", "roles"))
    scenario_id = typed(source, "scenario_id", raw["scenario_id"], str)
    kind = typed(source, "kind", raw["kind"], str, choices=("distributive", "integrative"))

    raw_roles = raw["roles"]
    if not isinstance(raw_roles, list) or len(raw_roles) != 2:
        raise SchemaError(f"{source}: roles must list exactly two roles")

    def number(raw_role: dict, key: str):
        value = raw_role.get(key)
        if value is None:
            return None
        return typed(source, f"role {raw_role['role_name']!r} {key}", value, (int, float))

    roles = []
    for i, raw_role in enumerate(raw_roles):
        typed_mapping(source, f"roles[{i}]", raw_role, ROLE_KEYS, required=("role_name",))
        role_name = typed(source, f"roles[{i}].role_name", raw_role["role_name"], str)
        instructions = raw_role.get("confidential_instructions", "")
        roles.append(
            RoleSpec(
                role_name=role_name,
                confidential_instructions=typed(
                    source, f"role {role_name!r} confidential_instructions", instructions, str
                ),
                batna_price=number(raw_role, "batna_price"),
                impasse_points=number(raw_role, "impasse_points"),
            )
        )

    issues = []
    for i, raw_issue in enumerate(typed(source, "issues", raw.get("issues", []), list)):
        typed_mapping(source, f"issues[{i}]", raw_issue, ISSUE_KEYS, required=("issue_name",))
        name = typed(source, f"issues[{i}].issue_name", raw_issue["issue_name"], str)
        options = []
        for opt in typed(source, f"issue {name!r} options", raw_issue.get("options", []), list):
            typed_mapping(source, f"issue {name!r} option", opt, OPTION_KEYS, required=OPTION_KEYS)
            label = typed(source, f"issue {name!r} option label", opt["label"], str)
            where = f"issue {name!r} option {label!r} points"
            points = typed(source, where, opt["points"], dict)
            for role_name, value in points.items():
                typed(source, f"{where}.{role_name}", value, int)
            term = typed(source, f"issue {name!r} option {label!r} term", opt["term"], str)
            options.append((label, term, dict(points)))
        issues.append(IssueSchedule(name, tuple(options)))

    price_frame = dict(typed(source, "price_frame", raw.get("price_frame", {}), dict))
    if "original_new_price" in price_frame:  # the stonewaller's selling demand
        price = price_frame["original_new_price"]
        typed(source, "price_frame.original_new_price", price, (int, float), bounds=(0, None))
    spec = ScenarioSpec(
        scenario_id=scenario_id,
        kind=kind,
        roles=(roles[0], roles[1]),
        issues=tuple(issues),
        price_frame=price_frame,
        max_exchanges=typed(source, "max_exchanges", raw.get("max_exchanges", 50), int),
    )
    report = validate_scenario(spec)
    if report:
        raise SchemaError(f"{source}: " + "; ".join(report))
    # a briefing shows the schedules only once they have passed every check
    return replace(spec, roles=tuple(
        replace(role, confidential_instructions=role.confidential_instructions.replace(
            "{points_schedule}", _render_points_schedule(spec.issues, role.role_name)
        ))
        for role in spec.roles
    ))


# libyaml's parser when PyYAML was built with it; a PyYAML without libyaml
# is a supported install, and its pure-Python parser builds the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path) -> object:
    """``yaml.safe_load`` of a file or package resource (anything with
    ``read_text``); text that is not YAML raises SchemaError naming it."""
    try:
        return yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc


# what a value read from YAML must be, by the types ``typed`` accepts for it
_TYPE_NOUNS = {
    int: "an integer",
    (int, float): "a number",
    bool: "true or false",
    str: "a string",
    list: "a list",
    dict: "a mapping",
}


def typed(source, key: str, value, kinds, *, choices=None, bounds=None):
    """``value`` when it is one of ``kinds`` (a key of ``_TYPE_NOUNS``), one
    of ``choices`` and within ``bounds`` ``(low, high)`` (``high`` None: at
    least ``low``), each when given; else a SchemaError naming ``source`` and
    ``key``. A YAML true or false is never a number, though Python counts a
    bool as an int."""
    low, high = bounds or (None, None)
    if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
        must = _TYPE_NOUNS[kinds]
    elif choices is not None and value not in choices:
        must = "one of " + ", ".join(choices)
    elif bounds and (value < low or (high is not None and value > high)):
        must = f"at least {low}" if high is None else f"in [{low}, {high}]"
    else:
        return value
    raise SchemaError(f"{source}: {key} must be {must}, got {value!r}")


def typed_mapping(source, key: str, value, names, required=()) -> dict:
    """``value`` when it is a mapping that sets only keys of ``names`` and
    every key of ``required``; else a SchemaError naming ``source`` and
    ``key``, so a misspelt key is refused rather than ignored, and a missing
    one rather than read as unset."""
    for name in typed(source, key, value, dict):
        typed(source, f"{key} key", name, str, choices=names)
    for name in required:
        if name not in value:
            raise SchemaError(f"{source}: {key} missing field {name!r}")
    return value


def load_scenario_file(path: str | Path) -> ScenarioSpec:
    path = Path(path)
    return _parse_scenario(read_yaml(path), str(path))


def load_builtin(scenario_id: str) -> ScenarioSpec:
    if scenario_id not in BUILTIN_SCENARIOS:
        raise NotFoundError(
            f"unknown built-in scenario {scenario_id!r}; "
            f"available: {', '.join(BUILTIN_SCENARIOS)}"
        )
    raw = read_yaml(resources.files("parley.data.scenarios") / f"{scenario_id}.yaml")
    return _parse_scenario(raw, f"builtin:{scenario_id}")


def load_catalog(source: str | Path | None = None) -> list[ScenarioSpec]:
    """Load scenarios from a file/directory, by built-in name, or all built-ins."""
    if source is None:
        return [load_builtin(name) for name in BUILTIN_SCENARIOS]
    if isinstance(source, str) and source in BUILTIN_SCENARIOS:
        return [load_builtin(source)]
    path = Path(source)
    if path.is_dir():
        specs = [load_scenario_file(p) for p in sorted(path.glob("*.yaml"))]
        if not specs:
            raise NotFoundError(f"{path}: no scenario files found")
        return specs
    if path.is_file():
        return [load_scenario_file(path)]
    raise NotFoundError(f"{source!r} is neither a built-in scenario nor a readable path")


def validate_scenario(spec: ScenarioSpec) -> list[str]:
    """Check every structural invariant; returns a list of violations (empty = valid)."""
    report: list[str] = []
    role_names = spec.role_names
    if role_names[0] == role_names[1]:
        report.append("roles must be distinct")

    for role in spec.roles:
        if spec.kind == "distributive":
            if role.batna_price is None:
                report.append(f"role {role.role_name!r}: distributive role missing batna_price")
            if role.impasse_points is not None:
                report.append(f"role {role.role_name!r}: distributive role must not set impasse_points")
        else:
            if role.impasse_points is None:
                report.append(f"role {role.role_name!r}: integrative role missing impasse_points")
            if role.batna_price is not None:
                report.append(f"role {role.role_name!r}: integrative role must not set batna_price")

    if spec.kind == "distributive" and spec.issues:
        report.append("distributive scenario must not define issues")
    if spec.kind == "integrative" and not spec.issues:
        report.append("integrative scenario must define at least one issue")

    # a close names each issue by its marker key, so two issues must not share one
    first_named: dict[str, str] = {}
    for issue in spec.issues:
        if issue.key in first_named:
            report.append(
                f"issues {first_named[issue.key]!r} and {issue.issue_name!r} "
                f"share the marker key {issue.key!r}"
            )
        else:
            first_named[issue.key] = issue.issue_name
        if not re.fullmatch(MARKER_KEY, issue.key):
            report.append(
                f"issue {issue.issue_name!r}: marker key {issue.key!r} must match {MARKER_KEY}"
            )
        if len(issue.options) != 5:
            report.append(
                f"issue {issue.issue_name!r}: options!=5 (got {len(issue.options)})"
            )
        labels = issue.labels()
        if len(set(labels)) != len(labels):
            report.append(f"issue {issue.issue_name!r}: option labels not unique")
        for label, _, points in issue.options:
            if not re.fullmatch(MARKER_LABEL, label):
                report.append(
                    f"issue {issue.issue_name!r} option {label!r}: label must match {MARKER_LABEL}"
                )
            for role_name in role_names:
                if role_name not in points:
                    report.append(
                        f"issue {issue.issue_name!r} option {label!r}: "
                        f"no points for role {role_name!r}"
                    )
    if spec.max_exchanges < 1:
        report.append("max_exchanges must be >= 1")
    return report


def evaluate_assignment(
    spec: ScenarioSpec, assignment: Assignment
) -> tuple[dict[str, float], float]:
    """Score final terms: per-role points/surplus and the joint value.

    Integrative: per-role points summed over issues; impasse pays each role its
    impasse_points. Distributive: surplus relative to BATNA (price-BATNA for
    the first/selling role, BATNA-price for the second/buying role); impasse
    pays 0 surplus to both. Joint value is always the two per-role values summed.
    """
    first, second = spec.role_names
    if assignment.impasse:
        if spec.kind == "integrative":
            values = {role.role_name: float(role.impasse_points) for role in spec.roles}
        else:
            values = {first: 0.0, second: 0.0}
        return values, sum(values.values())

    if spec.kind == "distributive":
        if assignment.agreed_price is None:
            raise EvaluationError("distributive assignment missing agreed_price")
        price = float(assignment.agreed_price)
        if not 0 <= price < math.inf:
            raise EvaluationError(f"agreed_price must be finite and non-negative, got {price}")
        seller, buyer = spec.roles
        values = {
            seller.role_name: price - float(seller.batna_price),
            buyer.role_name: float(buyer.batna_price) - price,
        }
        return values, sum(values.values())

    missing = [i.issue_name for i in spec.issues if i.issue_name not in assignment.chosen]
    if missing:
        raise EvaluationError(
            f"assignment incomplete; missing issues: {', '.join(missing)} "
            "(incomplete agreements must be passed as an impasse marker)"
        )
    values = {first: 0.0, second: 0.0}
    for issue in spec.issues:
        label = assignment.chosen[issue.issue_name]
        for role_name in (first, second):
            values[role_name] += issue.points_for(label, role_name)
    return values, sum(values.values())
