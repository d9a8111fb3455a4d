"""Negotiation scenario definitions: payoff schedules, validation, evaluation.

Scenarios come in two kinds. Distributive scenarios negotiate a single price
and score each side's surplus against its BATNA. Integrative scenarios
negotiate several discrete issues, each with five labeled options worth a
different number of points to each role; an agreement must cover every issue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .errors import EvaluationError, NotFoundError, SchemaError, UnsupportedKindError

BUILTIN_SCENARIOS = ("lamp", "table", "chair", "rental", "employment")

OPTION_LABELS = ("A", "B", "C", "D", "E")

# Marker used by the Assignment type to denote a failed negotiation.
IMPASSE = "impasse"


def issue_key(issue_name: str) -> str:
    """Machine-readable key for an issue name ("Rent Amount" -> "rent_amount")."""
    return issue_name.strip().lower().replace(" ", "_")


@dataclass(frozen=True)
class IssueSchedule:
    """One negotiable issue: five options, each worth points to each role."""

    issue_name: str
    # ordered (label, term, {role: points}) triples
    options: tuple[tuple[str, str, dict[str, int]], ...]

    @property
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


def _render_points_schedule(issues: list[dict], role_name: str) -> str:
    """Render a role's option/points tables from the structured schedules."""
    blocks = []
    for issue in issues:
        lines = [
            f"{issue['issue_name'].upper()} - Option & Points"
            " (you can only agree to these; no in-between or other options):"
        ]
        for opt in issue["options"]:
            lines.append(
                f"  {opt['label']}. {opt['term']} = {opt['points'][role_name]} points"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _parse_scenario(raw: dict, source: str) -> ScenarioSpec:
    def require(key: str):
        if key not in raw:
            raise SchemaError(f"{source}: missing field {key!r}")
        return raw[key]

    scenario_id = require("scenario_id")
    kind = require("kind")
    if kind not in ("distributive", "integrative"):
        raise SchemaError(f"{source}: kind must be distributive or integrative, got {kind!r}")

    raw_roles = require("roles")
    if not isinstance(raw_roles, list) or len(raw_roles) != 2:
        raise SchemaError(f"{source}: roles must list exactly two roles")

    raw_issues = raw.get("issues", [])
    roles = []
    for raw_role in raw_roles:
        if "role_name" not in raw_role:
            raise SchemaError(f"{source}: role missing field 'role_name'")
        instructions = raw_role.get("confidential_instructions", "")
        if "{points_schedule}" in instructions:
            instructions = instructions.replace(
                "{points_schedule}",
                _render_points_schedule(raw_issues, raw_role["role_name"]),
            )
        roles.append(
            RoleSpec(
                role_name=raw_role["role_name"],
                confidential_instructions=instructions,
                batna_price=raw_role.get("batna_price"),
                impasse_points=raw_role.get("impasse_points"),
            )
        )

    issues = []
    for raw_issue in raw_issues:
        if "issue_name" not in raw_issue:
            raise SchemaError(f"{source}: issue missing field 'issue_name'")
        options = []
        for opt in raw_issue.get("options", []):
            for key in ("label", "term", "points"):
                if key not in opt:
                    raise SchemaError(
                        f"{source}: issue {raw_issue['issue_name']!r} option missing field {key!r}"
                    )
            options.append((opt["label"], str(opt["term"]), dict(opt["points"])))
        issues.append(IssueSchedule(raw_issue["issue_name"], tuple(options)))

    spec = ScenarioSpec(
        scenario_id=scenario_id,
        kind=kind,
        roles=(roles[0], roles[1]),
        issues=tuple(issues),
        price_frame=dict(raw.get("price_frame", {})),
        max_exchanges=int(raw.get("max_exchanges", 50)),
    )
    report = validate_scenario(spec)
    if report:
        raise SchemaError(f"{source}: " + "; ".join(report))
    return spec


def load_scenario_file(path: str | Path) -> ScenarioSpec:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be a mapping")
    return _parse_scenario(raw, str(path))


def load_builtin(scenario_id: str) -> ScenarioSpec:
    if scenario_id not in BUILTIN_SCENARIOS:
        raise NotFoundError(
            f"unknown built-in scenario {scenario_id!r}; "
            f"available: {', '.join(BUILTIN_SCENARIOS)}"
        )
    ref = resources.files("parley.data.scenarios") / f"{scenario_id}.yaml"
    raw = yaml.safe_load(ref.read_text())
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

    seen_issues = set()
    for issue in spec.issues:
        if issue.issue_name in seen_issues:
            report.append(f"duplicate issue {issue.issue_name!r}")
        seen_issues.add(issue.issue_name)
        if len(issue.options) != 5:
            report.append(
                f"issue {issue.issue_name!r}: options!=5 (got {len(issue.options)})"
            )
        labels = issue.labels()
        if len(set(labels)) != len(labels):
            report.append(f"issue {issue.issue_name!r}: option labels not unique")
        for label, _, points in issue.options:
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
        if price < 0:
            raise EvaluationError(f"agreed_price must be non-negative, got {price}")
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


def enumerate_frontier(
    spec: ScenarioSpec,
) -> tuple[float, list[tuple[Assignment, dict[str, float]]]]:
    """Brute-force the joint-value maximum and the Pareto-nondominated set.

    Enumerates all 5^k option combinations, so only suitable for integrative
    scenarios with at most 6 issues.
    """
    if spec.kind != "integrative":
        raise UnsupportedKindError("frontier enumeration applies to integrative scenarios only")
    if len(spec.issues) > 6:
        raise UnsupportedKindError(
            f"frontier enumeration supports at most 6 issues, got {len(spec.issues)}"
        )
    first, second = spec.role_names
    scored: list[tuple[Assignment, dict[str, float], float]] = []
    label_sets = [issue.labels() for issue in spec.issues]
    for combo in itertools.product(*label_sets):
        chosen = {
            issue.issue_name: label for issue, label in zip(spec.issues, combo)
        }
        assignment = Assignment(chosen=chosen)
        values, joint = evaluate_assignment(spec, assignment)
        scored.append((assignment, values, joint))

    max_joint = max(joint for _, _, joint in scored)
    nondominated = []
    for assignment, values, _ in scored:
        dominated = any(
            other[first] >= values[first]
            and other[second] >= values[second]
            and (other[first] > values[first] or other[second] > values[second])
            for _, other, _ in scored
        )
        if not dominated:
            nondominated.append((assignment, values))
    return max_joint, nondominated
