import pytest
from hypothesis import event, given, settings, strategies as st

from parley.catalog import (
    Assignment,
    BUILTIN_SCENARIOS,
    IssueSchedule,
    RoleSpec,
    ScenarioSpec,
    evaluate_assignment,
    load_builtin,
    load_catalog,
    load_scenario_file,
    validate_scenario,
)
from parley.errors import EvaluationError, NotFoundError, SchemaError


def test_load_catalog_builtins():
    specs = load_catalog()
    assert [s.scenario_id for s in specs] == list(BUILTIN_SCENARIOS)


def test_chair_batnas(chair):
    assert chair.role("seller").batna_price == 40
    assert chair.role("buyer").batna_price == 120


def test_rental_shape(rental):
    assert rental.kind == "integrative"
    assert len(rental.issues) == 4
    rent = rental.issue("Rent Amount")
    assert [rent.points_for(label, "landlord") for label in "ABCDE"] == [
        450, 650, 850, 1050, 1250,
    ]


def test_unknown_builtin():
    with pytest.raises(NotFoundError):
        load_builtin("warehouse")


def test_file_missing_option_row(tmp_path, rental):
    import yaml
    from importlib import resources

    raw = yaml.safe_load(
        (resources.files("parley.data.scenarios") / "rental.yaml").read_text()
    )
    del raw["issues"][0]["options"][2]
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(SchemaError, match="options!=5"):
        load_scenario_file(path)


def test_validate_all_builtins_clean():
    for spec in load_catalog():
        assert validate_scenario(spec) == []


def test_validate_four_options(rental):
    four = IssueSchedule(
        issue_name="Rent Amount",
        options=rental.issues[0].options[:4],
    )
    spec = ScenarioSpec(
        scenario_id="bad",
        kind="integrative",
        roles=rental.roles,
        issues=(four, *rental.issues[1:]),
    )
    report = validate_scenario(spec)
    assert any("options!=5" in violation for violation in report)


def test_validate_distributive_with_impasse_points(chair):
    bad_role = RoleSpec(
        role_name="seller",
        confidential_instructions="x",
        batna_price=40,
        impasse_points=10,
    )
    spec = ScenarioSpec(
        scenario_id="bad",
        kind="distributive",
        roles=(bad_role, chair.roles[1]),
        price_frame=chair.price_frame,
    )
    report = validate_scenario(spec)
    assert any("impasse_points" in violation for violation in report)


# ---------------------------------------------------------------------------
# Payoff-table fidelity


def test_rental_rent_sums_constant(rental):
    rent = rental.issue("Rent Amount")
    for label in "ABCDE":
        assert rent.points_for(label, "landlord") + rent.points_for(label, "tenant") == 1700


@pytest.mark.parametrize("issue_name", ["Deposit", "Start Date"])
def test_rental_logroll_sums_increasing(rental, issue_name):
    issue = rental.issue(issue_name)
    sums = [
        issue.points_for(label, "landlord") + issue.points_for(label, "tenant")
        for label in "ABCDE"
    ]
    assert sums == sorted(sums)
    assert len(set(sums)) == 5
    assert sums[-1] == 1600


def test_employment_travel_sums_constant(employment):
    travel = employment.issue("Travel Expenses")
    for label in "ABCDE":
        assert (
            travel.points_for(label, "consultant") + travel.points_for(label, "coo")
            == 900
        )


def test_employment_invoice_compatible(employment):
    invoice = employment.issue("Invoice Frequency")
    for role in ("consultant", "coo"):
        best = max("ABCDE", key=lambda label: invoice.points_for(label, role))
        assert best == "A"


# ---------------------------------------------------------------------------
# Evaluation


def test_rental_ceea_assignment(rental):
    assignment = Assignment(
        chosen={
            "Rent Amount": "C",
            "Deposit": "E",
            "Start Date": "E",
            "Contract Length": "A",
        }
    )
    values, joint = evaluate_assignment(rental, assignment)
    assert values == {"landlord": 3100, "tenant": 3100}
    assert joint == 6200


def test_employment_impasse(employment):
    values, joint = evaluate_assignment(employment, Assignment.impasse_marker())
    assert values == {"consultant": 500, "coo": 500}
    assert joint == 1000


def test_rental_impasse(rental):
    values, joint = evaluate_assignment(rental, Assignment.impasse_marker())
    assert values == {"landlord": 0, "tenant": 0}
    assert joint == 0


def test_chair_deal_at_100(chair):
    values, joint = evaluate_assignment(chair, Assignment(agreed_price=100))
    assert values == {"seller": 60, "buyer": 20}
    assert joint == 80


def test_chair_impasse_zero_surplus(chair):
    values, joint = evaluate_assignment(chair, Assignment.impasse_marker())
    assert values == {"seller": 0, "buyer": 0}
    assert joint == 0


def test_unknown_option_label(rental):
    assignment = Assignment(
        chosen={
            "Rent Amount": "Z",
            "Deposit": "E",
            "Start Date": "E",
            "Contract Length": "A",
        }
    )
    with pytest.raises(EvaluationError):
        evaluate_assignment(rental, assignment)


def test_negative_price_rejected(chair):
    with pytest.raises(EvaluationError):
        evaluate_assignment(chair, Assignment(agreed_price=-5))


@pytest.mark.parametrize("price", [float("nan"), float("inf")])
def test_non_finite_price_rejected(chair, price):
    with pytest.raises(EvaluationError, match=f"finite and non-negative, got {price}"):
        evaluate_assignment(chair, Assignment(agreed_price=price))


def test_out_of_zopa_price_legal(chair):
    values, _ = evaluate_assignment(chair, Assignment(agreed_price=150))
    assert values["buyer"] == -30  # bad deals are legal, just costly


@given(
    st.tuples(
        st.sampled_from("ABCDE"),
        st.sampled_from("ABCDE"),
        st.sampled_from("ABCDE"),
        st.sampled_from("ABCDE"),
    )
)
def test_joint_equals_sum_of_roles(labels):
    rental = load_builtin("rental")
    assignment = Assignment(
        chosen=dict(zip((i.issue_name for i in rental.issues), labels))
    )
    values, joint = evaluate_assignment(rental, assignment)
    assert joint == pytest.approx(sum(values.values()))


# ---------------------------------------------------------------------------
# Frontier


def test_load_catalog_from_directory(tmp_path):
    import shutil
    from importlib import resources

    base = resources.files("parley.data.scenarios")
    for name in ("chair", "rental"):
        (tmp_path / f"{name}.yaml").write_text((base / f"{name}.yaml").read_text())
    specs = load_catalog(tmp_path)
    assert sorted(s.scenario_id for s in specs) == ["chair", "rental"]


def test_load_catalog_empty_directory(tmp_path):
    with pytest.raises(NotFoundError):
        load_catalog(tmp_path)


def test_load_catalog_missing_path():
    with pytest.raises(NotFoundError):
        load_catalog("/no/such/place.yaml")


def packaged_yaml(folder):
    for entry in folder.iterdir():
        if entry.is_dir():
            yield from packaged_yaml(entry)
        elif entry.name.endswith(".yaml"):
            yield entry


def test_every_packaged_yaml_reads_the_same_with_either_loader(monkeypatch):
    import yaml
    from importlib import resources

    import parley.catalog

    files = sorted(packaged_yaml(resources.files("parley.data")), key=str)
    assert len(files) == len(BUILTIN_SCENARIOS) + 1  # the scenarios and svi_items.yaml
    loaders = [yaml.SafeLoader]
    if hasattr(yaml, "CSafeLoader"):  # PyYAML built with libyaml
        loaders.append(yaml.CSafeLoader)
    for path in files:
        pure = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        for loader in loaders:
            monkeypatch.setattr(parley.catalog, "_YAML_LOADER", loader)
            assert parley.catalog.read_yaml(path) == pure, (path.name, loader.__name__)


def test_read_yaml_names_the_file_that_is_not_yaml(tmp_path):
    from parley.catalog import read_yaml

    path = tmp_path / "bad.yaml"
    path.write_text("agents: [unclosed\n")
    with pytest.raises(SchemaError, match="bad.yaml: not valid YAML"):
        read_yaml(path)


def rent_option_a(raw):
    return raw["issues"][0]["options"][0]["points"]


@pytest.mark.parametrize(
    "name, damage, message",
    [
        ("chair", lambda raw: raw.update(max_exchanges="many"), "max_exchanges must be"),
        ("chair", lambda raw: raw["roles"][1].update(batna_price="cheap"),
         "role 'buyer' batna_price must be"),
        ("rental", lambda raw: raw["roles"][0].update(impasse_points="none"),
         "role 'landlord' impasse_points must be"),
        ("chair", lambda raw: raw["roles"][0].update(confidential_instructions=5),
         "role 'seller' confidential_instructions must be"),
        ("rental", lambda raw: rent_option_a(raw).update(tenant="1250"),
         "issue 'Rent Amount' option 'A' points.tenant must be an integer"),
        ("rental", lambda raw: rent_option_a(raw).update(tenant=1250.5),
         "issue 'Rent Amount' option 'A' points.tenant must be an integer"),
        ("rental", lambda raw: rent_option_a(raw).pop("tenant"),
         "issue 'Rent Amount' option 'A': no points for role 'tenant'"),
        ("chair", lambda raw: raw["price_frame"].update(original_new_price=-5),
         "price_frame.original_new_price must be"),
        # names must be strings: a later stage reads each back as text
        ("chair", lambda raw: raw.update(scenario_id=5), "scenario_id must be a string, got 5"),
        ("chair", lambda raw: raw["roles"][1].update(role_name=7),
         "roles[1].role_name must be a string, got 7"),
        ("rental", lambda raw: raw["issues"][0]["options"][0].update(label=1),
         "issue 'Rent Amount' option label must be a string, got 1"),
        # a term is shown to the agents as written: a list would print as one
        ("rental", lambda raw: raw["issues"][0]["options"][0].update(term=["be", "warm"]),
         "issue 'Rent Amount' option 'A' term must be a string, got ['be', 'warm']"),
        # a close names an issue by its marker key, and both names give rent_amount
        ("rental", lambda raw: raw["issues"][1].update(issue_name="rent amount"),
         "issues 'Rent Amount' and 'rent amount' share the marker key 'rent_amount'"),
        # a close must name each issue by a key the protocol reads back whole:
        # it would read rent-amount=C as amount=C
        ("rental", lambda raw: raw["issues"][0].update(issue_name="Rent-Amount"),
         "issue 'Rent-Amount': marker key 'rent-amount' must match [A-Za-z_][A-Za-z0-9_]*"),
        # and state each label as the protocol reads it back: upper-cased
        ("rental", lambda raw: raw["issues"][0]["options"][0].update(label="a"),
         "issue 'Rent Amount' option 'a': label must match [A-Z0-9_]+"),
    ],
    ids=[
        "max_exchanges", "batna_price", "impasse_points", "confidential_instructions",
        "points-string", "points-fraction", "points-missing", "original_new_price",
        "scenario_id", "role_name", "option-label", "option-term", "issue-key",
        "issue-key-grammar", "option-label-case",
    ],
)
def test_mistyped_scenario_value_exits_2_naming_file_and_key(tmp_path, name, damage, message):
    import yaml
    from click.testing import CliRunner
    from importlib import resources

    from parley.cli import main as cli_main

    raw = yaml.safe_load((resources.files("parley.data.scenarios") / f"{name}.yaml").read_text())
    damage(raw)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw))
    result = CliRunner().invoke(cli_main, ["catalog", str(path)])
    assert result.exit_code == 2, result.output
    assert f"{path}: {message}" in result.output
    assert "Traceback" not in result.output


def misspell(mapping, key, typo, value):
    del mapping[key]
    mapping[typo] = value


@pytest.mark.parametrize(
    "name, damage, where, typo",
    [
        ("chair", lambda raw: misspell(raw, "max_exchanges", "max_exchange", 3),
         "top level key", "max_exchange"),
        ("chair", lambda raw: misspell(raw["roles"][1], "batna_price", "batna", 150),
         "roles[1] key", "batna"),
        ("rental", lambda raw: misspell(raw["issues"][1], "options", "option", []),
         "issues[1] key", "option"),
        ("rental", lambda raw: raw["issues"][0]["options"][0].update(note="cheapest"),
         "issue 'Rent Amount' option key", "note"),
    ],
    ids=["top-level", "role", "issue", "option"],
)
def test_misspelt_scenario_key_exits_2_naming_file_and_key(tmp_path, name, damage, where, typo):
    # a misspelt key would otherwise leave its setting at the default: the
    # chair copy with "max_exchange: 3" ran at 50 exchanges
    import yaml
    from click.testing import CliRunner
    from importlib import resources

    from parley.cli import main as cli_main

    raw = yaml.safe_load((resources.files("parley.data.scenarios") / f"{name}.yaml").read_text())
    damage(raw)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw))
    result = CliRunner().invoke(cli_main, ["catalog", str(path)])
    assert result.exit_code == 2, result.output
    assert f"{path}: {where} must be one of " in result.output
    assert f"got {typo!r}" in result.output
    assert "Traceback" not in result.output


def test_price_frame_keys_are_free_form(tmp_path):
    import yaml
    from importlib import resources

    raw = yaml.safe_load((resources.files("parley.data.scenarios") / "chair.yaml").read_text())
    raw["price_frame"]["colour"] = "oak"
    path = tmp_path / "chair.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert load_scenario_file(path).price_frame["colour"] == "oak"


# ---------------------------------------------------------------------------
# A scenario that loads can close


# names and labels of the marker grammar, and now and then one outside it
issue_names = st.one_of(
    st.text(alphabet="Rr nt_9", min_size=1, max_size=6),
    st.text(alphabet="Rr nt_-9.é", min_size=1, max_size=6),
)
GRAMMAR_LABELS = ("A", "B", "C", "D", "E", "7", "X_1", "Q")
OTHER_LABELS = ("a", "b", "", " F", "G;", "H]", "=I", "J-K", "ß")


@st.composite
def generated_scenarios(draw):
    def option(label):
        points = {"first": draw(st.integers(-50, 50)), "second": draw(st.integers(-50, 50))}
        return {"label": label, "term": f"term {label}", "points": points}

    issues = []
    for name in draw(st.lists(issue_names, min_size=1, max_size=3)):
        labels = draw(st.permutations(GRAMMAR_LABELS))[:5]
        if draw(st.integers(0, 3)) == 0:
            labels[draw(st.integers(0, 4))] = draw(st.sampled_from(OTHER_LABELS))
        issues.append({"issue_name": name, "options": [option(label) for label in labels]})
    roles = [{"role_name": role, "impasse_points": 0} for role in ("first", "second")]
    return {"scenario_id": "generated", "kind": "integrative", "roles": roles, "issues": issues}


@settings(max_examples=200, deadline=None)
@given(raw=generated_scenarios(), data=st.data())
def test_every_complete_close_on_a_loaded_scenario_is_accepted(raw, data):
    from parley.catalog import _parse_scenario
    from parley.protocol import format_close, format_offer, parse_block, terms_to_assignment
    from parley.scoring import extract_agreement
    from parley.session import Transcript, Utterance, detect_termination

    try:
        spec = _parse_scenario(raw, "generated")
    except SchemaError:
        event("refused")
        return
    mixed = [data.draw(st.sampled_from(issue.labels())) for issue in spec.issues]
    # each label of each issue, and one mixed assignment
    for labels in [*zip(*(issue.labels() for issue in spec.issues)), mixed]:
        assignment = Assignment(chosen={i.issue_name: l for i, l in zip(spec.issues, labels)})
        offer = format_offer(spec, assignment)
        assert terms_to_assignment(spec, parse_block(offer, "OFFER")) == assignment
        utterances = [
            Utterance(0, "a", "first", offer),
            Utterance(1, "b", "second", format_close(spec, assignment)),
        ]
        assert detect_termination(utterances, spec) == "accepted"
        transcript = Transcript(
            "n", "generated", {"first": "a", "second": "b"}, utterances, "accepted", seed=1
        )
        assert extract_agreement(transcript, spec) == assignment
