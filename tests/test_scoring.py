from dataclasses import replace

import pytest

from parley.agents import BackendBinding, ChatModelClient
from parley.catalog import Assignment, IssueSchedule
from parley.errors import EvaluationError, ExtractionConflictError
from parley.scoring import (
    OUTCOME_TABLE_COLUMNS,
    aggregate_outcomes,
    dyad_id,
    extract_agreement,
    extract_agreement_model,
    score_outcome,
)
from parley.session import SviResponse, run_session

from conftest import make_scripted_agent, make_transcript


def svi(composite):
    items = tuple((i, 4) for i in range(1, 17))
    facets = {f: composite for f in ("instrumental", "self", "process", "relationship")}
    return SviResponse(items=items, facets=facets, composite=composite)


def accepted_chair_transcript(price=100, conflict=False):
    offer_price = 90 if conflict else price
    return make_transcript(
        "chair",
        {"seller": "s1", "buyer": "b1"},
        [
            f"Here is my offer. [OFFER price={offer_price}]",
            f"Works for me. [ACCEPT] [TERMS price={price}]",
        ],
        roles=["seller", "buyer"],
        termination="accepted",
    )


# ---------------------------------------------------------------------------
# Marker extraction


def test_marker_extracts_complete_rental_close(rental):
    close = "[ACCEPT] [TERMS rent_amount=C; deposit=E; start_date=E; contract_length=A]"
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["[OFFER rent_amount=C; deposit=E; start_date=E; contract_length=A]", close],
        roles=["landlord", "tenant"],
        termination="accepted",
    )
    terms = extract_agreement(transcript, rental)
    assert terms.chosen == {
        "Rent Amount": "C",
        "Deposit": "E",
        "Start Date": "E",
        "Contract Length": "A",
    }


def test_capped_session_codes_as_impasse(rental):
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["[OFFER rent_amount=C; deposit=E; start_date=E]", "still thinking"],
        roles=["landlord", "tenant"],
        termination="cap_reached",
    )
    assert extract_agreement(transcript, rental).impasse


def test_contradictory_restated_terms_flagged(chair):
    with pytest.raises(ExtractionConflictError):
        extract_agreement(accepted_chair_transcript(conflict=True), chair)


def test_consistent_restated_terms_pass(chair):
    terms = extract_agreement(accepted_chair_transcript(), chair)
    assert terms.agreed_price == 100


def restated_chair_transcript(offered, restated):
    return make_transcript(
        "chair",
        {"seller": "s1", "buyer": "b1"},
        [f"[OFFER price={offered}]", f"[ACCEPT] [TERMS price={restated}]"],
        roles=["seller", "buyer"],
        termination="accepted",
    )


@pytest.mark.parametrize(
    "offered, restated",
    [
        # both read 1e+06 to six significant digits
        ("1000001", "1000000"),
        ("1234.125", "1234.12"),
        ("$1,000,000.5", "1000000"),
    ],
)
def test_restated_price_is_compared_as_a_number(chair, offered, restated):
    with pytest.raises(ExtractionConflictError):
        extract_agreement(restated_chair_transcript(offered, restated), chair)


@pytest.mark.parametrize(
    "offered, restated",
    [("1000000", "1e6"), ("$1,234.125", "1234.125"), ("150", "150.0")],
)
def test_restated_price_of_the_same_value_passes(chair, offered, restated):
    terms = extract_agreement(restated_chair_transcript(offered, restated), chair)
    assert terms.agreed_price == float(restated)


@pytest.mark.parametrize("price", ["inf", "nan"])
def test_non_finite_restated_price_is_an_impasse(chair, price):
    # a transcript marked accepted elsewhere still scores no deal at a non-finite price
    assert extract_agreement(restated_chair_transcript(price, price), chair).impasse


# ---------------------------------------------------------------------------
# Model-assisted extraction (stubbed with recorded replies)


def stub_client(reply_text):
    def transport(endpoint, payload, api_key, timeout):
        return {
            "choices": [{"message": {"content": reply_text}, "finish_reason": "stop"}]
        }

    return ChatModelClient(transport=transport)


EXTRACTOR_BINDING = BackendBinding(
    kind="chat_model", model_name="extract-model", endpoint="https://example.invalid"
)


def test_model_extractor_parses_deal(chair):
    client = stub_client('{"deal": true, "terms": {"price": 100}}')
    transcript = accepted_chair_transcript()
    terms = extract_agreement_model(transcript, chair, client, EXTRACTOR_BINDING)
    assert terms.agreed_price == 100


def test_model_extractor_enforces_all_issues(rental):
    # three of four issues named: the all-issues rule forces an impasse
    client = stub_client(
        '{"deal": true, "terms": {"rent_amount": "C", "deposit": "E", "start_date": "E"}}'
    )
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["x", "y"],
        roles=["landlord", "tenant"],
        termination="cap_reached",
    )
    terms = extract_agreement_model(transcript, rental, client, EXTRACTOR_BINDING)
    assert terms.impasse


# ---------------------------------------------------------------------------
# score_outcome


def seats(rows):
    """An outcome's rows keyed by role."""
    return {row["role"]: row for row in rows}


def test_chair_deal_scores(chair):
    transcript = accepted_chair_transcript(price=100)
    transcript.svi = {"seller": svi(6.0), "buyer": svi(3.0)}
    rows = score_outcome(transcript, chair, Assignment(agreed_price=100))
    by_role = seats(rows)
    assert by_role["seller"]["value_claimed"] == 60
    assert by_role["buyer"]["value_claimed"] == 20
    assert all(row["efficiency"] == 2 for row in rows)
    # counterpart SV belongs to the rater's counterpart, never the rater
    assert by_role["seller"]["counterpart_sv"] == 3.0
    assert by_role["buyer"]["counterpart_sv"] == 6.0


def test_counterpart_sv_swap_is_asymmetric(chair):
    transcript = accepted_chair_transcript(price=100)
    transcript.svi = {"seller": svi(1.0), "buyer": svi(7.0)}
    by_role = seats(score_outcome(transcript, chair, Assignment(agreed_price=100)))
    assert by_role["seller"]["counterpart_sv"] != by_role["buyer"]["counterpart_sv"]


def test_rental_impasse_scores(rental):
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["a", "b"],
        roles=["landlord", "tenant"],
        termination="cap_reached",
    )
    rows = score_outcome(transcript, rental, Assignment.impasse_marker())
    by_role = seats(rows)
    assert by_role["landlord"]["points"] == 0
    assert by_role["tenant"]["points"] == 0
    assert all(row["value_created"] == 0 for row in rows)
    assert all(row["deal"] == 0 for row in rows)


def test_employment_impasse_scores(employment):
    transcript = make_transcript(
        "employment",
        {"consultant": "c", "coo": "o"},
        ["a", "b"],
        roles=["consultant", "coo"],
        termination="walkaway",
    )
    rows = score_outcome(transcript, employment, Assignment.impasse_marker())
    by_role = seats(rows)
    assert by_role["consultant"]["points"] == 500
    assert by_role["coo"]["points"] == 500
    assert all(row["value_created"] == 1000 for row in rows)


def test_missing_svi_leaves_other_fields(chair):
    transcript = accepted_chair_transcript(price=80)
    transcript.svi = {"seller": None, "buyer": svi(5.0)}
    by_role = seats(score_outcome(transcript, chair, Assignment(agreed_price=80)))
    assert by_role["buyer"]["counterpart_sv"] is None
    assert by_role["seller"]["counterpart_sv"] == 5.0
    assert by_role["seller"]["value_claimed"] == 40


def test_distributive_conservation_over_all_prices(chair):
    for price in range(40, 121):
        transcript = accepted_chair_transcript(price=price)
        by_role = seats(score_outcome(transcript, chair, Assignment(agreed_price=price)))
        total = by_role["seller"]["value_claimed"] + by_role["buyer"]["value_claimed"]
        assert total == 80


def test_integrative_scores_match_catalog_evaluation(rental):
    from parley.catalog import evaluate_assignment

    assignment = Assignment(
        chosen={
            "Rent Amount": "B",
            "Deposit": "D",
            "Start Date": "A",
            "Contract Length": "C",
        }
    )
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["a", "b"],
        roles=["landlord", "tenant"],
        termination="accepted",
    )
    rows = score_outcome(transcript, rental, assignment)
    by_role = seats(rows)
    values, joint = evaluate_assignment(rental, assignment)
    assert by_role["landlord"]["points"] == values["landlord"]
    assert by_role["tenant"]["points"] == values["tenant"]
    assert all(row["value_created"] == joint for row in rows)


# ---------------------------------------------------------------------------
# Proportion of pie


def make_integrative_outcome(rental, chosen):
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["a", "b"],
        roles=["landlord", "tenant"],
        termination="accepted",
    )
    return score_outcome(transcript, rental, Assignment(chosen=chosen))


def shares(rows):
    return {row["role"]: row["proportion_of_pie"] for row in rows}


def test_symmetric_points_split_the_pie(rental):
    rows = make_integrative_outcome(
        rental,
        {"Rent Amount": "C", "Deposit": "E", "Start Date": "E", "Contract Length": "A"},
    )
    assert shares(rows) == {"landlord": 0.5, "tenant": 0.5}


def test_impasse_is_zero_share_for_both(rental):
    transcript = make_transcript(
        "rental",
        {"landlord": "l", "tenant": "t"},
        ["a", "b"],
        roles=["landlord", "tenant"],
        termination="cap_reached",
    )
    rows = score_outcome(transcript, rental, Assignment.impasse_marker())
    assert shares(rows) == {"landlord": 0.0, "tenant": 0.0}


def test_shares_sum_to_one_on_deals(rental):
    import itertools

    for combo in itertools.islice(itertools.product("ABCDE", repeat=4), 0, 625, 37):
        chosen = dict(zip((i.issue_name for i in rental.issues), combo))
        rows = make_integrative_outcome(rental, chosen)
        assert sum(shares(rows).values()) == pytest.approx(1.0)


def test_distributive_rows_carry_no_points_or_share(chair):
    transcript = accepted_chair_transcript()
    rows = score_outcome(transcript, chair, Assignment(agreed_price=100))
    for row in rows:
        assert row["points"] is None
        assert row["proportion_of_pie"] is None


def test_deal_with_zero_value_created_is_refused(rental):
    # every option of every issue is worth 0 points to both seats
    zero = replace(
        rental,
        scenario_id="zero_pie",
        issues=tuple(
            IssueSchedule(
                issue.issue_name,
                tuple(
                    (label, term, {role: 0 for role in points})
                    for label, term, points in issue.options
                ),
            )
            for issue in rental.issues
        ),
    )
    transcript = make_transcript(
        "zero_pie",
        {"landlord": "l", "tenant": "t"},
        ["a", "b"],
        roles=["landlord", "tenant"],
        termination="accepted",
    )
    chosen = {issue.issue_name: "A" for issue in zero.issues}
    with pytest.raises(EvaluationError, match=transcript.negotiation_id):
        score_outcome(transcript, zero, Assignment(chosen=chosen))
    # an impasse creates no value either, and that is no error
    rows = score_outcome(transcript, zero, Assignment.impasse_marker())
    assert shares(rows) == {"landlord": 0.0, "tenant": 0.0}


# ---------------------------------------------------------------------------
# Aggregation


def test_deal_rate_half(chair):
    deal = accepted_chair_transcript(price=100)
    impasse = make_transcript(
        "chair",
        {"seller": "s1", "buyer": "b1"},
        ["a", "b"],
        roles=["seller", "buyer"],
        termination="cap_reached",
        seed=1,
    )
    rows = [
        *score_outcome(deal, chair, Assignment(agreed_price=100)),
        *score_outcome(impasse, chair, Assignment.impasse_marker()),
    ]
    summaries = aggregate_outcomes(rows)
    by_agent = {(s["agent_id"], s["exercise"]): s for s in summaries}
    assert by_agent[("s1", "chair")]["deal_rate"] == 0.5
    assert by_agent[("s1", "chair")]["n"] == 2


def test_fixture_means_match_hand_computation(chair):
    prices = [50, 60, 70, 80, 90, 100]
    rows = []
    for i, price in enumerate(prices):
        transcript = make_transcript(
            "chair",
            {"seller": "s1", "buyer": "b1"},
            [f"[OFFER price={price}]", f"[ACCEPT] [TERMS price={price}]"],
            roles=["seller", "buyer"],
            termination="accepted",
            seed=i,
        )
        rows += score_outcome(transcript, chair, Assignment(agreed_price=price))
    summaries = {s["agent_id"]: s for s in aggregate_outcomes(rows)}
    # spreadsheet oracle: seller surpluses 10..60 mean 35; buyer 70..20 mean 45
    assert summaries["s1"]["mean_value_claimed"] == pytest.approx(35.0)
    assert summaries["b1"]["mean_value_claimed"] == pytest.approx(45.0)
    assert summaries["s1"]["deal_rate"] == 1.0
    assert summaries["s1"]["mean_efficiency"] == 2.0


def test_all_identical_outcomes(chair):
    transcripts = [
        make_transcript(
            "chair",
            {"seller": "s1", "buyer": "b1"},
            ["[OFFER price=90]", "[ACCEPT] [TERMS price=90]"],
            roles=["seller", "buyer"],
            termination="accepted",
            seed=i,
        )
        for i in range(3)
    ]
    rows = [
        row for t in transcripts for row in score_outcome(t, chair, Assignment(agreed_price=90))
    ]
    summaries = {s["agent_id"]: s for s in aggregate_outcomes(rows)}
    assert summaries["s1"]["mean_value_claimed"] == 50.0


# ---------------------------------------------------------------------------
# Table rows


def test_outcome_rows_cluster_ids(chair):
    transcript = accepted_chair_transcript(price=100)
    transcript.svi = {"seller": svi(4.0), "buyer": svi(4.0)}
    rows = score_outcome(transcript, chair, Assignment(agreed_price=100))
    assert len(rows) == 2
    for row in rows:
        assert row["cluster_negotiation"] == transcript.negotiation_id
        assert row["cluster_dyad"] == dyad_id("s1", "b1", "chair")
    assert {row["agent_id"] for row in rows} == {"s1", "b1"}
    assert rows[0]["counterpart_id"] != rows[0]["agent_id"]
    # one row per seat, in the scenario's role order, laid out as the table is
    assert [row["role"] for row in rows] == list(chair.role_names)
    assert all(set(row) == set(OUTCOME_TABLE_COLUMNS) for row in rows)


def test_dyad_id_is_unordered():
    assert dyad_id("a", "b", "chair") == dyad_id("b", "a", "chair")
    assert dyad_id("a", "b", "chair") != dyad_id("a", "b", "rental")


# ---------------------------------------------------------------------------
# Dual-extractor agreement on live scripted sessions


def recorded_reply_for(transcript, scenario):
    """Hand-recorded extractor replies for the scripted fixture set."""
    key = (
        scenario.scenario_id,
        transcript.role_map[scenario.role_names[0]],
        transcript.role_map[scenario.role_names[1]],
    )
    return RECORDED_REPLIES[key]


RECORDED_REPLIES = {
    ("chair", "ladder", "acceptor"): '{"deal": true, "terms": {"price": 150}}',
    # the acceptor opens with an invitation; the ladder buyer still offers 150
    # and the acceptor takes it
    ("chair", "acceptor", "ladder"): '{"deal": true, "terms": {"price": 150}}',
    ("chair", "wall", "acceptor"): '{"deal": true, "terms": {"price": 200}}',
    ("chair", "wall", "wall"): '{"deal": false, "terms": null}',
    ("rental", "ladder", "acceptor"): (
        '{"deal": true, "terms": {"rent_amount": "B", "deposit": "B",'
        ' "start_date": "B", "contract_length": "B"}}'
    ),
    ("rental", "wall", "acceptor"): (
        '{"deal": true, "terms": {"rent_amount": "E", "deposit": "E",'
        ' "start_date": "A", "contract_length": "A"}}'
    ),
    ("rental", "mute", "acceptor"): '{"deal": false, "terms": null}',
    ("employment", "ladder", "acceptor"): (
        '{"deal": true, "terms": {"lump_sum_fee": "B", "discretionary_budget": "B",'
        ' "travel_expenses": "B", "invoice_frequency": "B"}}'
    ),
    ("employment", "echo", "ladder"): '{"deal": false, "terms": null}',
    # the stonewalling consultant demands its own best option on every issue
    ("employment", "wall", "acceptor"): (
        '{"deal": true, "terms": {"lump_sum_fee": "E", "discretionary_budget": "E",'
        ' "travel_expenses": "E", "invoice_frequency": "A"}}'
    ),
}


def test_marker_and_model_extractors_agree_on_fixture_set(chair, rental, employment):
    agents = {
        "acceptor": make_scripted_agent("immediate_acceptor", agent_id="acceptor"),
        "ladder": make_scripted_agent(
            "fixed_concession",
            {"ladder": [150, 130, 110], "label_ladder": ["B", "C"]},
            agent_id="ladder",
        ),
        "wall": make_scripted_agent("stonewaller", agent_id="wall"),
        "echo": make_scripted_agent("mirror", agent_id="echo"),
        "mute": make_scripted_agent("silent", agent_id="mute"),
    }
    scenarios = {"chair": chair, "rental": rental, "employment": employment}
    agreements = 0
    for (scenario_id, first, second), reply in RECORDED_REPLIES.items():
        scenario = scenarios[scenario_id]
        role_map = dict(zip(scenario.role_names, (first, second)))
        transcript = run_session(scenario, role_map, agents, seed=13)
        marker_terms = extract_agreement(transcript, scenario)
        model_terms = extract_agreement_model(
            transcript, scenario, stub_client(reply), EXTRACTOR_BINDING
        )
        assert marker_terms.impasse == model_terms.impasse, (scenario_id, first, second)
        if not marker_terms.impasse:
            assert marker_terms.chosen == model_terms.chosen
            assert marker_terms.agreed_price == model_terms.agreed_price
        agreements += 1
    assert agreements == len(RECORDED_REPLIES)  # 100% agreement
