import pytest

from parley.agents import read_ratings
from parley.catalog import Assignment
from parley.errors import BackendStatusError, ConfigurationError, SchemaError, SessionAbortError
from parley.protocol import format_close, format_offer, moderator_suffix
from parley.scoring import extract_agreement
from parley.session import (
    Utterance,
    detect_termination,
    load_svi_items,
    run_session,
    svi_response,
)
from parley.tournament import TranscriptStore

from conftest import make_scripted_agent

def agents_for(*specs):
    return {a.agent_id: a for a in specs}


# ---------------------------------------------------------------------------
# detect_termination


def utt(i, role, text):
    return Utterance(index=i, speaker_agent_id=role, role_name=role, text=text)


def test_accept_with_price_closes(chair):
    utterances = [
        utt(0, "seller", "[OFFER price=100]"),
        utt(1, "buyer", "Fine. [ACCEPT] [TERMS price=100]"),
    ]
    assert detect_termination(utterances, chair) == "accepted"


def test_accept_missing_issue_continues(rental):
    close = "[ACCEPT] [TERMS rent_amount=C; deposit=E; start_date=E]"
    utterances = [utt(0, "landlord", "[OFFER rent_amount=C]"), utt(1, "tenant", close)]
    assert detect_termination(utterances, rental) == "continue"


def test_accept_all_issues_closes(rental):
    close = "[ACCEPT] [TERMS rent_amount=C; deposit=E; start_date=E; contract_length=A]"
    utterances = [utt(0, "landlord", "hello"), utt(1, "tenant", close)]
    assert detect_termination(utterances, rental) == "accepted"


@pytest.mark.parametrize("price", ["inf", "Infinity", "nan", "1e999"])
def test_non_finite_price_closes_no_deal(chair, price):
    utterances = [
        utt(0, "seller", f"[OFFER price={price}]"),
        utt(1, "buyer", f"Fine. [ACCEPT] [TERMS price={price}]"),
    ]
    assert detect_termination(utterances, chair) == "continue"


def test_walkaway_marker(chair):
    utterances = [utt(0, "seller", "I am walking away. [WALKAWAY]")]
    assert detect_termination(utterances, chair) == "walkaway"


def test_bare_accept_does_not_close(chair):
    utterances = [utt(0, "buyer", "[ACCEPT] sounds good")]
    assert detect_termination(utterances, chair) == "continue"


# ---------------------------------------------------------------------------
# run_session


def test_concession_vs_acceptor(chair):
    seller = make_scripted_agent(
        "fixed_concession", {"ladder": [150, 130, 110]}, agent_id="fc"
    )
    buyer = make_scripted_agent("immediate_acceptor", agent_id="ia")
    transcript = run_session(
        chair, {"seller": "fc", "buyer": "ia"}, agents_for(seller, buyer), seed=3
    )
    assert transcript.termination == "accepted"
    assert len(transcript.utterances) == 2
    terms = extract_agreement(transcript, chair)
    assert terms.agreed_price == 150  # the ladder's current (first) rung


def test_stonewaller_pair_caps_at_100(chair):
    w1 = make_scripted_agent("stonewaller", agent_id="w1")
    w2 = make_scripted_agent("stonewaller", agent_id="w2")
    transcript = run_session(
        chair, {"seller": "w1", "buyer": "w2"}, agents_for(w1, w2), seed=3
    )
    assert transcript.termination == "cap_reached"
    assert len(transcript.utterances) == 100  # 50 exchanges


def test_silent_agent_terminates_with_empty_utterances(chair):
    mute = make_scripted_agent("silent", agent_id="mute")
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    transcript = run_session(
        chair, {"seller": "wall", "buyer": "mute"}, agents_for(mute, wall), seed=3
    )
    assert transcript.termination == "cap_reached"
    assert any(u.text == "" for u in transcript.utterances)
    assert transcript.svi["buyer"] is None  # unparseable empty questionnaire


def test_speaker_alternation_and_contiguous_indices(rental):
    ladder = make_scripted_agent(
        "fixed_concession", {"label_ladder": ["A", "B", "C"]}, agent_id="lad"
    )
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    transcript = run_session(
        rental, {"landlord": "lad", "tenant": "wall"}, agents_for(ladder, wall), seed=3
    )
    for i, utterance in enumerate(transcript.utterances):
        assert utterance.index == i
        if i:
            assert utterance.role_name != transcript.utterances[i - 1].role_name


def test_accepted_session_ends_on_accepting_agents_utterance(employment):
    ladder = make_scripted_agent(
        "fixed_concession", {"label_ladder": ["B"]}, agent_id="lad"
    )
    acceptor = make_scripted_agent("immediate_acceptor", agent_id="acc")
    transcript = run_session(
        employment,
        {"consultant": "lad", "coo": "acc"},
        agents_for(ladder, acceptor),
        seed=3,
    )
    assert transcript.termination == "accepted"
    assert transcript.utterances[-1].speaker_agent_id == "acc"
    assert len(transcript.utterances) % 2 == 0  # opener spoke first, acceptor closed


def test_replay_is_byte_identical(tmp_path, rental):
    ladder = make_scripted_agent(
        "fixed_concession", {"label_ladder": ["A", "C"]}, agent_id="lad"
    )
    acceptor = make_scripted_agent("immediate_acceptor", agent_id="acc")
    kwargs = dict(
        scenario=rental,
        role_map={"landlord": "lad", "tenant": "acc"},
        agents=agents_for(ladder, acceptor),
        seed=99,
    )
    paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for path in paths:
        TranscriptStore(path).append(run_session(**kwargs))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_first_mover_configurable(chair):
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    mute = make_scripted_agent("silent", agent_id="mute")
    agents = agents_for(wall, mute)
    role_map = {"seller": "wall", "buyer": "mute"}
    opener_default = run_session(chair, role_map, agents, seed=1).utterances[0]
    opener_buyer = run_session(
        chair, role_map, agents, seed=1, first_mover="buyer"
    ).utterances[0]
    assert opener_default.role_name == "seller"
    assert opener_buyer.role_name == "buyer"


def test_unresolvable_agent_rejected(chair):
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    with pytest.raises(ConfigurationError):
        run_session(chair, {"seller": "wall", "buyer": "ghost"}, agents_for(wall), seed=1)


def test_backend_abort_propagates_out_of_run_session(chair):
    from parley.agents import AgentSpec, BackendBinding, ChatModelClient

    def dead(endpoint, payload, api_key, timeout):
        raise OSError("gone")

    client = ChatModelClient(transport=dead, max_retries=0, backoff_base=0.001)
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    flaky = AgentSpec(
        agent_id="flaky",
        nickname="flaky",
        prompt_text="be brief",
        backend=BackendBinding(
            kind="chat_model", model_name="m", endpoint="https://example.invalid"
        ),
    )
    with pytest.raises(SessionAbortError, match="gone"):
        run_session(
            chair,
            {"seller": "wall", "buyer": "flaky"},
            agents_for(wall, flaky),
            seed=1,
            client=client,
        )


def test_refused_key_while_answering_the_questionnaire_ends_the_session(chair):
    # a refused key is refused for every later request too, so it is not
    # recorded as one missing questionnaire
    from parley.agents import AgentSpec, BackendBinding, ChatModelClient

    def refuse_questionnaire(endpoint, payload, api_key, timeout):
        if payload["messages"][-1]["content"].startswith("The negotiation has ended."):
            raise BackendStatusError(403)
        return {"choices": [{"message": {"content": "[WALKAWAY]"}, "finish_reason": "stop"}]}

    client = ChatModelClient(transport=refuse_questionnaire)
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    model = AgentSpec(
        "model", "model", "be brief",
        BackendBinding(kind="chat_model", model_name="m", endpoint="https://example.invalid"),
    )
    with pytest.raises(ConfigurationError, match="refused the credentials: HTTP 403"):
        run_session(
            chair, {"seller": "model", "buyer": "wall"}, agents_for(wall, model), seed=1,
            client=client,
        )
    assert client.usage["requests"] == 1


def test_backend_abort_while_answering_leaves_that_questionnaire_missing(chair):
    from parley.agents import AgentSpec, BackendBinding, ChatModelClient

    def hang_up_on_questionnaire(endpoint, payload, api_key, timeout):
        if payload["messages"][-1]["content"].startswith("The negotiation has ended."):
            raise OSError("gone")
        return {"choices": [{"message": {"content": "[WALKAWAY]"}, "finish_reason": "stop"}]}

    client = ChatModelClient(transport=hang_up_on_questionnaire, max_retries=0)
    wall = make_scripted_agent("stonewaller", {"svi_rating": 3}, agent_id="wall")
    model = AgentSpec(
        "model", "model", "be brief",
        BackendBinding(kind="chat_model", model_name="m", endpoint="https://example.invalid"),
    )
    transcript = run_session(
        chair, {"seller": "model", "buyer": "wall"}, agents_for(wall, model), seed=1,
        client=client,
    )
    assert transcript.termination == "walkaway"
    assert transcript.svi["seller"] is None
    assert transcript.svi["buyer"].composite == 3.0


def test_termination_consistent_with_extraction(rental):
    # accepted <=> marker extraction yields a complete assignment
    ladder = make_scripted_agent(
        "fixed_concession", {"label_ladder": ["B"]}, agent_id="lad"
    )
    acceptor = make_scripted_agent("immediate_acceptor", agent_id="acc")
    wall = make_scripted_agent("stonewaller", agent_id="wall")
    agents = agents_for(ladder, acceptor, wall)
    for pair, expect_deal in (
        (("lad", "acc"), True),
        (("lad", "wall"), False),
        (("wall", "acc"), True),
    ):
        transcript = run_session(
            rental,
            {"landlord": pair[0], "tenant": pair[1]},
            agents,
            seed=5,
        )
        terms = extract_agreement(transcript, rental)
        assert (transcript.termination == "accepted") == (not terms.impasse)


# ---------------------------------------------------------------------------
# Questionnaire


def test_questionnaire_file_is_checked_when_read(tmp_path):
    import yaml

    items = load_svi_items()
    path = tmp_path / "svi.yaml"
    path.write_text(yaml.safe_dump({"schema_version": 1}))
    with pytest.raises(SchemaError, match=f"^{path}: items must be a list, got None$"):
        load_svi_items(path)
    faceless = [dict(item) for item in items]
    del faceless[3]["facet"]
    path.write_text(yaml.safe_dump({"items": faceless}))
    with pytest.raises(SchemaError, match=rf"^{path}: items\[3\]\.facet must be a string, got None$"):
        load_svi_items(path)
    path.write_text(yaml.safe_dump({"items": items[:15]}))
    with pytest.raises(SchemaError, match=f"^{path}: items must be 16 items"):
        load_svi_items(path)
    # a reply's "N: R" line cannot name a negative id
    negative = [dict(item) for item in items]
    negative[0]["id"] = -1
    path.write_text(yaml.safe_dump({"items": negative}))
    with pytest.raises(SchemaError, match=rf"^{path}: items\[0\]\.id must be at least 0, got -1$"):
        load_svi_items(path)
    # one reply line would rate both items that share an id
    shared = [dict(item) for item in items]
    shared[1]["id"] = shared[0]["id"]
    path.write_text(yaml.safe_dump({"items": shared}))
    with pytest.raises(SchemaError, match=f"^{path}: items must have distinct ids$"):
        load_svi_items(path)
    # a key the reader does not read is refused, not ignored
    path.write_text(yaml.safe_dump({"items": items, "scale": [1, 5]}))
    with pytest.raises(
        SchemaError, match=f"^{path}: top level key must be one of items, schema_version, got 'scale'$"
    ):
        load_svi_items(path)
    weighted = [dict(item) for item in items]
    weighted[2]["weight"] = 2
    path.write_text(yaml.safe_dump({"items": weighted}))
    with pytest.raises(
        SchemaError, match=rf"^{path}: items\[2\] key must be one of id, text, facet, got 'weight'$"
    ):
        load_svi_items(path)


def test_svi_all_sevens():
    items = load_svi_items()
    reply = "\n".join(f"{i}: 7" for i in range(1, 17))
    response = svi_response(items, read_ratings(reply))
    assert response.composite == 7.0
    assert all(v == 7.0 for v in response.facets.values())


def test_svi_out_of_scale_rating_rejected():
    items = load_svi_items()
    reply = "\n".join(f"{i}: {9 if i == 4 else 5}" for i in range(1, 17))
    assert svi_response(items, read_ratings(reply)) is None


def test_svi_incomplete_rejected():
    items = load_svi_items()
    reply = "\n".join(f"{i}: 4" for i in range(1, 16))
    assert svi_response(items, read_ratings(reply)) is None


def test_svi_alternating_threes_and_fives():
    items = load_svi_items()
    reply = "\n".join(f"{i}: {3 if i % 2 else 5}" for i in range(1, 17))
    response = svi_response(items, read_ratings(reply))
    assert response.composite == 4.0


def test_svi_facet_means():
    items = load_svi_items()
    # facets are blocks of four: rate block k entirely k+1
    lines = []
    for i in range(1, 17):
        lines.append(f"{i}: {(i - 1) // 4 + 1}")
    response = svi_response(items, read_ratings("\n".join(lines)))
    assert response.facets == {
        "instrumental": 1.0,
        "self": 2.0,
        "process": 3.0,
        "relationship": 4.0,
    }
    assert response.composite == 2.5


def test_svi_recorded_for_both_seats(chair):
    a = make_scripted_agent("stonewaller", {"svi_rating": 6}, agent_id="a")
    b = make_scripted_agent("stonewaller", {"svi_rating": 2}, agent_id="b")
    transcript = run_session(
        chair, {"seller": "a", "buyer": "b"}, agents_for(a, b), seed=1
    )
    assert transcript.svi["seller"].composite == 6.0
    assert transcript.svi["buyer"].composite == 2.0


def test_scripted_agent_rates_each_item_under_its_id(chair):
    # a questionnaire file need not number its items 1-16
    items = [{**item, "id": item["id"] + 100} for item in load_svi_items()]
    a = make_scripted_agent("stonewaller", {"svi_rating": 6}, agent_id="a")
    b = make_scripted_agent("stonewaller", {"svi_rating": 2}, agent_id="b")
    transcript = run_session(
        chair, {"seller": "a", "buyer": "b"}, agents_for(a, b), seed=1, svi_items=items
    )
    assert transcript.svi["seller"].composite == 6.0
    assert transcript.svi["buyer"].composite == 2.0
    assert [item_id for item_id, _ in transcript.svi["seller"].items] == list(range(101, 117))


def test_self_play_records_both_seats(chair):
    solo = make_scripted_agent("stonewaller", agent_id="solo")
    transcript = run_session(
        chair, {"seller": "solo", "buyer": "solo"}, agents_for(solo), seed=1
    )
    assert set(transcript.svi) == {"seller", "buyer"}
    assert transcript.termination == "cap_reached"


# ---------------------------------------------------------------------------
# Record round trip


def test_transcript_record_round_trip(tmp_path, chair):
    a = make_scripted_agent("stonewaller", agent_id="a")
    b = make_scripted_agent("immediate_acceptor", agent_id="b")
    transcript = run_session(
        chair, {"seller": "a", "buyer": "b"}, agents_for(a, b), seed=8
    )
    store = TranscriptStore(tmp_path / "store.jsonl")
    store.append(transcript)
    [clone] = store.load()
    assert clone == transcript
    copy = TranscriptStore(tmp_path / "copy.jsonl")
    copy.append(clone)
    assert copy.path.read_bytes() == store.path.read_bytes()


def test_moderator_suffix_lists_issue_keys(rental):
    suffix = moderator_suffix(rental)
    for key in ("rent_amount", "deposit", "start_date", "contract_length"):
        assert key in suffix


def test_offer_close_format_round_trip(rental):
    assignment = Assignment(
        chosen={
            "Rent Amount": "C",
            "Deposit": "E",
            "Start Date": "E",
            "Contract Length": "A",
        }
    )
    from parley.protocol import parse_block, terms_to_assignment

    closed = format_close(rental, assignment)
    parsed = terms_to_assignment(rental, parse_block(closed, "TERMS"))
    assert parsed.chosen == assignment.chosen
    offered = format_offer(rental, assignment)
    parsed_offer = terms_to_assignment(rental, parse_block(offered, "OFFER"))
    assert parsed_offer.chosen == assignment.chosen


@pytest.mark.parametrize(
    "price, written",
    [
        # prices that six significant digits already wrote exactly keep their bytes
        (150, "150"),
        (130.0, "130"),
        (0.5, "0.5"),
        (999.5, "999.5"),
        # and every other price keeps every digit
        (1234.125, "1234.125"),
        (2500001, "2500001"),
        (1e6, "1000000"),
        (0.1 + 0.2, "0.30000000000000004"),
    ],
)
def test_offers_and_closes_state_every_digit_of_the_price(chair, price, written):
    from parley.protocol import parse_block, terms_to_assignment

    assignment = Assignment(agreed_price=price)
    assert format_offer(chair, assignment) == f"[OFFER price={written}]"
    closed = format_close(chair, assignment)
    assert closed == f"[ACCEPT] [TERMS price={written}]"
    assert terms_to_assignment(chair, parse_block(closed, "TERMS")).agreed_price == price


def test_fractional_ladder_rung_is_offered_accepted_and_extracted_exactly(chair):
    agents = agents_for(
        make_scripted_agent("fixed_concession", {"ladder": [1234.125, 999.5]}, agent_id="ladder"),
        make_scripted_agent("immediate_acceptor", agent_id="acceptor"),
    )
    transcript = run_session(chair, {"seller": "ladder", "buyer": "acceptor"}, agents, seed=1)
    assert [u.text for u in transcript.utterances] == [
        "Here is my offer. [OFFER price=1234.125]",
        "That works for me. [ACCEPT] [TERMS price=1234.125]",
    ]
    assert extract_agreement(transcript, chair).agreed_price == 1234.125


def test_demand_price_of_seven_digits_is_stated_whole(chair):
    agents = agents_for(
        make_scripted_agent("stonewaller", {"demand_price": 2500001}, agent_id="wall"),
        make_scripted_agent("silent", agent_id="mute"),
    )
    transcript = run_session(chair, {"seller": "wall", "buyer": "mute"}, agents, seed=1)
    assert transcript.utterances[0].text == "My position has not changed. [OFFER price=2500001]"


# ---------------------------------------------------------------------------
# Chat-model backend through a full session (fake protocol-following model)


def test_chat_backed_session_end_to_end(chair):
    """Drives the production path: assembled system prompts, role mapping,
    marker-based termination, and the questionnaire request, all through a
    transport that behaves like a protocol-following model."""
    from parley.agents import AgentSpec, BackendBinding, ChatModelClient

    def fake_model(endpoint, payload, api_key, timeout):
        dialogue = payload["messages"][1:]
        last = dialogue[-1]["content"] if dialogue else ""
        if "questionnaire" in last:
            text = "\n".join(f"{i}: 5" for i in range(1, 17))
        elif "[OFFER" in last:
            text = "Deal. [ACCEPT] [TERMS price=110]"
        else:
            text = "I propose $110. [OFFER price=110]"
        return {
            "choices": [{"message": {"content": text}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        }

    client = ChatModelClient(transport=fake_model)
    binding = BackendBinding(
        kind="chat_model", model_name="fake", endpoint="https://example.invalid"
    )
    seller = AgentSpec("cs", "cs", "Sell high, stay warm.", binding)
    buyer = AgentSpec("cb", "cb", "Buy low, stay warm.", binding)
    transcript = run_session(
        chair,
        {"seller": "cs", "buyer": "cb"},
        {"cs": seller, "cb": buyer},
        seed=4,
        client=client,
    )
    assert transcript.termination == "accepted"
    assert len(transcript.utterances) == 2
    assert transcript.svi["seller"].composite == 5.0
    assert transcript.svi["buyer"].composite == 5.0
    terms = extract_agreement(transcript, chair)
    assert terms.agreed_price == 110
    # 2 turns + 2 questionnaires
    assert client.usage["requests"] == 4


def recorded_chat_requests(scenario, role_map, agents, seed, first_mover=None):
    """Every request payload a session sends, in order, through a fake model
    that offers for two turns a seat, then closes: an acceptance of its own
    price in a distributive scenario, a walkaway in an integrative one."""
    from parley.agents import ChatModelClient

    payloads = []

    def fake_model(endpoint, payload, api_key, timeout):
        payloads.append({"endpoint": endpoint, **payload})
        messages = payload["messages"]
        if messages[-1]["content"].startswith("The negotiation has ended."):
            text = "\n".join(f"{i}: {(i + len(messages)) % 7 + 1}" for i in range(1, 17))
        elif len(messages) < 5:
            text = f"{payload['model']} offers. [OFFER price={100 + len(messages)}]"
        elif scenario.kind == "distributive":
            text = f"Agreed. [ACCEPT] [TERMS price={100 + len(messages)}]"
        else:
            text = "No deal today. [WALKAWAY]"
        return {"choices": [{"message": {"content": text}, "finish_reason": "stop"}]}

    transcript = run_session(
        scenario, role_map, agents, seed=seed, client=ChatModelClient(transport=fake_model),
        first_mover=first_mover,
    )
    return transcript, payloads


def test_chat_requests_keep_their_bytes(chair, rental):
    """The system text, history, seed and questionnaire message of every
    request of a chat-vs-chat and a chat-vs-scripted session, pinned by
    digest."""
    import hashlib
    import json

    from parley.agents import AgentSpec, BackendBinding

    def chat(agent_id, model, temperature):
        binding = BackendBinding(
            kind="chat_model", model_name=model, temperature=temperature,
            max_reply_tokens=300, endpoint=f"https://example.invalid/{model}",
        )
        return AgentSpec(agent_id, agent_id, f"Prompt of {agent_id}: be firm, be fair.", binding)

    sessions = [
        recorded_chat_requests(
            chair, {"seller": "cs", "buyer": "cb"},
            agents_for(chat("cs", "model-a", 0.2), chat("cb", "model-b", 0.7)), seed=11,
        ),
        recorded_chat_requests(
            rental, {"landlord": "lad", "tenant": "ct"},
            agents_for(
                make_scripted_agent("fixed_concession", {"label_ladder": ["B", "C"]}, agent_id="lad"),
                chat("ct", "model-c", 1.0),
            ),
            seed=12, first_mover="tenant",
        ),
    ]
    (chat_chat, chat_chat_payloads), (chat_scripted, chat_scripted_payloads) = sessions
    assert chat_chat.termination == "accepted"
    assert chat_scripted.termination == "walkaway"
    # every turn is one request, and each chat seat answers the questionnaire once
    assert len(chat_chat_payloads) == len(chat_chat.utterances) + 2
    assert len(chat_scripted_payloads) == 3 + 1
    assert None not in chat_chat.svi.values() and None not in chat_scripted.svi.values()
    digests = [
        hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
        for _, payloads in sessions
    ]
    assert digests == [
        "c6fc56e9b9cbbe1dab74d052ad2ec332d4d3752d59b52236a4f473d6d987d6af",
        "2db972452454a77ef8ac26dd77f53a1cd8212f42011440090adddce2cb48aabb",
    ]
