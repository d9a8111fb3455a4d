import json
from dataclasses import replace

import pytest

from parley.agents import (
    AgentSpec,
    BackendBinding,
    CLEAN_SLATE_PREFACE,
    ChatModelClient,
    Reply,
    SessionView,
    assemble_system_prompt,
    bind_seat,
    load_roster,
    questionnaire_text,
    read_ratings,
)
from parley.catalog import BUILTIN_SCENARIOS, Assignment, load_builtin
from parley.errors import (
    BackendStatusError,
    ConfigurationError,
    SchemaError,
    SessionAbortError,
)
from parley.protocol import (
    format_close,
    format_offer,
    moderator_suffix,
    parse_block,
    terms_to_assignment,
)

from conftest import make_scripted_agent


def chat_agent(agent_id="m1", prompt="Negotiate hard but stay kind."):
    return AgentSpec(
        agent_id=agent_id,
        nickname=agent_id,
        prompt_text=prompt,
        backend=BackendBinding(
            kind="chat_model",
            model_name="test-model",
            endpoint="https://example.invalid/v1/chat",
        ),
    )


def canned_response(text, finish_reason="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish_reason}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }


# ---------------------------------------------------------------------------
# Prompt assembly


def test_assembly_starts_with_clean_slate_preface(chair):
    agent = chat_agent()
    system_text = assemble_system_prompt(agent, chair.role("seller"))
    assert system_text.startswith(
        "Pretend that you have never learned anything about negotiation—you are a clean slate."
    )


def test_assembly_order_and_byte_stability(chair):
    agent = chat_agent()
    suffix = moderator_suffix(chair)
    first = assemble_system_prompt(agent, chair.role("seller"), suffix)
    second = assemble_system_prompt(agent, chair.role("seller"), suffix)
    assert first == second
    role_text = chair.role("seller").confidential_instructions.rstrip("\n") + "\n\n" + suffix
    prompt = agent.prompt_text
    assert first == CLEAN_SLATE_PREFACE + "\n\n" + role_text + "\n\n" + prompt
    assert first.index(CLEAN_SLATE_PREFACE) < first.index("furniture store") < first.index(prompt)


def test_assembly_empty_prompt_rejected_for_chat_model(chair):
    agent = chat_agent(prompt="   ")
    with pytest.raises(ConfigurationError):
        assemble_system_prompt(agent, chair.role("seller"))


def test_assembly_produced_for_scripted_agent(chair):
    agent = make_scripted_agent("stonewaller")
    assert assemble_system_prompt(agent, chair.role("buyer")).startswith(CLEAN_SLATE_PREFACE)


# ---------------------------------------------------------------------------
# Scripted policies


def view_for(scenario, role_name, history=()):
    return SessionView(scenario=scenario, role_name=role_name, history=tuple(history))


def test_immediate_acceptor_accepts_offer(chair):
    agent = make_scripted_agent("immediate_acceptor")
    view = view_for(chair, "buyer", [("seller", "Deal? [OFFER price=100]")])
    reply = bind_seat(agent, view, seed=1).speak()
    assert "[ACCEPT]" in reply.text
    terms = parse_block(reply.text, "TERMS")
    assert terms.price() == 100


def test_fixed_concession_ladder_step2(chair):
    agent = make_scripted_agent("fixed_concession", {"ladder": [150, 130, 110]})
    history = [("seller", "Here is my offer. [OFFER price=150]"), ("buyer", "No.")]
    view = view_for(chair, "seller", history)
    reply = bind_seat(agent, view, seed=1).speak()
    assert parse_block(reply.text, "OFFER").price() == 130


def test_fixed_concession_holds_at_last_rung(chair):
    agent = make_scripted_agent("fixed_concession", {"ladder": [150, 130]})
    history = [
        ("seller", "[OFFER price=150]"),
        ("buyer", "No."),
        ("seller", "[OFFER price=130]"),
        ("buyer", "Still no."),
    ]
    view = view_for(chair, "seller", history)
    reply = bind_seat(agent, view, seed=1).speak()
    assert parse_block(reply.text, "OFFER").price() == 130


def test_stonewaller_restates_demand(chair):
    agent = make_scripted_agent("stonewaller", {"demand_price": 199})
    first = bind_seat(agent, view_for(chair, "seller"), seed=1).speak()
    later = bind_seat(
        agent,
        view_for(chair, "seller", [("seller", first.text), ("buyer", "Come on.")]),
        seed=1,
    ).speak()
    assert parse_block(first.text, "OFFER").price() == 199
    assert parse_block(later.text, "OFFER").price() == 199


def test_mirror_echoes_counterpart(chair):
    agent = make_scripted_agent("mirror")
    view = view_for(chair, "buyer", [("seller", "A very specific sentence.")])
    assert bind_seat(agent, view, seed=1).speak().text == "A very specific sentence."


def test_silent_agent_is_empty(chair):
    agent = make_scripted_agent("silent")
    assert bind_seat(agent, view_for(chair, "buyer"), seed=1).speak().text == ""


def test_scripted_seat_answers_with_ratings_and_writes_no_reply(chair, monkeypatch):
    import parley.agents
    from parley.session import load_svi_items

    def unused(*args):
        raise AssertionError("a scripted seat writes and reads no 'N: R' reply")

    # the reply form is written and read for a chat seat only
    monkeypatch.setattr(parley.agents, "questionnaire_text", unused)
    monkeypatch.setattr(parley.agents, "read_ratings", unused)
    items = [{**item, "id": item["id"] + 100} for item in load_svi_items()]
    rater = make_scripted_agent("stonewaller", {"svi_rating": 6})
    answer = bind_seat(rater, view_for(chair, "seller"), seed=1).answer(items)
    assert answer == {item_id: 6 for item_id in range(101, 117)}
    silent = make_scripted_agent("silent")
    assert bind_seat(silent, view_for(chair, "buyer"), seed=1).answer(items) == {}


def test_chat_seat_reads_its_questionnaire_reply(chair):
    from parley.session import load_svi_items

    captured = []

    def transport(endpoint, payload, api_key, timeout):
        captured.append(payload)
        return canned_response("Happy to.\n1: 5\n 2) 6 \n3 - 9\n1: 3\nand 4: 2 is not a line")

    items = load_svi_items()
    client = ChatModelClient(transport=transport)
    view = SessionView(scenario=chair, role_name="seller", history=(("seller", "hi"),))
    # the last line for an id counts; an out-of-scale rating is the session's to refuse
    assert bind_seat(chat_agent(), view, seed=1, client=client).answer(items) == {1: 3, 2: 6, 3: 9}
    assert captured[0]["messages"][-1] == {"role": "user", "content": questionnaire_text(items)}
    assert read_ratings(None) == read_ratings("") == {}


def test_scripted_referential_transparency(rental):
    agent = make_scripted_agent("fixed_concession", {"label_ladder": ["A", "B"]})
    view = view_for(rental, "landlord", [("landlord", "x"), ("tenant", "y")])
    assert (
        bind_seat(agent, view, seed=5).speak().text == bind_seat(agent, view, seed=5).speak().text
    )


def test_unknown_policy(tmp_path):
    assert refused_roster_message(tmp_path, {"kind": "scripted", "policy_name": "haggler"}) == (
        "policy_name: unknown scripted policy 'haggler'; registered: "
        "fixed_concession, immediate_acceptor, mirror, silent, stonewaller"
    )


def test_scripted_params_are_checked_and_completed_when_bound(tmp_path):
    backend = {"kind": "scripted", "policy_name": "fixed_concession", "policy_params": {"ladder": [150]}}
    (agent,) = load_roster(roster_file(tmp_path, backend))
    assert agent.backend.policy_params == {
        "svi_rating": 4, "ladder": [150], "label_ladder": ["A", "B", "C"]
    }
    backend["policy_params"] = {"ladder": ["high"]}
    assert refused_roster_message(tmp_path, backend) == (
        "policy_params.ladder[0] must be a number, got 'high'"
    )


def test_scripted_reply_truncated_at_token_cap(chair):
    agent = make_scripted_agent("mirror")
    agent = AgentSpec(
        agent_id=agent.agent_id,
        nickname=agent.nickname,
        prompt_text=agent.prompt_text,
        backend=BackendBinding(
            kind="scripted", policy_name="mirror", max_reply_tokens=3
        ),
    )
    view = view_for(chair, "buyer", [("seller", "one two three four five")])
    reply = bind_seat(agent, view, seed=1).speak()
    assert reply.truncated
    assert reply.text == "one two three"


# ---------------------------------------------------------------------------
# Bound seats against the per-turn policies they replaced. The oracle is the
# earlier form of each policy: a function of the view and its parameters,
# called on every turn, whose text the seat cuts to max_reply_tokens then.


def oracle_immediate_acceptor(view, params):
    text = view.last_counterpart_text() or ""
    for block in ("TERMS", "OFFER"):
        terms = parse_block(text, block)
        offer = None if terms is None else terms_to_assignment(view.scenario, terms)
        if offer is not None:
            return "That works for me. " + format_close(view.scenario, offer)
    return "I'm open to your proposal. What terms do you have in mind?"


def oracle_fixed_concession(view, params):
    spec = view.scenario
    ladder = params["ladder" if spec.kind == "distributive" else "label_ladder"]
    own_turns = [role for role, _ in view.history].count(view.role_name)
    rung = ladder[min(own_turns, len(ladder) - 1)]
    if spec.kind == "distributive":
        offer = Assignment(agreed_price=rung)
    else:
        offer = Assignment(chosen={issue.issue_name: rung for issue in spec.issues})
    return "Here is my offer. " + format_offer(spec, offer)


def oracle_stonewaller(view, params):
    spec = view.scenario
    if spec.kind == "integrative":
        demand = Assignment(chosen={
            issue.issue_name: max(issue.options, key=lambda opt: opt[2][view.role_name])[0]
            for issue in spec.issues
        })
    elif params["demand_price"] is not None:
        demand = Assignment(agreed_price=params["demand_price"])
    elif view.role_name == spec.role_names[0]:
        demand = Assignment(agreed_price=spec.price_frame.get("original_new_price", 0))
    else:
        demand = Assignment(agreed_price=0.0)
    return "My position has not changed. " + format_offer(spec, demand)


def oracle_mirror(view, params):
    text = view.last_counterpart_text()
    return params["opener"] if text is None else text


ORACLE_POLICIES = {
    "immediate_acceptor": oracle_immediate_acceptor,
    "fixed_concession": oracle_fixed_concession,
    "stonewaller": oracle_stonewaller,
    "mirror": oracle_mirror,
    "silent": lambda view, params: "",
}


def oracle_reply(agent, view):
    binding = agent.backend
    text = ORACLE_POLICIES[binding.policy_name](view, binding.policy_params)
    if len(text) > binding.max_reply_tokens:
        tokens = text.split()
        if len(tokens) > binding.max_reply_tokens:
            return Reply(" ".join(tokens[: binding.max_reply_tokens]), truncated=True)
    return Reply(text)


# every policy at its defaults, and those with parameters at other values;
# each at the default reply limit and at limits that cut its offers short
SEAT_AGENTS = [
    replace(agent, backend=replace(agent.backend, max_reply_tokens=limit))
    for agent in (
        make_scripted_agent("immediate_acceptor"),
        make_scripted_agent("fixed_concession"),
        make_scripted_agent(
            "fixed_concession", {"ladder": [1234.125, 999.5, 2500001], "label_ladder": ["E", "A"]}
        ),
        make_scripted_agent("stonewaller"),
        make_scripted_agent("stonewaller", {"demand_price": 2500001}),
        make_scripted_agent("mirror"),
        make_scripted_agent("mirror", {"opener": "Shall we begin? It’s €120 — or less."}),
        make_scripted_agent("silent"),
    )
    for limit in (1024, 3, 6)
]
TURNS = 8  # past the end of every ladder above


@pytest.mark.parametrize("scenario_id", BUILTIN_SCENARIOS)
def test_bound_seats_reply_as_the_per_turn_policies(scenario_id):
    """Every seat agent against every seat agent, in both seats: each reply
    of a seat bound at the start, and of one bound at that turn's history,
    has the oracle's text and truncated flag."""
    scenario = load_builtin(scenario_id)
    for i, first in enumerate(SEAT_AGENTS):
        for j, second in enumerate(SEAT_AGENTS):
            history = []
            seats = []
            for agent, role_name in zip((first, second), scenario.role_names):
                view = SessionView(scenario, role_name, history)
                seats.append((agent, view, bind_seat(agent, view, seed=1)))
            for turn in range(TURNS):
                agent, view, seat = seats[(turn + i + j) % 2]
                expected = oracle_reply(agent, view)
                where = (agent.backend, view.role_name, list(history))
                assert bind_seat(agent, view, seed=1).speak() == expected, where
                reply = seat.speak()
                assert reply == expected, where
                history.append((view.role_name, reply.text))


# ---------------------------------------------------------------------------
# Backend binding validation


def roster_file(tmp_path, backend):
    """A roster of one agent, 'a', with a prompt and ``backend``."""
    import yaml

    path = tmp_path / "roster.yaml"
    path.write_text(yaml.safe_dump({"agents": [{"agent_id": "a", "prompt": "p", "backend": backend}]}))
    return path


def refused_roster_message(tmp_path, backend):
    path = roster_file(tmp_path, backend)
    with pytest.raises(SchemaError) as refused:
        load_roster(path)
    return str(refused.value).removeprefix(f"{path}: agent 'a' backend.")


def test_temperature_bounds(tmp_path):
    backend = {"kind": "chat_model", "model_name": "m", "endpoint": "e", "temperature": 2.5}
    assert refused_roster_message(tmp_path, backend) == "temperature must be in [0, 2], got 2.5"


def test_kind_field_exclusivity(tmp_path):
    chat = {"kind": "chat_model", "model_name": "m", "endpoint": "e", "policy_name": "mirror"}
    assert refused_roster_message(tmp_path, chat) == (
        "policy_name must be empty for a chat_model backend, got 'mirror'"
    )
    scripted = {"kind": "scripted", "policy_name": "mirror", "model_name": "m"}
    assert refused_roster_message(tmp_path, scripted) == (
        "model_name must be empty for a scripted backend, got 'm'"
    )


# ---------------------------------------------------------------------------
# Chat client transport behavior


def test_chat_call_shape_and_role_mapping(chair):
    captured = []

    def transport(endpoint, payload, api_key, timeout):
        captured.append(payload)
        return canned_response("Понял, continuing.")

    client = ChatModelClient(transport=transport)
    agent = chat_agent()
    view = SessionView(
        scenario=chair,
        role_name="seller",
        history=(("seller", "my opener"), ("buyer", "their reply")),
    )
    bind_seat(agent, view, seed=9, client=client).speak()
    assert len(captured) == 1  # exactly one completion request
    payload = captured[0]
    assert payload["temperature"] == pytest.approx(0.20)
    assert payload["max_tokens"] == agent.backend.max_reply_tokens
    assert payload["seed"] == 9
    roles = [m["role"] for m in payload["messages"]]
    assert roles == ["system", "assistant", "user"]
    assert payload["messages"][0]["content"] == assemble_system_prompt(
        agent, chair.role("seller"), moderator_suffix(chair)
    )


def test_counterpart_confidential_instructions_never_sent(chair):
    captured = []

    def transport(endpoint, payload, api_key, timeout):
        captured.append(json.dumps(payload))
        return canned_response("ok")

    client = ChatModelClient(transport=transport)
    agent = chat_agent()
    view = SessionView(scenario=chair, role_name="seller", history=())
    bind_seat(agent, view, seed=1, client=client).speak()
    buyer_secret = "you will buy a used chair from the furniture store for $120"
    assert captured
    for raw in captured:
        assert buyer_secret not in raw


def test_retry_then_success(chair):
    calls = {"n": 0}

    def flaky(endpoint, payload, api_key, timeout):
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("connection reset")
        return canned_response("finally")

    client = ChatModelClient(transport=flaky, max_retries=3, backoff_base=0.001)
    agent = chat_agent()
    view = SessionView(scenario=chair, role_name="seller", history=())
    reply = bind_seat(agent, view, seed=1, client=client).speak()
    assert reply.text == "finally"
    assert calls["n"] == 3
    assert client.usage["retries"] == 2


def test_abort_after_retry_budget(chair):
    def dead(endpoint, payload, api_key, timeout):
        raise OSError("no route to host")

    client = ChatModelClient(transport=dead, max_retries=2, backoff_base=0.001)
    agent = chat_agent()
    view = SessionView(scenario=chair, role_name="seller", history=())
    with pytest.raises(SessionAbortError, match="no route to host"):
        bind_seat(agent, view, seed=1, client=client).speak()


def scripted_replies(*outcomes):
    """A transport that raises or returns each outcome in turn, counting calls."""
    calls = []

    def transport(endpoint, payload, api_key, timeout):
        outcome = outcomes[len(calls)]
        calls.append(timeout)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return transport, calls


def ask(client, chair):
    agent = chat_agent()
    view = SessionView(scenario=chair, role_name="seller", history=())
    return bind_seat(agent, view, seed=1, client=client).speak()


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("parley.agents.time.sleep", recorded.append)
    return recorded


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_client_error_status_is_not_retried(chair, sleeps, status):
    transport, calls = scripted_replies(BackendStatusError(status), canned_response("late"))
    client = ChatModelClient(transport=transport, max_retries=3)
    # a refused key, or a path or model the server does not know, is a
    # configuration error, which ends a tournament
    refused = status in (401, 403, 404)
    with pytest.raises(ConfigurationError if refused else SessionAbortError, match=f"HTTP {status}"):
        ask(client, chair)
    assert len(calls) == 1
    assert sleeps == []
    assert client.usage["retries"] == 0


@pytest.mark.parametrize("status", [408, 429, 500, 502, 503])
def test_retryable_status_then_success(chair, sleeps, status):
    transport, calls = scripted_replies(
        BackendStatusError(status), BackendStatusError(status), canned_response("ok")
    )
    client = ChatModelClient(transport=transport, max_retries=3, backoff_base=0.5)
    assert ask(client, chair).text == "ok"
    assert len(calls) == 3
    assert len(sleeps) == 2
    # jittered exponential backoff: base * 2**k * [1, 2)
    assert 0.5 <= sleeps[0] < 1.0 and 1.0 <= sleeps[1] < 2.0
    assert client.usage["retries"] == 2
    assert client.usage["requests"] == 1


def test_retry_after_sets_the_delay(chair, sleeps):
    transport, calls = scripted_replies(
        BackendStatusError(429, retry_after=2.0), canned_response("ok")
    )
    client = ChatModelClient(transport=transport, backoff_base=0.001)
    assert ask(client, chair).text == "ok"
    assert len(calls) == 2
    assert sleeps == [2.0]


def test_retry_after_bounded_by_backoff_and_timeout(chair, sleeps):
    transport, _ = scripted_replies(
        BackendStatusError(503, retry_after=0.0),
        BackendStatusError(503, retry_after=3600.0),
        canned_response("ok"),
    )
    client = ChatModelClient(transport=transport, backoff_base=0.5, timeout=5.0)
    assert ask(client, chair).text == "ok"
    assert 0.5 <= sleeps[0] < 1.0  # never below the computed backoff
    assert sleeps[1] == 5.0  # never above the client's timeout


def test_retryable_status_past_budget_aborts(chair, sleeps):
    transport, calls = scripted_replies(*[BackendStatusError(503)] * 3)
    client = ChatModelClient(transport=transport, max_retries=2)
    with pytest.raises(SessionAbortError, match="HTTP 503"):
        ask(client, chair)
    assert len(calls) == 3
    assert client.usage["retries"] == 2


def test_other_transport_exceptions_are_not_retried(chair, sleeps):
    transport, calls = scripted_replies(ValueError("bug in transport"))
    client = ChatModelClient(transport=transport)
    with pytest.raises(ValueError, match="bug in transport"):
        ask(client, chair)
    assert len(calls) == 1


def test_truncation_flag_from_finish_reason(chair):
    def transport(endpoint, payload, api_key, timeout):
        return canned_response("cut off mid", finish_reason="length")

    client = ChatModelClient(transport=transport)
    agent = chat_agent()
    view = SessionView(scenario=chair, role_name="seller", history=())
    assert bind_seat(agent, view, seed=1, client=client).speak().truncated


def test_cache_off_by_default(chair):
    # repeated identical requests each reach the transport: sampling is
    # stochastic, so no reply is ever reused
    calls = {"n": 0}

    def transport(endpoint, payload, api_key, timeout):
        calls["n"] += 1
        return canned_response(f"reply {calls['n']}")

    binding = chat_agent().backend
    client = ChatModelClient(transport=transport)
    client.complete(binding, "sys", [{"role": "user", "content": "q"}], seed=1)
    client.complete(binding, "sys", [{"role": "user", "content": "q"}], seed=1)
    assert calls["n"] == 2


# ---------------------------------------------------------------------------
# Roster files


def test_load_roster_round_trip(tmp_path):
    import yaml

    path = tmp_path / "roster.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "agents": [
                    {
                        "agent_id": "alpha",
                        "nickname": "The Alpha",
                        "prompt": "Always anchor first.",
                        "backend": {
                            "kind": "chat_model",
                            "model_name": "m",
                            "endpoint": "https://example.invalid",
                        },
                    },
                    {
                        "agent_id": "beta",
                        "backend": {"kind": "scripted", "policy_name": "mirror"},
                    },
                ]
            }
        )
    )
    agents = load_roster(path)
    assert [a.agent_id for a in agents] == ["alpha", "beta"]
    assert agents[0].nickname == "The Alpha"
    assert agents[1].backend.policy_name == "mirror"
    assert agents[1].backend.policy_params == {"svi_rating": 4, "opener": "Hello."}


def test_backend_defaults_apply_to_chat_models_only(tmp_path):
    import yaml

    path = tmp_path / "roster.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "agents": [
                    {"agent_id": "model", "prompt": "Be fair."},
                    {"agent_id": "wall", "backend": {"kind": "scripted", "policy_name": "stonewaller"}},
                ]
            }
        )
    )
    defaults = {"model_name": "m", "endpoint": "https://example.invalid", "temperature": 0.5}
    model, wall = load_roster(path, defaults)
    assert (model.backend.kind, model.backend.model_name) == ("chat_model", "m")
    assert model.backend.temperature == 0.5
    assert (wall.backend.kind, wall.backend.model_name, wall.backend.endpoint) == (
        "scripted",
        "",
        "",
    )


def test_roster_duplicate_id_rejected(tmp_path):
    import yaml

    path = tmp_path / "roster.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "agents": [
                    {"agent_id": "x", "backend": {"kind": "scripted", "policy_name": "mirror"}},
                    {"agent_id": "x", "backend": {"kind": "scripted", "policy_name": "silent"}},
                ]
            }
        )
    )
    with pytest.raises(SchemaError, match="duplicate"):
        load_roster(path)
