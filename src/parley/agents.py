"""Agent runtime: prompt assembly, scripted test policies, chat-model backends.

An AgentSpec binds an identity and a participant-written prompt to a backend.
Chat-model backends talk to a chat-completion HTTP endpoint; scripted backends
are deterministic policies used for testing and desk-scale runs.
"""

from __future__ import annotations

import os
import random
import re
import threading
import time
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Sequence

from .catalog import Assignment, ScenarioSpec, read_yaml, typed, typed_mapping
from .errors import (
    BackendStatusError,
    ConfigurationError,
    SchemaError,
    SessionAbortError,
)
from .protocol import (
    format_close,
    format_offer,
    moderator_suffix,
    parse_block,
    terms_to_assignment,
)

# Prefaced verbatim to every participant prompt; suppresses pretrained
# negotiation habits so behavior follows the submitted instructions.
CLEAN_SLATE_PREFACE = (
    "Pretend that you have never learned anything about negotiation—you are a "
    "clean slate. Instead, determine ALL of your behaviors, strategies, and "
    "personas based on the following advice:"
)

DEFAULT_TEMPERATURE = 0.20
DEFAULT_MAX_REPLY_TOKENS = 1024
API_KEY_ENV_VAR = "PARLEY_API_KEY"
BACKEND_KINDS = ("chat_model", "scripted")
TEMPERATURE_BOUNDS = (0, 2)
REPLY_TOKEN_BOUNDS = (1, None)  # a limit of 0 would cut every reply to nothing


@dataclass(frozen=True)
class BackendBinding:
    kind: str  # "chat_model" | "scripted"
    model_name: str = ""
    temperature: float = DEFAULT_TEMPERATURE
    max_reply_tokens: int = DEFAULT_MAX_REPLY_TOKENS
    endpoint: str = ""
    policy_name: str = ""
    policy_params: dict = field(default_factory=dict)


# the keys a roster record and its backend may set
BACKEND_KEYS = tuple(f.name for f in fields(BackendBinding))
RECORD_KEYS = ("agent_id", "nickname", "prompt", "backend")


@dataclass(frozen=True)
class AgentSpec:
    agent_id: str
    nickname: str
    prompt_text: str
    backend: BackendBinding


@dataclass(frozen=True)
class SessionView:
    """What an agent sees when asked for its next message."""

    scenario: ScenarioSpec
    role_name: str
    # (role_name, text) in order; a session's views share its growing list,
    # which a bound seat reads as it stands at each call
    history: Sequence[tuple[str, str]]

    def own_turns(self) -> int:
        return [role for role, _ in self.history].count(self.role_name)

    def last_counterpart_text(self) -> str | None:
        for role, text in reversed(self.history):
            if role != self.role_name:
                return text
        return None

    def chat_messages(self) -> list[dict[str, str]]:
        """The history as chat messages: this seat's turns are the
        assistant's, the counterpart's the user's."""
        return [
            {"role": "assistant" if role == self.role_name else "user", "content": text}
            for role, text in self.history
        ]


@dataclass(frozen=True)
class Reply:
    text: str
    truncated: bool = False


def assemble_system_prompt(agent: AgentSpec, role, protocol_suffix: str = "") -> str:
    """Compose the system prompt: preface, then role briefing, then the prompt.

    Byte-stable for identical inputs. The protocol suffix (closing-marker
    instructions) is appended to the role briefing when provided.
    """
    if agent.backend.kind == "chat_model" and not agent.prompt_text.strip():
        raise ConfigurationError(
            f"agent {agent.agent_id!r}: chat_model backend requires a non-empty prompt"
        )
    role_text = role.confidential_instructions
    if protocol_suffix:
        role_text = role_text.rstrip("\n") + "\n\n" + protocol_suffix
    return "\n\n".join((CLEAN_SLATE_PREFACE, role_text, agent.prompt_text))


def questionnaire_text(items: list[dict]) -> str:
    lines = [
        "The negotiation has ended. Please answer this questionnaire about your",
        "experience. Rate every item on a scale from 1 (not at all) to 7 (very",
        "much). Reply with one line per item, in exactly the form 'N: R' where N",
        "is the item number and R is your rating.",
        "",
    ]
    lines += [f"{it['id']}. {it['text']}" for it in items]
    return "\n".join(lines)


def read_ratings(text: str | None) -> dict[int, int]:
    """The ratings a reply to ``questionnaire_text`` states by item id, one
    per 'N: R' line (the last for an id counts)."""
    lines = re.findall(r"^\s*(\d+)\s*[:.)\-]\s*(\d+)\s*$", text or "", re.MULTILINE)
    return {int(num): int(rating) for num, rating in lines}


# ---------------------------------------------------------------------------
# Scripted policies: each binds a seat once per session. Given the seat's view
# and its parameters, checked and completed by the roster reader, it returns
# the seat's speak function, called once per own turn for the next text.


def immediate_acceptor(view: SessionView, params: dict) -> Callable[[], str]:
    """Accepts the first complete offer it sees; otherwise invites one."""
    @cache
    def reply_to(text: str) -> str:
        for block in ("TERMS", "OFFER"):
            terms = parse_block(text, block)
            offer = None if terms is None else terms_to_assignment(view.scenario, terms)
            if offer is not None:
                return "That works for me. " + format_close(view.scenario, offer)
        return "I'm open to your proposal. What terms do you have in mind?"

    return lambda: reply_to(view.last_counterpart_text() or "")


def fixed_concession(view: SessionView, params: dict) -> Callable[[], str]:
    """Walks a fixed concession ladder, then holds at the final rung:
    prices (``ladder``) in a distributive scenario, option labels applied
    to every issue (``label_ladder``) in an integrative one."""
    spec = view.scenario
    if spec.kind == "distributive":
        offers = [Assignment(agreed_price=rung) for rung in params["ladder"]]
    else:
        names = [issue.issue_name for issue in spec.issues]
        offers = [Assignment(chosen=dict.fromkeys(names, rung)) for rung in params["label_ladder"]]
    texts = ["Here is my offer. " + format_offer(spec, offer) for offer in offers]
    # the rung of each own turn from this one on
    return partial(next, chain(texts[view.own_turns():], repeat(texts[-1])))


def stonewaller(view: SessionView, params: dict) -> Callable[[], str]:
    """Restates its opening demand on every turn and never accepts: its own
    best option on every issue, or ``demand_price``, or else the original
    new price from the selling seat and zero from the buying seat."""
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
    return partial(next, repeat("My position has not changed. " + format_offer(spec, demand)))


def mirror(view: SessionView, params: dict) -> Callable[[], str]:
    """Echoes the counterpart's last utterance verbatim; opens with ``opener``."""
    def speak() -> str:
        text = view.last_counterpart_text()
        return params["opener"] if text is None else text

    return speak


def silent(view: SessionView, params: dict) -> Callable[[], str]:
    """Says nothing and answers no questionnaire; exercises degenerate input."""
    return lambda: ""


SCRIPTED_POLICIES: dict[str, Callable[[SessionView, dict], Callable[[], str]]] = {
    policy.__name__: policy
    for policy in (immediate_acceptor, fixed_concession, stonewaller, mirror, silent)
}


# each policy's parameters as name: (default, kinds, bounds), checked by
# ``typed``; a list default marks a non-empty list, checked item by item.
# svi_rating is the rating a scripted agent gives every questionnaire item;
# every policy takes one, silent too, though it answers none.
_SVI_RATING = {"svi_rating": (4, int, (1, 7))}
POLICY_PARAMS: dict[str, dict[str, tuple]] = {
    "immediate_acceptor": _SVI_RATING,
    "fixed_concession": {
        **_SVI_RATING,
        "ladder": ([150.0, 130.0, 110.0], (int, float), (0, None)),
        "label_ladder": (["A", "B", "C"], str, None),
    },
    "stonewaller": {**_SVI_RATING, "demand_price": (None, (int, float), (0, None))},
    "mirror": {**_SVI_RATING, "opener": ("Hello.", str, None)},
    "silent": _SVI_RATING,
}


def checked_policy_params(source, key: str, policy_name: str, params: dict) -> dict:
    """Every parameter of a registered policy: ``params``' values, each
    checked, and the defaults of those it leaves out. A key the policy does
    not read, or a value it cannot use, raises SchemaError naming ``source``
    and ``key``."""
    table = POLICY_PARAMS[policy_name]
    checked = {name: default for name, (default, _, _) in table.items()}
    for name, value in typed_mapping(source, key, params, list(table)).items():
        default, kinds, bounds = table[name]
        if not isinstance(default, list):
            typed(source, f"{key}.{name}", value, kinds, bounds=bounds)
        elif not typed(source, f"{key}.{name}", value, list):
            raise SchemaError(f"{source}: {key}.{name} must be a non-empty list, got []")
        else:
            for i, item in enumerate(value):
                typed(source, f"{key}.{name}[{i}]", item, kinds, bounds=bounds)
        checked[name] = value
    return checked


# ---------------------------------------------------------------------------
# Chat-model backend


# One requests.Session per thread, so each worker keeps one keep-alive
# connection per endpoint. A worker's session, and with it its connections,
# is released when the thread ends.
_sessions = threading.local()


def _http_transport(endpoint: str, payload: dict, api_key: str, timeout: float) -> dict:
    # the HTTP stack loads on the first request that goes to the network
    import requests

    session = getattr(_sessions, "session", None)
    if session is None:
        session = _sessions.session = requests.Session()
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = session.post(endpoint, json=payload, headers=headers, timeout=timeout)
    except (
        requests.exceptions.MissingSchema,
        requests.exceptions.InvalidSchema,
        requests.exceptions.InvalidURL,
    ) as exc:
        # these subclass OSError, but no retry can mend a malformed endpoint
        raise ConfigurationError(f"malformed endpoint {endpoint!r}: {exc}") from exc
    if not 200 <= resp.status_code < 300:
        raise BackendStatusError(resp.status_code, _retry_after(resp.headers))
    return resp.json()


def _retry_after(headers) -> float | None:
    """A numeric ``Retry-After`` in seconds; an HTTP date is ignored."""
    try:
        return float(headers["Retry-After"])
    except (KeyError, ValueError):
        return None


def _retryable(status: int) -> bool:
    return status in (408, 429) or status >= 500


# statuses every later request would get too: a refused key, or a path or
# model name the server does not know. A 400 or 422 can be one request's
# fault (a history longer than the model's context), so it is not here.
_RUN_ENDING_STATUSES = {
    401: "refused the credentials",
    403: "refused the credentials",
    404: "knows no such path or model",
}


class ChatModelClient:
    """Chat-completion client with bounded retries and backoff. The
    tournament's worker pool bounds the requests in flight.

    ``transport(endpoint, payload, api_key, timeout)`` is injectable so tests
    can capture requests and replay recorded responses without a network. It
    raises ``OSError`` for a transport failure and ``BackendStatusError`` for
    a non-2xx reply. Transport failures, 408, 429 and 5xx are retried; a
    ``Retry-After`` lengthens the backoff, up to ``timeout``. A 401, 403 or
    404 raises ``ConfigurationError``, which ends a tournament; any other
    status ends the request at once.
    """

    def __init__(
        self,
        api_key: str = "",
        transport: Callable[[str, dict, str, float], dict] | None = None,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 120.0,
    ):
        self.api_key = os.environ.get(API_KEY_ENV_VAR) or api_key
        self.transport = transport or _http_transport
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.usage = {"prompt_tokens": 0, "completion_tokens": 0, "requests": 0, "retries": 0}
        self._usage_lock = threading.Lock()

    def complete(
        self,
        binding: BackendBinding,
        system_text: str,
        messages: list[dict],
        seed: int | None = None,
    ) -> Reply:
        payload = {
            "model": binding.model_name,
            "messages": [{"role": "system", "content": system_text}, *messages],
            "temperature": binding.temperature,
            "max_tokens": binding.max_reply_tokens,
        }
        if seed is not None:
            payload["seed"] = seed

        jitter = random.Random(seed if seed is not None else time.time_ns())
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1)) * (1.0 + jitter.random())
                if retry_after is not None:
                    delay = max(delay, min(retry_after, self.timeout))
                with self._usage_lock:
                    self.usage["retries"] += 1
                time.sleep(delay)
            try:
                response = self.transport(
                    binding.endpoint, payload, self.api_key, self.timeout
                )
            except BackendStatusError as exc:
                if exc.status in _RUN_ENDING_STATUSES:
                    raise ConfigurationError(
                        f"backend {binding.endpoint!r} {_RUN_ENDING_STATUSES[exc.status]}: {exc}"
                    ) from exc
                if not _retryable(exc.status):
                    raise SessionAbortError(
                        f"backend {binding.endpoint!r} answered {exc}"
                    ) from exc
                last_error, retry_after = exc, exc.retry_after
                continue
            except OSError as exc:
                last_error, retry_after = exc, None
                continue
            self._record_usage(response)
            return self._parse_response(response)
        raise SessionAbortError(
            f"backend {binding.endpoint!r} failed after {self.max_retries} retries: {last_error}"
        ) from last_error

    @staticmethod
    def _parse_response(response: dict) -> Reply:
        try:
            choice = response["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise SessionAbortError(f"malformed completion response: {response!r}") from exc
        truncated = choice.get("finish_reason") == "length"
        return Reply(text=text, truncated=truncated)

    def _record_usage(self, response: dict) -> None:
        usage = response.get("usage", {}) if isinstance(response, dict) else {}
        with self._usage_lock:
            self.usage["requests"] += 1
            self.usage["prompt_tokens"] += int(usage.get("prompt_tokens", 0))
            self.usage["completion_tokens"] += int(usage.get("completion_tokens", 0))


@dataclass(frozen=True)
class Seat:
    """What an agent does in one session: ``speak()`` gives its next reply to
    the view's history as it then stands; ``answer(items)`` its ratings by
    item id once the talk has ended, ``{}`` when it answers none."""

    speak: Callable[[], Reply]
    answer: Callable[[list[dict]], dict[int, int]]


def bind_seat(
    agent: AgentSpec, view: SessionView, seed: int, client: ChatModelClient | None = None
) -> Seat:
    """The agent bound to its seat for one session. A scripted seat does not
    read the seed, cuts each distinct text to ``max_reply_tokens`` once, and
    rates every questionnaire item its ``svi_rating`` with no reply text (a
    silent one answers nothing). A chat-model seat issues one completion
    request per call: its system prompt (preface, role briefing with the
    protocol, prompt) as system content, its own past messages as assistant
    turns, the counterpart's as user turns, and the questionnaire last."""
    binding = agent.backend
    if binding.kind == "scripted":
        @cache
        def reply(text: str) -> Reply:
            # a text of n characters holds at most n tokens
            if len(text) > binding.max_reply_tokens:
                tokens = text.split()
                if len(tokens) > binding.max_reply_tokens:
                    return Reply(" ".join(tokens[: binding.max_reply_tokens]), truncated=True)
            return Reply(text)

        def answer(items: list[dict]) -> dict[int, int]:
            if binding.policy_name == "silent":
                return {}
            return {item["id"]: binding.policy_params["svi_rating"] for item in items}

        speak = SCRIPTED_POLICIES[binding.policy_name](view, binding.policy_params)
        return Seat(lambda: reply(speak()), answer)

    if client is None:
        raise ConfigurationError("chat_model backend requires a ChatModelClient")
    scenario = view.scenario
    system_text = assemble_system_prompt(
        agent, scenario.role(view.role_name), protocol_suffix=moderator_suffix(scenario)
    )

    def ask(*question: dict) -> Reply:
        return client.complete(binding, system_text, [*view.chat_messages(), *question], seed=seed)

    def answer(items: list[dict]) -> dict[int, int]:
        return read_ratings(ask({"role": "user", "content": questionnaire_text(items)}).text)

    return Seat(ask, answer)


# ---------------------------------------------------------------------------
# Roster files


def checked_backend(source, key: str, raw: dict) -> BackendBinding:
    """The binding ``raw`` sets, each value checked and each unset one at its
    default; errors name ``source`` and ``key``."""

    def setting(name: str, default, kinds, **checks):
        return typed(source, f"{key}.{name}", raw.get(name, default), kinds, **checks)

    temperature = setting("temperature", DEFAULT_TEMPERATURE, (int, float), bounds=TEMPERATURE_BOUNDS)
    return BackendBinding(
        kind=setting("kind", "chat_model", str, choices=BACKEND_KINDS),
        model_name=setting("model_name", "", str),
        temperature=float(temperature),
        max_reply_tokens=setting(
            "max_reply_tokens", DEFAULT_MAX_REPLY_TOKENS, int, bounds=REPLY_TOKEN_BOUNDS
        ),
        endpoint=setting("endpoint", "", str),
        policy_name=setting("policy_name", "", str),
        policy_params=setting("policy_params", {}, dict),
    )


def load_roster(path: str | Path, backend_defaults: dict | None = None) -> list[AgentSpec]:
    """Read an agent roster: one record per agent with optional backend overrides."""
    path = Path(path)
    raw = typed(path, "top level", read_yaml(path), dict)
    agents = []
    seen_ids = set()
    for i, record in enumerate(typed(path, "agents", raw.get("agents"), list)):
        spec = agent_from_record(path, typed(path, f"agents[{i}]", record, dict), backend_defaults)
        if spec.agent_id in seen_ids:
            raise SchemaError(f"{path}: duplicate agent_id {spec.agent_id!r}")
        seen_ids.add(spec.agent_id)
        agents.append(spec)
    return agents


def agent_from_record(path, record: dict, backend_defaults: dict | None = None) -> AgentSpec:
    """One roster record as an agent, every key and value checked; errors
    name ``path``. ``backend_defaults`` (the config's ``backend``) fill in a
    chat model's unset backend keys."""
    name = f"agent {record['agent_id']!r}" if "agent_id" in record else "agent record"
    typed_mapping(path, name, record, RECORD_KEYS, required=("agent_id",))
    agent_id = typed(path, "agent_id", record["agent_id"], str)
    key = f"agent {agent_id!r} backend"
    backend_raw = typed_mapping(path, key, record.get("backend", {}), BACKEND_KEYS)
    # config-level defaults configure chat models only, so scripted
    # baselines can share a roster with them
    if backend_raw.get("kind", "chat_model") == "chat_model":
        backend_raw = {**(backend_defaults or {}), **backend_raw}
    binding = checked_backend(path, key, backend_raw)
    # a chat model needs a model and an endpoint, a scripted agent a
    # registered policy; neither sets the other's keys
    chat = binding.kind == "chat_model"
    for name, wanted in (("model_name", chat), ("endpoint", chat), ("policy_name", not chat)):
        value = getattr(binding, name)
        if wanted and not value:
            raise SchemaError(f"{path}: {key}.{name} must be set for a {binding.kind} backend")
        if value and not wanted:
            raise SchemaError(
                f"{path}: {key}.{name} must be empty for a {binding.kind} backend, got {value!r}"
            )
    if not chat:
        if binding.policy_name not in SCRIPTED_POLICIES:
            raise SchemaError(
                f"{path}: {key}.policy_name: unknown scripted policy {binding.policy_name!r}; "
                f"registered: {', '.join(sorted(SCRIPTED_POLICIES))}"
            )
        binding = replace(binding, policy_params=checked_policy_params(
            path, f"{key}.policy_params", binding.policy_name, binding.policy_params
        ))
    spec = AgentSpec(
        agent_id=agent_id,
        nickname=typed(path, f"agent {agent_id!r} nickname", record.get("nickname", agent_id), str),
        prompt_text=typed(path, f"agent {agent_id!r} prompt", record.get("prompt", ""), str),
        backend=binding,
    )
    if chat and not spec.prompt_text.strip():
        raise SchemaError(f"{path}: agent {agent_id!r} has a chat_model backend but no prompt")
    return spec
