"""Agent runtime: prompt assembly, scripted test policies, chat-model backends.

An AgentSpec binds an identity and a participant-written prompt to a backend.
Chat-model backends talk to a chat-completion HTTP endpoint; scripted backends
are deterministic policies used for testing and desk-scale runs.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .catalog import Assignment, ScenarioSpec, read_yaml, typed
from .errors import (
    BackendStatusError,
    ConfigurationError,
    NotFoundError,
    SchemaError,
    SessionAbortError,
)
from .protocol import format_close, format_offer, parse_block, terms_to_assignment

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
    system_text: str  # assemble_system_prompt's, for this seat
    history: tuple[tuple[str, str], ...]  # (role_name, text) in order

    def own_turns(self) -> int:
        return sum(1 for role, _ in self.history if role == self.role_name)

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


# ---------------------------------------------------------------------------
# Scripted policies


class ScriptedPolicy:
    """Deterministic message policy: pure function of (view, seed)."""

    def __init__(self, params: dict):
        self.params = dict(params)
        self.svi_rating = int(self.params.get("svi_rating", 4))

    def next_message(self, view: SessionView, seed: int) -> str:
        raise NotImplementedError

    def answer_questionnaire(self, items: list[str], seed: int) -> str:
        return "\n".join(f"{i}: {self.svi_rating}" for i in range(1, len(items) + 1))

    # helpers ---------------------------------------------------------------

    def _own_best_assignment(self, view: SessionView) -> Assignment:
        spec = view.scenario
        chosen = {}
        for issue in spec.issues:
            best = max(issue.options, key=lambda opt: opt[2][view.role_name])
            chosen[issue.issue_name] = best[0]
        return Assignment(chosen=chosen)

    def _parse_counterpart_offer(self, view: SessionView) -> Assignment | None:
        text = view.last_counterpart_text()
        if not text:
            return None
        for block in ("TERMS", "OFFER"):
            terms = parse_block(text, block)
            if terms is not None:
                assignment = terms_to_assignment(view.scenario, terms)
                if assignment is not None:
                    return assignment
        return None


class ImmediateAcceptor(ScriptedPolicy):
    """Accepts the first complete offer it sees; otherwise invites one."""

    def next_message(self, view: SessionView, seed: int) -> str:
        offer = self._parse_counterpart_offer(view)
        if offer is not None:
            return "That works for me. " + format_close(view.scenario, offer)
        return "I'm open to your proposal. What terms do you have in mind?"


class FixedConcession(ScriptedPolicy):
    """Walks a fixed concession ladder, then holds at the final rung.

    Distributive ladders are prices (params: ladder); integrative ladders are
    uniform option labels applied to every issue (params: label_ladder).
    """

    def next_message(self, view: SessionView, seed: int) -> str:
        spec = view.scenario
        step = view.own_turns()
        if spec.kind == "distributive":
            ladder = [float(x) for x in self.params.get("ladder", [150.0, 130.0, 110.0])]
            price = ladder[min(step, len(ladder) - 1)]
            offer = Assignment(agreed_price=price)
        else:
            ladder = list(self.params.get("label_ladder", ["A", "B", "C"]))
            label = ladder[min(step, len(ladder) - 1)]
            offer = Assignment(
                chosen={issue.issue_name: label for issue in spec.issues}
            )
        return "Here is my offer. " + format_offer(spec, offer)


class Stonewaller(ScriptedPolicy):
    """Restates its opening demand on every turn and never accepts."""

    def _demand(self, view: SessionView) -> Assignment:
        spec = view.scenario
        if spec.kind == "integrative":
            return self._own_best_assignment(view)
        if "demand_price" in self.params:
            price = float(self.params["demand_price"])
        elif view.role_name == spec.role_names[0]:  # selling seat aims high
            price = float(spec.price_frame.get("original_new_price", 0) or 0)
        else:  # buying seat aims at zero
            price = 0.0
        return Assignment(agreed_price=price)

    def next_message(self, view: SessionView, seed: int) -> str:
        return "My position has not changed. " + format_offer(
            view.scenario, self._demand(view)
        )


class Mirror(ScriptedPolicy):
    """Echoes the counterpart's last utterance verbatim."""

    def next_message(self, view: SessionView, seed: int) -> str:
        text = view.last_counterpart_text()
        if text is None:
            return str(self.params.get("opener", "Hello."))
        return text


class Silent(ScriptedPolicy):
    """Says nothing, ever; exercises degenerate-input handling."""

    def next_message(self, view: SessionView, seed: int) -> str:
        return ""

    def answer_questionnaire(self, items: list[str], seed: int) -> str:
        return ""


SCRIPTED_POLICIES: dict[str, type[ScriptedPolicy]] = {
    "immediate_acceptor": ImmediateAcceptor,
    "fixed_concession": FixedConcession,
    "stonewaller": Stonewaller,
    "mirror": Mirror,
    "silent": Silent,
}


def _unknown_policy(name: str) -> str:
    return f"unknown scripted policy {name!r}; registered: {', '.join(sorted(SCRIPTED_POLICIES))}"


def get_policy(binding: BackendBinding) -> ScriptedPolicy:
    """The policy of a validated scripted binding."""
    return SCRIPTED_POLICIES[binding.policy_name](binding.policy_params)


def make_scripted_agent(
    policy_name: str,
    params: dict | None = None,
    agent_id: str | None = None,
    nickname: str | None = None,
) -> AgentSpec:
    """Build a deterministic scripted agent; identical params give identical behavior."""
    if policy_name not in SCRIPTED_POLICIES:
        raise NotFoundError(_unknown_policy(policy_name))
    binding = BackendBinding(
        kind="scripted", policy_name=policy_name, policy_params=dict(params or {})
    )
    agent_id = agent_id or policy_name
    return AgentSpec(
        agent_id=agent_id,
        nickname=nickname or agent_id,
        prompt_text=f"(scripted policy: {policy_name})",
        backend=binding,
    )


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


def next_message(
    agent: AgentSpec,
    view: SessionView,
    seed: int,
    client: ChatModelClient | None = None,
) -> Reply:
    """Produce the agent's next utterance.

    Scripted backends are pure functions of (view, seed). Chat-model backends
    issue exactly one completion request: the system prompt as system
    content, the agent's own past messages as assistant turns, the
    counterpart's as user turns.
    """
    binding = agent.backend
    if binding.kind == "scripted":
        text = get_policy(binding).next_message(view, seed)
        tokens = text.split()
        if len(tokens) > binding.max_reply_tokens:
            return Reply(" ".join(tokens[: binding.max_reply_tokens]), truncated=True)
        return Reply(text)

    if client is None:
        raise ConfigurationError("chat_model backend requires a ChatModelClient")
    return client.complete(
        binding, view.system_text, view.chat_messages(), seed=seed
    )


# ---------------------------------------------------------------------------
# Roster files


def load_roster(path: str | Path, backend_defaults: dict | None = None) -> list[AgentSpec]:
    """Read an agent roster: one record per agent with optional backend overrides."""
    path = Path(path)
    raw = typed(path, "top level", read_yaml(path), dict)

    defaults = dict(backend_defaults or {})
    agents = []
    seen_ids = set()
    for i, record in enumerate(typed(path, "agents", raw.get("agents"), list)):
        if "agent_id" not in typed(path, f"agents[{i}]", record, dict):
            raise SchemaError(f"{path}: agent record missing field 'agent_id'")
        agent_id = str(record["agent_id"])
        if agent_id in seen_ids:
            raise SchemaError(f"{path}: duplicate agent_id {agent_id!r}")
        seen_ids.add(agent_id)

        key = f"agent {agent_id!r} backend"
        backend_raw = dict(typed(path, key, record.get("backend", {}), dict))
        # config-level defaults configure chat models only, so scripted
        # baselines can share a roster with them
        if backend_raw.get("kind", "chat_model") == "chat_model":
            backend_raw = {**defaults, **backend_raw}

        def setting(name: str, default, kinds, **checks):
            return typed(path, f"{key}.{name}", backend_raw.get(name, default), kinds, **checks)

        temperature = setting("temperature", DEFAULT_TEMPERATURE, (int, float), bounds=TEMPERATURE_BOUNDS)
        binding = BackendBinding(
            kind=setting("kind", "chat_model", str, choices=BACKEND_KINDS),
            model_name=setting("model_name", "", str),
            temperature=float(temperature),
            max_reply_tokens=setting(
                "max_reply_tokens", DEFAULT_MAX_REPLY_TOKENS, int, bounds=REPLY_TOKEN_BOUNDS
            ),
            endpoint=setting("endpoint", "", str),
            policy_name=setting("policy_name", "", str),
            policy_params=dict(setting("policy_params", {}, dict)),
        )
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
        if not chat and binding.policy_name not in SCRIPTED_POLICIES:
            raise SchemaError(f"{path}: {key}.policy_name: {_unknown_policy(binding.policy_name)}")
        spec = AgentSpec(
            agent_id=agent_id,
            nickname=str(record.get("nickname", agent_id)),
            prompt_text=str(record.get("prompt", "")),
            backend=binding,
        )
        if binding.kind == "chat_model" and not spec.prompt_text.strip():
            raise SchemaError(
                f"{path}: agent {agent_id!r} has a chat_model backend but no prompt"
            )
        agents.append(spec)
    return agents
