"""Agent runtime: prompt assembly, scripted test policies, chat-model backends.

An AgentSpec binds an identity and a participant-written prompt to a backend.
Chat-model backends talk to a chat-completion HTTP endpoint; scripted backends
are deterministic policies used for testing and desk-scale runs.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import requests
import yaml

from .catalog import Assignment, ScenarioSpec
from .errors import ConfigurationError, NotFoundError, SchemaError, SessionAbortError
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


@dataclass(frozen=True)
class BackendBinding:
    kind: str  # "chat_model" | "scripted"
    model_name: str = ""
    temperature: float = DEFAULT_TEMPERATURE
    max_reply_tokens: int = DEFAULT_MAX_REPLY_TOKENS
    endpoint: str = ""
    policy_name: str = ""
    policy_params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in ("chat_model", "scripted"):
            raise ConfigurationError(f"unknown backend kind {self.kind!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigurationError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.kind == "chat_model":
            if self.policy_name:
                raise ConfigurationError("chat_model backend must not set policy_name")
            if not self.model_name or not self.endpoint:
                raise ConfigurationError("chat_model backend requires model_name and endpoint")
        else:
            if not self.policy_name:
                raise ConfigurationError("scripted backend requires policy_name")
            if self.model_name or self.endpoint:
                raise ConfigurationError("scripted backend must not set model_name/endpoint")


@dataclass(frozen=True)
class AgentSpec:
    agent_id: str
    nickname: str
    prompt_text: str
    backend: BackendBinding


@dataclass(frozen=True)
class PromptAssembly:
    """System prompt for one seat: preface, role briefing, participant prompt."""

    system_text: str
    parts: tuple[str, str, str]


@dataclass(frozen=True)
class SessionView:
    """What an agent sees when asked for its next message."""

    scenario: ScenarioSpec
    role_name: str
    assembly: PromptAssembly
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


def assemble_system_prompt(
    agent: AgentSpec, role, protocol_suffix: str = ""
) -> PromptAssembly:
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
    parts = (CLEAN_SLATE_PREFACE, role_text, agent.prompt_text)
    system_text = "\n\n".join(parts)
    return PromptAssembly(system_text=system_text, parts=parts)


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


def get_policy(binding: BackendBinding) -> ScriptedPolicy:
    cls = SCRIPTED_POLICIES.get(binding.policy_name)
    if cls is None:
        raise NotFoundError(
            f"unknown scripted policy {binding.policy_name!r}; "
            f"registered: {', '.join(sorted(SCRIPTED_POLICIES))}"
        )
    return cls(binding.policy_params)


def make_scripted_agent(
    policy_name: str,
    params: dict | None = None,
    agent_id: str | None = None,
    nickname: str | None = None,
) -> AgentSpec:
    """Build a deterministic scripted agent; identical params give identical behavior."""
    if policy_name not in SCRIPTED_POLICIES:
        raise NotFoundError(
            f"unknown scripted policy {policy_name!r}; "
            f"registered: {', '.join(sorted(SCRIPTED_POLICIES))}"
        )
    params = dict(params or {})
    binding = BackendBinding(
        kind="scripted", policy_name=policy_name, policy_params=params
    )
    binding.validate()
    agent_id = agent_id or policy_name
    return AgentSpec(
        agent_id=agent_id,
        nickname=nickname or agent_id,
        prompt_text=f"(scripted policy: {policy_name})",
        backend=binding,
    )


# ---------------------------------------------------------------------------
# Chat-model backend


class RateLimiter:
    """Bounds in-flight requests per endpoint across threads."""

    def __init__(self, max_in_flight: int = 8):
        self.max_in_flight = max_in_flight
        self._semaphores: dict[str, threading.BoundedSemaphore] = {}
        self._lock = threading.Lock()

    def acquire(self, endpoint: str) -> threading.BoundedSemaphore:
        with self._lock:
            sem = self._semaphores.get(endpoint)
            if sem is None:
                sem = threading.BoundedSemaphore(self.max_in_flight)
                self._semaphores[endpoint] = sem
        return sem


def _http_transport(endpoint: str, payload: dict, api_key: str, timeout: float) -> dict:
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
    resp.raise_for_status()
    return resp.json()


class ChatModelClient:
    """Chat-completion client with bounded retries, backoff, and rate limiting.

    ``transport(endpoint, payload, api_key, timeout)`` is injectable so tests
    can capture requests and replay recorded responses without a network.
    """

    def __init__(
        self,
        api_key: str = "",
        transport: Callable[[str, dict, str, float], dict] | None = None,
        rate_limiter: RateLimiter | None = None,
        audit_log: Path | str | None = None,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        timeout: float = 120.0,
    ):
        self.api_key = os.environ.get(API_KEY_ENV_VAR) or api_key
        self.transport = transport or _http_transport
        self.rate_limiter = rate_limiter or RateLimiter()
        self.audit_log = Path(audit_log) if audit_log else None
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self.usage = {"prompt_tokens": 0, "completion_tokens": 0, "requests": 0}
        self._audit_lock = threading.Lock()
        self._usage_lock = threading.Lock()

    def complete(
        self,
        binding: BackendBinding,
        system_text: str,
        messages: list[dict],
        seed: int | None = None,
        max_tokens: int | None = None,
    ) -> Reply:
        payload = {
            "model": binding.model_name,
            "messages": [{"role": "system", "content": system_text}, *messages],
            "temperature": binding.temperature,
            "max_tokens": max_tokens or binding.max_reply_tokens,
        }
        if seed is not None:
            payload["seed"] = seed

        jitter = random.Random(seed if seed is not None else time.time_ns())
        sem = self.rate_limiter.acquire(binding.endpoint)
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1))
                time.sleep(delay * (1.0 + jitter.random()))
            try:
                with sem:
                    response = self.transport(
                        binding.endpoint, payload, self.api_key, self.timeout
                    )
                self._audit(payload, response)
                self._record_usage(response)
                return self._parse_response(response)
            except Exception as exc:  # transport failures trigger the retry budget
                last_error = exc
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

    def _audit(self, payload: dict, response: dict) -> None:
        if self.audit_log is None:
            return
        record = json.dumps({"request": payload, "response": response}, sort_keys=True)
        with self._audit_lock:
            with open(self.audit_log, "a") as fh:
                fh.write(record + "\n")


def next_message(
    agent: AgentSpec,
    view: SessionView,
    seed: int,
    client: ChatModelClient | None = None,
) -> Reply:
    """Produce the agent's next utterance.

    Scripted backends are pure functions of (view, seed). Chat-model backends
    issue exactly one completion request: the assembly as system content, the
    agent's own past messages as assistant turns, the counterpart's as user
    turns.
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
        binding, view.assembly.system_text, view.chat_messages(), seed=seed
    )


# ---------------------------------------------------------------------------
# Roster files


def load_roster(path: str | Path, backend_defaults: dict | None = None) -> list[AgentSpec]:
    """Read an agent roster: one record per agent with optional backend overrides."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict) or "agents" not in raw:
        raise SchemaError(f"{path}: roster file must contain an 'agents' list")

    defaults = dict(backend_defaults or {})
    agents = []
    seen_ids = set()
    for record in raw["agents"]:
        if "agent_id" not in record:
            raise SchemaError(f"{path}: agent record missing field 'agent_id'")
        agent_id = str(record["agent_id"])
        if agent_id in seen_ids:
            raise SchemaError(f"{path}: duplicate agent_id {agent_id!r}")
        seen_ids.add(agent_id)

        backend_raw = dict(record.get("backend", {}))
        # config-level defaults configure chat models only, so scripted
        # baselines can share a roster with them
        if backend_raw.get("kind", "chat_model") == "chat_model":
            backend_raw = {**defaults, **backend_raw}
        binding = BackendBinding(
            kind=backend_raw.get("kind", "chat_model"),
            model_name=backend_raw.get("model_name", ""),
            temperature=float(backend_raw.get("temperature", DEFAULT_TEMPERATURE)),
            max_reply_tokens=int(
                backend_raw.get("max_reply_tokens", DEFAULT_MAX_REPLY_TOKENS)
            ),
            endpoint=backend_raw.get("endpoint", ""),
            policy_name=backend_raw.get("policy_name", ""),
            policy_params=dict(backend_raw.get("policy_params", {})),
        )
        binding.validate()
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
