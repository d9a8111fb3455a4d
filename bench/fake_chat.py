"""Deterministic chat-completion transport for the ``tournament_chat`` workload.

The transport stands in for the HTTP endpoint behind ``ChatModelClient``. It
sleeps a fixed latency, then answers from rules that depend only on the
request: the negotiation seed, the number of history messages and the
protocol example in the system prompt. ``plan`` states what those rules
imply for a whole negotiation, which is what the checks compare against.

Rules, for negotiation seed ``s``:

- the negotiation lasts ``L = 5 + s % 5`` utterances (narrow, so that the
  number of requests hardly depends on the workload seed);
- utterances before the last are a sentence plus a complete ``[OFFER ...]``;
- the last utterance walks away (``[WALKAWAY]``) when ``(s // 5) % 4 == 0``,
  otherwise it accepts and restates the previous offer as ``[TERMS ...]``;
- a questionnaire request is answered with one ``N: R`` line per item,
  ``R = 1 + (s + N) % 7``;
- usage counts whitespace-separated words of the request and of the reply.
"""

from __future__ import annotations

import re
import threading
import time

from inputs import SENTENCES

QUESTIONNAIRE_OPENING = "The negotiation has ended."
_OFFER_RE = re.compile(r"\[OFFER ([^\]]*)\]")
_ITEM_LINE_RE = re.compile(r"^(\d+)\. ", re.MULTILINE)


def plan(seed: int) -> tuple[int, str]:
    """(utterances, termination) that the reply rules imply for a seed."""
    length = 5 + seed % 5
    return length, "walkaway" if (seed // 5) % 4 == 0 else "accepted"


def svi_rating(seed: int, item: int) -> int:
    return 1 + (seed + item) % 7


def _offer(system_text: str, seed: int, turn: int) -> str:
    example = _OFFER_RE.search(system_text).group(1)
    if example.startswith("price="):
        return f"[OFFER price={60 + (seed + 7 * turn) % 100}]"
    keys = [pair.split("=")[0].strip() for pair in example.split(";")]
    return "[OFFER " + "; ".join(
        f"{key}={'ABCDE'[(seed + turn + k) % 5]}" for k, key in enumerate(keys)
    ) + "]"


def reply_text(payload: dict) -> str:
    messages = payload["messages"]
    seed = int(payload["seed"])
    last = messages[-1]["content"] if len(messages) > 1 else ""
    if last.startswith(QUESTIONNAIRE_OPENING):
        items = [int(n) for n in _ITEM_LINE_RE.findall(last)]
        return "\n".join(f"{n}: {svi_rating(seed, n)}" for n in items)
    turn = len(messages) - 1
    length, termination = plan(seed)
    sentence = SENTENCES[(seed + turn) % len(SENTENCES)]
    if turn < length - 1:
        return f"{sentence} {_offer(messages[0]['content'], seed, turn)}"
    if termination == "walkaway":
        return f"{sentence} I will stop here. [WALKAWAY]"
    previous = _OFFER_RE.findall(last)[-1]
    return f"{sentence} Agreed. [ACCEPT] [TERMS {previous}]"


class FakeTransport:
    """``transport(endpoint, payload, api_key, timeout)`` with fixed latency.

    Counts its own calls, so the checks can compare them with the client's
    usage counter.
    """

    def __init__(self, latency_s: float):
        self.latency_s = latency_s
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, endpoint: str, payload: dict, api_key: str, timeout: float) -> dict:
        with self._lock:
            self.calls += 1
        time.sleep(self.latency_s)
        text = reply_text(payload)
        prompt_tokens = sum(len(m["content"].split()) for m in payload["messages"])
        return {
            "choices": [{"message": {"role": "assistant", "content": text}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": len(text.split())},
        }
