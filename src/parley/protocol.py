"""Closing-protocol markers embedded in negotiation messages.

Agents signal offers, acceptance, terms, and walkaways with bracketed markers
so that session termination and outcome extraction are deterministic:

    [OFFER price=100]
    [OFFER rent_amount=C; deposit=E; start_date=E; contract_length=A]
    [ACCEPT] ... [TERMS price=100]
    [WALKAWAY]

An acceptance closes the negotiation only when its [TERMS ...] block is
complete: a finite, non-negative price for distributive scenarios, or a valid
option label for every issue in integrative ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .catalog import MARKER_KEY, Assignment, ScenarioSpec

ACCEPT_MARKER = "[ACCEPT]"
WALKAWAY_MARKER = "[WALKAWAY]"

_BLOCK_RE = {
    "OFFER": re.compile(r"\[OFFER\s+([^\]]*)\]", re.IGNORECASE),
    "TERMS": re.compile(r"\[TERMS\s+([^\]]*)\]", re.IGNORECASE),
}
_PAIR_RE = re.compile(rf"({MARKER_KEY})\s*=\s*([^;=\s][^;]*?)\s*(?:;|$)")


@dataclass(frozen=True)
class Terms:
    """Parsed key=value pairs from an [OFFER ...] or [TERMS ...] block."""

    pairs: dict[str, str]

    def price(self) -> float | None:
        raw = self.pairs.get("price")
        return None if raw is None else read_price(raw)


def read_price(raw: str) -> float | None:
    """A stated price as a number, ``$`` and ``,`` ignored; None unless it
    reads as a finite one."""
    try:
        price = float(raw.replace("$", "").replace(",", ""))
    except ValueError:
        return None
    return price if math.isfinite(price) else None


def parse_block(text: str, block: str) -> Terms | None:
    """Extract the last OFFER or TERMS block from an utterance, if any."""
    matches = _BLOCK_RE[block].findall(text)
    if not matches:
        return None
    pairs = {}
    for key, value in _PAIR_RE.findall(matches[-1]):
        pairs[key.lower()] = value.strip()
    return Terms(pairs)


def terms_to_assignment(spec: ScenarioSpec, terms: Terms) -> Assignment | None:
    """Convert parsed terms into a complete Assignment, or None if incomplete.

    Enforces the all-issues rule: any missing or unrecognized issue/option
    leaves the terms incomplete.
    """
    if spec.kind == "distributive":
        price = terms.price()
        if price is None or price < 0:
            return None
        return Assignment(agreed_price=price)

    chosen: dict[str, str] = {}
    for issue in spec.issues:
        raw = terms.pairs.get(issue.key)
        if raw is None:
            return None
        label = raw.strip().upper()
        if label not in issue.labels():
            return None
        chosen[issue.issue_name] = label
    return Assignment(chosen=chosen)


def _terms(spec: ScenarioSpec, assignment: Assignment) -> str:
    """The body of an ``[OFFER …]`` or ``[TERMS …]`` block."""
    if spec.kind == "distributive":
        # every digit: an integer as one, any other price as its repr
        price = float(assignment.agreed_price)
        return f"price={int(price) if price.is_integer() else price!r}"
    return "; ".join(
        f"{issue.key}={assignment.chosen[issue.issue_name]}" for issue in spec.issues
    )


def format_offer(spec: ScenarioSpec, assignment: Assignment) -> str:
    return f"[OFFER {_terms(spec, assignment)}]"


def format_close(spec: ScenarioSpec, assignment: Assignment) -> str:
    return f"{ACCEPT_MARKER} [TERMS {_terms(spec, assignment)}]"


def moderator_suffix(spec: ScenarioSpec) -> str:
    """Protocol instructions appended to every role briefing.

    Tells the agent how to make machine-readable offers and how to close, so
    that termination detection needs no judgment calls.
    """
    if spec.kind == "distributive":
        offer_example = "[OFFER price=100]"
        terms_example = "[TERMS price=100]"
        completeness = "the agreed price"
    else:
        keys = [issue.key for issue in spec.issues]
        offer_example = "[OFFER " + "; ".join(f"{k}=A" for k in keys) + "]"
        terms_example = "[TERMS " + "; ".join(f"{k}=A" for k in keys) + "]"
        completeness = (
            "the agreed option letter for every one of these issues: "
            + ", ".join(keys)
        )

    return (
        "NEGOTIATION PROTOCOL:\n"
        "- You exchange one message per turn with your counterpart.\n"
        f"- When you propose terms, include a marker like {offer_example} in your message.\n"
        "- To accept a final agreement, include [ACCEPT] together with a single\n"
        f"  terms marker restating ALL agreed terms, e.g. {terms_example}.\n"
        f"  The terms marker must state {completeness}.\n"
        "  An acceptance without complete restated terms does not close the deal.\n"
        "- To end the negotiation without any agreement, include [WALKAWAY].\n"
        "- After the negotiation closes you will be asked to fill in a short\n"
        "  questionnaire about your experience."
    )


def extraction_schema(spec: ScenarioSpec) -> str:
    """JSON reply schema given to a model-assisted extractor."""
    if spec.kind == "distributive":
        shape = '{"deal": true|false, "terms": {"price": <number>} | null}'
    else:
        fields = ", ".join(f'"{issue.key}": "<A-E>"' for issue in spec.issues)
        shape = '{"deal": true|false, "terms": {%s} | null}' % fields
    return (
        "Read the negotiation transcript and decide whether the parties reached "
        "an explicit agreement on all terms. Reply with JSON only, shaped as "
        f"{shape}. If any required term was never explicitly agreed, report "
        '"deal": false with "terms": null.'
    )
