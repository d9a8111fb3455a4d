"""Interpersonal-style scoring of agent prompts, plus rater-agreement checks.

A model-backed rater scores each prompt for warmth and dominance on 0-100
scales. ICC(3,1) validates the rater against an independent ratings grid, and
Pearson correlation compares two series of ratings.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .agents import BackendBinding, ChatModelClient
from .errors import ScoringError, SchemaError, UndefinedStatisticError

# Structured query sent to the rater, with the agent prompt interpolated
# verbatim at {prompt_text}.
STYLE_RATER_INSTRUCTION = """Return a JSON formatted string with the following values:

- "dominance_score": How much the prompt emphasizes dominance (0 = not at all, 100 = very much)
- "warmth_score": How much the prompt emphasizes warmth (0 = not at all, 100 = very much)

Please note that dominance and warmth are *orthogonal* constructs, meaning it's possible to be high on one without being low on the other. For example, being dominant does not mean you are cold, and being warm does not mean you are submissive.

<prompt>
{prompt_text}
</prompt>

<dominance>
Dominance is related to acting assertive, firm, or forceful, and advocating for your own needs, interests, and positions. For example, dominant prompts can be about how to set anchors, how to leverage your BATNA (best alternative to a negotiated agreement), and how to respond to counteroffers in ways that benefit you.
</dominance>

<warmth>
Warmth is related to acting friendly, sympathetic, or sociable, and demonstrating empathy and nonjudgmental understanding of other people's needs, interests, and positions. For example, warm prompts can be about how to maintain a positive rapport, how to enhance counterpart subjective value, and using language to show empathy and kindness.
</warmth>"""

_JSON_RE = re.compile(r"\{.*\}", re.DOTALL)

# the style table's columns: one row per agent, rated by ``rater``
STYLE_TABLE_COLUMNS = ("agent_id", "warmth", "dominance", "rater")


def _parse_style_reply(text: str) -> tuple[int, int] | None:
    match = _JSON_RE.search(text or "")
    if not match:
        return None
    try:
        parsed = json.loads(match.group(0))
        warmth = float(parsed["warmth_score"])
        dominance = float(parsed["dominance_score"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None
    if not (0 <= warmth <= 100 and 0 <= dominance <= 100):
        return None
    return round(warmth), round(dominance)


def score_prompt_style(
    prompt_text: str,
    client: ChatModelClient,
    binding: BackendBinding,
    agent_id: str,
) -> dict:
    """Rate one agent's prompt into its style row; re-queries once on a bad
    reply, then errors.

    The prompt is interpolated into the instruction unmodified (no trimming,
    no truncation).
    """
    if not prompt_text:
        raise ScoringError("cannot style-score an empty prompt")
    instruction = STYLE_RATER_INSTRUCTION.replace("{prompt_text}", prompt_text)
    last_reply = ""
    for _ in range(2):
        reply = client.complete(
            binding, "", [{"role": "user", "content": instruction}]
        )
        last_reply = reply.text
        parsed = _parse_style_reply(reply.text)
        if parsed is not None:
            return dict(zip(STYLE_TABLE_COLUMNS, (agent_id, *parsed, binding.model_name)))
    raise ScoringError(
        f"style rater returned no usable scores for agent {agent_id!r}",
        raw_reply=last_reply,
    )


# ---------------------------------------------------------------------------
# Rater agreement


def as_ratings_matrix(ratings) -> np.ndarray:
    matrix = np.asarray(ratings, dtype=float)
    if matrix.ndim != 2:
        raise SchemaError("ratings must form a 2-D targets x raters grid")
    if np.isnan(matrix).any():
        raise SchemaError("ratings grid has missing cells")
    return matrix


def icc_3_1(ratings) -> float:
    """Two-way mixed-effects, single-measure intraclass correlation:
    (BMS - EMS) / (BMS + (k-1) * EMS) from the two-way ANOVA table."""
    matrix = as_ratings_matrix(ratings)
    n, k = matrix.shape
    if n < 2 or k < 2:
        raise UndefinedStatisticError("ICC needs at least 2 targets and 2 raters")

    grand = matrix.mean()
    row_means = matrix.mean(axis=1)
    col_means = matrix.mean(axis=0)
    ss_total = ((matrix - grand) ** 2).sum()
    ss_rows = k * ((row_means - grand) ** 2).sum()
    ss_cols = n * ((col_means - grand) ** 2).sum()
    ss_error = ss_total - ss_rows - ss_cols

    bms = ss_rows / (n - 1)
    ems = ss_error / ((n - 1) * (k - 1))
    if bms == 0.0:
        raise UndefinedStatisticError("ICC undefined: no between-target variance")
    denominator = bms + (k - 1) * ems
    if denominator == 0.0:
        raise UndefinedStatisticError("ICC undefined: degenerate ANOVA decomposition")
    return float((bms - ems) / denominator)


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise UndefinedStatisticError("series must be 1-D and equal length")
    if len(x) < 3:
        raise UndefinedStatisticError("correlation needs at least 3 points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt((dx**2).sum() * (dy**2).sum())
    if denom == 0.0:
        raise UndefinedStatisticError("correlation undefined: a series has zero variance")
    return float((dx * dy).sum() / denom)
