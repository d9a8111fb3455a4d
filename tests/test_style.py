import numpy as np
import pytest
from hypothesis import given, strategies as st

from parley.agents import BackendBinding, ChatModelClient
from parley.errors import ScoringError, SchemaError, UndefinedStatisticError
from parley.style import (
    STYLE_RATER_INSTRUCTION,
    icc_3_1,
    pearson_r,
    score_prompt_style,
)

RATER = BackendBinding(
    kind="chat_model", model_name="rater-model", endpoint="https://example.invalid"
)


def stub_client(replies):
    replies = list(replies)
    calls = []

    def transport(endpoint, payload, api_key, timeout):
        calls.append(payload)
        reply = replies[min(len(calls) - 1, len(replies) - 1)]
        return {"choices": [{"message": {"content": reply}, "finish_reason": "stop"}]}

    client = ChatModelClient(transport=transport)
    client.calls = calls
    return client


# ---------------------------------------------------------------------------
# score_prompt_style


def test_stubbed_rater_exact_passthrough():
    client = stub_client(['{"warmth_score": 42, "dominance_score": 17}'])
    scores = score_prompt_style("win kindly", client, RATER, "a1")
    assert scores["warmth"] == 42
    assert scores["dominance"] == 17
    assert scores["rater"] == "rater-model"


def test_requery_once_then_succeed():
    client = stub_client(
        ["that is not JSON", '{"warmth_score": 80, "dominance_score": 20}']
    )
    scores = score_prompt_style("be gentle", client, RATER, "a1")
    assert scores["warmth"] == 80
    assert len(client.calls) == 2


def test_persistent_parse_failure_carries_raw_reply():
    client = stub_client(["gibberish one", "gibberish two"])
    with pytest.raises(ScoringError) as excinfo:
        score_prompt_style("whatever", client, RATER, "a1")
    assert excinfo.value.raw_reply == "gibberish two"
    assert len(client.calls) == 2


def test_out_of_range_scores_rejected():
    client = stub_client(
        [
            '{"warmth_score": 140, "dominance_score": 20}',
            '{"warmth_score": 90, "dominance_score": 20}',
        ]
    )
    scores = score_prompt_style("p", client, RATER, "a1")
    assert scores["warmth"] == 90


def test_prompt_interpolated_unmodified():
    # byte check: the outgoing request embeds the prompt exactly, with the
    # instruction text wrapped around it
    prompt = "  Spaces kept.  {braces} & unicode — intact\n\nTwo lines.  "
    client = stub_client(['{"warmth_score": 1, "dominance_score": 1}'])
    score_prompt_style(prompt, client, RATER, "a1")
    sent = client.calls[0]["messages"][1]["content"]
    assert prompt in sent
    assert sent == STYLE_RATER_INSTRUCTION.replace("{prompt_text}", prompt)


def test_empty_prompt_rejected():
    client = stub_client(['{"warmth_score": 1, "dominance_score": 1}'])
    with pytest.raises(ScoringError):
        score_prompt_style("", client, RATER, "a1")


# ---------------------------------------------------------------------------
# ICC(3,1)


def test_identical_rater_columns_give_one():
    assert icc_3_1([[1, 1], [5, 5], [9, 9]]) == pytest.approx(1.0)


def test_hand_worked_anova_fixture():
    # frozen from an explicit sums-of-squares ANOVA oracle
    matrix = [[7, 9], [5, 6], [8, 8], [2, 1]]
    assert icc_3_1(matrix) == pytest.approx(0.9152542372881357, abs=1e-9)


def test_one_rater_constant_fixture():
    # frozen from the same oracle; values <= 0 are possible
    matrix = [[4, 1], [4, 5], [4, 2], [4, 8]]
    assert icc_3_1(matrix) == pytest.approx(0.0, abs=1e-12)


def test_zero_between_target_variance_is_an_error():
    with pytest.raises(UndefinedStatisticError):
        icc_3_1([[3, 3], [3, 3], [3, 3]])


def test_too_few_targets_or_raters():
    with pytest.raises(UndefinedStatisticError):
        icc_3_1([[1, 2]])
    with pytest.raises(UndefinedStatisticError):
        icc_3_1([[1], [2]])


def test_incomplete_grid_rejected():
    with pytest.raises(SchemaError):
        icc_3_1([[1.0, 2.0], [3.0, float("nan")]])


def test_icc_lower_bound():
    # ICC(3,1) lies in (-1/(k-1), 1]
    rng = np.random.default_rng(4)
    for _ in range(20):
        matrix = rng.normal(0, 1, (6, 3))
        value = icc_3_1(matrix)
        assert -0.5 < value <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Pearson correlation


def test_identity_series():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, x) == pytest.approx(1.0)


def test_negative_affine():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(x, -2 * x + 7) == pytest.approx(-1.0)


def test_five_point_fixture():
    # frozen from an explicit-sums oracle
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 1.0, 4.0, 3.0, 7.0]
    assert pearson_r(x, y) == pytest.approx(0.824163383692134, abs=1e-12)


def test_zero_variance_is_an_error():
    with pytest.raises(UndefinedStatisticError):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_length_mismatch_rejected():
    with pytest.raises(UndefinedStatisticError):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


@given(
    scale=st.floats(min_value=0.01, max_value=100),
    shift=st.floats(min_value=-50, max_value=50),
)
def test_pearson_invariant_under_positive_affine(scale, shift):
    x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
    y = np.array([2.0, 1.0, 5.0, 6.0, 9.0])
    base = pearson_r(x, y)
    assert pearson_r(scale * x + shift, y) == pytest.approx(base, abs=1e-9)
    assert pearson_r(x, scale * y + shift) == pytest.approx(base, abs=1e-9)
    assert pearson_r(-scale * x + shift, y) == pytest.approx(-base, abs=1e-9)
