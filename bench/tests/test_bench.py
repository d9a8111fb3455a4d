"""Tests of the benchmark itself: smoke runs of every workload, the
reference computations on hand-worked cases, and checks that catch damaged
outputs. Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
from checks import CHECKS, Inputs  # noqa: E402
from inputs import WORKLOADS, write_inputs  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def smoke(trace: int) -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {r.pop("workload"): r for r in results}


def test_smoke_reports_every_end_to_end_metric():
    results = smoke(0)
    assert sorted(results) == sorted(WORKLOADS)
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in DECLARED["end_to_end"]]
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_smoke_trace_reports_every_layer_metric():
    results = smoke(1)
    names = [m["name"] for m in DECLARED["per_layer"]]
    for workload, result in results.items():
        assert result["correct"], workload
        assert list(result["metrics"]) == names
    layers = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in results.items()}
    negotiations = WORKLOADS["pipeline_scripted"]["smoke"].negotiations
    assert layers["pipeline_scripted"]["scoring.scores"] == 2 * negotiations
    assert layers["pipeline_scripted"]["features.transcripts"] == negotiations
    assert layers["pipeline_scripted"]["tournament.checkpoint_writes"] == negotiations + 1
    chat = layers["tournament_chat"]
    assert chat["agents.requests"] == chat["agents.transport_calls"] > 0
    assert 0 < chat["agents.transport_s"] <= chat["agents.complete_s"]
    assert layers["pipeline_scripted"]["stats.fits"] > 0


def test_lexicon_matches_leftmost_longest_at_word_boundaries():
    phrases = ["thank", "thank you", "thanks", "we", "we're", "sort of"]
    assert ref.lexicon_matches("Thank you, thanks! We're owed thanks", phrases) == [
        "thank you", "thanks", "we're", "thanks",
    ]
    assert ref.lexicon_matches("sort offered, sort of", phrases) == ["sort of"]


def test_clustered_vcov_one_way_is_the_cluster_sandwich():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(40), rng.normal(size=40)])
    y = X @ [1.0, 2.0] + rng.normal(size=40)
    groups = [f"g{i % 7}" for i in range(40)]
    beta, scores, bread_inv = ref.ols(X, y)
    vcov, repaired = ref.clustered_vcov(scores, bread_inv, {"g": groups})
    meat = sum(
        np.outer(s, s)
        for s in (scores[[i for i, g in enumerate(groups) if g == name]].sum(0) for name in set(groups))
    )
    assert not repaired
    assert np.allclose(vcov, bread_inv @ meat @ bread_inv, rtol=1e-12)
    assert np.allclose(beta, np.linalg.lstsq(X, y, rcond=None)[0])


def test_payoffs_from_yaml():
    chair, rental = ref.Scenario("chair"), ref.Scenario("rental")
    assert chair.payoffs({"price": 100.0}) == {"seller": 60.0, "buyer": 20.0}
    terms = rental.terms(ref.block_pairs(
        "[ACCEPT] [TERMS rent_amount=c; deposit=A; start_date=E; contract_length=A]", "TERMS"
    ))
    assert rental.payoffs(terms) == {"landlord": 850 + 0 + 700 + 650, "tenant": 850 + 1100 + 900 + 650}
    assert rental.terms({"rent_amount": "C"}) is None


@pytest.fixture
def pipeline_outputs(tmp_path):
    sizes = WORKLOADS["pipeline_scripted"]["smoke"]
    config = write_inputs("pipeline_scripted", sizes, 5, tmp_path)
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "pipeline_scripted",
         "--config", str(config), "--smoke", "--spawned", repr(time.monotonic())],
        check=True, capture_output=True, timeout=170,
    )
    rounds = [{"executed": sizes.negotiations, "run_failed": 0}]
    return Inputs(tmp_path), sizes, rounds


def _damage(path: Path, column: str, value: str) -> None:
    """Overwrite one cell of the first data row of a stamped table."""
    stamp, *body = path.read_text().splitlines(keepends=True)
    rows = list(csv.DictReader(body))
    rows[0][column] = value
    with open(path, "w", newline="") as fh:
        fh.write(stamp)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_checks_pass_then_catch_damaged_outputs(pipeline_outputs):
    inputs, sizes, rounds = pipeline_outputs
    check = CHECKS["pipeline_scripted"]
    assert check(inputs, sizes, rounds) == []

    _damage(inputs.out / "summary.csv", "deal_rate", "0.123")
    assert any("summary.csv" in p for p in check(inputs, sizes, rounds))

    _damage(inputs.out / "features.csv", "message_length", "99.5")
    assert any("message_length" in p for p in check(inputs, sizes, rounds))

    _damage(inputs.out / "outcomes.csv", "value_claimed", "12345")
    assert any("value_claimed" in p for p in check(inputs, sizes, rounds))

    results_path = inputs.out / "analysis" / "analysis_results.json"
    results = json.loads(results_path.read_text())
    model = next(m for m in results["models"].values() if m.get("family") == "logistic")
    model["coefficients"]["warmth"]["std_error"] *= 1.001
    results_path.write_text(json.dumps(results))
    assert any("std_error" in p for p in check(inputs, sizes, rounds))

    checkpoint = inputs.out / "checkpoint.json"
    payload = json.loads(checkpoint.read_text())
    payload["completed"] = payload["completed"][1:]
    checkpoint.write_text(json.dumps(payload))
    assert any("checkpoint" in p for p in check(inputs, sizes, rounds))
