"""Acceptance suite: one test per criterion, each printing a PASS line at its
stated tolerance. Run with ``pytest tests/test_acceptance.py -v -s``.

Everything runs with scripted backends and stubbed raters; nothing here
touches a network. Criterion 11 needs the published tournament data and
reports itself skipped when the data directory is absent.
"""

import hashlib
import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from parley.catalog import Assignment, evaluate_assignment, load_builtin
from parley.features import build_tfidf, extract_features, load_default_lexicons, score_mimicry
from parley.scoring import extract_agreement, extract_agreement_model
from parley.session import run_session
from parley.stats import (
    Design,
    ModelSpec,
    ObservationRow,
    build_design,
    fit_model,
    fit_with_clusters,
    multiway_vcov,
)
from parley.style import icc_3_1, pearson_r
from parley.tables import read_table
from parley.tournament import (
    TournamentState,
    TranscriptStore,
    build_schedule,
    read_checkpoint,
    run_tournament,
)

from conftest import make_scripted_agent, scripted_agents, write_desk_tournament


def report(number, description):
    print(f"\nACCEPTANCE {number:>2} PASS - {description}")


def timed(limit_seconds):
    class Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc[0] is None:
                assert self.elapsed < limit_seconds, (
                    f"exceeded {limit_seconds}s budget: {self.elapsed:.2f}s"
                )
            return False

    return Timer()


# ---------------------------------------------------------------------------
# 1. Payoff-table fidelity


EXPECTED_TABLES = {
    ("rental", "Rent Amount"): {"landlord": [450, 650, 850, 1050, 1250], "tenant": [1250, 1050, 850, 650, 450]},
    ("rental", "Deposit"): {"landlord": [0, 225, 450, 675, 900], "tenant": [1100, 1000, 900, 800, 700]},
    ("rental", "Start Date"): {"landlord": [1100, 1000, 900, 800, 700], "tenant": [0, 225, 450, 675, 900]},
    ("rental", "Contract Length"): {"landlord": [650, 525, 400, 275, 150], "tenant": [650, 525, 400, 275, 150]},
    ("employment", "Lump Sum Fee"): {"consultant": [200, 400, 600, 800, 1000], "coo": [1500, 1200, 900, 600, 300]},
    ("employment", "Discretionary Budget"): {"consultant": [300, 600, 900, 1200, 1500], "coo": [1000, 800, 600, 400, 200]},
    ("employment", "Travel Expenses"): {"consultant": [150, 300, 450, 600, 750], "coo": [750, 600, 450, 300, 150]},
    ("employment", "Invoice Frequency"): {"consultant": [250, 200, 150, 100, 50], "coo": [250, 200, 150, 100, 50]},
}

EXPECTED_BATNAS = {"lamp": (10, 60), "table": (100, 200), "chair": (40, 120)}


def test_criterion_01_payoff_table_fidelity():
    with timed(1.0):
        for (scenario_id, issue_name), per_role in EXPECTED_TABLES.items():
            spec = load_builtin(scenario_id)
            issue = spec.issue(issue_name)
            for role, expected in per_role.items():
                actual = [issue.points_for(label, role) for label in "ABCDE"]
                assert actual == expected, (scenario_id, issue_name, role)
        for scenario_id, (seller_batna, buyer_batna) in EXPECTED_BATNAS.items():
            spec = load_builtin(scenario_id)
            assert spec.roles[0].batna_price == seller_batna
            assert spec.roles[1].batna_price == buyer_batna

        rental = load_builtin("rental")
        rent = rental.issue("Rent Amount")
        assert all(
            rent.points_for(l, "landlord") + rent.points_for(l, "tenant") == 1700
            for l in "ABCDE"
        )
        employment = load_builtin("employment")
        travel = employment.issue("Travel Expenses")
        assert all(
            travel.points_for(l, "consultant") + travel.points_for(l, "coo") == 900
            for l in "ABCDE"
        )
        invoice = employment.issue("Invoice Frequency")
        for role in ("consultant", "coo"):
            assert max("ABCDE", key=lambda l: invoice.points_for(l, role)) == "A"
    report(1, "built-in payoff schedules match the published tables cell-for-cell")


# ---------------------------------------------------------------------------
# 2. Frontier oracle


def brute_force_frontier(spec):
    best = -math.inf
    for combo in itertools.product("ABCDE", repeat=len(spec.issues)):
        total = sum(
            issue.points_for(label, role)
            for issue, label in zip(spec.issues, combo)
            for role in spec.role_names
        )
        best = max(best, total)
    return best


def test_criterion_02_frontier_oracle():
    with timed(1.0):
        rental = load_builtin("rental")
        employment = load_builtin("employment")
        assert brute_force_frontier(rental) == 6200
        assert brute_force_frontier(employment) == 4800
    report(2, "the joint-value maximum is 6200 (rental) and 4800 (employment)")


# ---------------------------------------------------------------------------
# 3. Distributive conservation


def test_criterion_03_distributive_conservation():
    with timed(1.0):
        chair = load_builtin("chair")
        for price in range(40, 121):
            values, _ = evaluate_assignment(chair, Assignment(agreed_price=price))
            assert values["seller"] + values["buyer"] == 80
        impasse, _ = evaluate_assignment(chair, Assignment.impasse_marker())
        assert impasse == {"seller": 0.0, "buyer": 0.0}
    report(3, "chair surpluses conserve to 80 at every integer price, impasse pays (0, 0)")


# ---------------------------------------------------------------------------
# 4. Impasse coding


def test_criterion_04_impasse_coding(rental, employment):
    rental_values, rental_joint = evaluate_assignment(rental, Assignment.impasse_marker())
    assert rental_values == {"landlord": 0.0, "tenant": 0.0} and rental_joint == 0
    emp_values, emp_joint = evaluate_assignment(employment, Assignment.impasse_marker())
    assert emp_values == {"consultant": 500.0, "coo": 500.0} and emp_joint == 1000

    # a close missing any issue never becomes a deal
    from conftest import make_transcript

    for missing in range(4):
        keys = ["rent_amount", "deposit", "start_date", "contract_length"]
        named = [f"{k}=C" for i, k in enumerate(keys) if i != missing]
        close = "[ACCEPT] [TERMS " + "; ".join(named) + "]"
        transcript = make_transcript(
            "rental",
            {"landlord": "l", "tenant": "t"},
            ["hello", close],
            roles=["landlord", "tenant"],
            termination="cap_reached",
        )
        assert extract_agreement(transcript, rental).impasse
    report(4, "impasses pay (0,0)/0 rental and (500,500)/1000 employment; partial closes are impasses")


# ---------------------------------------------------------------------------
# 5. Schedule math


def test_criterion_05_schedule_math():
    with timed(5.0):
        small = scripted_agents()[:3]
        schedule = build_schedule(small, ["chair"], base_seed=1)
        assert len(schedule) == 9
        seats = {}
        for pairing in schedule:
            for agent in (pairing.first_role_agent, pairing.second_role_agent):
                seats[agent] = seats.get(agent, 0) + 1
        assert all(count == 6 for count in seats.values())

        big = [make_scripted_agent("silent", agent_id=f"agent{i:03d}") for i in range(199)]
        full = build_schedule(big, ["chair", "rental", "employment"], base_seed=1)
        assert len(full) == 118_803
        assert sum(1 for p in full if p.exercise == "rental") == 39_601
    report(5, "n=3 gives 9 pairings and 6 seats per agent; n=199 gives 39,601 per exercise and 118,803 total")


# ---------------------------------------------------------------------------
# 6. Session determinism and resume


def test_criterion_06_session_determinism_and_resume(tmp_path):
    with timed(10.0):
        chair = load_builtin("chair")
        seller = make_scripted_agent(
            "fixed_concession", {"ladder": [150, 130, 110]}, agent_id="fc"
        )
        buyer = make_scripted_agent("immediate_acceptor", agent_id="ia")
        transcript = run_session(
            chair, {"seller": "fc", "buyer": "ia"}, {"fc": seller, "ia": buyer}, seed=3
        )
        assert transcript.termination == "accepted"
        assert len(transcript.utterances) == 2
        assert extract_agreement(transcript, chair).agreed_price == 150

        roster = scripted_agents()
        scenarios = {"chair": chair}
        schedule = build_schedule(roster, ["chair"], base_seed=7)

        reference = TranscriptStore(tmp_path / "ref.jsonl")
        run_tournament(
            TournamentState(roster=roster, schedule=schedule),
            scenarios,
            reference,
            tmp_path / "ref_ckpt.json",
        )

        interrupted = TranscriptStore(tmp_path / "crash.jsonl")
        partial_state = TournamentState(roster=roster, schedule=schedule[:12])
        run_tournament(partial_state, scenarios, interrupted, tmp_path / "ckpt.json")
        resumed_state = TournamentState(roster=roster, schedule=schedule)
        read_checkpoint(tmp_path / "ckpt.json", resumed_state)
        run_tournament(resumed_state, scenarios, interrupted, tmp_path / "ckpt.json")

        assert reference.path.read_bytes() == interrupted.path.read_bytes()
    report(6, "2-utterance scripted close at the current rung; kill-and-resume reproduces the run byte-for-byte")


# ---------------------------------------------------------------------------
# 7. Linguistic oracle


def test_criterion_07_linguistic_oracle(feature_transcript):
    with timed(1.0):
        features = extract_features(feature_transcript, load_default_lexicons())
        seller, buyer = features["seller"], features["buyer"]
        assert seller["mimicry"] == pytest.approx(0.05367891345971865, abs=1e-9)
        assert buyer["mimicry"] == pytest.approx(0.1507277566739416, abs=1e-9)
        assert seller["hedges"] == pytest.approx(2 / 3)
        assert buyer["hedges"] == pytest.approx(1 / 3)
        assert seller["apologies"] == 0.0
        assert buyer["apologies"] == pytest.approx(1 / 3)
        assert seller["gratitude"] == 0.0
        assert buyer["gratitude"] == pytest.approx(2 / 3)
        assert seller["first_person_plural"] == pytest.approx(1 / 3)
        assert buyer["first_person_plural"] == pytest.approx(1.0)
        assert seller["message_length"] == pytest.approx(23 / 3)
        assert buyer["message_length"] == pytest.approx(25 / 3)
        assert seller["questions"] == 0.0
        assert buyer["questions"] == pytest.approx(2 / 3)
        assert seller["positivity"] == pytest.approx(0.45)
        assert buyer["positivity"] == pytest.approx(-0.8 / 3)

        chair = load_builtin("chair")
        wall = make_scripted_agent("stonewaller", agent_id="wall")
        echo = make_scripted_agent("mirror", agent_id="echo")
        transcript = run_session(
            chair, {"seller": "wall", "buyer": "echo"}, {"wall": wall, "echo": echo}, seed=2
        )
        tfidf = build_tfidf([u.text for u in transcript.utterances])
        assert score_mimicry(transcript, "buyer", tfidf) == pytest.approx(1.0, abs=1e-9)
    report(7, "all eight features match the hand-computed oracle; mirror mimicry is 1.0")


# ---------------------------------------------------------------------------
# 8. Stats oracles


def test_criterion_08_stats_oracles():
    with timed(10.0):
        rng = np.random.default_rng(1)
        n = 200
        w = rng.normal(50, 10, n)
        d = rng.normal(50, 10, n)
        y = 1.0 + 0.5 * w - 0.2 * d + rng.normal(0, 2, n)
        rows = [
            ObservationRow(
                y=float(y[i]), warmth=float(w[i]), dominance=float(d[i]),
                cluster_agent=f"a{i % 10}", cluster_dyad=f"d{i % 20}",
                cluster_negotiation=f"n{i}",
            )
            for i in range(n)
        ]
        spec = ModelSpec(family="linear")
        design = build_design(rows, spec)
        fit = fit_model(design, spec)
        closed_form = np.linalg.solve(design.X.T @ design.X, design.X.T @ design.y)
        assert np.abs(fit.coefficients - closed_form).max() < 1e-8

        balanced = Design(
            X=np.ones((100, 1)),
            y=np.array([0.0, 1.0] * 50),
            columns=["intercept"],
            cluster_ids={"negotiation": [f"n{i}" for i in range(100)]},
        )
        logit = fit_model(balanced, ModelSpec(family="logistic", cluster_dims=("negotiation",)))
        assert abs(logit.coefficients[0]) < 1e-8

        # singleton clusters collapse to the heteroskedasticity-robust sandwich
        vcov, _ = multiway_vcov(fit, design.cluster_ids, ("negotiation",))
        scores = design.X * fit._residuals[:, None]
        xtx_inv = np.linalg.inv(design.X.T @ design.X)
        hc = xtx_inv @ (scores.T @ scores) @ xtx_inv
        assert np.abs(vcov - hc).max() < 1e-10

        # three-way combination vs explicit score-summation oracle, 30 rows
        rng = np.random.default_rng(11)
        m = 30
        w = rng.normal(50, 12, m)
        d = rng.normal(40, 9, m)
        y = 2.0 + 0.3 * w - 0.1 * d + rng.normal(0, 3, m)
        rows30 = [
            ObservationRow(
                y=float(y[i]), warmth=float(w[i]), dominance=float(d[i]),
                cluster_agent=f"a{i % 5}", cluster_dyad=f"d{i % 8}",
                cluster_negotiation=f"n{i % 15}",
            )
            for i in range(m)
        ]
        design30 = build_design(rows30, spec)
        fit30 = fit_model(design30, spec)
        vcov30, repaired = multiway_vcov(
            fit30, design30.cluster_ids, ("agent", "dyad", "negotiation")
        )
        bread_inv = np.linalg.inv(design30.X.T @ design30.X)
        scores30 = design30.X * fit30._residuals[:, None]
        oracle = np.zeros((3, 3))
        dims = ["agent", "dyad", "negotiation"]
        for r in range(1, 4):
            for subset in itertools.combinations(dims, r):
                groups = {}
                for i in range(m):
                    key = tuple(design30.cluster_ids[dim][i] for dim in subset)
                    groups.setdefault(key, []).append(i)
                meat = np.zeros((3, 3))
                for members in groups.values():
                    s = np.zeros(3)
                    for i in members:
                        s = s + scores30[i]
                    meat += np.outer(s, s)
                oracle += ((-1.0) ** (r + 1)) * (bread_inv @ meat @ bread_inv)
        assert not repaired
        assert np.abs(vcov30 - oracle).max() < 1e-9

        clustered = fit_with_clusters(rows, ModelSpec(family="linear"))
        assert np.allclose(clustered.coefficients, fit.coefficients)
    report(8, "OLS/logistic/CGM all match their independent oracles; clustering leaves coefficients unchanged")


# ---------------------------------------------------------------------------
# 9. ICC and correlation


def test_criterion_09_icc_and_correlation():
    with timed(1.0):
        assert icc_3_1([[1, 1], [5, 5], [9, 9]]) == pytest.approx(1.0)
        assert icc_3_1([[7, 9], [5, 6], [8, 8], [2, 1]]) == pytest.approx(
            0.9152542372881357, abs=1e-9
        )
        x = np.arange(1.0, 9.0)
        assert pearson_r(x, x) == pytest.approx(1.0)
    report(9, "ICC(3,1) hits 1.0 on perfect agreement and the ANOVA fixture; pearson_r(x, x) = 1")


# ---------------------------------------------------------------------------
# 10. Extractor agreement


def test_criterion_10_extractor_agreement(chair, rental, employment):
    from test_scoring import EXTRACTOR_BINDING, RECORDED_REPLIES, stub_client

    agents = {a.agent_id: a for a in scripted_agents()}
    scenarios = {"chair": chair, "rental": rental, "employment": employment}
    checked = 0
    for (scenario_id, first, second), reply in RECORDED_REPLIES.items():
        scenario = scenarios[scenario_id]
        role_map = dict(zip(scenario.role_names, (first, second)))
        transcript = run_session(scenario, role_map, agents, seed=13)
        marker = extract_agreement(transcript, scenario)
        model = extract_agreement_model(
            transcript, scenario, stub_client(reply), EXTRACTOR_BINDING
        )
        assert marker.impasse == model.impasse
        assert marker.chosen == model.chosen
        assert marker.agreed_price == model.agreed_price
        checked += 1
    assert checked == len(RECORDED_REPLIES)
    report(10, f"marker and model-assisted extractors agree on {checked}/{checked} fixture cases")


# ---------------------------------------------------------------------------
# 11. Conditional replication (published tournament data)


OSF_ENV_VAR = "PARLEY_OSF_DATA"


def fit_chair_replication_models(path):
    """Fit the two chair-exercise models (value claimed OLS, deal logistic)
    from a released outcome CSV with columns negotiation_id, agent_id,
    counterpart_id, warmth, dominance, value_claimed, deal."""
    import csv

    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))

    def rows(column):
        return [
            ObservationRow(
                y=float(r[column]),
                warmth=float(r["warmth"]),
                dominance=float(r["dominance"]),
                cluster_agent=r["agent_id"],
                cluster_dyad="~".join(sorted((r["agent_id"], r["counterpart_id"]))),
                cluster_negotiation=r["negotiation_id"],
            )
            for r in records
        ]

    linear = fit_with_clusters(
        rows("value_claimed"), ModelSpec(family="linear", standardize=False)
    )
    logistic = fit_with_clusters(
        rows("deal"), ModelSpec(family="logistic", standardize=False)
    )
    return linear, logistic


def test_criterion_11_conditional_replication():
    """Replicates the published chair-exercise regressions when the released
    outcome data is available locally.

    Point the PARLEY_OSF_DATA environment variable at a directory containing
    chair_outcomes.csv (schema in fit_chair_replication_models). Absent that,
    the criterion reports itself skipped rather than failed.
    """
    data_dir = os.environ.get(OSF_ENV_VAR, "")
    path = Path(data_dir) / "chair_outcomes.csv" if data_dir else None
    if path is None or not path.exists():
        print("\nACCEPTANCE 11 SKIPPED - published tournament data not present "
              f"(set {OSF_ENV_VAR} to enable)")
        pytest.skip("published tournament data not available")

    linear, logistic = fit_chair_replication_models(path)
    coef = dict(zip(linear.columns, linear.coefficients))
    se = dict(zip(linear.columns, linear.std_errors))
    assert coef["warmth"] == pytest.approx(0.10, abs=0.005)
    assert coef["dominance"] == pytest.approx(0.09, abs=0.005)
    assert se["warmth"] == pytest.approx(0.03, rel=0.20)
    assert se["dominance"] == pytest.approx(0.02, rel=0.20)

    logit_coef = dict(zip(logistic.columns, logistic.coefficients))
    logit_se = dict(zip(logistic.columns, logistic.std_errors))
    assert logit_coef["warmth"] == pytest.approx(0.02, abs=0.005)
    assert logit_coef["dominance"] == pytest.approx(0.002, abs=0.005)
    assert logit_se["warmth"] == pytest.approx(0.002, rel=0.20)
    report(11, "published chair regressions (both model families) replicate within stated tolerances")


def test_replication_machinery_recovers_planted_coefficients(tmp_path):
    """Meta-check of the criterion-11 path on synthetic data with known
    structure, so the conditional skip never hides a broken loader or fit."""
    import csv

    rng = np.random.default_rng(8)
    n_agents = 40
    styles = {
        f"agent{i:02d}": (rng.uniform(0, 100), rng.uniform(0, 100))
        for i in range(n_agents)
    }
    path = tmp_path / "chair_outcomes.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=(
                "negotiation_id", "agent_id", "counterpart_id",
                "warmth", "dominance", "value_claimed", "deal",
            ),
        )
        writer.writeheader()
        ids = list(styles)
        neg = 0
        for a in ids:
            for b in ids:
                neg += 1
                for agent, other in ((a, b), (b, a)):
                    w, d = styles[agent]
                    value = 15.0 + 0.10 * w + 0.09 * d + rng.normal(0, 5)
                    p_deal = 1 / (1 + np.exp(-(-0.4 + 0.02 * w + 0.002 * d)))
                    writer.writerow(
                        {
                            "negotiation_id": f"n{neg}",
                            "agent_id": agent,
                            "counterpart_id": other,
                            "warmth": w,
                            "dominance": d,
                            "value_claimed": value,
                            "deal": int(rng.random() < p_deal),
                        }
                    )
    linear, logistic = fit_chair_replication_models(path)
    coef = dict(zip(linear.columns, linear.coefficients))
    assert coef["warmth"] == pytest.approx(0.10, abs=0.01)
    assert coef["dominance"] == pytest.approx(0.09, abs=0.01)
    logit_coef = dict(zip(logistic.columns, logistic.coefficients))
    assert logit_coef["warmth"] == pytest.approx(0.02, abs=0.01)


# ---------------------------------------------------------------------------
# 12. End-to-end desk tournament


CRITERION_12_MANIFEST = {
    "transcripts.jsonl": "07e53bcbd4fa09f1aecd8e3ee45b91c1644cc00db532fc0bab0b7c32f0fc9180",
    "features.csv": "f6d39db7e9bc7f7f4ca168af12af79de74bbdd12ec2f335c7755d312c36138f3",
    "style.csv": "6cbe7c9a3d8f65d3c16908dba9d131cdb4c48c7ebed7dcc4530594dae36bde7c",
    "analysis/heatmap_value_claimed.csv": (
        "f3e94e367c25f8050e0ed140c635cf222b211d2f46041bc6ca868e46f57f44c7"
    ),
    "analysis/heatmap_deal.csv": "aabfd8e07f3393d1b263a5cec7df6597bad38ecf5bb80fd423acd42ccbf38f23",
}


def test_criterion_12_end_to_end_desk_tournament(tmp_path):
    from parley.pipeline import Pipeline, load_config

    with timed(300.0):
        config = load_config(write_desk_tournament(tmp_path))
        pipeline = Pipeline(config)
        results = pipeline.run_stages(["run", "score", "features", "style", "analyze", "report"])

        assert results["run"].executed == 75  # 5^2 agents x 3 exercises
        assert results["run"].failed == 0

        # schema validity at every stage: stamped tables read back clean
        for path in (
            pipeline.outcomes_path,
            pipeline.features_path,
            pipeline.style_path,
            config.output_dir / "summary.csv",
        ):
            meta, rows = read_table(path, expect_config_hash=config.config_hash)
            assert rows, path
        assert len(list(TranscriptStore(pipeline.transcripts_path).load())) == 75
        checkpoint = json.loads((config.checkpoint_path).read_text())
        assert len(checkpoint["completed"]) == 75
        analysis = json.loads(
            (pipeline.analysis_dir / "analysis_results.json").read_text()
        )
        assert analysis["config"] == config.config_hash
        assert "chair_value_claimed" in analysis["models"]

        # outcomes and features carry two agent-observations per negotiation
        _, outcome_rows = read_table(pipeline.outcomes_path)
        assert len(outcome_rows) == 150

        # golden manifest: a rerun of this roster writes these bytes; the fit
        # tables under analysis/ are left out, as numpy's last bits decide them
        for name, digest in CRITERION_12_MANIFEST.items():
            data = (config.output_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
    report(12, "five scripted agents ran the full 3-scenario pipeline with schema-valid artifacts")
