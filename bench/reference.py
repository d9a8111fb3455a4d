"""Reference computations that the correctness checks compare against.

Written apart from the program and importing none of it: scenario payoffs
are recomputed from the scenario YAML files, lexicon matches come from a
plain scan, and the regressions are normal-equation OLS and Newton IRLS
with a three-way clustered covariance built from group sums.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import yaml

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "parley" / "data"
CLUSTER_DIMS = ("cluster_agent", "cluster_dyad", "cluster_negotiation")


# ---------------------------------------------------------------------------
# Scenarios and the closing protocol


class Scenario:
    """Payoff tables of one scenario YAML file."""

    def __init__(self, scenario_id: str):
        raw = yaml.safe_load((DATA_DIR / "scenarios" / f"{scenario_id}.yaml").read_text())
        self.scenario_id = scenario_id
        self.kind = raw["kind"]
        self.roles = [r["role_name"] for r in raw["roles"]]
        self.batna = {r["role_name"]: r.get("batna_price") for r in raw["roles"]}
        self.impasse = {r["role_name"]: r.get("impasse_points") for r in raw["roles"]}
        self.cap = 2 * int(raw.get("max_exchanges", 50))
        self.price_frame = raw.get("price_frame", {})
        # issue key ("Rent Amount" -> "rent_amount") -> label -> role -> points
        self.issues = {
            issue["issue_name"].strip().lower().replace(" ", "_"): {
                opt["label"]: dict(opt["points"]) for opt in issue["options"]
            }
            for issue in raw.get("issues", [])
        }

    def terms(self, pairs: dict[str, str] | None) -> dict | None:
        """Complete terms from key=value pairs, or None when incomplete."""
        if pairs is None:
            return None
        if self.kind == "distributive":
            try:
                price = float(pairs.get("price", "").replace("$", "").replace(",", ""))
            except ValueError:
                return None
            return {"price": price} if price >= 0 else None
        chosen = {}
        for key, options in self.issues.items():
            label = pairs.get(key, "").strip().upper()
            if label not in options:
                return None
            chosen[key] = label
        return chosen

    def payoffs(self, terms: dict | None) -> dict[str, float]:
        """Per-role value of the final terms; None terms is an impasse."""
        seller, buyer = self.roles
        if terms is None:
            if self.kind == "distributive":
                return {seller: 0.0, buyer: 0.0}
            return {role: float(self.impasse[role]) for role in self.roles}
        if self.kind == "distributive":
            return {
                seller: terms["price"] - float(self.batna[seller]),
                buyer: float(self.batna[buyer]) - terms["price"],
            }
        return {
            role: float(sum(self.issues[key][label][role] for key, label in terms.items()))
            for role in self.roles
        }


def block_pairs(text: str, block: str) -> dict[str, str] | None:
    """key=value pairs of the last ``[BLOCK ...]`` marker in a message."""
    upper = text.upper()
    start = upper.rfind(f"[{block} ")
    if start < 0:
        return None
    end = text.find("]", start)
    if end < 0:
        return None
    pairs = {}
    for part in text[start + len(block) + 2 : end].split(";"):
        if "=" in part:
            key, value = part.split("=", 1)
            pairs[key.strip().lower()] = value.strip()
    return pairs


def closing(text: str, scenario: Scenario) -> str | None:
    """'walkaway' or 'accepted' when a message closes the negotiation."""
    upper = text.upper()
    if "[WALKAWAY]" in upper:
        return "walkaway"
    if "[ACCEPT]" in upper and scenario.terms(block_pairs(text, "TERMS")) is not None:
        return "accepted"
    return None


# ---------------------------------------------------------------------------
# Text features


def load_lexicon(name: str) -> tuple[list[str], dict[str, float]]:
    phrases, polarity = [], {}
    for line in (DATA_DIR / "lexicons" / f"{name}.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        phrase, _, score = line.partition("\t")
        phrase = phrase.strip().lower()
        phrases.append(phrase)
        if score:
            polarity[phrase] = float(score)
    return phrases, polarity


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def lexicon_matches(text: str, phrases: list[str]) -> list[str]:
    """Leftmost-longest phrase matches at word boundaries, case-insensitive,
    scanning the text once: at each position take the longest phrase that
    fits there, then continue after it."""
    text = text.lower()
    by_first: dict[str, list[str]] = {}
    for phrase in sorted(phrases, key=len, reverse=True):
        by_first.setdefault(phrase[0], []).append(phrase)
    found, i = [], 0
    while i < len(text):
        if i > 0 and _is_word_char(text[i - 1]):
            i += 1
            continue
        for phrase in by_first.get(text[i], ()):
            end = i + len(phrase)
            if text.startswith(phrase, i) and (end == len(text) or not _is_word_char(text[end])):
                found.append(phrase)
                i = end
                break
        else:
            i += 1
    return found


def word_count(text: str) -> int:
    return len(text.split())


def question_count(text: str) -> int:
    return text.count("?")


# ---------------------------------------------------------------------------
# Regressions


def design(
    warmth: np.ndarray, dominance: np.ndarray, y: np.ndarray, family: str, standardize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y): intercept, warmth, dominance; standardized columns are
    z-scored with the sample SD, and so is a linear response."""
    cols = []
    for col in (warmth, dominance):
        if standardize:
            col = (col - col.mean()) / col.std(ddof=1)
        cols.append(col)
    if standardize and family == "linear":
        y = (y - y.mean()) / y.std(ddof=1)
    return np.column_stack([np.ones(len(y)), *cols]), y


def ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, scores, bread inverse) from the normal equations."""
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    return beta, X * resid[:, None], np.linalg.inv(xtx)


def irls(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, scores, bread inverse) of a logistic fit by Newton steps."""
    beta = np.zeros(X.shape[1])
    for _ in range(200):
        prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
        info = (X * (prob * (1 - prob))[:, None]).T @ X
        step = np.linalg.solve(info, X.T @ (y - prob))
        beta = beta + step
        if np.abs(step).max() < 1e-13:
            break
    prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
    info = (X * (prob * (1 - prob))[:, None]).T @ X
    return beta, X * (y - prob)[:, None], np.linalg.inv(info)


def clustered_vcov(
    scores: np.ndarray, bread_inv: np.ndarray, clusters: dict[str, list[str]]
) -> tuple[np.ndarray, bool]:
    """Cameron-Gelbach-Miller multiway covariance: one-way sandwiches over
    every non-empty subset of the cluster dimensions, signed by
    inclusion-exclusion, each meat the Gram matrix of per-cluster score sums
    (np.bincount); negative eigenvalues are truncated to zero."""
    codes = {dim: np.unique(ids, return_inverse=True)[1] for dim, ids in clusters.items()}
    dims = list(clusters)
    p = scores.shape[1]
    vcov = np.zeros((p, p))
    for size in range(1, len(dims) + 1):
        for subset in itertools.combinations(dims, size):
            combined = np.unique(
                np.column_stack([codes[d] for d in subset]), axis=0, return_inverse=True
            )[1].ravel()
            sums = np.column_stack(
                [np.bincount(combined, weights=scores[:, j]) for j in range(p)]
            )
            piece = bread_inv @ (sums.T @ sums) @ bread_inv
            vcov += piece if size % 2 else -piece
    vcov = (vcov + vcov.T) / 2
    eigenvalues, eigenvectors = np.linalg.eigh(vcov)
    repaired = bool((eigenvalues < 0).any())
    if repaired:
        vcov = eigenvectors @ np.diag(np.clip(eigenvalues, 0, None)) @ eigenvectors.T
        vcov = (vcov + vcov.T) / 2
    return vcov, repaired


def clustered_fit(rows: list[dict], styles: dict, y_column: str, family: str, standardize: bool):
    """(beta, se, n) of the program's model on the same table rows."""
    rows = [r for r in rows if r.get(y_column, "") != ""]
    y = np.array([float(r[y_column]) for r in rows])
    warmth = np.array([styles[r["agent_id"]][0] for r in rows], dtype=float)
    dominance = np.array([styles[r["agent_id"]][1] for r in rows], dtype=float)
    X, y_used = design(warmth, dominance, y, family, standardize)
    beta, scores, bread_inv = (ols if family == "linear" else irls)(X, y_used)
    vcov, _ = clustered_vcov(scores, bread_inv, {d: [r[d] for r in rows] for d in CLUSTER_DIMS})
    return beta, np.sqrt(np.clip(np.diag(vcov), 0, None)), len(rows)


def close(a: float, b: float, rel: float = 1e-8, floor: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=floor)
