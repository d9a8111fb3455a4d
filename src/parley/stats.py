"""Regression machinery: OLS and logistic fits with multiway cluster-robust
covariance (inclusion-exclusion over one-way clustered sandwiches),
standardized designs, and formatted regression tables.

Coefficient estimates never depend on the clustering; clustering only
replaces the covariance matrix used for standard errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateClusteringError,
    RankDeficiencyError,
    SeparationError,
)

Z_95 = 1.96

CLUSTER_DIMS = ("agent", "dyad", "negotiation")


@dataclass(frozen=True)
class ObservationRow:
    y: float
    warmth: float
    dominance: float
    cluster_agent: str
    cluster_dyad: str
    cluster_negotiation: str


MODEL_TERMS = ("main", "quadratic", "interaction")


@dataclass(frozen=True)
class ModelSpec:
    family: str  # "linear" | "logistic"
    terms: str = "main"  # one of MODEL_TERMS
    standardize: bool = False
    cluster_dims: tuple[str, ...] = CLUSTER_DIMS

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise ConfigurationError(f"unknown family {self.family!r}")
        if self.terms not in MODEL_TERMS:
            raise ConfigurationError(f"unknown terms {self.terms!r}")
        for dim in self.cluster_dims:
            if dim not in CLUSTER_DIMS:
                raise ConfigurationError(
                    f"unknown cluster dimension {dim!r}; valid: {', '.join(CLUSTER_DIMS)}"
                )


@dataclass
class Design:
    X: np.ndarray
    y: np.ndarray
    columns: list[str]
    cluster_ids: dict[str, list[str]]


@dataclass
class FitResult:
    spec: ModelSpec
    columns: list[str]
    coefficients: np.ndarray
    vcov: np.ndarray
    std_errors: np.ndarray
    conf_int: np.ndarray  # (p, 2): coef +/- 1.96 * SE
    p_values: np.ndarray
    n: int
    r_squared: float | None = None
    log_likelihood: float | None = None
    vcov_repaired: bool = False
    cluster_dims: tuple[str, ...] = ()
    # internals needed by the covariance estimators
    _X: np.ndarray | None = None
    _residuals: np.ndarray | None = None
    _weights: np.ndarray | None = None  # logistic IRLS weights at the optimum
    _bread_inv: np.ndarray | None = None  # inv(X'X), or inv(X'WX) for logistic


def build_design(rows: list[ObservationRow], spec: ModelSpec) -> Design:
    """Design matrix with columns ordered (intercept, warmth, dominance,
    then squares or the interaction). Standardization z-scores every
    non-intercept column, and the response too for the linear family."""
    if not rows:
        raise ConfigurationError("no observation rows")
    cluster_ids = {}
    for dim in spec.cluster_dims:
        ids = [getattr(row, f"cluster_{dim}") for row in rows]
        if not all(ids):
            raise ConfigurationError(f"row missing cluster id for {dim!r}")
        cluster_ids[dim] = ids

    warmth = np.array([r.warmth for r in rows], dtype=float)
    dominance = np.array([r.dominance for r in rows], dtype=float)
    y = np.array([r.y for r in rows], dtype=float)

    columns = ["intercept", "warmth", "dominance"]
    data = [np.ones(len(rows)), warmth, dominance]
    if spec.terms == "quadratic":
        columns += ["warmth_sq", "dominance_sq"]
        data += [warmth**2, dominance**2]
    elif spec.terms == "interaction":
        columns += ["warmth_x_dominance"]
        data += [warmth * dominance]

    if spec.family == "logistic":
        # a plain set: np.unique would import numpy.ma on first use
        bad = set(y.tolist()) - {0.0, 1.0}
        if bad:
            raise ConfigurationError(f"logistic response must be binary, found {sorted(bad)}")

    if spec.standardize:
        for i, name in enumerate(columns):
            if name == "intercept":
                continue
            sd = data[i].std(ddof=1)
            if sd == 0.0:
                raise ConfigurationError(f"zero-variance predictor {name!r} under standardize")
            data[i] = (data[i] - data[i].mean()) / sd
        if spec.family == "linear":
            sd = y.std(ddof=1)
            if sd == 0.0:
                raise ConfigurationError("zero-variance response under standardize")
            y = (y - y.mean()) / sd

    return Design(X=np.column_stack(data), y=y, columns=columns, cluster_ids=cluster_ids)


def _check_rank(X: np.ndarray, columns: list[str]) -> None:
    if np.linalg.matrix_rank(X) == X.shape[1]:
        return
    dependent = []
    prev_rank = 0
    for j in range(X.shape[1]):
        rank = np.linalg.matrix_rank(X[:, : j + 1])
        if rank == prev_rank:
            dependent.append(columns[j])
        prev_rank = rank
    raise RankDeficiencyError(
        f"design matrix is rank deficient; dependent columns: {', '.join(dependent) or 'unknown'}"
    )


def fit_model(design: Design, spec: ModelSpec) -> FitResult:
    """Point estimates: least squares via an orthogonal decomposition for the
    linear family, iteratively reweighted least squares for the logistic one
    (convergence when the largest coefficient change is < 1e-10, cap 100
    iterations). The inverse of the bread, X'X or X'WX, is computed here
    once and kept for the clustered covariance."""
    X, y = design.X, design.y
    n, p = X.shape
    _check_rank(X, design.columns)
    r_squared = log_lik = weights = None

    if spec.family == "linear":
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        residuals = y - X @ beta
        ss_res = float(residuals @ residuals)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        dof = n - p
        sigma2 = ss_res / dof if dof > 0 else 0.0
        bread_inv = np.linalg.inv(X.T @ X)
        vcov = sigma2 * bread_inv
    else:
        beta = np.zeros(p)
        for _ in range(100):
            prob = 1.0 / (1.0 + np.exp(-np.clip(X @ beta, -700, 700)))
            w = prob * (1.0 - prob)
            if np.max(np.abs(beta)) > 1e3:
                raise SeparationError("coefficients diverged; response is separable")
            score = X.T @ (y - prob)
            info = X.T @ (X * w[:, None])
            try:
                step = np.linalg.solve(info, score)
            except np.linalg.LinAlgError as exc:
                raise SeparationError(
                    "singular information matrix; response looks separable"
                ) from exc
            beta = beta + step
            if np.max(np.abs(step)) < 1e-10:
                break
        else:
            if np.max(np.abs(beta)) > 50:
                raise SeparationError("IRLS failed to converge; response looks separable")

        prob = 1.0 / (1.0 + np.exp(-np.clip(X @ beta, -700, 700)))
        weights = prob * (1.0 - prob)
        prob_c = np.clip(prob, 1e-12, 1 - 1e-12)
        log_lik = float(y @ np.log(prob_c) + (1 - y) @ np.log(1 - prob_c))
        residuals = y - prob
        bread_inv = vcov = np.linalg.inv(X.T @ (X * weights[:, None]))

    result = FitResult(
        spec=spec,
        columns=list(design.columns),
        coefficients=beta,
        vcov=vcov,
        std_errors=np.zeros(p),
        conf_int=np.zeros((p, 2)),
        p_values=np.zeros(p),
        n=n,
        r_squared=r_squared,
        log_likelihood=log_lik,
        _X=X,
        _residuals=residuals,
        _weights=weights,
        _bread_inv=bread_inv,
    )
    _attach_inference(result, vcov)
    return result


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _attach_inference(result: FitResult, vcov: np.ndarray, repaired: bool = False) -> None:
    result.vcov = vcov
    result.vcov_repaired = repaired
    result.std_errors = np.sqrt(np.clip(np.diag(vcov), 0.0, None))
    half = Z_95 * result.std_errors
    result.conf_int = np.column_stack(
        (result.coefficients - half, result.coefficients + half)
    )
    result.p_values = np.array(
        [
            _two_sided_p(coef / se) if se > 0 else (0.0 if coef != 0 else 1.0)
            for coef, se in zip(result.coefficients, result.std_errors)
        ]
    )


def _intersect(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Codes of the clusters two codings intersect into, numbered in order of
    first appearance. A stable sort groups the rows by (outer, inner); no
    codes are multiplied together, so nothing can overflow."""
    order = np.lexsort((inner, outer))
    outer, inner = outer[order], inner[order]
    new = np.concatenate(([True], (outer[1:] != outer[:-1]) | (inner[1:] != inner[:-1])))
    codes = np.empty_like(order)
    codes[order] = np.argsort(np.argsort(order[new]))[np.cumsum(new) - 1]
    return codes


def multiway_vcov(
    result: FitResult,
    cluster_ids: dict[str, list[str]],
    cluster_dims: tuple[str, ...],
    small_sample: bool = False,
) -> tuple[np.ndarray, bool]:
    """Inclusion-exclusion combination of one-way clustered sandwiches over
    every non-empty subset of the cluster dimensions; the intersection
    clustering serves subsets of size > 1. Each meat is the Gram matrix of
    the per-cluster score sums. Negative eigenvalues (possible for multiway
    combinations) are truncated to zero and flagged.

    ``small_sample`` applies the usual G/(G-1) * (N-1)/(N-p) factor per
    subset; it is off by default (plain estimator).
    """
    if not cluster_dims:
        raise ConfigurationError("cluster_dims must be non-empty for robust covariance")
    n, p = result._X.shape
    codes = {}  # subset of dimensions -> cluster codes in first-appearance order
    for dim in cluster_dims:
        ids = cluster_ids.get(dim)
        if ids is None or len(ids) != n:
            raise ConfigurationError(f"cluster ids for {dim!r} missing or misaligned")
        # a dict, not np.unique, which would import numpy.ma
        index: dict[str, int] = {}
        codes[(dim,)] = np.array([index.setdefault(i, len(index)) for i in ids], dtype=np.int64)
        if len(index) < 2:
            raise DegenerateClusteringError(
                f"cluster dimension {dim!r} has a single cluster; "
                "robust covariance is degenerate"
            )

    scores = result._X * result._residuals[:, None]
    bread_inv = result._bread_inv

    vcov = np.zeros((p, p))
    for size in range(1, len(cluster_dims) + 1):
        for subset in itertools.combinations(cluster_dims, size):
            if size > 1:
                codes[subset] = _intersect(codes[subset[:-1]], codes[subset[-1:]])
            # scores summed row by row within each cluster, and outer products
            # cluster by cluster in first-appearance order, as a plain loop
            # would: subsets that induce the same partition give bit-identical
            # meats, so their sandwiches cancel exactly
            sums = np.column_stack([np.bincount(codes[subset], weights=c) for c in scores.T])
            meat = np.einsum("gi,gj->ij", sums, sums)
            piece = bread_inv @ meat @ bread_inv
            if small_sample and n > p:
                g = len(sums)  # >= 2: every dimension has two clusters or more
                piece = piece * (g / (g - 1)) * ((n - 1) / (n - p))
            vcov += ((-1.0) ** (size + 1)) * piece

    vcov = (vcov + vcov.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(vcov)
    repaired = bool((eigenvalues < 0).any())
    if repaired:
        vcov = eigenvectors @ np.diag(np.clip(eigenvalues, 0.0, None)) @ eigenvectors.T
        vcov = (vcov + vcov.T) / 2.0
    return vcov, repaired


def fit_with_clusters(
    rows: list[ObservationRow], spec: ModelSpec, small_sample: bool = False
) -> FitResult:
    """Fit, then swap in the multiway cluster-robust covariance."""
    design = build_design(rows, spec)
    result = fit_model(design, spec)
    if spec.cluster_dims:
        vcov, repaired = multiway_vcov(
            result, design.cluster_ids, spec.cluster_dims, small_sample=small_sample
        )
        _attach_inference(result, vcov, repaired=repaired)
        result.cluster_dims = tuple(spec.cluster_dims)
    return result


# ---------------------------------------------------------------------------
# Presentation


def _stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def summarize_fit(result: FitResult, title: str = "") -> str:
    """Regression table: coefficients with clustered SEs in parentheses,
    significance stars, and fit statistics."""
    lines = []
    if title:
        lines += [title, "=" * max(24, len(title))]
    for name, coef, se, p in zip(
        result.columns, result.coefficients, result.std_errors, result.p_values
    ):
        lines.append(f"{name:<22s} {coef: .4f}{_stars(p)}")
        lines.append(f"{'':<22s} ({se:.4f})")
    lines.append("-" * 34)
    lines.append(f"{'Observations':<22s} {result.n}")
    if result.spec.family == "linear":
        lines.append(f"{'R-squared':<22s} {result.r_squared:.4f}")
    else:
        lines.append(f"{'Log likelihood':<22s} {result.log_likelihood:.2f}")
    if result.cluster_dims:
        lines.append("SEs clustered by " + ", ".join(result.cluster_dims) + ".")
    if result.vcov_repaired:
        lines.append("Note: covariance repaired by truncating negative eigenvalues.")
    lines.append("*p<0.05; **p<0.01; ***p<0.001")
    return "\n".join(lines) + "\n"
