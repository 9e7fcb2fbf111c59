"""Reference values computed apart from `dedact`, from the definitions.

For a linear model f(x) = w.x + b under squared error, a perturbation
plan replaces each redrawn column group T, conditioned on a column set
C, by its Gaussian conditional: mean m_T(x_C) plus noise with the Schur
complement covariance S_T|C. The expected plan risk is then

    mean_i (y_i - f(x_i with each T set to m_T))^2 + sum_T w_T' S_T|C w_T

with the noise term present in `original_f` mode and absent when the
model is marginalized exactly. Under cross-entropy the noise does not
separate, and a single redrawn column is integrated numerically instead.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# predictions are clipped to [EPS, 1 - EPS] before the log (the
# definition of the cross-entropy loss on out-of-range predictions)
CROSS_ENTROPY_EPS = 1e-12

KEEP = None


def term_plans(measure: str, interest, baseline, aux, d: int) -> tuple[dict, dict]:
    """The two perturbation plans of one measure.

    A plan maps each column to KEEP or to the frozenset of columns its
    redraw is conditioned on (the empty set: an independent redraw).

    DI(K | B):          keep B, redraw the rest independently; minus
                        keep B and K, redraw the rest independently.
    AI(J | C):          keep C, redraw the rest given C; minus
                        keep C and J, redraw the rest given C and J.
    DI_from(K | B, J):  DI's first plan; minus keep B, redraw K given J
                        (keeping K's members of J), the rest independently.
    AI_via(J | C, K):   AI's first plan; minus redraw K given C and J
                        (keeping K's members of C and J), keep the rest
                        of C, redraw the others given C.
    """
    k, b, j = set(interest), set(baseline), set(aux)
    none = frozenset()
    if measure in ("DI", "DI_from"):
        first = {c: KEEP if c in b else none for c in range(d)}
        if measure == "DI":
            second = {c: KEEP if c in b | k else none for c in range(d)}
        else:
            second = {c: KEEP if c in b or c in k & j else (frozenset(j) if c in k else none)
                      for c in range(d)}
        return first, second
    if measure in ("AI", "AI_via"):
        context, interest_set = b, k
        first = {c: KEEP if c in context else frozenset(context) for c in range(d)}
        joint = context | interest_set
        if measure == "AI":
            second = {c: KEEP if c in joint else frozenset(joint) for c in range(d)}
        else:
            pathway = j
            second = {}
            for c in range(d):
                if c in pathway:
                    second[c] = KEEP if c in joint else frozenset(joint)
                else:
                    second[c] = KEEP if c in context else frozenset(context)
        return first, second
    raise ValueError(f"no reference for measure {measure!r}")


def special_case(measure: str, interest, d: int) -> tuple[str, list, list]:
    """PFI and conditional FI as the DI / AI of one column given the rest."""
    rest = [c for c in range(d) if c not in interest]
    if measure == "PFI":
        return "DI", list(interest), rest
    if measure == "conditional_FI":
        return "AI", list(interest), rest
    raise ValueError(f"no reference for measure {measure!r}")


def _conditioned(plan: dict, x: np.ndarray, mean: np.ndarray, cov: np.ndarray):
    """Rows with every redrawn group at its conditional mean, and the
    conditional covariance of each group."""
    groups: dict[frozenset, list[int]] = {}
    for col, cond in plan.items():
        if cond is not KEEP:
            groups.setdefault(cond, []).append(col)
    out = x.copy()
    covs = []
    for cond, targets in groups.items():
        c, t = sorted(cond), sorted(targets)
        if c:
            slope = np.linalg.solve(cov[np.ix_(c, c)], cov[np.ix_(c, t)]).T
            out[:, t] = mean[t] + (x[:, c] - mean[c]) @ slope.T
            schur = cov[np.ix_(t, t)] - slope @ cov[np.ix_(c, t)]
        else:
            out[:, t] = mean[t]
            schur = cov[np.ix_(t, t)]
        covs.append((t, schur))
    return out, covs


def squared_error_risk(plan: dict, inputs: dict, with_noise: bool) -> float:
    """Expected squared-error risk of one plan for the linear model."""
    w, b = inputs["weights"], float(inputs["intercept"])
    rows, covs = _conditioned(plan, inputs["x"], inputs["mean"], inputs["cov"])
    risk = float(np.mean((inputs["y"] - (rows @ w + b)) ** 2))
    if with_noise:
        risk += sum(float(w[t] @ schur @ w[t]) for t, schur in covs)
    return risk


def squared_error_measure(measure: str, interest, baseline, aux, inputs: dict, with_noise: bool) -> float:
    """Expected value of a measure: risk of its first plan minus its second."""
    d = inputs["x"].shape[1]
    first, second = term_plans(measure, interest, baseline, aux, d)
    return squared_error_risk(first, inputs, with_noise) - squared_error_risk(second, inputs, with_noise)


# -- cross-entropy PFI by quadrature ---------------------------------------------


def _clipped_log_expectation(m: np.ndarray, s: float, n_panels: int) -> np.ndarray:
    """E[-log clip(p)] for p ~ N(m, s^2), clip to [EPS, 1 - EPS], per m.

    Outside the clip range the integrand is constant and integrates by
    the normal CDF. Inside, p = exp(-t) maps [EPS, 1 - EPS] to a finite
    t-range on which t exp(-t) N(exp(-t); m, s^2) is smooth, and
    composite Simpson's rule with `n_panels` (even) panels integrates it.
    """
    eps = CROSS_ENTROPY_EPS
    cdf = np.frompyfunc(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), 1, 1)
    below = cdf((eps - m) / s).astype(float)
    above = 1.0 - cdf((1.0 - eps - m) / s).astype(float)
    constant = -math.log(eps) * below - math.log(1.0 - eps) * above
    t = np.linspace(-math.log(1.0 - eps), -math.log(eps), n_panels + 1)
    weights = np.ones(n_panels + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights *= (t[1] - t[0]) / 3.0
    p = np.exp(-t)
    inside = np.empty_like(m)
    for lo in range(0, m.size, 256):
        mm = m[lo:lo + 256, None]
        density = np.exp(-0.5 * ((p - mm) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        inside[lo:lo + 256] = (t * p * density) @ weights
    return constant + inside


def cross_entropy(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    p = np.clip(p, CROSS_ENTROPY_EPS, 1.0 - CROSS_ENTROPY_EPS)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def cross_entropy_pfi(k: int, inputs: dict, n_panels: int = 8192) -> tuple[float, float]:
    """PFI of column k under cross-entropy: (value, integration tolerance).

    The first plan redraws column k alone from its marginal N(mu_k,
    cov_kk); the prediction is then Normal with mean m_i and scale
    s = |w_k| sqrt(cov_kk) on every row, and the expected loss of row i
    is E[-log clip(p)] at m_i for y = 1, or at 1 - m_i for y = 0 (the
    clip range is symmetric). The tolerance is the change when the
    panel count is halved.
    """
    x, y, w, b = inputs["x"], inputs["y"], inputs["weights"], float(inputs["intercept"])
    mean, cov = inputs["mean"], inputs["cov"]
    full = x @ w + b
    m = full - w[k] * x[:, k] + w[k] * mean[k]
    s = abs(w[k]) * math.sqrt(cov[k, k])
    if s == 0.0:
        return 0.0, 0.0
    centre = np.where(y == 1.0, m, 1.0 - m)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("quadrature reference needs a 0/1 label")
    original = float(np.mean(cross_entropy(y, full)))
    fine = float(np.mean(_clipped_log_expectation(centre, s, n_panels))) - original
    coarse = float(np.mean(_clipped_log_expectation(centre, s, n_panels // 2))) - original
    return fine, abs(fine - coarse)


# -- tolerance on estimates whose SE is itself estimated --------------------------


def _t_two_sided_tail(t: float, dof: int) -> float:
    """P(|T| > t) for Student's t: the regularized incomplete beta
    I_x(dof/2, 1/2) at x = dof / (dof + t^2), by Simpson's rule."""
    if dof < 2:
        raise ValueError("needs dof >= 2")
    a, b = dof / 2.0, 0.5
    x_max = dof / (dof + t * t)
    u = np.linspace(0.0, x_max, 20001)
    f = u ** (a - 1.0) * (1.0 - u) ** (b - 1.0)
    weights = np.ones(u.size)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    integral = float(f @ weights) * (u[1] - u[0]) / 3.0
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return integral / beta


@functools.lru_cache(maxsize=None)
def se_multiplier(n_reps: int, sigmas: float = 4.0) -> float:
    """Multiple of an estimated SE with the two-sided tail of `sigmas`
    normal standard deviations.

    An SE estimated from n repetitions makes (estimate - truth) / SE a
    Student t with n - 1 degrees of freedom, whose tails are heavier
    than the normal's: at 20 repetitions |t| > 4 is twelve times as
    likely as |z| > 4.
    """
    target = math.erfc(sigmas / math.sqrt(2.0))
    lo, hi = sigmas, 1e4
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        if _t_two_sided_tail(mid, n_reps - 1) > target:
            lo = mid
        else:
            hi = mid
    return hi
