"""Optimal joint bandwidth/power scheduling.

:func:`solve_joint` is the iterative water-filling algorithm.  It
alternates two updates on the concave weighted-sum-rate objective: a
water-filling power step that spends the egress budget exactly for fixed
bandwidth fractions, and a bandwidth step that, for fixed powers,
equalizes the marginal value of bandwidth by locating the bandwidth
multiplier inside analytic bounds.  The alternation converges to the
joint optimum, slowly near ties between users.

:func:`solve_dual` finds the same optimum exactly by minimizing the
problem's convex dual over the single budget multiplier; the simulator
schedules with it.  Both results are certified through first-order (KKT)
residuals rather than trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Allocation, SolverConfig, budget_watts

__all__ = [
    "NoTransmitterError",
    "PowerStepResult",
    "BandwidthStepResult",
    "IterationRecord",
    "power_step",
    "lambda2_bounds",
    "bandwidth_step",
    "bandwidth_for_multiplier",
    "solve_joint",
    "solve_dual",
    "kkt_residual",
    "objective",
]


class NoTransmitterError(ValueError):
    """No user can carry positive rate (all excluded or zero bandwidth)."""


@dataclass(frozen=True)
class PowerStepResult:
    p: list
    lambda1: float
    active_set: list

    def __post_init__(self):
        if not self.lambda1 > 0:
            raise ValueError("lambda1 must be positive")


@dataclass(frozen=True)
class BandwidthStepResult:
    x: list
    lambda2: float
    search_iterations: int


@dataclass(frozen=True)
class IterationRecord:
    """One full power+bandwidth iteration, kept for diagnostics and tracing."""

    iteration: int
    objective: float
    lambda1: float
    lambda2: float
    max_delta_x: float
    max_delta_p: float
    kkt_residual: float


def _extract(links):
    w = [float(u.weight) for u in links]
    e = [float(u.norm_sinr) for u in links]
    l = [float(u.norm_interference) for u in links]
    return w, e, l


# ---------------------------------------------------------------------------
# power step


def _power_step(x, w, e, l, budget):
    order = [i for i in range(len(x)) if x[i] > 0.0 and w[i] > 0.0 and e[i] > 0.0]
    if not order:
        raise NoTransmitterError(
            "power step needs at least one user with positive bandwidth, weight and SINR"
        )
    # admit users by decreasing marginal rate per unit of budget, w*e/l;
    # index breaks ties so the result is deterministic
    order.sort(key=lambda i: (-(w[i] * e[i] / l[i]), i))
    sum_w = 0.0
    sum_le = 0.0
    lam = 0.0
    count = len(order)
    for pos, i in enumerate(order):
        sum_w += w[i] * x[i]
        sum_le += l[i] * x[i] / e[i]
        lam = sum_w / (budget + sum_le)
        if pos + 1 < len(order):
            j = order[pos + 1]
            if lam >= w[j] * e[j] / l[j]:
                count = pos + 1
                break
    p = [0.0] * len(x)
    active = []
    for i in order[:count]:
        headroom = w[i] / (lam * l[i]) - 1.0 / e[i]
        if headroom > 0.0:
            p[i] = x[i] * headroom
            active.append(i)
    active.sort()
    return p, lam, active


def power_step(x, links, budget):
    """Water-filling power update for fixed bandwidth fractions.

    Grows the transmitting set in decreasing order of ``w*e/l`` while the
    multiplier ``lambda1 = sum(w_i x_i) / (I + sum(l_i x_i / e_i))`` stays
    below the next user's threshold, then assigns
    ``p_i = x_i * [w_i/(lambda1 l_i) - 1/e_i]^+``, which spends the budget
    exactly.  Users with no bandwidth get no power.
    """
    I = budget_watts(budget)
    if len(x) != len(links):
        raise ValueError("x and links must have the same length")
    total = 0.0
    for v in x:
        if v < 0:
            raise ValueError("bandwidth fractions must be >= 0")
        total += v
    if total > 1.0 + 1e-9:
        raise ValueError("bandwidth fractions exceed the band")
    w, e, l = _extract(links)
    p, lam, active = _power_step(list(x), w, e, l, I)
    return PowerStepResult(p=p, lambda1=lam, active_set=active)


# ---------------------------------------------------------------------------
# bandwidth step


def _marginal_gap(a):
    # log(1+a) - a/(1+a): strictly increasing from 0; equals -lambda2/w at
    # the per-user bandwidth stationarity point with a = p*e/x.
    return math.log1p(a) - a / (1.0 + a)


_ALPHA_SATURATED = 700.0  # beyond this y the bandwidth share underflows to 0


def _alpha(y, warm):
    """Solve ``log(1+a) - a/(1+a) = y`` for the unique a > 0, given
    0 < y < _ALPHA_SATURATED.

    Newton safeguarded by the analytic bracket [expm1(y), exp(y+1)], which
    always contains the root; a warm start from a nearby multiplier trial
    typically converges in two or three steps.
    """
    lo = math.expm1(y)
    hi = math.exp(y + 1.0)
    a = warm if lo < warm < hi else math.sqrt(lo * hi)
    for _ in range(80):
        one_a = 1.0 + a
        g = math.log1p(a) - a / one_a - y
        if g >= 0.0:
            hi = a
        else:
            lo = a
        nxt = a - g * one_a * one_a / a
        if not lo < nxt < hi:
            nxt = math.sqrt(lo * hi)
        if abs(nxt - a) <= 1e-12 * nxt:
            return nxt
        a = nxt
    return a


def _lambda2_bounds(p, w, e):
    active = [i for i in range(len(p)) if p[i] * e[i] > 0.0]
    if not active:
        raise NoTransmitterError("no user with positive received power")
    m = float(len(active))
    lo = math.inf
    hi = -math.inf
    for i in active:
        pe = p[i] * e[i]
        mpe = m * pe
        lo = min(lo, w[i] * (mpe / (1.0 + mpe) - math.log1p(mpe)))
        hi = max(hi, w[i] * (pe / (1.0 + pe) - math.log1p(pe)))
    return lo, hi, active


def lambda2_bounds(p, links):
    """Analytic bracket for the bandwidth multiplier.

    Over users with positive received power (M of them), the multiplier
    solving ``sum x_i = 1`` lies between
    ``min_i w_i (M p e/(1+M p e) - log(1+M p e))`` and
    ``max_i w_i (p e/(1+p e) - log(1+p e))``; both are <= 0.
    """
    if len(p) != len(links):
        raise ValueError("p and links must have the same length")
    w, e, _ = _extract(links)
    lo, hi, _ = _lambda2_bounds(p, w, e)
    return lo, hi


def bandwidth_for_multiplier(p, links, lambda2):
    """Bandwidth shares x_i at a given multiplier, before the sum constraint.

    Each share with positive received power solves the stationarity
    equation ``w log(1+pe/x) - pe w/(x+pe) = -lambda2``; the share is
    nondecreasing in ``lambda2`` per coordinate.  Mostly useful for scans
    and diagnostics.
    """
    if lambda2 > 0:
        raise ValueError("lambda2 must be <= 0")
    if len(p) != len(links):
        raise ValueError("p and links must have the same length")
    w, e, _ = _extract(links)
    out = []
    for i in range(len(p)):
        pe = p[i] * e[i]
        if pe <= 0.0:
            out.append(0.0)
            continue
        y = -lambda2 / w[i]
        if y <= 0.0:
            out.append(math.inf)
        elif y >= _ALPHA_SATURATED:
            out.append(0.0)
        else:
            out.append(pe / _alpha(y, 0.0))
    return out


def _bandwidth_step(p, w, e, tol_bandwidth, lambda2_init=None, alpha_cache=None, max_search=200):
    lo, hi, active = _lambda2_bounds(p, w, e)
    n = len(p)
    x = [0.0] * n
    if len(active) == 1:
        i = active[0]
        pe = p[i] * e[i]
        x[i] = 1.0
        return x, w[i] * (pe / (1.0 + pe) - math.log1p(pe)), 0
    pes = [p[i] * e[i] for i in active]
    ws = [w[i] for i in active]
    shares = [0.0] * len(active)
    if alpha_cache is None:
        alpha_cache = {}
    if lambda2_init is not None and lo < lambda2_init < hi:
        lam = lambda2_init
    else:
        lam = 0.5 * (lo + hi)
    searches = 0
    gap = math.inf
    polish = 0
    while searches < max_search:
        searches += 1
        total = -1.0
        slope = 0.0
        for k in range(len(active)):
            wk = ws[k]
            y = -lam / wk
            if y >= _ALPHA_SATURATED:
                shares[k] = 0.0
                continue
            if y <= 0.0:
                shares[k] = math.inf
                total = math.inf
                continue
            user = active[k]
            a = _alpha(y, alpha_cache.get(user, 0.0))  # warm start kept across calls
            alpha_cache[user] = a
            sk = pes[k] / a
            shares[k] = sk
            one_a = 1.0 + a
            slope += pes[k] * one_a * one_a / (wk * a * a * a)
            total += sk
        gap = total
        if math.isfinite(gap) and abs(gap) <= tol_bandwidth:
            # within tolerance; a couple of extra Newton steps push the
            # sum residual to the float floor so the multiplier noise
            # cannot masquerade as objective changes downstream
            if abs(gap) <= 1e-14 or polish >= 3:
                break
            polish += 1
        if gap > 0.0:
            hi = lam
        else:
            lo = lam
        if math.isfinite(gap) and slope > 0.0:
            nxt = lam - gap / slope
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        if nxt == lam:
            break  # bracket exhausted at float resolution
        lam = nxt
    if not (math.isfinite(gap) and abs(gap) <= tol_bandwidth):
        raise RuntimeError(
            "bandwidth multiplier search failed to bracket the root: "
            f"lambda2={lam!r}, residual={gap!r} (internal bug)"
        )
    for k, i in enumerate(active):
        x[i] = shares[k]
    return x, lam, searches


def bandwidth_step(p, links, tol_bandwidth=1e-9, lambda2_init=None):
    """Bandwidth update for fixed powers.

    Searches the analytic bracket for the multiplier where the shares sum
    to one (the sum is monotone in the multiplier, so a bracketed
    Newton/bisection hybrid is safe), then returns the shares.  Users with
    no received power get exactly zero bandwidth.
    """
    if len(p) != len(links):
        raise ValueError("p and links must have the same length")
    for v in p:
        if v < 0:
            raise ValueError("powers must be >= 0")
    if not tol_bandwidth > 0:
        raise ValueError("tol_bandwidth must be > 0")
    w, e, _ = _extract(links)
    x, lam, searches = _bandwidth_step(list(p), w, e, tol_bandwidth, lambda2_init)
    return BandwidthStepResult(x=x, lambda2=lam, search_iterations=searches)


# ---------------------------------------------------------------------------
# objective, certification, full solve


def _objective(x, p, w, e):
    total = 0.0
    for i in range(len(x)):
        if x[i] > 0.0 and p[i] > 0.0:
            total += w[i] * x[i] * math.log1p(p[i] * e[i] / x[i])
    return total


def objective(x, p, links):
    """Weighted sum rate ``sum w_i x_i log(1 + p_i e_i / x_i)`` in nats.

    The bandwidth factor is omitted; terms with x_i == 0 contribute 0.
    """
    if not len(x) == len(p) == len(links):
        raise ValueError("x, p and links must have the same length")
    w, e, _ = _extract(links)
    return _objective(x, p, w, e)


def _kkt_residual(x, p, lam1, lam2, w, e, l, budget):
    res = abs(sum(x) - 1.0)
    spend = 0.0
    any_power = False
    for i in range(len(x)):
        spend += l[i] * p[i]
        if p[i] > 0.0:
            any_power = True
    if any_power:
        res = max(res, abs(spend - budget) / budget)
    for i in range(len(x)):
        li = lam1 * l[i]
        if p[i] > 0.0:
            grad = w[i] * x[i] * e[i] / (x[i] + p[i] * e[i])
            res = max(res, abs(grad - li) / li)
        elif x[i] > 0.0:
            # dual feasibility: a user holding bandwidth but no power must
            # not want power at the current water level
            res = max(res, max(0.0, w[i] * e[i] - li) / li)
        if x[i] > 0.0 and p[i] > 0.0:
            a = p[i] * e[i] / x[i]
            res = max(res, abs(w[i] * _marginal_gap(a) + lam2) / w[i])
    return res


def kkt_residual(alloc, links, budget):
    """Max-normed first-order optimality residual of a solver allocation.

    Covers the two resource constraints, power stationarity (and dual
    feasibility for silent users holding bandwidth), and bandwidth
    stationarity; each block is normalized to be dimensionless.
    """
    I = budget_watts(budget)
    if alloc.lambda1 is None or alloc.lambda2 is None:
        raise ValueError("allocation carries no dual variables to certify")
    if not alloc.lambda1 > 0:
        raise ValueError("lambda1 must be positive")
    if not len(alloc.x) == len(alloc.p) == len(links):
        raise ValueError("allocation and links must have the same length")
    w, e, l = _extract(links)
    return _kkt_residual(alloc.x, alloc.p, alloc.lambda1, alloc.lambda2, w, e, l, I)


def _refloor(x, w, e, l, lam1, lam2, eligible, floor):
    """Floor the shares of users that deserve to re-enter the band.

    A user below the floor is re-admitted only when its marginal value of
    bandwidth with power re-optimized at the current water level,
    ``w * gap(w*e/(lam1*l) - 1)``, beats the current bandwidth price
    ``-lam2``; that is exactly the condition for its share to grow in the
    following iterations.  Everyone else is excluded cleanly at zero (and
    re-tested next iteration), which keeps the fixed point free of dust
    allocations that would spoil certification.
    """
    out = list(x)
    for i in eligible:
        if out[i] < floor:
            ratio = w[i] * e[i] / (lam1 * l[i])
            if ratio > 1.0 and w[i] * _marginal_gap(ratio - 1.0) > -lam2:
                out[i] = floor
            else:
                out[i] = 0.0
    s = sum(out)
    return [v / s for v in out]


def _accelerate(x0, x1, x2, floor):
    """Geometric extrapolation of the dominant contraction mode, or None.

    Alternating optimization converges q-linearly; once two consecutive
    steps are nearly parallel with a stable ratio q, jumping ahead by
    q/(1-q) of the last step lands close to the fixed point.  Users the
    iteration has excluded stay excluded (shares below the floor are
    zeroed, not lifted; re-admission is the refloor's job).  Only a
    candidate is produced here; the caller verifies it did not overshoot
    before committing it.
    """
    d0 = [b - a for a, b in zip(x0, x1)]
    d1 = [b - a for a, b in zip(x1, x2)]
    num = sum(a * b for a, b in zip(d0, d1))
    den = sum(a * a for a in d0)
    n1 = sum(a * a for a in d1)
    if den <= 0.0 or n1 <= 0.0 or num <= 0.0:
        return None
    q = num / den
    if not 0.02 < q < 0.99995:
        return None
    gain = q / (1.0 - q)
    # the jump amplifies any off-mode component by ~gain, so the larger
    # the jump the more parallel the two steps must be
    align = 1.0 - min(0.02, 25.0 / (gain * gain))
    if num * num < align * den * n1:
        return None
    out = [max(0.0, c + gain * d) for c, d in zip(x2, d1)]
    out = [0.0 if v < floor else v for v in out]
    s = sum(out)
    if not s > 0.0:
        return None
    return [v / s for v in out]


def solve_joint(links, budget, config=None):
    """Run the alternating water-filling scheduler to a certified optimum.

    Starts from a uniform bandwidth split over eligible users (positive
    weight and SINR; others get nothing).  Between iterations the shares
    are floored at ``config.epsilon_floor`` and renormalized so a user
    zeroed by one power step is not locked out of the band forever; the
    floor never touches the returned allocation because the final
    bandwidth step's raw output is what gets returned.  Once the step
    history contracts geometrically, an extrapolated iterate is tried and
    kept only if the following iteration's objective did not drop, so the
    objective stays nondecreasing along the trace.  Iteration stops once
    the max-norm step change and the KKT residual are both within
    tolerance, or at ``max_iterations``; the result is ``certified`` iff
    the residual cleared ``config.tol_kkt``.
    """
    cfg = config if config is not None else SolverConfig()
    I = budget_watts(budget)
    n = len(links)
    if n == 0:
        raise ValueError("at least one user required")
    w, e, l = _extract(links)
    eligible = [i for i in range(n) if w[i] > 0.0 and e[i] > 0.0]
    if not eligible:
        raise NoTransmitterError("no user with positive weight and SINR")
    share = 1.0 / len(eligible)
    in_play = set(eligible)
    x = [share if i in in_play else 0.0 for i in range(n)]

    trace = []
    lam2 = None
    prev_x = prev_p = None
    xs = x
    p = [0.0] * n
    lam1 = 0.0
    obj = 0.0
    res = math.inf
    it = 0
    converged = False
    history = []
    alphas = {}
    fallback_x = None  # plain continuation point while an accelerated step is on trial
    cooldown = 0
    for it in range(1, cfg.max_iterations + 1):
        p, lam1, _ = _power_step(x, w, e, l, I)
        xs, lam2, _ = _bandwidth_step(p, w, e, cfg.tol_bandwidth, lam2, alphas)
        obj = _objective(xs, p, w, e)
        if fallback_x is not None:
            last_obj = trace[-1].objective
            if obj < last_obj - 1e-12 * max(1.0, abs(last_obj)):
                # the extrapolation overshot: redo this iteration plainly
                p, lam1, _ = _power_step(fallback_x, w, e, l, I)
                xs, lam2, _ = _bandwidth_step(p, w, e, cfg.tol_bandwidth, lam2, alphas)
                obj = _objective(xs, p, w, e)
            fallback_x = None
        res = _kkt_residual(xs, p, lam1, lam2, w, e, l, I)
        if prev_x is None:
            dx = dp = math.inf
        else:
            dx = max(abs(a - b) for a, b in zip(xs, prev_x))
            dp = max(abs(a - b) for a, b in zip(p, prev_p))
        trace.append(IterationRecord(it, obj, lam1, lam2, dx, dp, res))
        prev_x, prev_p = xs, p
        if dx <= cfg.tol_convergence and dp <= cfg.tol_convergence and res <= cfg.tol_kkt:
            converged = True
            break
        history.append(xs)
        if len(history) > 3:
            history.pop(0)
        x = _refloor(xs, w, e, l, lam1, lam2, eligible, cfg.epsilon_floor)
        if cooldown > 0:
            cooldown -= 1
        elif len(history) == 3:
            candidate = _accelerate(*history, cfg.epsilon_floor)
            if candidate is not None:
                fallback_x = x
                x = candidate
                history.clear()
                cooldown = 1
    return Allocation(
        x=list(xs),
        p=list(p),
        lambda1=lam1,
        lambda2=lam2,
        objective=obj,
        iterations=it,
        converged=converged,
        certified=res <= cfg.tol_kkt,
        kkt_residual=res,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# exact dual solve

_TIE = 1e-13  # band values closer than this, relative to the dual, are tied
_FLAT = 1e-12  # spends closer than this, relative to w/lam, are equal
_MAX_PROBES = 200  # each probe shrinks the bracket; a few suffice in practice


def _band_value(w, ratio, lam):
    """Per-unit-band value ``w (ln r - 1 + 1/r)`` of a user at ``lam``, with
    ``r = ratio/lam``; 0 once the user no longer wants power (r <= 1)."""
    a = (ratio - lam) / lam  # r - 1, free of cancellation near r = 1
    return w * _marginal_gap(a) if a > 0.0 else 0.0


def _envelope(lam, users, w, ratio, beta, budget):
    """Top of the dual envelope at ``lam``: its value, and the tied users
    mapped to their egress spend per unit band, ``c = w/lam - beta``.

    Ties are judged against the dual value ``lam*I + top``, the scale of
    the rounding in each band value; against ``top`` alone, users one ulp
    apart would count as distinct wherever ``top`` is small.
    """
    values = [(_band_value(w[i], ratio[i], lam), i) for i in users]
    top = max(v for v, _ in values)
    floor = top - _TIE * (lam * budget + top)
    return top, {i: w[i] / lam - beta[i] for v, i in values if v >= floor}


def _kink(a, b, lo, hi, w, ratio, beta):
    """Where the band values of users a and b cross inside (lo, hi).

    ``v_a - v_b`` is >= 0 at ``lo`` and <= 0 at ``hi`` and its slope is
    ``c_b - c_a``; Newton steps that leave the bracket fall back to a
    geometric bisection, and the search stops once the two values agree
    to rounding.
    """
    lam = math.sqrt(lo * hi)
    for _ in range(200):
        va = _band_value(w[a], ratio[a], lam)
        vb = _band_value(w[b], ratio[b], lam)
        d = va - vb
        # equal to rounding: where the pieces are nearly tangent, one more
        # Newton step would divide noise by a tiny slope
        if abs(d) <= 1e-15 * max(va, vb):
            break
        if d > 0.0:
            lo = lam
        else:
            hi = lam
        slope = beta[a] - beta[b] + (w[b] - w[a]) / lam
        nxt = lam - d / slope if slope != 0.0 else lo
        if not lo < nxt < hi:
            nxt = math.sqrt(lo * hi)
        if abs(nxt - lam) <= 4e-16 * lam:
            break
        lam = nxt
    return lam


def dual_optimum(w, e, l, I):
    """The walk of :func:`solve_dual` on per-user lists ``w, e, l``.

    Returns ``(x, p, lambda1, lambda2, probes, converged, kkt_residual)``.
    """
    n = len(w)
    users = [i for i in range(n) if w[i] > 0.0 and e[i] > 0.0]
    if not users:
        raise NoTransmitterError("no user with positive weight and SINR")
    ratio = [0.0] * n
    beta = [0.0] * n
    single = [0.0] * n
    for i in users:
        ratio[i] = w[i] * e[i] / l[i]
        beta[i] = l[i] / e[i]
        single[i] = w[i] / (I + beta[i])

    # bracket ends: (lam, top user there, users tied there); the dual
    # slope is < 0 at the left end and > 0 at the right one
    left = right = None
    lam = min(single[i] for i in users)
    converged = False
    for steps in range(1, _MAX_PROBES + 1):
        top, spend = _envelope(lam, users, w, ratio, beta, I)
        c_hi = max(spend.values())
        c_lo = min(spend.values())
        # spends this close are equal up to rounding, so the lowest index
        # among them stands for all, whatever the rounding (of rescaled
        # data, say) makes of their order
        slack = _FLAT * max(w[i] for i in spend) / lam
        hi_user = min(i for i, c in spend.items() if c >= c_hi - slack)
        lo_user = min(i for i, c in spend.items() if c <= c_lo + slack)
        if c_lo - I > slack:
            left = (lam, lo_user, spend)
        elif I - c_hi > slack:
            right = (lam, hi_user, spend)
        else:
            converged = True
            break
        if left is None or right is None:  # only the first probe lands here
            lam = max(single[i] for i in users)
            continue
        (lo, a, tied_lo), (hi, b, tied_hi) = left, right
        if a == b or a in tied_hi or b in tied_lo:
            # one piece, or two that are equal to rounding at an end, where
            # their crossing is noise: probe the left piece's minimiser
            lam = single[a]
        else:
            lam = _kink(a, b, lo, hi, w, ratio, beta)
        if not lo < lam < hi:
            lam = math.sqrt(lo * hi)

    x = [0.0] * n
    p = [0.0] * n
    alone = [i for i, c in spend.items() if abs(c - I) <= slack]
    if alone or hi_user == lo_user:
        # a tied user spending the budget at its own minimiser takes the band
        k = min(alone, default=hi_user)
        lam = single[k]
        x[k] = 1.0
        p[k] = I / l[k]
        top = max(_band_value(w[i], ratio[i], lam) for i in users)
    else:
        c_hi, c_lo = spend[hi_user], spend[lo_user]
        share = (I - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 1.0
        share = min(1.0, max(0.0, share))
        x[hi_user], x[lo_user] = share, 1.0 - share
        p[hi_user] = share * c_hi / l[hi_user]
        p[lo_user] = (1.0 - share) * c_lo / l[lo_user]
    lam2 = -top
    return x, p, lam, lam2, steps, converged, _kkt_residual(x, p, lam, lam2, w, e, l, I)


def solve_dual(links, budget, config=None):
    """Exact joint optimum through the one-dimensional dual of the budget.

    For a budget price ``lam`` (lambda1), each user's best power per unit
    band gives it a band value ``v_i = w_i (ln r_i - 1 + 1/r_i)`` with
    ``r_i = w_i e_i / (lam l_i)``, spending ``c_i = w_i/lam - l_i/e_i`` of
    egress per unit band, so the dual ``g(lam) = lam I + max_i v_i`` is
    convex in one scalar.  Its minimiser lies between the users'
    single-user minimisers ``w_i / (I + l_i/e_i)``.  The walk keeps that
    bracket and probes the upper envelope of the ``v_i``: at the
    minimiser of the piece that tops both ends, or at the kink where the
    two end pieces cross (located by safeguarded Newton); the envelope's
    slope at the probe, ``I - c`` of the top user, tells which end moves.

    At the minimiser either one user takes the whole band at ``p = I/l``,
    or two tied users share it so that their spends average to ``I``.
    Tie rule, for any number of users tied on the envelope: if some spend
    ``I`` (to rounding), the lowest index of them takes the whole band;
    otherwise the highest and the lowest spender share it, each the
    lowest index among spends equal to rounding.  So identical users
    leave the band to the lowest index.
    ``lambda2 = -max_i v_i``.  The result is certified by the same KKT
    residual as :func:`solve_joint`; only ``config.tol_kkt`` is used.
    ``iterations`` counts envelope probes, ``converged`` says the walk
    reached a stationary point, and there is no trace.
    """
    cfg = config if config is not None else SolverConfig()
    I = budget_watts(budget)
    if not links:
        raise ValueError("at least one user required")
    w, e, l = _extract(links)
    x, p, lam, lam2, steps, converged, res = dual_optimum(w, e, l, I)
    return Allocation(
        x=x,
        p=p,
        lambda1=lam,
        lambda2=lam2,
        objective=_objective(x, p, w, e),
        iterations=steps,
        converged=converged,
        certified=res <= cfg.tol_kkt,
        kkt_residual=res,
        trace=None,
    )
