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
schedules every cell of a frame with the same code
(:func:`solve_dual_frame`).  Both results are certified through
first-order (KKT) residuals rather than trusted blindly.

Exported are the two solvers, :func:`one_cell` for the per-cell
schedulers, their errors and trace records, and the bandwidth
multiplier's bracket and share map.  The steps :func:`solve_joint`
alternates, its objective and its KKT residual are private and take
unvalidated per-user lists ``w, e, l``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import Allocation, Cells, FrameAllocation, SolverConfig, budget_watts, link_arrays

__all__ = [
    "NoTransmitterError",
    "IterationRecord",
    "lambda2_bounds",
    "bandwidth_for_multiplier",
    "solve_joint",
    "solve_dual",
    "one_cell",
]


class NoTransmitterError(ValueError):
    """No user can carry positive rate (all excluded or zero bandwidth)."""


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


# ---------------------------------------------------------------------------
# power step


def _power_step(x, w, e, l, budget):
    """Water-filling powers for fixed shares ``x`` that spend ``budget``
    exactly, and the budget price ``lambda1``."""
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
    for i in order[:count]:
        headroom = w[i] / (lam * l[i]) - 1.0 / e[i]
        if headroom > 0.0:
            p[i] = x[i] * headroom
    return p, lam


# ---------------------------------------------------------------------------
# bandwidth step


def _marginal_gap(a):
    # log(1+a) - a/(1+a): strictly increasing from 0; equals -lambda2/w at
    # the per-user bandwidth stationarity point with a = p*e/x.
    return math.log1p(a) - a / (1.0 + a)


_ALPHA_SATURATED = 700.0  # beyond this y the bandwidth share underflows to 0
_MAX_SEARCH = 200  # multiplier trials per bandwidth step; a handful suffice in practice


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
    w, e = (a.tolist() for a in link_arrays(links)[:2])
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
    w, e = (a.tolist() for a in link_arrays(links)[:2])
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


def _bandwidth_step(p, w, e, tol_bandwidth, lambda2_init=None, alpha_cache=None):
    """Shares summing to one for fixed powers ``p``, and the band price
    ``lambda2``; users with no received power get none."""
    lo, hi, active = _lambda2_bounds(p, w, e)
    n = len(p)
    x = [0.0] * n
    if len(active) == 1:
        i = active[0]
        pe = p[i] * e[i]
        x[i] = 1.0
        return x, w[i] * (pe / (1.0 + pe) - math.log1p(pe))
    pes = [p[i] * e[i] for i in active]
    ws = [w[i] for i in active]
    shares = [0.0] * len(active)
    if alpha_cache is None:
        alpha_cache = {}
    if lambda2_init is not None and lo < lambda2_init < hi:
        lam = lambda2_init
    else:
        lam = 0.5 * (lo + hi)
    gap = math.inf
    polish = 0
    for _ in range(_MAX_SEARCH):
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
    return x, lam


# ---------------------------------------------------------------------------
# objective, certification, full solve


def _objective(x, p, w, e):
    total = 0.0
    for i in range(len(x)):
        if x[i] > 0.0 and p[i] > 0.0:
            total += w[i] * x[i] * math.log1p(p[i] * e[i] / x[i])
    return total


def one_cell(links, frame) -> Allocation:
    """Schedule one cell's ``UserLink`` list with a frame function
    ``frame(cells, w, e, l, cap)`` and return its shares, powers and
    weighted sum rate, plus the cell's prices, probes (as ``iterations``),
    convergence and KKT residual when the frame carries them; the
    per-cell library functions are this call.  A power over a link's
    ``max_power`` raises :class:`ValueError` ("max power violated")."""
    if not links:
        raise ValueError("at least one user required")
    w, e, l, cap = link_arrays(links)
    alloc = frame(Cells.single(len(links)), w, e, l, cap)
    over = np.flatnonzero(alloc.p > cap).tolist()
    if over:
        raise ValueError(f"max power violated by users {over}")
    x, p = alloc.x.tolist(), alloc.p.tolist()
    solved = {}
    if alloc.probes is not None:
        solved = dict(lambda1=float(alloc.lambda1[0]), lambda2=float(alloc.lambda2[0]),
                      iterations=int(alloc.probes[0]), converged=bool(alloc.converged[0]),
                      kkt_residual=float(alloc.kkt_residual[0]))
    return Allocation(x=x, p=p, objective=_objective(x, p, w.tolist(), e.tolist()), **solved)


def _kkt_residual(x, p, lam1, lam2, w, e, l, budget):
    """Max-normed, dimensionless first-order residual of one cell's allocation."""
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

    The iteration does not honour ``max_power``.  When no link's cap
    binds, the uncapped optimum is also the capped one and is returned;
    otherwise :class:`ValueError` ("max power violated") is raised.
    """
    cfg = config if config is not None else SolverConfig()
    I = budget_watts(budget)
    n = len(links)
    if n == 0:
        raise ValueError("at least one user required")
    w, e, l, cap = (a.tolist() for a in link_arrays(links))
    eligible = [i for i in range(n) if w[i] > 0.0 and e[i] > 0.0]
    if not eligible:
        raise NoTransmitterError("no user with positive weight and SINR")
    share = 1.0 / len(eligible)
    in_play = set(eligible)
    x = [share if i in in_play else 0.0 for i in range(n)]

    trace = []
    lam2 = None
    prev_x = prev_p = None
    converged = False
    history = []
    alphas = {}
    fallback_x = None  # plain continuation point while an accelerated step is on trial
    cooldown = 0
    for it in range(1, cfg.max_iterations + 1):
        p, lam1 = _power_step(x, w, e, l, I)
        xs, lam2 = _bandwidth_step(p, w, e, cfg.tol_bandwidth, lam2, alphas)
        obj = _objective(xs, p, w, e)
        if fallback_x is not None:
            last_obj = trace[-1].objective
            if obj < last_obj - 1e-12 * max(1.0, abs(last_obj)):
                # the extrapolation overshot: redo this iteration plainly
                p, lam1 = _power_step(fallback_x, w, e, l, I)
                xs, lam2 = _bandwidth_step(p, w, e, cfg.tol_bandwidth, lam2, alphas)
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
    over = [i for i, (pi, ci) in enumerate(zip(p, cap)) if pi > ci]
    if over:
        raise ValueError(f"max power violated by users {over}")
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
# numpy's log1p may differ from math.log1p in the last bits, so the array
# pass judges a candidate only where no other band value comes this close
# to the top, relative to the dual: a hundred tie windows
_GUARD = 100.0 * _TIE


def _seed_brackets(W, ratio, beta, S, use, I):
    """Classify every user's single-user minimiser as a probe of the dual.

    ``W, ratio, beta, S`` are (cells, width) matrices of ``w``, ``w e/l``,
    ``l/e`` and the minimisers ``w/(I + l/e)``, with ``W = 0`` where
    ``use`` marks no user, and ``I`` is a column of the cells' budgets.
    One (cells, width, width) pass evaluates the envelope of the band
    values at every candidate.  Where one user tops
    it alone, the walk's spend/slack rule says whether the candidate lies
    left of the optimum, right of it, or on it; a candidate where another
    band value comes within ``_GUARD`` of the top is left to a probe, so
    every left or right verdict is the walk's own.  Returns per cell the
    largest left candidate and its top user, the smallest right one and
    its top user (``-inf``/``inf`` if none), and the smallest other
    candidate between them (``inf`` if none).
    """
    lam = S[:, :, None]
    a = (ratio[:, None, :] - lam) / lam  # r - 1, free of cancellation near r = 1
    np.maximum(a, 0.0, out=a)
    values = np.log1p(a)
    values -= a / (1.0 + a)
    values *= W[:, None, :]  # padding is 0: never the top, at most a false tie
    top = values.max(axis=2)
    near = top - _GUARD * (S * I + top)
    alone = use & (np.count_nonzero(values >= near[:, :, None], axis=2) == 1)
    rows = np.arange(len(S))
    best = values.argmax(axis=2)
    w_top = W[rows[:, None], best]
    spend = w_top / S - beta[rows[:, None], best]
    slack = _FLAT * w_top / S
    left = alone & (spend - I > slack)
    right = alone & (I - spend > slack)

    at_left = np.where(left, S, -np.inf)
    at_right = np.where(right, S, np.inf)
    kl = at_left.argmax(axis=1)
    kr = at_right.argmin(axis=1)
    lo = at_left[rows, kl]
    hi = at_right[rows, kr]
    between = use & ~left & ~right & (S > lo[:, None]) & (S < hi[:, None])
    start = np.where(between, S, np.inf).min(axis=1)
    return lo, best[rows, kl], hi, best[rows, kr], start


def _kink(wa, ra, ba, wb, rb, bb, lo, hi):
    """Where the band values of users a and b cross inside (lo, hi).

    Each user is given by ``w``, ``ratio = w e/l`` and ``beta = l/e``.
    ``v_a - v_b`` is >= 0 at ``lo`` and <= 0 at ``hi`` and its slope is
    ``c_b - c_a``; Newton steps that leave the bracket fall back to a
    geometric bisection, and the search stops once the two values agree
    to rounding.
    """
    lam = math.sqrt(lo * hi)
    for _ in range(200):
        t = (ra - lam) / lam
        va = wa * (math.log1p(t) - t / (1.0 + t)) if t > 0.0 else 0.0
        t = (rb - lam) / lam
        vb = wb * (math.log1p(t) - t / (1.0 + t)) if t > 0.0 else 0.0
        d = va - vb
        # equal to rounding: where the pieces are nearly tangent, one more
        # Newton step would divide noise by a tiny slope
        if abs(d) <= 1e-15 * max(va, vb):
            break
        if d > 0.0:
            lo = lam
        else:
            hi = lam
        slope = ba - bb + (wb - wa) / lam
        nxt = lam - d / slope if slope != 0.0 else lo
        if not lo < nxt < hi:
            nxt = math.sqrt(lo * hi)
        if abs(nxt - lam) <= 4e-16 * lam:
            break
        lam = nxt
    return lam


def _walk(ws, rs, bs, ss, ls, I, left, right, lam):
    """Finish one cell's dual walk from a bracket.

    ``ws, rs, bs, ss, ls`` list the cell's users' ``w``, ``w e/l``,
    ``l/e``, single-user minimisers and ``l``.  ``left`` and ``right`` are
    bracket ends ``(lam, top user, tied users)``, where the dual's slope
    is < 0 and > 0, or None; ``lam`` is the first probe, or None to take
    it from the bracket.  Each probe
    evaluates the envelope at ``lam`` and moves the end that the slope
    ``I - c`` of its top users points away from, until the slope's range
    holds 0.  Returns ``(lambda1, lambda2, probes, kinks, converged,
    allocation)``, the allocation as ``(user, x, p)`` triples.
    """
    log1p = math.log1p

    def band_values(lam):
        # w (ln r - 1 + 1/r) with a = r - 1, free of cancellation near r = 1;
        # 0 once r <= 1
        return [wi * (log1p(a) - a / (1.0 + a)) if (a := (ri - lam) / lam) > 0.0 else 0.0
                for wi, ri in zip(ws, rs)]

    kinks = 0
    converged = False
    for probes in range(1, _MAX_PROBES + 1):
        if lam is None:
            if left is None:
                lam = min(ss)
            elif right is None:
                lam = max(ss)
            else:
                (lo, a, tied_lo), (hi, b, tied_hi) = left, right
                if a == b or a in tied_hi or b in tied_lo:
                    # one piece, or two that are equal to rounding at an end,
                    # where their crossing is noise: probe the left piece's
                    # minimiser
                    lam = ss[a]
                else:
                    lam = _kink(ws[a], rs[a], bs[a], ws[b], rs[b], bs[b], lo, hi)
                    kinks += 1
                if not lo < lam < hi:
                    lam = math.sqrt(lo * hi)
        values = band_values(lam)
        top = max(values)
        floor = top - _TIE * (lam * I + top)
        tied = [i for i, v in enumerate(values) if v >= floor]
        spend = [ws[i] / lam - bs[i] for i in tied]
        if len(tied) == 1:
            j_hi = j_lo = 0
            c_hi = c_lo = spend[0]
            slack = _FLAT * ws[tied[0]] / lam
        else:
            c_hi = max(spend)
            c_lo = min(spend)
            # spends this close are equal up to rounding, so the lowest
            # index among them stands for all
            slack = _FLAT * max(ws[i] for i in tied) / lam
            j_hi = next(j for j, c in enumerate(spend) if c >= c_hi - slack)
            j_lo = next(j for j, c in enumerate(spend) if c <= c_lo + slack)
        if c_lo - I > slack:
            left = (lam, tied[j_lo], tied)
        elif I - c_hi > slack:
            right = (lam, tied[j_hi], tied)
        else:
            converged = True
            break
        lam = None

    alone = [i for i, c in zip(tied, spend) if abs(c - I) <= slack]
    if alone or j_hi == j_lo:
        # a tied user spending the budget at its own minimiser takes the band
        k = alone[0] if alone else tied[j_hi]
        if ss[k] != lam:
            lam = ss[k]
            top = max(band_values(lam))
        return lam, -top, probes, kinks, converged, ((k, 1.0, I / ls[k]),)
    c_hi, c_lo = spend[j_hi], spend[j_lo]
    share = (I - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 1.0
    share = min(1.0, max(0.0, share))
    hi_user, lo_user = tied[j_hi], tied[j_lo]
    return lam, -top, probes, kinks, converged, (
        (hi_user, share, share * c_hi / ls[hi_user]),
        (lo_user, 1.0 - share, (1.0 - share) * c_lo / ls[lo_user]),
    )


def _kkt_residuals(cells, x, p, lam1, lam2, w, e, l, I):
    """:func:`_kkt_residual` of every cell at once against its budget in
    ``I`` (NaN for a cell with no users), for per-user ``x, p`` in which
    every user holding band has a positive weight and SINR."""
    res = np.abs(cells.sums(x) - 1.0)
    res = np.where(cells.sums(p) > 0.0, np.maximum(res, np.abs(cells.sums(l * p) - I) / I), res)
    on = np.flatnonzero((x > 0.0) | (p > 0.0))
    k = cells.cell_of[on]
    xo, po, wo, eo = x[on], p[on], w[on], e[on]
    li = lam1[k] * l[on]
    powered = po > 0.0
    # power stationarity, or dual feasibility of a user holding band but no
    # power, then bandwidth stationarity
    grad = wo * xo * eo / (xo + po * eo)
    term = np.where(powered, np.abs(grad - li) / li, np.maximum(0.0, wo * eo - li) / li)
    both = powered & (xo > 0.0)
    a = po * eo / np.where(both, xo, 1.0)
    gap = np.abs(wo * (np.log1p(a) - a / (1.0 + a)) + lam2[k]) / wo
    np.maximum.at(res, k, np.where(both, np.maximum(term, gap), term))
    res[~cells.valid.any(axis=1)] = np.nan
    return res


def _user_rows(cells: Cells, w, e, l, I):
    """Each cell's users with positive weight and SINR, as (cells, width)
    matrices: mobile ``index``, ``use`` mask, ``W`` (0 in padding), ``L``,
    ``ratio = w e/l``, ``beta = l/e`` and the single-user minimisers ``S``
    for the column ``I`` of the cells' budgets.
    Raises :class:`NoTransmitterError` if a cell has users but none of
    them eligible."""
    ok = (w > 0.0) & (e > 0.0)
    if ok.all():
        index, use = cells.index, cells.valid
    else:
        ids = np.flatnonzero(ok)
        eligible = Cells.from_cell_of(cells.cell_of[ids], cells.n_cells)
        if (cells.valid.any(axis=1) & ~eligible.valid.any(axis=1)).any():
            raise NoTransmitterError("no user with positive weight and SINR")
        index, use = ids[eligible.index], eligible.valid
    W = np.where(use, w[index], 0.0)
    E = np.where(use, e[index], 1.0)
    L = np.where(use, l[index], 1.0)
    beta = L / E
    return index, use, W, L, W * E / L, beta, np.where(use, W / (I + beta), 1.0)


def solve_dual_frame(cells: Cells, w, e, l, cap, budget) -> FrameAllocation:
    """:func:`solve_dual` for every cell of the ``cells`` layout at once,
    on per-user arrays ``w, e, l`` and a budget in Watts, one for all
    cells or one per cell; ``cap`` is not used.

    One array pass over all cells seeds each cell's walk with the tightest
    bracket among its users' single-user minimisers (see
    :func:`_seed_brackets`); a scalar walk per cell finishes from there,
    and every decision that fixes an allocation is taken by its probes.
    A second array pass certifies every cell.  Raises
    :class:`NoTransmitterError` if a cell has users but none with positive
    weight and SINR.
    """
    n_cells = cells.n_cells
    budget = np.broadcast_to(np.asarray(budget, dtype=float), (n_cells,))
    index, use, W, L, ratio, beta, S = _user_rows(cells, w, e, l, budget[:, None])
    lo, a_lo, hi, b_hi, start = _seed_brackets(W, ratio, beta, S, use, budget[:, None])

    x = np.zeros(len(w))
    p = np.zeros(len(w))
    lam1 = np.full(n_cells, np.nan)
    lam2 = np.full(n_cells, np.nan)
    probes = np.zeros(n_cells, dtype=int)
    kinks = np.zeros(n_cells, dtype=int)
    converged = np.zeros(n_cells, dtype=bool)
    users, xs, ps = [], [], []
    rows = zip(use.sum(axis=1).tolist(), index.tolist(), W.tolist(), ratio.tolist(), beta.tolist(),
               S.tolist(), L.tolist(), lo.tolist(), a_lo.tolist(), hi.tolist(), b_hi.tolist(),
               start.tolist(), budget.tolist())
    for k, (n, ids, ws, rs, bs, ss, ls, lo_k, a, hi_k, b, start_k, I) in enumerate(rows):
        if not n:
            continue
        left = (lo_k, a, [a]) if lo_k > -math.inf else None
        right = (hi_k, b, [b]) if hi_k < math.inf else None
        first = start_k if start_k < math.inf else None
        lam1[k], lam2[k], probes[k], kinks[k], converged[k], alloc = _walk(
            ws[:n], rs[:n], bs[:n], ss[:n], ls[:n], I, left, right, first)
        for i, xi, pi in alloc:
            users.append(ids[i])
            xs.append(xi)
            ps.append(pi)
    x[users] = xs
    p[users] = ps
    res = _kkt_residuals(cells, x, p, lam1, lam2, w, e, l, budget)
    return FrameAllocation(x, p, lam1, lam2, probes, kinks, converged, res)


def solve_dual(links, budget, config=None):
    """Exact joint optimum through the one-dimensional dual of the budget.

    For a budget price ``lam`` (lambda1), each user's best power per unit
    band gives it a band value ``v_i = w_i (ln r_i - 1 + 1/r_i)`` with
    ``r_i = w_i e_i / (lam l_i)``, spending ``c_i = w_i/lam - l_i/e_i`` of
    egress per unit band, so the dual ``g(lam) = lam I + max_i v_i`` is
    convex in one scalar.  Its minimiser lies between the users'
    single-user minimisers ``w_i / (I + l_i/e_i)``.  One array pass
    evaluates the envelope of the ``v_i`` at every one of them and keeps
    the tightest bracket, plus a candidate that may be the minimiser; the
    walk then probes the envelope: at that candidate, at the minimiser of
    the piece that tops both ends, or at the kink where the two end pieces
    cross (located by safeguarded Newton); the envelope's slope at the
    probe, ``I - c`` of the top user, tells which end moves.  This is
    :func:`one_cell` on :func:`solve_dual_frame`, the frame function that
    schedules every cell of a simulated frame under ``nr``.

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

    The walk does not honour ``max_power``, as the simulator's ``nr``
    frames do not: when the uncapped optimum breaks a link's cap,
    :class:`ValueError` ("max power violated") is raised.
    """
    cfg = config if config is not None else SolverConfig()
    alloc = one_cell(links, partial(solve_dual_frame, budget=budget_watts(budget)))
    alloc.certified = alloc.kkt_residual <= cfg.tol_kkt
    return alloc
