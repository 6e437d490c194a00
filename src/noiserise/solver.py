"""Optimal joint bandwidth/power scheduling.

:func:`solve_joint` is the iterative water-filling algorithm.  It
alternates two updates on the concave weighted-sum-rate objective: a
water-filling power step that spends the egress budget exactly for fixed
bandwidth fractions, and a bandwidth step that, for fixed powers,
equalizes the marginal value of bandwidth by locating the bandwidth
multiplier inside analytic bounds.  The alternation converges to the
joint optimum, slowly near ties between users.

:class:`DualRun` finds the same optimum exactly, for every cell of a
frame at once, by minimizing each cell's convex dual over its budget
multiplier; the ``nr`` scheme binds it once per run, and
``simnet.solve_dual`` is that scheme on one cell.  Both results are
certified through the one first-order (KKT) residual,
:func:`_kkt_residuals`, rather than trusted blindly.

Exported are :func:`solve_joint`, its error and its trace records; its
steps and objective are private and take unvalidated per-user lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import (
    Allocation,
    Cells,
    FrameAllocation,
    SolverConfig,
    _cap_bound,
    _refuse_over_cap,
    budget_watts,
    link_arrays,
)

__all__ = [
    "NoTransmitterError",
    "IterationRecord",
    "solve_joint",
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
    if count == 1:
        # a lone transmitter spends the whole budget, p = I/l; the general
        # form below cancels when I e/l is small
        p[order[0]] = budget / l[order[0]]
        return p, lam
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


def _alpha(y):
    """Solve ``log(1+a) - a/(1+a) = y`` for the unique a > 0, given
    0 < y < _ALPHA_SATURATED.

    Newton from a closed form: in ``s = log(1+a)`` the equation reads
    ``s - 1 + exp(-s) = y``, whose root is ``sqrt(2y) + y/3`` to leading
    orders for small y and ``y + 1 - exp(-1-y)`` for large y; from there
    two or three steps reach the float floor.  A step that leaves the
    bracket the signs have shown falls back to a geometric bisection of
    it, narrowed by the analytic bracket [expm1(y), exp(y+1)], which
    always holds the root.
    """
    a = math.expm1(math.sqrt(2.0 * y) + y / 3.0 if y < 0.75 else y + 1.0 - math.exp(-1.0 - y))
    log1p = math.log1p
    lo = 0.0
    hi = math.inf
    for _ in range(80):
        one_a = 1.0 + a
        g = log1p(a) - a / one_a - y
        if g >= 0.0:
            hi = a
        else:
            lo = a
        nxt = a - g * one_a * one_a / a
        # the relative error squares (times at most 1/2) with each step, so
        # after a step below 1e-8 it is at the float floor; tested before
        # the bracket, as a step that lands on the root sits on a bracket
        # end, from where bisecting would crawl
        if abs(nxt - a) <= 1e-8 * nxt:
            return nxt
        if not lo < nxt < hi:
            lo = max(lo, math.expm1(y))
            hi = min(hi, math.exp(y + 1.0))
            nxt = math.sqrt(lo * hi)
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


def _bandwidth_step(p, w, e, tol_bandwidth, lambda2_init=None):
    """Shares summing to one for fixed powers ``p``, and the band price
    ``lambda2``; users with no received power get none."""
    lo, hi, active = _lambda2_bounds(p, w, e)
    n = len(p)
    x = [0.0] * n
    if len(active) == 1:
        # the lone user's band price is the bracket's upper end
        x[active[0]] = 1.0
        return x, hi
    pes = [p[i] * e[i] for i in active]
    ws = [w[i] for i in active]
    shares = [0.0] * len(active)
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
            a = _alpha(y)
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
            # Newton on the log of the band sum: a share falls off about
            # exponentially in -lambda2, so the log is nearly linear
            nxt = lam - math.log1p(gap) * (1.0 + gap) / slope
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
    tolerance, or at ``max_iterations``; the residual is computed in the
    loop only once the step change is within tolerance, and for the whole
    trace in one call after it, each iterate a cell of its own.  The
    result is ``certified`` iff the last residual cleared
    ``config.tol_kkt``.

    The iteration does not honour ``max_power``.  When no link's cap
    binds, the uncapped optimum is also the capped one and is returned;
    otherwise :class:`ValueError` ("max power violated") is raised, by the
    frame check's cap rule, which forgives rounding of 1e-9 relative.
    """
    cfg = config if config is not None else SolverConfig()
    I = budget_watts(budget)
    n = len(links)
    if n == 0:
        raise ValueError("at least one user required")
    arrays = link_arrays(links)
    w, e, l = (a.tolist() for a in arrays[:3])
    eligible = [i for i in range(n) if w[i] > 0.0 and e[i] > 0.0]
    if not eligible:
        raise NoTransmitterError("no user with positive weight and SINR")
    share = 1.0 / len(eligible)
    in_play = set(eligible)
    x = [share if i in in_play else 0.0 for i in range(n)]

    steps = []  # per iteration: objective, prices, step changes, shares and powers
    lam2 = None
    converged = False
    history = []
    fallback_x = None  # plain continuation point while an accelerated step is on trial
    cooldown = 0
    for it in range(1, cfg.max_iterations + 1):
        p, lam1 = _power_step(x, w, e, l, I)
        xs, lam2 = _bandwidth_step(p, w, e, cfg.tol_bandwidth, lam2)
        obj = _objective(xs, p, w, e)
        if fallback_x is not None:
            last_obj = steps[-1][0]
            if obj < last_obj - 1e-12 * max(1.0, abs(last_obj)):
                # the extrapolation overshot: redo this iteration plainly
                p, lam1 = _power_step(fallback_x, w, e, l, I)
                xs, lam2 = _bandwidth_step(p, w, e, cfg.tol_bandwidth, lam2)
                obj = _objective(xs, p, w, e)
            fallback_x = None
        if steps:
            dx = max(abs(a - b) for a, b in zip(xs, steps[-1][5]))
            dp = max(abs(a - b) for a, b in zip(p, steps[-1][6]))
        else:
            dx = dp = math.inf
        steps.append((obj, lam1, lam2, dx, dp, xs, p))
        if (dx <= cfg.tol_convergence and dp <= cfg.tol_convergence
                and _trace_residuals(steps[-1:], arrays, I)[0] <= cfg.tol_kkt):
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
    _refuse_over_cap(np.array(p), _cap_bound(arrays[3]))
    residuals = _trace_residuals(steps, arrays, I)
    trace = [IterationRecord(i, *step[:5], r) for i, (step, r) in enumerate(zip(steps, residuals), 1)]
    res = trace[-1].kkt_residual
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


def _trace_residuals(steps, arrays, I) -> list:
    """The KKT residual of each iterate of ``steps`` (:func:`solve_joint`),
    by one :func:`_kkt_residuals` call with each iterate a cell of its own;
    per cell, the sums and terms are those of a one-cell call."""
    k, n = len(steps), len(arrays[0])
    _, lam1, lam2, _, _, xs, p = zip(*steps)
    cells = Cells.from_cell_of(np.repeat(np.arange(k), n), k)
    return _kkt_residuals(cells, np.array(xs).ravel(), np.array(p).ravel(), np.array(lam1), np.array(lam2),
                          *(np.tile(a, k) for a in arrays[:3]), I).tolist()


# ---------------------------------------------------------------------------
# exact dual solve

_TIE = 1e-13  # band values closer than this, relative to the dual, are tied
_FLAT = 1e-12  # spends closer than this, relative to w/lam, are equal
_MAX_PROBES = 200  # each probe shrinks the bracket; a few suffice in practice
# numpy's log1p may differ from math.log1p in the last bits, so the array
# pass judges a candidate only where no other band value comes this close
# to the top, relative to the dual: a hundred tie windows
_GUARD = 100.0 * _TIE
# a cell without users: no prices, probes or allocation
_NO_USERS = (math.nan, math.nan, 0, 0, False, (), (), ())


def _kink(wa, ra, ba, wb, rb, bb, lo, hi):
    """Where the band values of users a and b cross inside (lo, hi).

    Each user is given by ``w``, ``ratio = w e/l`` and ``beta = l/e``.
    ``v_a - v_b`` is >= 0 at ``lo`` and <= 0 at ``hi`` and its slope is
    ``c_b - c_a``; Newton steps that leave the bracket fall back to a
    geometric bisection, and the search stops once the two values agree
    to rounding.
    """
    log1p = math.log1p
    lam = math.sqrt(lo * hi)
    for _ in range(200):
        t = (ra - lam) / lam
        va = wa * (log1p(t) - t / (1.0 + t)) if t > 0.0 else 0.0
        t = (rb - lam) / lam
        vb = wb * (log1p(t) - t / (1.0 + t)) if t > 0.0 else 0.0
        d = va - vb
        # equal to rounding: where the pieces are nearly tangent, one more
        # Newton step would divide noise by a tiny slope
        if abs(d) <= 1e-15 * (vb if vb > va else va):
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


def _band_values(ws, rs, lam):
    """The band values ``w (ln r - 1 + 1/r)`` at ``lam`` of users with
    ``w`` and ``w e/l`` listed in ``ws, rs``: with ``t = r - 1``, free of
    cancellation near r = 1; 0 once r <= 1."""
    log1p = math.log1p
    return [w * (log1p(t) - t / (1.0 + t)) if (t := (r - lam) / lam) > 0.0 else 0.0
            for w, r in zip(ws, rs)]


def _walk(ws, rs, bs, ss, ls, I, lo, a, hi, b, lam):
    """Finish one cell's dual walk from a bracket.

    ``ws, rs, bs, ss, ls`` list the cell's users' ``w``, ``w e/l``,
    ``l/e``, single-user minimisers and ``l``.  The bracket ends ``lo``
    and ``hi``, where the dual's slope is < 0 and > 0, are topped by users
    ``a`` and ``b``; ``lo = -inf`` or ``hi = inf`` stands for no end yet.
    ``lam`` is the first probe, or ``inf`` to take it from the bracket.
    Each probe evaluates the envelope at ``lam`` and moves the end that
    the slope ``I - c`` of its top users points away from, until the
    slope's range holds 0.  Returns ``(lambda1, lambda2, probes, kinks,
    converged, users, shares, powers)``, the allocation as one or two
    users with their shares and powers.

    A probe's tie set takes one of three branches: one user; two users,
    the set most probes of a simulator run meet, by plain comparisons;
    or three and more, as lists scanned for the lowest index.  The
    branches make the same IEEE operations in the same order, so the
    pair's branch returns what the general one would.
    """
    inf = math.inf
    # the users tied at an end once a probe has moved it; a seeded end's
    # top user stands alone, which `a == b` covers
    tied_lo = tied_hi = ()
    kinks = 0
    converged = False
    for probes in range(1, _MAX_PROBES + 1):
        # every probe after the first is placed from the bracket, so a walk
        # that runs out of probes ends on its last one, at a finite lam
        if probes > 1 or lam == inf:
            if lo == -inf:
                lam = min(ss)
            elif hi == inf:
                lam = max(ss)
            else:
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
        values = _band_values(ws, rs, lam)
        top = max(values)
        floor = top - _TIE * (lam * I + top)
        tied = [i for i, v in enumerate(values) if v >= floor]
        if len(tied) == 1:
            j_hi = j_lo = tied[0]
            c_hi = c_lo = ws[j_hi] / lam - bs[j_hi]
            slack = _FLAT * ws[j_hi] / lam
        elif len(tied) == 2:
            # the general branch's operations on a pair, by plain comparisons
            i, j = tied
            wi, wj = ws[i], ws[j]
            ci = wi / lam - bs[i]
            cj = wj / lam - bs[j]
            spend = ci, cj
            c_hi = cj if cj > ci else ci
            c_lo = cj if cj < ci else ci
            slack = _FLAT * (wj if wj > wi else wi) / lam
            j_hi = i if ci >= c_hi - slack else j
            j_lo = i if ci <= c_lo + slack else j
        else:
            spend = [ws[i] / lam - bs[i] for i in tied]
            c_hi = max(spend)
            c_lo = min(spend)
            # spends this close are equal up to rounding, so the lowest
            # index among them stands for all
            slack = _FLAT * max([ws[i] for i in tied]) / lam
            for j_hi, c in zip(tied, spend):
                if c >= c_hi - slack:
                    break
            for j_lo, c in zip(tied, spend):
                if c <= c_lo + slack:
                    break
        if c_lo - I > slack:
            lo, a, tied_lo = lam, j_lo, tied
        elif I - c_hi > slack:
            hi, b, tied_hi = lam, j_hi, tied
        else:
            converged = True
            break

    k = j_hi
    if len(tied) > 1:
        # a tied user spending the budget at its own minimiser takes the
        # band, else the highest and the lowest spender share it
        for k, c in zip(tied, spend):
            if abs(c - I) <= slack:
                break
        else:
            k = j_hi if j_hi == j_lo else None
    if k is not None:
        if ss[k] != lam:
            lam = ss[k]
            top = max(_band_values(ws, rs, lam))
        return lam, -top, probes, kinks, converged, (k,), (1.0,), (I / ls[k],)
    c_hi = ws[j_hi] / lam - bs[j_hi]
    c_lo = ws[j_lo] / lam - bs[j_lo]
    share = (I - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 1.0
    share = min(1.0, max(0.0, share))
    return lam, -top, probes, kinks, converged, (j_hi, j_lo), (share, 1.0 - share), (
        share * c_hi / ls[j_hi], (1.0 - share) * c_lo / ls[j_lo])


def _kkt_residuals(cells, x, p, lam1, lam2, w, e, l, I):
    """The max-normed, dimensionless first-order residual of every cell's
    allocation at once, against its prices in ``lam1, lam2`` and its
    budget in ``I`` (one for all cells or one per cell): the band sum,
    the budget spent wherever the cell's powers do not sum to 0, and each
    user's power and bandwidth stationarity.  Infinite for a cell with a
    price that is not finite or a power that is negative or NaN; NaN for
    the cells with no users.  Every user holding band must have a
    positive weight and SINR."""
    res = np.abs(cells.sums(x) - 1.0)
    res = np.where(cells.sums(p) != 0.0, np.maximum(res, np.abs(cells.sums(l * p) - I) / I), res)
    on = ((x > 0.0) | (p > 0.0)).nonzero()[0]
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
    # a price that is not finite (so neither is their sum), or a power that
    # is negative or NaN, certifies nothing: inf, which a `> tol` check
    # refuses, as it would not refuse a NaN
    res[~np.isfinite(lam1 + lam2) | (cells.sums(~(p >= 0.0)) > 0.0)] = np.inf
    res[~cells.valid[:, 0]] = np.nan
    return res


class DualRun:
    """The exact dual solve (see :func:`noiserise.simnet.solve_dual`) of
    every cell of the ``cells`` layout at once, bound to the per-user
    arrays ``e, l`` and a budget in Watts, one for all cells or one per
    cell.

    A run schedules the same layout on the same ``e``, ``l`` and budgets
    every frame; only the PF weights ``w`` change.  So this binds, once,
    each user's ``E = e``, ``L = l``, ``beta = l/e`` and ``I + beta`` as
    (cells, width) matrices (1 in padding), each cell's user count,
    ``beta`` and ``l`` lists and mobile ids, and the seed pass's (width,
    cells, width) work buffers; :meth:`solve`, the frame function,
    gathers per frame only what the weights change.  Raises
    :class:`NoTransmitterError` for a user without ``e > 0``.
    """

    def __init__(self, cells: Cells, e, l, budget):
        if not np.logical_and.reduce(e > 0.0):
            raise NoTransmitterError(f"users {np.flatnonzero(~(e > 0.0)).tolist()} have no positive SINR")
        n_cells, width = cells.valid.shape
        budget = cells.per_cell(budget)
        self.cells, self.e, self.l, self.budget = cells, e, l, budget
        self.I = I = budget[:, None]
        self.E = cells.gather(e, 1.0)
        self.L = L = cells.gather(l, 1.0)
        self.beta = beta = L / self.E
        self.I_beta = I + beta
        self.counts = counts = np.add.reduce(cells.valid, axis=1).tolist()
        self.betas = [row[:n] for row, n in zip(beta.tolist(), counts)]
        self.ls = [row[:n] for row, n in zip(L.tolist(), counts)]
        self.ids = cells.index.tolist()
        self.budgets = budget.tolist()
        self.rows = np.arange(n_cells)
        shape = (width, n_cells, width)
        self.buffers = np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)

    def rows_of(self, w):
        """The frame's (cells, width) matrices ``W`` (0 in padding),
        ``ratio = w e/l`` and the single-user minimisers
        ``S = w/(I + l/e)`` (1 in padding)."""
        W = self.cells.gather(w, 0.0)
        return W, W * self.E / self.L, np.where(self.cells.valid, W / self.I_beta, 1.0)

    def seed(self, W, ratio, S):
        """Classify every user's single-user minimiser as a probe of the dual.

        One (width, cells, width) pass over the matrices of
        :meth:`rows_of` evaluates the envelope of the band values at every
        candidate.  Where one user tops it alone, the walk's spend/slack
        rule says whether the candidate lies left of the optimum, right of
        it, or on it; a candidate where another band value comes within
        ``_GUARD`` of the top is left to a probe, so every verdict is the
        walk's own.  Returns per cell the largest left candidate and its
        top user, the smallest right one and its top user (``-inf``/``inf``
        if none), the smallest other candidate between them (``inf`` if
        none), and that candidate's own user where the candidate settles
        the cell, -1 elsewhere.  A candidate settles its cell when it is
        neither left nor right, its user tops the envelope there alone and
        it is that user's own minimiser: the walk's first probe, at it,
        then stops on that user without moving ``lam``.
        """
        a, values, t, hits = self.buffers
        I, valid, rows = self.I, self.cells.valid, self.rows
        # laid out (user, cell, candidate), so that the reductions over users
        # run along the first axis, where numpy vectorises them;
        # r - 1 is free of cancellation near r = 1
        np.divide(np.subtract(ratio.T[:, :, None], S, out=a), S, out=a)
        np.maximum(a, 0.0, out=a)
        np.log1p(a, out=values)
        values -= np.divide(a, np.add(1.0, a, out=t), out=t)
        values *= W.T[:, :, None]  # padding is 0: never the top, at most a false tie
        top = np.maximum.reduce(values)
        near = top - _GUARD * (S * I + top)
        alone = valid & (np.add.reduce(np.greater_equal(values, near, out=hits)) == 1)
        best = values.argmax(axis=0)
        w_top = W[rows[:, None], best]
        # the spend's excess over the budget; I - spend is its exact negation
        over = w_top / S - self.beta[rows[:, None], best] - I
        slack = _FLAT * w_top / S
        left = alone & (over > slack)
        right = alone & (-over > slack)

        at_left = np.where(left, S, -np.inf)
        at_right = np.where(right, S, np.inf)
        kl = at_left.argmax(axis=1)
        kr = at_right.argmin(axis=1)
        lo = at_left[rows, kl]
        hi = at_right[rows, kr]
        between = valid & ~(left | right) & (S > lo[:, None]) & (S < hi[:, None])
        at_start = np.where(between, S, np.inf)
        k = at_start.argmin(axis=1)
        settled = between[rows, k] & alone[rows, k] & (best[rows, k] == k)
        return lo, best[rows, kl], hi, best[rows, kr], at_start[rows, k], np.where(settled, k, -1)

    def solve(self, w) -> FrameAllocation:
        """The frame's allocation under weights ``w``, positive for every
        user.

        One array pass over all cells seeds each cell's walk with the
        tightest bracket among its users' single-user minimisers and
        settles the cells whose first probe would stop at once (see
        :meth:`seed`); a scalar walk per remaining cell finishes from its
        bracket.  A second array pass certifies every cell.
        """
        W, ratio, S = self.rows_of(w)
        lo, a, hi, b, start, own = self.seed(W, ratio, S)
        solved = []  # per cell: the walk's result, or _NO_USERS
        per_cell = zip(self.counts, W.tolist(), ratio.tolist(), S.tolist(), self.betas, self.ls, self.budgets,
                       lo.tolist(), a.tolist(), hi.tolist(), b.tolist(), start.tolist(), own.tolist())
        for n, ws, rs, ss, bs, ls, I, lo_k, a_k, hi_k, b_k, start_k, k in per_cell:
            if k >= 0:
                # the walk's one probe, at user k's own minimiser: k takes
                # the band at p = I/l, and lambda2 is minus its band value
                lam = ss[k]
                solved.append((lam, -_band_values((ws[k],), (rs[k],), lam)[0], 1, 0, True, (k,), (1.0,),
                               (I / ls[k],)))
            elif n:
                solved.append(_walk(ws[:n], rs[:n], bs, ss[:n], ls, I, lo_k, a_k, hi_k, b_k, start_k))
            else:
                solved.append(_NO_USERS)
        lam1, lam2, probes, kinks, converged, users, xs, ps = zip(*solved)
        x = np.zeros(len(w))
        p = np.zeros(len(w))
        users = [ids[i] for ids, cell in zip(self.ids, users) for i in cell]
        x[users] = list(chain.from_iterable(xs))
        p[users] = list(chain.from_iterable(ps))
        lam1 = np.array(lam1, dtype=float)
        lam2 = np.array(lam2, dtype=float)
        res = _kkt_residuals(self.cells, x, p, lam1, lam2, w, self.e, self.l, self.budget)
        return FrameAllocation(x, p, lam1, lam2, np.array(probes, dtype=int), np.array(kinks, dtype=int),
                               np.array(converged, dtype=bool), res)
