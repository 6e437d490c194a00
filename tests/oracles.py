"""Independent reference computations the tests check against.

Everything here deliberately avoids the package's own search routines:
the two-user oracle is an exhaustive grid, the power oracle is a plain
scalar bisection, and the bandwidth oracle leans on scipy's brentq.  The
interference sums, the resource-unit quantizer and the frame loop are
plain per-user, per-cell loops that the simulator's array code must
reproduce, scoring each user with the scalar :func:`shannon_rate`.  The
reference dual walk is the plain scalar form of ``solve_dual``: it starts
from the outermost single-user minimisers and probes the envelope through
per-user function calls.  The CSV writer formats one row tuple at a time,
and the sweep runs one simulation per config and one calibration search
per dB point.  The deployment draw places the base stations one at a
time, measures the distance to each of the nine lattice images in turn
and computes every path loss, by the formula written out, and gain
before it counts a cell's mobiles.  Two exceptions are not references
but views of the package's own bandwidth-step helpers on ``UserLink``
lists, for scans and for the tests of those helpers:
:func:`lambda2_bounds` and :func:`bandwidth_for_multiplier`.  A third,
:func:`reference_walk`, is the package's walk in its general form: it
calls the package's own kink search and band values, and builds and
scans every tie set as a list, where the package's walk takes a pair of
tied users by plain comparisons; the two must agree bit for bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from noiserise import solver
from noiserise.model import LN2, Allocation, UserLink, budget_watts, link_arrays
from noiserise.simnet import solve_dual
from noiserise.solver import (
    _ALPHA_SATURATED,
    _FLAT,
    _MAX_PROBES,
    _TIE,
    NoTransmitterError,
    _alpha,
    _lambda2_bounds,
    _marginal_gap,
)


def shannon_rate(x, p, e, bandwidth=1.0):
    """Rate ``B * x * log(1 + p*e/x)`` in nats/s, with rate 0 at x == 0.

    The x == 0 value is the continuous extension (x*log(1+pe/x) -> 0 for
    finite p*e), so a user holding power but no bandwidth delivers nothing
    rather than raising.
    """
    for name, v in (("x", x), ("p", p), ("e", e), ("bandwidth", bandwidth)):
        if math.isnan(v):
            raise ValueError(f"{name} must not be NaN")
    if x < 0 or p < 0 or e < 0:
        raise ValueError("x, p and e must be >= 0")
    if not bandwidth > 0:
        raise ValueError("bandwidth must be > 0")
    if x == 0:
        return 0.0
    return bandwidth * x * math.log1p(p * e / x)


def grid_search_two_user(w, e, l, budget, n=2000, chunk=200):
    """Exhaustive maximum of the reduced two-user problem on an n x n grid.

    With x2 = 1 - x1 and p2 spending the budget remainder, the search
    space is (x1, p1) in [0, 1] x [0, I/l1].  Returns (objective, x1, p1)
    at the best grid point.
    """
    x1_axis = np.linspace(0.0, 1.0, n)
    p1_axis = np.linspace(0.0, budget / l[0], n)
    p2_axis = (budget - l[0] * p1_axis) / l[1]
    best = (-math.inf, 0.0, 0.0)
    for start in range(0, n, chunk):
        x1 = x1_axis[start : start + chunk][:, None]
        x2 = 1.0 - x1
        t1 = _term(w[0], x1, p1_axis[None, :], e[0])
        t2 = _term(w[1], x2, p2_axis[None, :], e[1])
        total = t1 + t2
        flat = int(np.argmax(total))
        i, j = divmod(flat, total.shape[1])
        value = float(total[i, j])
        if value > best[0]:
            best = (value, float(x1[i, 0]), float(p1_axis[j]))
    return best


def _term(weight, x, p, e):
    ratio = np.divide(p * e, x, out=np.zeros(np.broadcast_shapes(np.shape(x), np.shape(p))),
                      where=x > 0)
    return weight * x * np.log1p(ratio)


def waterfill_bisect(x, w, e, l, budget, iters=200):
    """Reference power step: scalar bisection on the budget multiplier.

    Solves sum_i l_i x_i [w_i/(mu l_i) - 1/e_i]^+ = I for mu by bisection
    and returns the implied powers.
    """

    def spend(mu):
        total = 0.0
        for i in range(len(x)):
            if x[i] > 0 and w[i] > 0 and e[i] > 0:
                head = w[i] / (mu * l[i]) - 1.0 / e[i]
                if head > 0:
                    total += l[i] * x[i] * head
        return total

    hi = max(
        w[i] * e[i] / l[i] for i in range(len(x)) if x[i] > 0 and w[i] > 0 and e[i] > 0
    )
    lo = hi
    while spend(lo) < budget:
        lo *= 0.5
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if spend(mid) > budget:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    p = [0.0] * len(x)
    for i in range(len(x)):
        if x[i] > 0 and w[i] > 0 and e[i] > 0:
            head = w[i] / (mu * l[i]) - 1.0 / e[i]
            if head > 0:
                p[i] = x[i] * head
    return p, mu


def bandwidth_shares_ref(p, w, e, lam2):
    """Per-user shares at a given multiplier, via brentq on the
    stationarity equation (independent of the package's Newton search)."""
    shares = []
    for i in range(len(p)):
        pe = p[i] * e[i]
        if pe <= 0:
            shares.append(0.0)
            continue
        y = -lam2 / w[i]
        if y <= 0:
            shares.append(math.inf)
            continue

        def f(a, y=y):
            return math.log1p(a) - a / (1.0 + a) - y

        hi = 1.0
        while f(hi) < 0:
            hi *= 10.0
        alpha = brentq(f, 0.0, hi, xtol=1e-15, rtol=1e-15)
        shares.append(pe / alpha)
    return shares


def find_lambda2_ref(p, w, e):
    """Reference bandwidth multiplier: brentq on sum(shares) - 1 with an
    expansion-based bracket (no use of the analytic bounds)."""

    def g(lam):
        return sum(bandwidth_shares_ref(p, w, e, lam)) - 1.0

    hi = -1e-12
    while g(hi) < 0:
        hi *= 0.5
        if hi > -1e-300:
            raise AssertionError("could not bracket from above")
    lo = -1.0
    while g(lo) > 0:
        lo *= 4.0
        if lo < -1e12:
            raise AssertionError("could not bracket from below")
    return brentq(g, lo, hi, xtol=1e-15, rtol=1e-15)


def lambda2_bounds(p, links):
    """Analytic bracket for the bandwidth multiplier, the package's own
    ``solver._lambda2_bounds``.

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
    """Bandwidth shares x_i at a given multiplier, before the sum
    constraint, from the package's own ``solver._alpha``.

    Each share with positive received power solves the stationarity
    equation ``w log(1+pe/x) - pe w/(x+pe) = -lambda2``; the share is
    nondecreasing in ``lambda2`` per coordinate.
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
            out.append(pe / _alpha(y))
    return out


def cascade_ref(weights, sinrs, interferences, caps, budget):
    """Independent re-derivation of the capped density cascade.

    Ranks by weighted full-density rate, walks the ranking granting the
    cap-limited share, then spreads leftover band proportionally with
    powers frozen.  Kept deliberately separate from the implementation.
    """
    n = len(weights)
    scores = [weights[i] * math.log1p(budget * sinrs[i] / interferences[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    x = [0.0] * n
    p = [0.0] * n
    band = 1.0
    for i in order:
        if band <= 0:
            break
        cap = caps[i] if caps[i] is not None else math.inf
        share_at_cap = cap * interferences[i] / budget
        take = min(band, share_at_cap)
        x[i] = take
        p[i] = min(cap, take * budget / interferences[i])
        band -= take
    used = sum(x)
    if band > 0 and used > 0:
        x = [v / used for v in x]
    return x, p


def cell_members(deployment, bs):
    """The mobiles that base station ``bs`` serves, in ascending order."""
    if not 0 <= bs < deployment.n_bs:
        raise ValueError(f"unknown BS id {bs!r}")
    return np.flatnonzero(deployment.serving_map == bs)


def egress_interference(powers, norm_interferences):
    """Total interference a cell injects into its neighbors: sum of l_i * p_i."""
    if len(powers) != len(norm_interferences):
        raise ValueError("powers and norm_interferences must have the same length")
    total = 0.0
    for p, l in zip(powers, norm_interferences):
        if p < 0:
            raise ValueError("powers must be >= 0")
        total += l * p
    return total


def ingress_interference(deployment, allocations, target_bs):
    """Total in-band interference power received at ``target_bs``.

    Sums gain * power over every transmitting mobile served by the other
    cells; each transmission is assumed spread uniformly over the band so
    a single scalar per station suffices.  ``allocations`` maps each cell
    index to its :class:`Allocation`, with entries ordered like
    ``cell_members(deployment, cell)``.
    """
    n_bs = deployment.n_bs
    if not 0 <= target_bs < n_bs:
        raise ValueError(f"unknown BS id {target_bs!r}")
    gain = deployment.gain_matrix
    total = 0.0
    for k in range(n_bs):
        if k == target_bs:
            continue
        try:
            alloc = allocations[k]
        except (KeyError, IndexError):
            raise ValueError(f"missing allocation for cell {k}") from None
        members = cell_members(deployment, k)
        if len(alloc.p) != len(members):
            raise ValueError(f"allocation for cell {k} does not match its member count")
        for ms, p in zip(members, alloc.p):
            if p > 0:
                total += float(gain[ms, target_bs]) * p
    return total


# ---------------------------------------------------------------------------
# per-cell frame loop: one UserLink per mobile, one scheduler call per cell


def reference_winners(cells, scores):
    """Each non-empty cell's highest-scoring user, ties to the lowest
    index, from a per-user ``scores`` array: the argmax of every cell's row
    of :meth:`~noiserise.model.Cells.gather`, ``-inf`` in the padding, at
    the rows of the cells that serve anyone."""
    col = cells.gather(scores, -math.inf).argmax(axis=1)
    rows = np.flatnonzero(cells.valid[:, 0])
    return cells.index[rows, col[rows]]


def _winner_takes_band(links, scores, powers):
    best = 0
    best_score = -math.inf
    for i, score in enumerate(scores):
        if score > best_score:
            best = i
            best_score = score
    x = [0.0] * len(links)
    p = [0.0] * len(links)
    x[best] = 1.0
    p[best] = powers[best]
    return Allocation(x=x, p=p)


def _capped_cascade(links, I):
    n = len(links)
    order = sorted(
        range(n),
        key=lambda i: (-(links[i].weight * math.log1p(I * links[i].norm_sinr / links[i].norm_interference)), i),
    )
    x = [0.0] * n
    p = [0.0] * n
    remaining = 1.0
    for i in order:
        if remaining <= 0.0:
            break
        link = links[i]
        cap = link.max_power if link.max_power is not None else math.inf
        cap_share = cap * link.norm_interference / I
        if cap_share <= remaining:
            x[i] = cap_share
            p[i] = cap
            remaining -= cap_share
        else:
            x[i] = remaining
            p[i] = remaining * I / link.norm_interference
            remaining = 0.0
    if remaining > 0.0:
        granted = 1.0 - remaining
        if granted > 0.0:
            x = [v / granted if v > 0.0 else v for v in x]
    return Allocation(x=x, p=p)


def _target_sinr(links, target):
    rate = math.log1p(target)
    scores = [u.weight * rate if u.norm_sinr > 0 else -math.inf for u in links]
    powers = []
    for u in links:
        power = target / u.norm_sinr if u.norm_sinr > 0 else 0.0
        if u.max_power is not None and power > u.max_power:
            power = u.max_power
        powers.append(power)
    return _winner_takes_band(links, scores, powers)


def reference_schedule(name, budget, fixed_power=None, target_sinr=None, solver_config=None):
    """Per-cell scheduler (UserLink list -> Allocation) of the named scheme."""
    I = budget_watts(budget)
    if name == "nr":
        return lambda links: solve_dual(links, I, solver_config)
    if name == "nr_density":
        return lambda links: _winner_takes_band(
            links,
            [u.weight * math.log1p(I / u.norm_interference * u.norm_sinr) for u in links],
            [I / u.norm_interference for u in links],
        )
    if name == "nr_density_capped":
        return lambda links: _capped_cascade(links, I)
    if name == "fixed":
        return lambda links: _winner_takes_band(
            links,
            [u.weight * math.log1p(fixed_power * u.norm_sinr) for u in links],
            [fixed_power] * len(links),
        )
    if name == "target_sinr":
        return lambda links: _target_sinr(links, target_sinr)
    raise ValueError(name)


def largest_remainder_units(x, num_units):
    """Largest-remainder rounding of band fractions to integer unit counts.

    The unit total is ``round(num_units * sum(x))`` (never above
    ``num_units``), each entry is its floor or ceiling, and leftover units
    go to the largest fractional remainders with index as the tie-break.
    """
    total = 0.0
    for v in x:
        total += v
    scaled = [v * num_units for v in x]
    units = [int(math.floor(s)) for s in scaled]
    target = min(num_units, int(round(total * num_units)))
    extras = target - sum(units)
    if extras > 0:
        order = sorted(range(len(x)), key=lambda i: (-(scaled[i] - units[i]), i))
        for i in order[:extras]:
            units[i] += 1
    return units


def reference_quantize(x, p, l, cap, num_units):
    """One cell's shares and powers (lists) on the resource-unit grid: users
    rounded to zero units lose their power, and the freed egress is spread
    over the surviving powers in proportion, each clamped at its cap."""
    xq = [u / num_units for u in largest_remainder_units(x, num_units)]
    pq = list(p)
    freed = 0.0
    kept = 0.0
    for i in range(len(pq)):
        if xq[i] == 0.0 and pq[i] > 0.0:
            freed += l[i] * pq[i]
            pq[i] = 0.0
        elif pq[i] > 0.0:
            kept += l[i] * pq[i]
    if freed > 0.0 and kept > 0.0:
        scale = (kept + freed) / kept
        for i in range(len(pq)):
            if pq[i] > 0.0:
                pq[i] *= scale
                if pq[i] > cap[i]:
                    pq[i] = cap[i]
    return xq, pq


def _quantize(alloc, links, num_units):
    l = [link.norm_interference for link in links]
    cap = [math.inf if link.max_power is None else link.max_power for link in links]
    xq, pq = reference_quantize(alloc.x, alloc.p, l, cap, num_units)
    return Allocation(x=xq, p=pq)


@dataclass(frozen=True)
class FrameMetrics:
    """One frame's observables, per cell and per MS: one row of each of a
    ``MetricsBundle``'s per-frame arrays."""

    cell_bits: np.ndarray
    ingress_w: np.ndarray
    ingress_db: np.ndarray
    egress_w: np.ndarray
    ms_power_w: np.ndarray
    ms_bits: np.ndarray


def reference_run_frame(deployment, schedule, weights, cfg):
    """One frame the slow way: a validated UserLink per mobile, one
    ``schedule(links)`` call per cell, then per-cell interference sums and
    a per-mobile scoring loop.  Returns the frame's metrics and the band
    shares it scored."""
    I = budget_watts(cfg.budget())
    band = cfg.channel.bandwidth_hz
    p_noise = cfg.channel.n0_w_per_hz * band
    planned = p_noise + I
    max_power = cfg.scheme.max_power_w
    quantize_units = cfg.run.quantize_units
    n_bs = deployment.n_bs
    n_ms = deployment.n_ms
    power = np.zeros(n_ms)
    frac = np.zeros(n_ms)
    for k in range(n_bs):
        members = cell_members(deployment, k)
        links = [
            UserLink(
                id=int(ms),
                weight=float(weights[ms]),
                norm_sinr=float(deployment.serving_gain[ms] / planned),
                norm_interference=float(deployment.norm_interference[ms]),
                max_power=max_power,
            )
            for ms in members
        ]
        alloc = schedule(links)
        if quantize_units:
            alloc = _quantize(alloc, links, quantize_units)
        frac[members] = alloc.x
        power[members] = alloc.p

    gain = deployment.gain_matrix
    received = gain.T @ power
    ingress = np.empty(n_bs)
    egress = np.empty(n_bs)
    for k in range(n_bs):
        members = cell_members(deployment, k)
        own = float(gain[members, k] @ power[members]) if len(members) else 0.0
        ingress[k] = max(received[k] - own, 0.0)
        egress[k] = float(deployment.norm_interference[members] @ power[members]) if len(members) else 0.0

    ms_bits = np.zeros(n_ms)
    for k in range(n_bs):
        noise_k = p_noise + ingress[k]
        for ms in cell_members(deployment, k):
            if frac[ms] > 0.0 and power[ms] > 0.0:
                e_act = float(deployment.serving_gain[ms]) / noise_k
                rate = shannon_rate(float(frac[ms]), float(power[ms]), e_act, band)
                ms_bits[ms] = rate / LN2 * cfg.run.frame_duration_s
    cell_bits = np.array([ms_bits[cell_members(deployment, k)].sum() for k in range(n_bs)])
    ingress_db = 10.0 * np.log10((p_noise + ingress) / p_noise)
    metrics = FrameMetrics(
        cell_bits=cell_bits,
        ingress_w=ingress,
        ingress_db=ingress_db,
        egress_w=egress,
        ms_power_w=power,
        ms_bits=ms_bits,
    )
    return metrics, frac


# ---------------------------------------------------------------------------
# reference dual walk


def _kkt_residual(x, p, lam1, lam2, w, e, l, budget):
    """Max-normed, dimensionless first-order residual of one cell's
    allocation: the scalar form of ``solver._kkt_residuals``, one user at a
    time."""
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
    """Reference walk of :func:`solve_dual` on per-user lists ``w, e, l``:
    the first two probes are the outermost single-user minimisers.

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


def reference_walk(ws, rs, bs, ss, ls, I, lo, a, hi, b, lam, ties=None):
    """Finish one cell's dual walk from a bracket, as ``solver._walk``
    does, building and scanning every tie set as a list; appends each
    probe's tie-set size to ``ties`` if given.

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
    """
    inf = math.inf
    # the users tied at an end once a probe has moved it; a seeded end's
    # top user stands alone, which `a == b` covers
    tied_lo = tied_hi = ()
    kinks = 0
    converged = False
    for probes in range(1, _MAX_PROBES + 1):
        if lam == inf:
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
                    lam = solver._kink(ws[a], rs[a], bs[a], ws[b], rs[b], bs[b], lo, hi)
                    kinks += 1
                if not lo < lam < hi:
                    lam = math.sqrt(lo * hi)
        values = solver._band_values(ws, rs, lam)
        top = max(values)
        floor = top - _TIE * (lam * I + top)
        tied = [i for i, v in enumerate(values) if v >= floor]
        if ties is not None:
            ties.append(len(tied))
        if len(tied) == 1:
            j_hi = j_lo = tied[0]
            c_hi = c_lo = ws[j_hi] / lam - bs[j_hi]
            slack = _FLAT * ws[j_hi] / lam
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
        lam = inf

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
            top = max(solver._band_values(ws, rs, lam))
        return lam, -top, probes, kinks, converged, (k,), (1.0,), (I / ls[k],)
    c_hi = ws[j_hi] / lam - bs[j_hi]
    c_lo = ws[j_lo] / lam - bs[j_lo]
    share = (I - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 1.0
    share = min(1.0, max(0.0, share))
    return lam, -top, probes, kinks, converged, (j_hi, j_lo), (share, 1.0 - share), (
        share * c_hi / ls[j_hi], (1.0 - share) * c_lo / ls[j_lo])


def reference_path_loss(distance_m, params, rng=None):
    """The COST-Hata path loss in dB written out, each term a new array:
    the distances clamped to ``params.min_distance_m``, the formula, then
    the shadowing draw added when ``params.shadowing_sigma_db > 0``.
    :func:`noiserise.simnet.cost_hata_pl` must reproduce it bit for bit,
    drawing the same normals from an ``rng`` in the same state."""
    d = np.maximum(np.asarray(distance_m, dtype=float), params.min_distance_m)
    lf = math.log10(params.freq_mhz)
    a_hm = (1.1 * lf - 0.7) * params.ms_height_m - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * math.log10(params.bs_height_m)
    pl = (
        46.3
        + 33.9 * lf
        - 13.82 * math.log10(params.bs_height_m)
        - a_hm
        + slope * np.log10(d / 1000.0)
        + params.c_m_db
    )
    if params.shadowing_sigma_db > 0:
        pl = pl + rng.normal(0.0, params.shadowing_sigma_db, size=np.shape(pl))
    return pl


def reference_draw(cfg, channel, seed):
    """A deployment draw without shortcuts: the base stations one at a
    time, per draw each of the nine lattice images' squared distances in
    turn, then every path loss (:func:`reference_path_loss`) and gain,
    then the strongest-gain count that accepts or rejects the draw.
    Returns ``(serving_map, gain_matrix)``, which
    :func:`noiserise.simnet.build_deployment` must reproduce bit for bit."""
    from noiserise.simnet import _wrap_shifts

    s = cfg.isd_m
    a1 = np.array([s, 0.0])
    a2 = np.array([0.5 * s, 0.5 * math.sqrt(3.0) * s])
    if cfg.layout == "rings":
        r = cfg.rings
        coords = sorted(((q, t) for q in range(-r, r + 1) for t in range(-r, r + 1)
                         if max(abs(q), abs(t), abs(q + t)) <= r),
                        key=lambda c: (max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])), c))
        u1, u2 = (r + 1) * a1 + r * a2, -r * a1 + (2 * r + 1) * a2
        offset = -0.5 * (u1 + u2)
    else:
        coords = [(i, j) for i in range(cfg.rows) for j in range(cfg.cols)]
        u1, u2 = cfg.rows * a1, cfg.cols * a2
        offset = np.zeros(2)
    bs = np.array([q * a1 + t * a2 for q, t in coords])
    rng = np.random.default_rng(seed)
    for _ in range(cfg.max_attempts):
        st = rng.random((cfg.n_ms, 2))
        ms = offset + st[:, :1] * u1 + st[:, 1:] * u2
        best = np.full((len(ms), len(bs)), np.inf)
        for sx, sy in _wrap_shifts(u1, u2, cfg.wrap):
            dx = ms[:, :1] - (bs[:, 0] + sx)
            dy = ms[:, 1:] - (bs[:, 1] + sy)
            best = np.minimum(best, dx * dx + dy * dy)
        pl = reference_path_loss(np.sqrt(best), channel, rng)
        gain = 10.0 ** (-pl / 10.0)
        serving = gain.argmax(axis=1)
        if np.bincount(serving, minlength=len(bs)).min() >= cfg.min_ms_per_cell:
            return serving, gain
    raise RuntimeError("no draw accepted")


def reference_write_csv(path, header, row_format, rows):
    """The per-row CSV writer: the header, then ``row_format % row`` for
    each row tuple, one line each."""
    with open(path, "w") as fh:
        fh.write("\n".join([header, *(row_format % row for row in rows)]) + "\n")


def reference_sweep(cfg, noise_rise_dbs, schemes):
    """The sweep one run at a time: per dB point, each scheme's own
    ``run_simulation(cfg)``, then one :func:`calibrate_fixed_power` per
    ``fixed`` row, each probe its own 40-frame run, and the calibrated
    row's own run.  Returns the rows :func:`noiserise.cli.run_sweep` must
    return."""
    from noiserise import cli, simnet
    from noiserise.baselines import CalibrationError, calibrate_fixed_power
    from noiserise.simnet import run_simulation

    rows = []
    with simnet.shared_draws():
        for db in noise_rise_dbs:
            configs = [cli._with_scheme(cfg, noise_rise_db=float(db), name=name,
                                        **({"fixed_power_w": 1.0} if name == "fixed" else {}))
                       for name in schemes]
            bundles = [None if c.scheme.name == "fixed" else run_simulation(c) for c in configs]
            reference = next(
                (bundle.mean_ingress_w() for c, bundle in zip(configs, bundles)
                 if c.scheme.name in ("nr", "nr_density", "nr_density_capped")),
                configs[0].budget().linear_budget,
            )
            for run_cfg, bundle in zip(configs, bundles):
                if bundle is not None:
                    rows.append(cli._sweep_row(run_cfg, bundle))
                    continue
                calib_cfg = replace(run_cfg, run=replace(run_cfg.run, frames=cli._CALIBRATION_FRAMES))

                def mean_ingress(power, _cfg=calib_cfg):
                    return run_simulation(cli._with_scheme(_cfg, fixed_power_w=power)).mean_ingress_w()

                try:
                    power = calibrate_fixed_power(mean_ingress, reference,
                                                  initial_power=cli._power_guess(run_cfg))
                except CalibrationError as exc:
                    rows.append(cli._sweep_row(run_cfg, status=f"calibration_failed: {exc}"))
                    continue
                bundle = run_simulation(cli._with_scheme(run_cfg, fixed_power_w=power))
                rows.append(cli._sweep_row(run_cfg, bundle, fixed_power_w=power))
    return rows
