"""Independent reference computations the tests check against.

Everything here deliberately avoids the package's own search routines:
the two-user oracle is an exhaustive grid, the power oracle is a plain
scalar bisection, and the bandwidth oracle leans on scipy's brentq.  The
interference sums and the frame loop are plain per-user, per-cell loops
that the simulator's array code must reproduce.
"""

import math

import numpy as np
from scipy.optimize import brentq

from noiserise.model import LN2, Allocation, UserLink, budget_watts, shannon_rate
from noiserise.simnet import FrameMetrics, quantize_allocation
from noiserise.solver import solve_dual


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
    ``deployment.members(cell)``.
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
        members = deployment.members(k)
        if len(alloc.p) != len(members):
            raise ValueError(f"allocation for cell {k} does not match its member count")
        for ms, p in zip(members, alloc.p):
            if p > 0:
                total += float(gain[ms, target_bs]) * p
    return total


# ---------------------------------------------------------------------------
# per-cell frame loop: one UserLink per mobile, one scheduler call per cell


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


def _quantize(alloc, links, num_units):
    units = quantize_allocation(alloc.x, num_units)
    xq = [u / num_units for u in units]
    pq = list(alloc.p)
    freed = 0.0
    kept = 0.0
    for i, link in enumerate(links):
        if xq[i] == 0.0 and pq[i] > 0.0:
            freed += link.norm_interference * pq[i]
            pq[i] = 0.0
        elif pq[i] > 0.0:
            kept += link.norm_interference * pq[i]
    if freed > 0.0 and kept > 0.0:
        scale = (kept + freed) / kept
        for i, link in enumerate(links):
            if pq[i] > 0.0:
                pq[i] *= scale
                if link.max_power is not None and pq[i] > link.max_power:
                    pq[i] = link.max_power
    return Allocation(x=xq, p=pq)


def reference_run_frame(deployment, schedule, pf, budget, frame_cfg, max_power=None):
    """One frame the slow way: a validated UserLink per mobile, one
    ``schedule(links)`` call per cell, then per-cell interference sums and
    a per-mobile scoring loop.  Returns the frame's metrics and the band
    shares it scored."""
    I = budget_watts(budget)
    band = frame_cfg.bandwidth_hz
    p_noise = frame_cfg.n0_w_per_hz * band
    planned = p_noise + I
    weights = pf.weights()
    n_bs = deployment.n_bs
    n_ms = deployment.n_ms
    power = np.zeros(n_ms)
    frac = np.zeros(n_ms)
    for k in range(n_bs):
        members = deployment.members(k)
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
        if frame_cfg.quantize_units:
            alloc = _quantize(alloc, links, frame_cfg.quantize_units)
        frac[members] = alloc.x
        power[members] = alloc.p

    gain = deployment.gain_matrix
    received = gain.T @ power
    ingress = np.empty(n_bs)
    egress = np.empty(n_bs)
    for k in range(n_bs):
        members = deployment.members(k)
        own = float(gain[members, k] @ power[members]) if len(members) else 0.0
        ingress[k] = max(received[k] - own, 0.0)
        egress[k] = float(deployment.norm_interference[members] @ power[members]) if len(members) else 0.0

    ms_bits = np.zeros(n_ms)
    for k in range(n_bs):
        noise_k = p_noise + ingress[k]
        for ms in deployment.members(k):
            if frac[ms] > 0.0 and power[ms] > 0.0:
                e_act = float(deployment.serving_gain[ms]) / noise_k
                rate = shannon_rate(float(frac[ms]), float(power[ms]), e_act, band)
                ms_bits[ms] = rate / LN2 * frame_cfg.frame_duration_s
    cell_bits = np.array([ms_bits[deployment.members(k)].sum() for k in range(n_bs)])
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
