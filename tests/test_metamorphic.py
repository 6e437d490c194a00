"""Metamorphic tests of whole runs: a change of units or of labels that
the model leaves invariant must leave a run's schedule invariant, with no
reference implementation to compare against.

Scaling every channel gain and the noise density by a power of two scales
the noise power, the budget, every normalized interference ``l`` and every
received power by it exactly, and leaves every normalized SINR ``e`` as
it was.  So each frame schedules the same powers and delivers the same
bits, to the last bit, and the ingress is scaled exactly.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from noiserise import simnet
from noiserise.simnet import ChannelConfig, Deployment, DeploymentConfig, RunConfig, SchemeConfig, SimConfig

SCALES = (2.0 ** 20, 2.0 ** -20)

# the settings each scheme needs, and a power cap on the two that honour one
SCHEMES = {
    "nr": {},
    "nr_density": {},
    "nr_density_capped": {"max_power_w": 0.25},
    "fixed": {"fixed_power_w": 0.1},
    "target_sinr": {"target_sinr": 10.0, "max_power_w": 0.2},
}


def _config(scheme, wrap, quantize_units):
    return SimConfig(
        deployment=DeploymentConfig(wrap=wrap),
        scheme=SchemeConfig(name=scheme, **SCHEMES[scheme]),
        run=RunConfig(frames=15, quantize_units=quantize_units),
    )


def _scaled_run(cfg, scale, monkeypatch):
    """``cfg``'s run with every drawn gain and the noise density times ``scale``."""
    draw = simnet._draw_deployment
    n0 = ChannelConfig.n0_w_per_hz

    def scaled_draw(*args):
        deployment = draw(*args)
        return Deployment(serving_map=deployment.serving_map, gain_matrix=deployment.gain_matrix * scale)

    with monkeypatch.context() as patch:
        patch.setattr(simnet, "_draw_deployment", scaled_draw)
        patch.setattr(ChannelConfig, "n0_w_per_hz", property(lambda channel: n0.fget(channel) * scale))
        # rebuilt, so that the config is checked at the scaled noise
        return simnet.run_simulation(replace(cfg, channel=replace(cfg.channel)))


@pytest.mark.parametrize("scheme, wrap, quantize_units",
                         list(itertools.product(SCHEMES, (True, False), (None, 12))))
def test_power_of_two_units_change_no_power_or_bit(scheme, wrap, quantize_units, monkeypatch):
    cfg = _config(scheme, wrap, quantize_units)
    base = simnet.run_simulation(cfg)
    assert base.ms_power_w.any() and base.ms_bits.any()
    for scale in SCALES:
        scaled = _scaled_run(cfg, scale, monkeypatch)
        assert scaled.noise_power_w == scale * base.noise_power_w
        assert scaled.ms_power_w.tobytes() == base.ms_power_w.tobytes()
        assert scaled.ms_bits.tobytes() == base.ms_bits.tobytes()
        assert scaled.ingress_w.tobytes() == (scale * base.ingress_w).tobytes()


# Relabelling the mobiles or the base stations changes only the order in
# which sums over a cell's users and over a mobile's gains are taken, so a
# run is the same to within rounding.  Measured over 20 permutations of
# each kind, on these 15-frame runs of the default 19-cell layout on the
# torus and the plane: the aggregates moved at most 2.9e-13 relative and
# frame 0's per-mobile bits 4.2e-12 relative (nr_density_capped under a
# base-station relabelling), with the same users served.  The tolerances
# below leave a margin of about 30x.
AGGREGATE_RTOL = 1e-11
FRAME0_BITS_RTOL = 1e-10

# target_sinr gives every targeted user the same rate, so its PF scores
# tie among users of equal weight, and a tie goes to the lowest mobile
# index: relabelling the mobiles changes whom it serves.  It is left out
# of the mobile relabelling; a base-station relabelling keeps its ties.
MOBILE_RELABEL_SCHEMES = ("nr", "nr_density", "nr_density_capped", "fixed")


def _aggregates(metrics):
    return np.array([metrics.mean_cell_throughput(), metrics.jain_fairness(),
                     metrics.mean_ingress_w(), metrics.edge_spectral_efficiency()])


def _relabelled_run(cfg, monkeypatch, ms_order=None, bs_order=None):
    """``cfg``'s run with mobile ``i`` the drawn mobile ``ms_order[i]`` and
    base station ``j`` the drawn base station ``bs_order[j]``."""
    draw = simnet._draw_deployment

    def relabelled_draw(*args):
        deployment = draw(*args)
        serving, gain = deployment.serving_map, deployment.gain_matrix
        if ms_order is not None:
            serving, gain = serving[ms_order], gain[ms_order]
        if bs_order is not None:
            serving, gain = np.argsort(bs_order)[serving], gain[:, bs_order]
        return Deployment(serving_map=serving, gain_matrix=gain)

    with monkeypatch.context() as patch:
        patch.setattr(simnet, "_draw_deployment", relabelled_draw)
        return simnet.run_simulation(cfg)


def _assert_same_run(relabelled, base, ms_order):
    """The aggregates agree, and so do frame 0's bits (every weight equal)
    with the relabelled mobiles mapped back to the drawn labels."""
    np.testing.assert_allclose(_aggregates(relabelled), _aggregates(base), rtol=AGGREGATE_RTOL, atol=0.0)
    bits = base.ms_bits[0][ms_order]
    assert np.array_equal(relabelled.ms_bits[0] > 0, bits > 0)
    np.testing.assert_allclose(relabelled.ms_bits[0], bits, rtol=FRAME0_BITS_RTOL, atol=0.0)


@pytest.mark.parametrize("scheme, wrap", list(itertools.product(MOBILE_RELABEL_SCHEMES, (True, False))))
def test_relabelled_mobiles_give_the_same_run(scheme, wrap, monkeypatch):
    cfg = _config(scheme, wrap, None)
    base = simnet.run_simulation(cfg)
    for seed in (1, 2):
        ms_order = np.random.default_rng(seed).permutation(base.n_ms)
        _assert_same_run(_relabelled_run(cfg, monkeypatch, ms_order=ms_order), base, ms_order)


@pytest.mark.parametrize("scheme, wrap", list(itertools.product(SCHEMES, (True, False))))
def test_relabelled_base_stations_give_the_same_run(scheme, wrap, monkeypatch):
    cfg = _config(scheme, wrap, None)
    base = simnet.run_simulation(cfg)
    for seed in (1, 2):
        bs_order = np.random.default_rng(seed).permutation(base.n_cells)
        relabelled = _relabelled_run(cfg, monkeypatch, bs_order=bs_order)
        assert np.array_equal(relabelled.ms_cell, np.argsort(bs_order)[base.ms_cell])
        _assert_same_run(relabelled, base, np.arange(base.n_ms))
