"""Metamorphic tests of whole runs: a change of units that the model
leaves invariant must leave a run's schedule invariant, with no reference
implementation to compare against.

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
