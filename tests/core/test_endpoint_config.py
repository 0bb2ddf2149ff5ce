"""EndpointConfig is a ChannelConfig: one configuration source.

Every channel tunable set on an endpoint must reach the signer of each
association it installs, and an invalid channel value must be refused
when the config is built, not at the first handshake.
"""

from dataclasses import fields

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.signer import ChannelConfig

#: One non-default value for every ChannelConfig field.
NON_DEFAULT = {
    "mode": Mode.MERKLE_CUMULATIVE,
    "reliability": ReliabilityMode.RELIABLE,
    "batch_size": 5,
    "trees_per_s1": 3,
    "max_outstanding": 3,
    "retransmit_timeout_s": 0.5,
    "max_retries": 9,
    "adaptive_rto": False,
    "rto_max_s": 4.0,
    "backoff_jitter": 0.0,
}


def establish(config):
    a = AlphaEndpoint("a", config, seed=1)
    b = AlphaEndpoint("b", config, seed=2)
    _, hs1 = a.connect("b")
    out = b.on_packet(hs1, "a", 0.0)
    a.on_packet(out.replies[0][1], "b", 0.0)
    return a, b


class TestOneConfigSource:
    def test_every_channel_field_is_covered_and_non_default(self):
        defaults = ChannelConfig()
        assert set(NON_DEFAULT) == {f.name for f in fields(ChannelConfig)}
        for name, value in NON_DEFAULT.items():
            assert getattr(defaults, name) != value, name

    def test_endpoint_declares_no_channel_field(self):
        own = set(EndpointConfig.__dict__["__annotations__"])
        assert not own & {f.name for f in fields(ChannelConfig)}

    def test_installed_signers_carry_every_channel_field(self):
        a, b = establish(EndpointConfig(**NON_DEFAULT))
        for endpoint, peer in ((a, "b"), (b, "a")):
            config = endpoint.association(peer).signer.config
            # The plain channel type, as set_channel_config and the
            # adaptive controller's dataclasses.replace produce it.
            assert type(config) is ChannelConfig
            assert config == ChannelConfig(**NON_DEFAULT)

    @pytest.mark.parametrize(
        "bad",
        [
            {"batch_size": 0},
            {"trees_per_s1": 0},
            {"max_outstanding": 0},
            {"retransmit_timeout_s": 0.0},
            {"rto_max_s": 0.01},  # below the RTO floor
        ],
    )
    def test_invalid_channel_value_refused_at_construction(self, bad):
        with pytest.raises(ValueError):
            EndpointConfig(**bad)
