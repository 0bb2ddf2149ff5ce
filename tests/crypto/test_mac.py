"""``HashFunction.mac``: C HMAC for sha1/sha256, ``hmac_raw`` elsewhere.

Untruncated ``sha1`` and ``sha256`` MAC through :func:`hmac.digest`;
every other hash (MMO, the pure-Python ``sha1p``, truncated ``sha1-N``)
runs the from-definition :func:`repro.crypto.mac.hmac_raw`. The bytes and
the operation tallies must be the same either way.
"""

import pytest

from repro.crypto import mac as mac_module
from repro.crypto.hashes import OpCounter, get_hash
from repro.crypto.mac import HmacFunction, hmac_raw

KEY_LENGTHS = [0, 1, 20, 63, 64, 65, 200]
MESSAGES = [b"", b"m", bytes(range(256)) * 40]


@pytest.mark.parametrize("name", ["sha1", "sha256"])
@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_c_hmac_matches_hmac_raw(name, key_length):
    fn = get_hash(name)
    key = bytes((7 * i + 3) % 256 for i in range(key_length))
    for message in MESSAGES:
        assert fn.mac(key, message) == hmac_raw(
            fn.digest_uncounted, fn.block_size, key, message
        )


@pytest.mark.parametrize("name", ["sha1", "sha256", "mmo", "sha1p", "sha1-8"])
def test_mac_tallies(name):
    fn = get_hash(name, OpCounter())
    for message in MESSAGES:
        fn.mac(b"k" * 20, message, label="s2-verify")
    fn.mac(b"", b"xyz")
    counter = fn.counter
    assert counter.mac_ops == len(MESSAGES) + 1
    assert counter.mac_bytes == sum(map(len, MESSAGES)) + 3
    assert counter.labels == {"s2-verify": len(MESSAGES)}
    assert counter.hash_ops == 0


@pytest.mark.parametrize(
    "name,through_raw",
    [("sha1", False), ("sha256", False), ("mmo", True), ("sha1p", True), ("sha1-8", True)],
)
def test_which_hashes_use_hmac_raw(monkeypatch, name, through_raw):
    calls = []

    def counting(*args):
        calls.append(args)
        return hmac_raw(*args)

    monkeypatch.setattr(mac_module, "hmac_raw", counting)
    fn = get_hash(name)
    tag = fn.mac(b"key", b"message")
    assert len(tag) == fn.digest_size
    assert len(calls) == (1 if through_raw else 0)


def test_truncated_mac_is_not_truncated_stdlib_hmac():
    # HMAC over a truncated inner hash differs from truncating the full
    # HMAC, which is why sha1-N cannot use hmac.digest.
    assert get_hash("sha1-8").mac(b"key", b"m") != get_hash("sha1").mac(b"key", b"m")[:8]


def test_hmac_function_verify():
    hmac_fn = HmacFunction(get_hash("sha1"))
    tag = hmac_fn.compute(b"key", b"message")
    assert hmac_fn.verify(b"key", b"message", tag)
    assert not hmac_fn.verify(b"key", b"message", bytes([tag[0] ^ 1]) + tag[1:])
    assert not hmac_fn.verify(b"key", b"message", tag[:-1])
    assert not hmac_fn.verify(b"key", b"other", tag)


def test_block_size_is_fixed_per_name():
    assert get_hash("sha1").block_size == 64
    assert get_hash("sha1-8").block_size == 64
    assert get_hash("sha256").block_size == 64
    assert get_hash("mmo").block_size == 16
    assert get_hash("mmo").with_counter(OpCounter()).block_size == 16
