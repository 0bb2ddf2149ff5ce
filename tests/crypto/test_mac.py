"""``HashFunction.mac``: hashlib HMAC for sha1/sha256, ``hmac_raw`` elsewhere.

Untruncated ``sha1`` and ``sha256`` compute RFC 2104 directly over their
hashlib constructor; every other hash (MMO, the pure-Python ``sha1p``,
truncated ``sha1-N``) runs the from-definition
:func:`repro.crypto.mac.hmac_raw` over the raw callable. Both take their
pads from the same translate tables, so each is also checked against an
oracle that shares nothing with it: the standard library's
:func:`hmac.digest` for the hashlib path, and a per-byte-XOR HMAC kept in
this file for ``hmac_raw``. The bytes and the operation tallies must be
the same either way.

The hashlib path keeps one keyed-state entry per instance and reuses it
from the second consecutive MAC under a key; the last tests drive it
through runs under one key, alternating keys, equal keys in distinct
objects and keys changed in place, each MAC against :func:`hmac.digest`
and each call's tallies exact.
"""

import hmac

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


def per_byte_hmac(raw_hash, block_size, key, message):
    """RFC 2104 written out with a per-byte XOR, independent of the pad tables."""
    if len(key) > block_size:
        key = raw_hash(key)
    key = bytes(key).ljust(block_size, b"\x00")
    inner = raw_hash(bytes(k ^ 0x36 for k in key) + message)
    return raw_hash(bytes(k ^ 0x5C for k in key) + inner)


@pytest.mark.parametrize("name", ["sha1", "sha256"])
@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_hashlib_hmac_matches_stdlib_hmac(name, key_length):
    fn = get_hash(name)
    key = bytes((7 * i + 3) % 256 for i in range(key_length))
    for message in MESSAGES:
        expected = hmac.digest(key, message, name)
        assert fn.mac(key, message) == expected
        assert fn.mac(bytearray(key), message) == expected


#: The raw path runs pure-Python MMO and SHA-1, so its messages stay short.
RAW_MESSAGES = [b"", b"m", bytes(range(256))]


@pytest.mark.parametrize("name", ["mmo", "sha1p", "sha1-8"])
@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_hmac_raw_matches_per_byte_reference(name, key_length):
    fn = get_hash(name)
    key = bytes((5 * i + 1) % 256 for i in range(key_length))
    for message in RAW_MESSAGES:
        expected = per_byte_hmac(fn.digest_uncounted, fn.block_size, key, message)
        assert fn.mac(key, message) == expected
        assert fn.mac(bytearray(key), message) == expected
        assert hmac_raw(fn.raw, fn.block_size, key, message) == expected


def test_hmac_known_answers():
    # Pinned from the stdlib-HMAC implementation these paths replaced;
    # the sha1 vector is the widely published one for this key and text.
    fox = b"The quick brown fox jumps over the lazy dog"
    assert get_hash("sha1").mac(b"key", fox).hex() == (
        "de7c9b85b8b78aa6bc8a7a36f70a90701c9db4d9"
    )
    assert get_hash("sha256").mac(b"k" * 100, b"msg").hex() == (
        "bd56a1782c2830e8abc6ed866a57a1230661e650b84c62f7ee3accc5fa5af491"
    )
    assert get_hash("mmo").mac(b"k" * 20, b"msg").hex() == (
        "b733114eca80905a1c93c11e4412b5c8"
    )
    assert get_hash("sha1-8").mac(b"k" * 70, b"msg").hex() == "c5ca7aba803dc679"


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


# -- the keyed-state entry (hashlib path) ------------------------------------

ENTRY_KEY_LENGTHS = [0, 1, 20, 64, 65, 200]
ENTRY_MESSAGES = [b"", b"m", bytes(range(256)) * 256]  # 0 B, 1 B, 64 KiB
RUNS = [1, 2, 3, 8, 64]


def entry_key(length, salt=0):
    return bytes((11 * i + 5 + salt) % 256 for i in range(length))


def assert_macs(fn, calls):
    """Each ``(key, message)`` MACs to :func:`hmac.digest`'s bytes and
    charges exactly one MAC op over the message, nothing else."""
    for key, message in calls:
        before = fn.counter.snapshot()
        tag = fn.mac(key, message, label="entry")
        spent = fn.counter.diff(before)
        assert tag == hmac.digest(bytes(key), message, fn.name)
        assert (spent.mac_ops, spent.mac_bytes, spent.hash_ops, spent.labels) == (
            1, len(message), 0, {"entry": 1},
        )


@pytest.mark.parametrize("name", ["sha1", "sha256"])
@pytest.mark.parametrize("key_length", ENTRY_KEY_LENGTHS)
@pytest.mark.parametrize("run", RUNS)
def test_runs_under_one_key(name, key_length, run):
    fn = get_hash(name)
    key = entry_key(key_length)
    for first in range(len(ENTRY_MESSAGES)):
        # Every message size at every position of the run.
        assert_macs(fn, [
            (key, ENTRY_MESSAGES[(first + i) % len(ENTRY_MESSAGES)])
            for i in range(run)
        ])
        # A fresh key after the run, so the next run starts over.
        assert_macs(fn, [(entry_key(key_length + 1, salt=first), b"m")])


@pytest.mark.parametrize("name", ["sha1", "sha256"])
@pytest.mark.parametrize("key_length", ENTRY_KEY_LENGTHS)
def test_alternating_keys(name, key_length):
    fn = get_hash(name)
    one, two = entry_key(key_length), entry_key(key_length, salt=1)
    message = ENTRY_MESSAGES[2]
    pattern = "1212" "1122" "111222" "12" "1111" "2" "1"
    assert_macs(fn, [(one if c == "1" else two, message[: 7 * i]) for i, c in
                     enumerate(pattern)])


@pytest.mark.parametrize("name", ["sha1", "sha256"])
@pytest.mark.parametrize("key_length", ENTRY_KEY_LENGTHS)
def test_equal_key_in_another_object(name, key_length):
    fn = get_hash(name)
    key = entry_key(key_length)
    twins = [key, bytes(bytearray(key)), bytearray(key), memoryview(key).tobytes()]
    if key_length > 1:
        assert twins[1] is not key
    assert_macs(fn, [(twins[i % len(twins)], ENTRY_MESSAGES[i % 3]) for i in range(12)])


@pytest.mark.parametrize("name", ["sha1", "sha256"])
def test_key_changed_in_place(name):
    fn = get_hash(name)
    key = bytearray(entry_key(20))
    assert_macs(fn, [(key, b"first"), (key, b"second")])
    key[0] ^= 1
    assert_macs(fn, [(key, b"third"), (key, b"fourth"), (key, b"fifth")])


@pytest.mark.parametrize("name", ["sha1", "sha256"])
def test_siblings_keep_their_own_entry(name):
    fn = get_hash(name)
    sibling = fn.with_counter(OpCounter())
    one, two = entry_key(20), entry_key(20, salt=1)
    for _ in range(3):
        assert_macs(fn, [(one, b"a")])
        assert_macs(sibling, [(two, b"b")])
    assert (fn.counter.mac_ops, sibling.counter.mac_ops) == (3, 3)
