"""Deterministic random generation."""

import hashlib
import hmac

import pytest

from repro.crypto.drbg import DRBG, SystemRandomSource

#: Draw lengths around the 32-byte block and at exchange size: the
#: verifier draws 32 bytes per message of a reliable exchange at once.
DRAW_LENGTHS = (0, 1, 16, 31, 32, 33, 64, 65, 100, 256, 2048, 4096)


class ReferenceDRBG:
    """The HMAC-DRBG written over :func:`hmac.new`, sharing no code with
    :class:`DRBG`: every chain seed, nonce and (n)ack secret comes from
    the production stream, so it must match this one byte for byte."""

    def __init__(self, seed, personalization=b""):
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self.key = b"\x00" * 32
        self.value = b"\x01" * 32
        self.update(seed + b"|" + personalization)

    def hmac(self, data):
        return hmac.new(self.key, data, hashlib.sha256).digest()

    def update(self, provided=b""):
        self.key = self.hmac(self.value + b"\x00" + provided)
        self.value = self.hmac(self.value)
        if provided:
            self.key = self.hmac(self.value + b"\x01" + provided)
            self.value = self.hmac(self.value)

    def random_bytes(self, n):
        out = b""
        while len(out) < n:
            self.value = self.hmac(self.value)
            out += self.value
        self.update()
        return out[:n]

    def fork(self, label):
        if isinstance(label, str):
            label = label.encode("utf-8")
        return ReferenceDRBG(self.random_bytes(32), personalization=label)


class TestReferenceStream:
    @pytest.mark.parametrize("seed", [0, 7, 2**70 + 3, "", "alpha", b"", b"\x00" * 32])
    @pytest.mark.parametrize("personalization", [b"", b"relay", b"x" * 80])
    def test_matches_hmac_new_reference(self, seed, personalization):
        fast = DRBG(seed, personalization=personalization)
        slow = ReferenceDRBG(seed, personalization=personalization)
        for n in DRAW_LENGTHS:
            assert fast.random_bytes(n) == slow.random_bytes(n)

    def test_fork_matches_reference(self):
        fast, slow = DRBG("parent"), ReferenceDRBG("parent")
        for label in ("a", b"b", "a"):
            fast_child, slow_child = fast.fork(label), slow.fork(label)
            for n in DRAW_LENGTHS:
                assert fast_child.random_bytes(n) == slow_child.random_bytes(n)
            assert fast.random_bytes(16) == slow.random_bytes(16)

    def test_known_answers(self):
        # Pinned from the hmac.new-based implementation.
        rng = DRBG(7)
        lengths = (0, 1, 16, 32, 33, 100)
        assert b"".join(rng.random_bytes(n) for n in lengths).hex() == (
            "c3ee0b311be49172f2c04649897eb69b5cffc7d83eee46a004aa28c9319a80af"
            "9833d4eae025402424599623fb2f1ccf13225baefdff136b4e3d7b805ebdc58e"
            "431aa26c51655b76209cd242a9cca72d7f3ca3bd01550218082659cbf67fac77"
            "6b00b047ef819cf5e804f808ad53cc29202b637fae3024bd92a16ac2f9de1211"
            "5fc833ffa87d655aed0991e2a7d635074164a7d1b13c8bd559c2b500dec055b3"
            "aa0cd1a552804d95fb149340ef6da071e9fc67031b13"
        )
        assert DRBG(42).random_bytes(33).hex() == (
            "46ccb0f75091a1ef71c900f2b6f409727524bd57b758388c5c81268d56c0f2d6c2"
        )
        assert DRBG("alpha", personalization=b"relay").random_bytes(32).hex() == (
            "54ec193a4ed9c9e20dd0a5dc13c834248ab2846647e64768e7abd232977a86c7"
        )
        assert DRBG(b"seed-bytes").random_bytes(16).hex() == (
            "3e35a9d422950ba74f9cdf14546a93f6"
        )
        child = DRBG("alpha-seed", personalization=b"amt").fork("relay")
        assert child.random_bytes(33).hex() == (
            "9145a451431fd1232e1ecee254af7cc650a94d5292a3d7abeb269155a94424a02d"
        )
        parent = DRBG(5)
        assert parent.fork("x").random_bytes(16).hex() == (
            "ee60fdee0e4a30fa3351902f83c0b91d"
        )
        assert parent.random_bytes(16).hex() == "ec0c8cb49c2cdca04a7f4fd6d52f7bd8"

    def test_multi_block_known_answers(self):
        # Pinned from the per-block HMAC implementation: three- and
        # 128-block draws, each followed by a draw after its state update.
        rng = DRBG("exchange", personalization=b"verifier")
        assert rng.random_bytes(96).hex() == (
            "f75459c4a10778873cb5f8a2fc20cc2c14da58a4b9bac0fb669036addfe69402"
            "b240116048d8321f7af513c2fbb12f494c5b54ff8f8e13cb55aa104f340295a0"
            "c0bb4461f64e30f0b8ef4a99f02e2b918983fc6df4a557462321e400609182a2"
        )
        assert rng.random_bytes(16).hex() == "2b2de65d04c392645d2173292f8ded8a"
        assert hashlib.sha256(rng.random_bytes(4096)).hexdigest() == (
            "4325ee049e0b2e11d8bc99e693a596c90cf80d7fd7e55635e0e17683fd529a41"
        )
        assert rng.random_bytes(16).hex() == "6d46799ac5e42baa82e982c5f218e9b6"


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = DRBG(42), DRBG(42)
        assert a.random_bytes(100) == b.random_bytes(100)

    def test_different_seeds_differ(self):
        assert DRBG(1).random_bytes(32) != DRBG(2).random_bytes(32)

    def test_seed_types(self):
        # int and str seeds map to different byte encodings; a str seed
        # and its UTF-8 bytes are equivalent by design.
        assert DRBG(7).random_bytes(16) != DRBG("7").random_bytes(16)
        assert DRBG("7").random_bytes(16) == DRBG(b"7").random_bytes(16)

    def test_personalization_separates(self):
        a = DRBG(1, personalization=b"alpha")
        b = DRBG(1, personalization=b"beta")
        assert a.random_bytes(32) != b.random_bytes(32)

    def test_fork_independence(self):
        parent = DRBG(5)
        child1 = parent.fork("a")
        child2 = parent.fork("a")  # forked later -> different state
        assert child1.random_bytes(16) != child2.random_bytes(16)

    def test_fork_reproducible(self):
        c1 = DRBG(5).fork("x").random_bytes(16)
        c2 = DRBG(5).fork("x").random_bytes(16)
        assert c1 == c2


class TestDistributions:
    def test_random_int_bit_length(self):
        rng = DRBG(9)
        for bits in (1, 8, 160, 1024):
            value = rng.random_int(bits)
            assert value.bit_length() == bits

    def test_random_below_range(self):
        rng = DRBG(10)
        for _ in range(200):
            assert 0 <= rng.random_below(7) < 7

    def test_random_below_covers_all_values(self):
        rng = DRBG(11)
        seen = {rng.random_below(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_random_range(self):
        rng = DRBG(12)
        for _ in range(100):
            assert 10 <= rng.random_range(10, 13) < 13

    def test_uniform_bounds(self):
        rng = DRBG(13)
        values = [rng.uniform(2.0, 3.0) for _ in range(500)]
        assert all(2.0 <= v < 3.0 for v in values)
        assert 2.4 < sum(values) / len(values) < 2.6

    def test_expovariate_positive_and_mean(self):
        rng = DRBG(14)
        values = [rng.expovariate(2.0) for _ in range(2000)]
        assert all(v >= 0 for v in values)
        mean = sum(values) / len(values)
        assert 0.4 < mean < 0.6  # true mean 0.5

    def test_choice_and_shuffle(self):
        rng = DRBG(15)
        items = list(range(10))
        assert rng.choice(items) in items
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_bytes_roughly_uniform(self):
        data = DRBG(16).random_bytes(20000)
        ones = sum(bin(b).count("1") for b in data)
        assert abs(ones / (len(data) * 8) - 0.5) < 0.01


class TestValidation:
    def test_negative_byte_count(self):
        with pytest.raises(ValueError):
            DRBG(1).random_bytes(-1)

    def test_zero_bits(self):
        with pytest.raises(ValueError):
            DRBG(1).random_int(0)

    def test_empty_bound(self):
        with pytest.raises(ValueError):
            DRBG(1).random_below(0)

    def test_empty_range(self):
        with pytest.raises(ValueError):
            DRBG(1).random_range(5, 5)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            DRBG(1).expovariate(0)

    def test_empty_choice(self):
        with pytest.raises(ValueError):
            DRBG(1).choice([])


class TestSystemSource:
    def test_random_bytes_length(self):
        assert len(SystemRandomSource().random_bytes(33)) == 33

    def test_random_below(self):
        src = SystemRandomSource()
        assert all(0 <= src.random_below(4) < 4 for _ in range(50))

    def test_random_below_validates(self):
        with pytest.raises(ValueError):
            SystemRandomSource().random_below(0)
