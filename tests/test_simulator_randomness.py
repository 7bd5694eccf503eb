"""Named deterministic random streams."""

from repro.simulator import RngStreams
from repro.simulator.randomness import derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "traces") == derive_seed(42, "traces")

    def test_name_sensitivity(self):
        assert derive_seed(42, "traces") != derive_seed(42, "placement")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "traces") != derive_seed(2, "traces")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "anything")
        assert 0 <= seed < 2**64


class TestRngStreams:
    def test_same_name_returns_same_stream(self):
        streams = RngStreams(7)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RngStreams(7)
        a = streams.get("a")
        b = streams.get("b")
        assert a is not b
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_stream_sequences_reproducible_across_instances(self):
        first = RngStreams(9).get("x")
        second = RngStreams(9).get("x")
        assert [first.random() for _ in range(8)] == [
            second.random() for _ in range(8)
        ]

    def test_adding_a_stream_does_not_perturb_existing(self):
        plain = RngStreams(5)
        value_without = plain.get("primary").random()
        mixed = RngStreams(5)
        mixed.get("other").random()  # extra stream created first
        assert mixed.get("primary").random() == value_without

