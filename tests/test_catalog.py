import hashlib

from intervaldyn.catalog import LORENZ_BITS, _sturmian_bit, golden_lorenz_delta_mantissa


def _validate_golden_kneading(delta_mantissa: int, bits: int, n_check: int) -> None:
    """Replay the critical-value orbit exactly; its wrap bits must be Sturmian."""
    one = 1 << bits
    x = 0
    for n in range(n_check):
        x = (x >> 1) + delta_mantissa
        wrapped = 1 if x >= one else 0
        if wrapped:
            x -= one
        if wrapped != _sturmian_bit(n):
            raise RuntimeError(f"kneading validation failed at step {n}")


def test_golden_delta_pinned():
    # recorded from the enclosure search that the closed form replaced
    digest = hashlib.sha256(format(golden_lorenz_delta_mantissa(), "x").encode()).hexdigest()
    assert digest == "af6f28b7cf25e88942573638a391edaa09e4c16803bc3e769efc6788e8ba7ecb"
    assert golden_lorenz_delta_mantissa().bit_length() == LORENZ_BITS


def test_golden_delta_kneading_is_sturmian():
    _validate_golden_kneading(golden_lorenz_delta_mantissa(), LORENZ_BITS, int(LORENZ_BITS * 1.38))

