import numpy as np
import pytest

from pqf.rng import gaussian, make_rng


def _concatenated_box_muller(rng, shape):
    """The two-array Box-Muller `gaussian` replaced, kept as its bit-level oracle."""
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])
    return z[:n].reshape(shape)


@pytest.mark.parametrize("shape", [(), (1,), (2,), (7,), (8,), (0,), (3, 5), (4, 6), (1001, 9)])
def test_gaussian_is_bit_identical_to_the_concatenated_formula(shape):
    want = _concatenated_box_muller(make_rng(3, "normals"), shape)
    rng = make_rng(3, "normals")
    got = gaussian(rng, shape)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a second draw from the same generator continues the same stream
    assert gaussian(rng, shape).tobytes() == _concatenated_box_muller(
        _after(make_rng(3, "normals"), shape), shape
    ).tobytes()

    buf = np.full(shape, np.nan)
    assert gaussian(make_rng(3, "normals"), shape, out=buf) is buf
    assert buf.tobytes() == want.tobytes()


def _after(rng, shape):
    _concatenated_box_muller(rng, shape)
    return rng


@pytest.mark.parametrize(
    "buf", [np.zeros((3, 4), np.float32), np.zeros((4, 3)).T, np.zeros(11), np.zeros((4, 3))]
)
def test_gaussian_rejects_a_buffer_that_cannot_hold_the_normals(buf):
    with pytest.raises(ValueError):
        gaussian(make_rng(0), (3, 4), out=buf)
