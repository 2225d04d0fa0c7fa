"""`build_phantom` refuses a rescale whose raw counts int16 cannot hold."""

import re

import pytest

from bodycomp import build_phantom


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "slope, intercept",
    [
        (0.0, -1024.0),  # no inverse
        (0.001, -1024.0),  # air is raw -1000 / 0.001 + 1024000, past int16
        (float("nan"), -1024.0),
        (1.0, float("nan")),
    ],
)
def test_a_rescale_int16_cannot_hold_is_refused_before_any_array(slope, intercept):
    rescale = f"rescale slope {slope!r}, intercept {intercept!r}"
    with pytest.raises(ValueError, match=re.escape(rescale)):
        build_phantom(nx=48, ny=48, nz=30, rescale_slope=slope, rescale_intercept=intercept)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "intercept, tissue, raw",
    [(-32467.0, "bone", 32767), (31768.0, "air", -32768)],  # slope 1: raw is HU - intercept
)
def test_raw_counts_at_the_ends_of_int16_are_kept_and_one_past_refused(intercept, tissue, raw):
    ph = build_phantom(nx=24, ny=24, nz=8, rescale_intercept=intercept)
    assert raw in ph.ct.values
    past = intercept + (1.0 if raw < 0 else -1.0)
    with pytest.raises(ValueError, match=f"the raw value of {tissue} is outside int16"):
        build_phantom(nx=24, ny=24, nz=8, rescale_intercept=past)
