import pytest

import eulerblowup.scenarios as scenarios
from eulerblowup.scenarios import PRESETS, certified_suite

# velocity amplitudes of the certified presets at 512 cells, frozen bit for bit;
# the general-radial ones as its closed-form horizon integral gives them
PINNED_AMP_V = {
    ("certified_linear_tau_case", 1.1): "0x1.06e4fa4d444fdp+5",
    ("certified_linear_infinite_case", 1.1): "0x1.b393e935113f2p+4",
    ("certified_power_radial_case", 1.1): "0x1.50977773e677cp+5",
    ("certified_general_radial_case", 1.1): "0x1.4b904100aabb1p+5",
    ("certified_general_1d_case", 1.1): "0x1.f725dc31007cap+4",
    ("certified_linear_tau_case", 1.5): "0x1.667e0f80a2f88p+5",
    ("certified_linear_infinite_case", 1.5): "0x1.28fc1f0145f0ep+5",
    ("certified_power_radial_case", 1.5): "0x1.cafd1740f474bp+5",
    ("certified_general_radial_case", 1.5): "0x1.c421cd00e8d08p+5",
    ("certified_general_1d_case", 1.5): "0x1.570e2d673a837p+5",
}


@pytest.mark.parametrize("builder, margin", list(PINNED_AMP_V))
def test_certified_amplitudes_are_pinned(builder, margin):
    case = getattr(scenarios, builder)(512, margin)
    assert case.scenario.amp_v.hex() == PINNED_AMP_V[builder, margin]
    assert case.scenario.grid.cells == 512


def test_presets_match_the_suite():
    for case in certified_suite(cells=512):
        assert PRESETS[case.name](512) == case.scenario
