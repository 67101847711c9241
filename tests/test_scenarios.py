import math

import pytest

import eulerblowup.scenarios as scenarios
from eulerblowup.criteria import prepare
from eulerblowup.scenarios import CERTIFIED_PRESETS, PRESETS, certified_case, certified_suite

# velocity amplitudes of the certified presets at 512 cells, frozen bit for bit;
# the general-radial ones as its closed-form horizon integral gives them, the
# general-1d ones as the Gauss-Legendre H(0) of its prepared criterion gives them
PINNED_AMP_V = {
    ("certified_linear_tau_case", 1.1): "0x1.06e4fa4d444fdp+5",
    ("certified_linear_infinite_case", 1.1): "0x1.b393e935113f2p+4",
    ("certified_power_radial_case", 1.1): "0x1.50977773e677cp+5",
    ("certified_general_radial_case", 1.1): "0x1.4b904100aabb1p+5",
    ("certified_general_1d_case", 1.1): "0x1.f725dc32477d2p+4",
    ("certified_linear_tau_case", 1.5): "0x1.667e0f80a2f88p+5",
    ("certified_linear_infinite_case", 1.5): "0x1.28fc1f0145f0ep+5",
    ("certified_power_radial_case", 1.5): "0x1.cafd1740f474bp+5",
    ("certified_general_radial_case", 1.5): "0x1.c421cd00e8d08p+5",
    ("certified_general_1d_case", 1.5): "0x1.570e2d6819782p+5",
}


@pytest.mark.parametrize("builder, margin", list(PINNED_AMP_V))
def test_certified_amplitudes_are_pinned(builder, margin):
    case = getattr(scenarios, builder)(512, margin)
    assert case.scenario.amp_v.hex() == PINNED_AMP_V[builder, margin]
    assert case.scenario.grid.cells == 512


def test_presets_match_the_suite():
    for case in certified_suite(cells=512):
        assert PRESETS[case.name](512) == case.scenario


@pytest.mark.parametrize("margin", [1.1, 1.5])
@pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
def test_certified_momentum_sits_at_the_margin(name, margin):
    # H(0) and the threshold of the criterion that certifies the preset
    case = certified_case(name, 512, margin)
    report = prepare(case.scenario, case.family, case.f, case.a).report(case.tau)
    assert abs(report.inputs["H0"] / report.threshold - margin) <= 2 * math.ulp(margin)


@pytest.mark.parametrize("margin", [1.1, 1.5])
@pytest.mark.parametrize("name", sorted(CERTIFIED_PRESETS))
def test_certified_amplitude_reads_no_grid(name, margin):
    # the amplitude is computed once per preset name, whatever the grid
    amps = {certified_case(name, cells, margin).scenario.amp_v.hex() for cells in (512, 1024, 8192)}
    assert len(amps) == 1
