"""Cost model: published memory cells exactly, and closed form vs the
instrumented counter with exact integer equality."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.attention import ExpertFlags
from switchlab.costmodel import CostInputs, cost_attention, human, measure
from switchlab.moe import ConfigError


def reports_equal(want, got):
    return (want.macs == got.macs and want.mem_floats == got.mem_floats
            and dict(want.terms) == dict(got.terms)
            and dict(want.extras) == dict(got.extras)
            and want.score_matrices == got.score_matrices)


# -- published table cells -------------------------------------------------


@pytest.mark.parametrize("H,T,dh,want,disp", [
    (10, 256, 41, 3_461_120, "3.5M"),
    (16, 512, 64, 20_971_520, "21.0M"),
    (8, 512, 64, 10_485_760, "10.5M"),
])
def test_xl_memory_cells(H, T, dh, want, disp):
    rep = cost_attention(CostInputs("dense", H, T, dh, 412, C=2))
    assert rep.mem_floats == want
    assert human(rep.mem_floats) == disp


@pytest.mark.parametrize("T,dh,want,disp", [
    (256, 76, 757_760, "0.8M"),
    (512, 112, 2_785_280, "2.8M"),
    (512, 132, 2_908_160, "2.9M"),
])
def test_switchhead_memory_cells_shared_pos(T, dh, want, disp):
    ci = CostInputs("switchhead", 2, T, dh, 412, C=2, E=5, k_active=2)
    rep = cost_attention(ci)
    assert rep.mem_floats == want
    assert human(rep.mem_floats) == disp


def test_xl_mac_formula_cells():
    # 47M-scale compute cells round to the published 453.4M
    rep = cost_attention(CostInputs("dense", 10, 256, 41, 412, C=2))
    H, T, dh, dm, C = 10, 256, 41, 412, 2
    assert rep.macs == H * (4 * T * dh * dm + 2 * C * T * T * dh + 2 * C * T * dh * dm)
    assert human(rep.macs) == "453.4M"


def test_switchhead_mac_formula_vo_flags():
    ci = CostInputs("switchhead", 2, 256, 76, 412, C=2, E=5, k_active=2)
    rep = cost_attention(ci)
    H, T, dh, dm, C, K = 2, 256, 76, 412, 2, 2
    shared_pos_macs = 2 * C * T * dh * dm
    per_head = (2 * T * dh * dm + 2 * T * K * dh * (dm + 1)
                + 2 * C * T * T * dh + 2 * C * T * dh * dm)
    assert rep.macs == H * per_head - (H - 1) * shared_pos_macs


def test_moa_formulas_and_attention_matrix_term():
    ci = CostInputs("moa", 8, 256, 64, 412, C=2, E=10, k_active=8)
    rep = cost_attention(ci)
    H, T, dh, dm, C = 8, 256, 64, 412, 2
    assert rep.macs == ((2 * H + 2) * T * dh * dm + 2 * H * C * T * T * dh
                        + 2 * C * T * dh * dm)
    assert rep.mem_floats == ((2 * H + 2) * T * dh + 2 * H * C * T * T
                              + 2 * C * T * dh)
    assert rep.terms["scores"][1] == 2_097_152   # dominates the published 2.6M


def test_moa_memory_affine_in_heads():
    T, dh, dm, C = 64, 8, 32, 2
    mems = [cost_attention(CostInputs("moa", H, T, dh, dm, C=C, E=8, k_active=H)).mem_floats
            for H in (1, 2, 3)]
    slope = 2 * T * dh + 2 * C * T * T
    assert mems[1] - mems[0] == slope
    assert mems[2] - mems[1] == slope


def test_switchhead_cheaper_than_matched_dense():
    # resource-level central claim: for H_dense = H_sh * E pairings at the
    # published geometry, SwitchHead costs less in both macs and mem
    for H_sh, E, dh_sh, H_d, dh_d, T in [(2, 5, 76, 10, 41, 256),
                                         (2, 8, 112, 16, 64, 512),
                                         (2, 4, 132, 8, 64, 512)]:
        sh = cost_attention(CostInputs("switchhead", H_sh, T, dh_sh, 412,
                                       C=2, E=E, k_active=2))
        xl = cost_attention(CostInputs("dense", H_d, T, dh_d, 412, C=2))
        assert sh.macs < xl.macs
        assert sh.mem_floats < xl.mem_floats


# -- counter vs closed form ------------------------------------------------


def _random_cases():
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(12):  # dense / moa random tiny configs
        T = int(rng.integers(1, 9))
        dh = int(rng.integers(1, 9))
        dm = int(rng.integers(2, 17))
        pos = str(rng.choice(["xl_relative", "none", "rope"]))
        C = 1 if pos == "rope" else int(rng.integers(1, 4))
        if pos == "rope" and dh % 2:
            dh += 1
        if rng.random() < 0.5:
            cases.append(CostInputs("dense", int(rng.integers(1, 4)), T, dh, dm,
                                    C=C, position=pos))
        else:
            E = int(rng.integers(1, 5))
            K = int(rng.integers(1, E + 1))
            cases.append(CostInputs("moa", K, T, dh, dm, C=C, E=E, k_active=K,
                                    position=pos))
    for pos, C in (("xl_relative", 2), ("rope", 1), ("none", 1)):
        for flags in product([False, True], repeat=4):  # all 16 expert-flag combos
            f = ExpertFlags(*flags)
            E = 3 if f.any() else 1
            K = 2 if f.any() else 1
            cases.append(CostInputs("switchhead", 2, 3, 4, 8, C=C, E=E,
                                    k_active=K, expert_flags=f, position=pos))
        for f in (ExpertFlags.value_output(), ExpertFlags(v=True, k=True, q=True, o=True)):
            # dh > dm: every routed role gates its dm-wide side
            cases.append(CostInputs("switchhead", 2, 3, 8, 4, C=C, E=3, k_active=2,
                                    expert_flags=f, position=pos))
    for _ in range(8):  # head-gated: k of H heads gated into O
        T = int(rng.integers(1, 9))
        dh = 2 * int(rng.integers(1, 5))
        dm = int(rng.integers(2, 17))
        pos = str(rng.choice(["xl_relative", "none", "rope"]))
        C = 1 if pos == "rope" else int(rng.integers(1, 4))
        H = int(rng.integers(1, 5))
        cases.append(CostInputs("head_gated", H, T, dh, dm, C=C,
                                k_active=int(rng.integers(1, H + 1)), position=pos))
    return cases


def test_measure_equals_closed_form_on_random_configs():
    cases = _random_cases()
    assert len(cases) >= 20
    for ci in cases:
        want = cost_attention(ci)
        got = measure(ci)
        assert reports_equal(want, got), ci


@settings(max_examples=200, deadline=None)
@given(variant=st.sampled_from(["dense", "head_gated", "switchhead", "moa"]),
       position=st.sampled_from(["xl_relative", "rope", "none"]),
       H=st.integers(0, 3), T=st.integers(1, 4), dh=st.integers(1, 5), dm=st.integers(1, 8),
       C=st.integers(1, 3), E=st.integers(1, 4), k=st.integers(1, 4),
       flags=st.tuples(*[st.booleans()] * 4))
def test_closed_form_fails_exactly_where_measure_does(variant, position, H, T, dh, dm, C,
                                                      E, k, flags):
    # one validator: an invalid row (zero heads, rope with a cache or an
    # odd d_head, K > E, K > H, ...) is a ConfigError on both paths
    ci = CostInputs(variant, H, T, dh, dm, C=C, E=E, k_active=k,
                    expert_flags=ExpertFlags(*flags), position=position)
    reports = []
    for cost in (cost_attention, measure):
        try:
            reports.append(cost(ci))
        except ConfigError:
            reports.append(None)
    want, got = reports
    assert (want is None) == (got is None), ci
    assert want is None or reports_equal(want, got), ci


def test_terms_sum_to_headline():
    for ci in _random_cases()[:8]:
        rep = cost_attention(ci)
        rep.check()
        assert rep.macs == sum(m for m, _ in rep.terms.values())
        assert rep.mem_floats == sum(v for _, v in rep.terms.values())


def test_selection_cost_itemized_outside_headline():
    ci = CostInputs("switchhead", 2, 4, 4, 8, C=1, E=4, k_active=2,
                    position="none")
    rep = measure(ci)
    assert "selection" in rep.extras
    assert rep.extras["selection"][0] > 0
    # headline equals the closed form, which has no selection term
    assert rep.macs == cost_attention(ci).macs


def test_cost_input_validation():
    with pytest.raises(ConfigError):
        CostInputs("dense", 0, 4, 4, 8).validate()
    with pytest.raises(ConfigError):
        CostInputs("dense", 1, 4, 4, 8, C=2, position="rope").validate()
    with pytest.raises(ConfigError):
        cost_attention(CostInputs("mystery", 1, 4, 4, 8))


def test_human_rounding():
    assert human(3_461_120) == "3.5M"
    assert human(2_801_795_072) == "2.8G"
    assert human(999) == "999"
    assert human(453_427_200) == "453.4M"
