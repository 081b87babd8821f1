"""Battery generation: coverage, dominance, frozen sizes."""

import pytest

from ylab.battery import (DIM_CAP, KERNEL_SPEC, dominant_battery,
                          is_dominant, mixed_battery, nu_family, rtt_battery,
                          word_battery)
from ylab.intertwiner import check_dominant


def test_nu_family_covers_sign_patterns():
    for n in (1, 2, 3):
        for m in (1, 2):
            fam = nu_family(n, m)
            assert len(set(fam)) == len(fam)
            assert any(all(d > 0 for d in nu) for nu in fam)
            assert any(all(d < 0 for d in nu) for nu in fam)
            assert any(0 in nu for nu in fam)
            assert any(n in nu for nu in fam)      # full-row degeneration
            assert any(-n in nu for nu in fam)
            if m == 2:
                assert any(a * b < 0 for nu in fam for a, b in [nu])


def test_nu_family_caps_rows():
    with pytest.raises(ValueError):
        nu_family(2, 3)


def test_rtt_battery_frozen_size():
    battery = rtt_battery()
    assert len(battery) == 356
    assert len(set(battery)) == 356
    assert all(s.m <= 2 and s.n <= 3 for s in battery)
    assert all(abs(z) <= 1 for s in battery for z in s.mu)
    assert max(s.dim for s in battery) <= 16


def test_dominant_battery():
    battery = dominant_battery()
    for spec in battery:
        check_dominant(spec)
        assert spec.dim <= DIM_CAP
        assert spec.m <= 3
    assert KERNEL_SPEC in battery
    assert any(spec.m == 3 for spec in battery)
    assert len(battery) == 316


def test_mixed_battery():
    battery = mixed_battery()
    assert battery
    for spec in battery:
        assert any(d < 0 for d in spec.nu)
    assert set(battery) <= set(dominant_battery())
    assert any(all(d < 0 for d in spec.nu) for spec in battery)
    assert any(min(spec.nu) < 0 < max(spec.nu) for spec in battery)


def test_word_battery():
    words = word_battery()
    assert set(words) == {3, 4}
    for m, specs in words.items():
        assert len(specs) >= 3
        for spec in specs:
            assert spec.m == m
            check_dominant(spec)
            assert is_dominant(spec)
