import numpy as np
import pytest

from egn import system as system_module
from egn.system import AtomicSystem, XyzParseError, format_xyz, parse_xyz, random_cloud

from conftest import min_pair_distance


def test_parse_dimer():
    system = parse_xyz("2\ndimer\nH 0 0 0\nH 0 0 1.0")
    assert system.n == 2
    assert list(system.atomic_numbers) == [1, 1]
    np.testing.assert_array_equal(system.positions, [[0, 0, 0], [0, 0, 1.0]])


def test_parse_single_atom():
    system = parse_xyz("1\n\nCu 1.5 0 0")
    assert system.n == 1
    assert system.atomic_numbers[0] == 29


def test_parse_unknown_symbol_reports_line():
    with pytest.raises(XyzParseError) as info:
        parse_xyz("2\n\nXx 0 0 0\nH 0 0 1")
    assert info.value.line == 3
    assert "Xx" in str(info.value)


def test_parse_malformed_count():
    with pytest.raises(XyzParseError) as info:
        parse_xyz("two\n\nH 0 0 0")
    assert info.value.line == 1


def test_parse_non_numeric_coordinate():
    with pytest.raises(XyzParseError) as info:
        parse_xyz("1\n\nH 0 zero 0")
    assert info.value.line == 3


def test_parse_duplicate_positions_reports_second_line():
    with pytest.raises(XyzParseError) as info:
        parse_xyz("3\n\nH 0 0 0\nH 1 0 0\nH 0 0 0")
    assert info.value.line == 5


def test_parse_missing_atom_lines():
    with pytest.raises(XyzParseError):
        parse_xyz("3\n\nH 0 0 0\nH 0 0 1")


def test_parse_trailing_garbage_rejected():
    with pytest.raises(XyzParseError):
        parse_xyz("1\n\nH 0 0 0\nstray line")


def test_parse_case_sensitive_symbols():
    with pytest.raises(XyzParseError):
        parse_xyz("1\n\nh 0 0 0")


def test_xyz_roundtrip():
    system = parse_xyz("3\nwater-ish\nO 0 0 0\nH 0.96 0 0\nH -0.24 0.93 0")
    again = parse_xyz(format_xyz(system, comment="roundtrip"))
    np.testing.assert_array_equal(system.positions, again.positions)
    np.testing.assert_array_equal(system.atomic_numbers, again.atomic_numbers)


def test_system_validation():
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        AtomicSystem(np.zeros((1, 3)), np.array([0]))
    with pytest.raises(ValueError, match="atomic number 119 exceeds"):
        AtomicSystem(np.zeros((1, 3)), np.array([119]))
    with pytest.raises(ValueError):
        AtomicSystem(np.array([[0.0, 0, 0], [0, 0, 5e-13]]), np.array([1, 1]))


def test_random_cloud_min_distance_and_determinism():
    a = random_cloud(30, 1.0, np.random.default_rng(5))
    b = random_cloud(30, 1.0, np.random.default_rng(5))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.atomic_numbers, b.atomic_numbers)
    assert min_pair_distance(a.positions) >= 0.8 * 1.0 ** (-1 / 3)


@pytest.mark.parametrize("density", [np.nan, np.inf])
def test_random_cloud_rejects_non_finite_density(density):
    with pytest.raises(ValueError, match="density must be finite and positive"):
        random_cloud(5, density, np.random.default_rng(0))


def test_random_cloud_impossible_packing(monkeypatch):
    # The packing fraction of a cloud does not depend on n or density, and
    # 500 tries per atom place these 200 atoms, so shrink the budget.
    monkeypatch.setattr(system_module, "_TRIES_PER_ATOM", 20)
    with pytest.raises(RuntimeError, match=r"could not place atom \d+/200 .* after 20 tries"):
        random_cloud(200, 1e6, np.random.default_rng(0))


@pytest.mark.parametrize(
    "pos",
    [
        [[0.0, 0, 0], [0, 0, 1e-12]],  # exactly at the separation limit
        [[0.0, 0, 0], [0, 0, 2e-12]],
        [[1e9, 0, 0], [0.0, 0, 0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5 + 5e-13]],
        [[1e9, 0, 0], [0.0, 0, 0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5 + 5e-12]],
        [[1e6, 1e6, 1e6], [1e6, 1e6, 1e6 + 1.0], [1e6, 1e6, 1e6]],
    ],
)
def test_coincident_check_agrees_with_min_pair_distance(pos):
    pos = np.array(pos)
    coincident = min_pair_distance(pos) <= 1e-12
    if coincident:
        with pytest.raises(ValueError, match="identical coordinates"):
            AtomicSystem(pos, np.ones(len(pos), dtype=np.int64))
    else:
        AtomicSystem(pos, np.ones(len(pos), dtype=np.int64))


def test_parse_non_finite_coordinate_reports_line():
    with pytest.raises(XyzParseError) as info:
        parse_xyz("2\n\nH 0 0 0\nH nan 0 1")
    assert info.value.line == 4
