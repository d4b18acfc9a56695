import pytest

from grunits.chardata import psl33_slice
from grunits.oracle import (
    TooLarge,
    cached_group,
    check_square_criterion,
    enumerate_group,
    psl2_oracle,
)


def test_psl2_9_order_and_classes():
    g = cached_group("psl2", 9)
    assert g.order == 360
    classes = g.order_p_classes(3)
    assert sorted(size for _rep, size in classes) == [40, 40]


def test_psl2_25_order():
    assert cached_group("psl2", 25).order == 7800


def test_psl3_order_and_classes():
    g = cached_group("psl3", 3)
    assert g.order == 5616
    sizes = sorted(size for _rep, size in g.order_p_classes(3))
    assert sizes == [104, 624]
    # must match the shipped character data
    t = psl33_slice()
    assert sorted(c.class_size for c in t.classes if c.id != "1") == sizes


def test_full_partition_psl2_9():
    g = cached_group("psl2", 9)
    partition = g.full_class_partition()
    assert sum(size for _rep, size in partition) == 360


def test_exponent_psl2_9():
    assert cached_group("psl2", 9).exponent() == 60


@pytest.mark.parametrize("p", [3, 5])
def test_square_criterion(p):
    assert check_square_criterion(p)


def test_too_large_guard():
    with pytest.raises(TooLarge):
        psl2_oracle(11)


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("GRS_DATA_DIR", str(tmp_path))
    g1 = enumerate_group("psl2", 9)
    assert (tmp_path / "psl2_9.txt").exists()
    g2 = enumerate_group("psl2", 9)  # reads the cache
    assert g2.order == g1.order == 360
    g3 = enumerate_group("psl2", 9, refresh=True)
    assert g3.order == 360


@pytest.mark.parametrize("damage", ["truncate", "corrupt"])
def test_damaged_cache_is_rebuilt(damage, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRS_DATA_DIR", str(tmp_path))
    cache = tmp_path / "psl2_9.txt"
    enumerate_group("psl2", 9)
    lines = cache.read_text().splitlines(keepends=True)
    if damage == "truncate":
        cache.write_text("".join(lines[:100]))
    else:
        cache.write_text("".join(lines[:-1]) + "1 2 x\n")
    assert enumerate_group("psl2", 9).order == 360
    assert "rebuilding" in capsys.readouterr().err
    assert cache.read_text().splitlines(keepends=True) == lines
