import pytest

from hiermem import refcheck as rc
from hiermem import tiersim as ts

RAM = ts.Tier("ram", bandwidth=12e9, fixed_latency=100e-6)
SSD = ts.Tier("ssd", bandwidth=2e9, fixed_latency=1e-3)
HDD = ts.Tier("hdd", bandwidth=150e6, fixed_latency=8e-3)


def test_level_latency_formula_and_empty_level():
    assert ts.level_latency(1_000_000, SSD, 2) == pytest.approx(1e-3 + 2e6 / 2e9)
    # blocked/absent levels transfer nothing, not even the fixed cost
    assert ts.level_latency(0, SSD, 2) == 0.0
    assert ts.level_latency(-5, SSD, 2) == 0.0


@pytest.mark.parametrize("mode", ts.MODES)
def test_load_latency_matches_oracle(mode):
    pl = ts.TierPlacement(tiers=(RAM, SSD, HDD))
    sizes = [50_000, 0, 3_000_000]
    got = ts.load_latency(sizes, pl, mode=mode)
    ref = rc.oracle_latency(
        [s * 4 for s in sizes],  # float32 banks
        [(t.bandwidth, t.fixed_latency) for t in pl.tiers],
        mode,
    )
    assert got["total"] == pytest.approx(ref, rel=1e-12)
    assert len(got["per_level"]) == 3
    assert got["per_level"][1] == 0.0


def test_hierarchical_beats_flat_slowest_tier():
    # split bank: small shallow blocks on fast tiers, big leaves on the slow one
    hier = ts.TierPlacement(tiers=(RAM, SSD, HDD))
    flat = ts.TierPlacement(tiers=(HDD,))
    sizes = [10_000, 80_000, 600_000]
    for mode in ts.MODES:
        h = ts.load_latency(sizes, hier, mode=mode)["total"]
        f = ts.load_latency([sum(sizes)], flat, mode=mode)["total"]
        assert h < f  # strict: the level sizes differ
    # degenerate equality: everything on one tier, one level
    same = ts.load_latency([sum(sizes)], ts.TierPlacement(tiers=(HDD,)))["total"]
    assert same == f


def test_session_reloads_only_changed_prefix_levels():
    pl = ts.TierPlacement(tiers=(RAM, SSD, HDD))
    sizes = [10_000, 80_000, 600_000]
    full = ts.load_latency(sizes, pl)["total"]
    deep = ts.level_latency(sizes[2], HDD, pl.bytes_per_param)
    out = ts.session_latency(sizes, pl, queries=[(1, 1, 1), (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 2)])
    pq = out["per_query"]
    assert pq[0] == pytest.approx(full)     # cold start loads every level
    assert pq[1] == 0.0                     # identical query is free
    assert pq[2] == pytest.approx(deep)     # only the leaf block swapped
    assert pq[3] == pytest.approx(full)     # level-1 change invalidates below
    assert pq[4] == pytest.approx(deep)     # levels 2 and 3 reload at once: the slower counts
    lat = [ts.level_latency(n, t, pl.bytes_per_param) for n, t in zip(sizes, pl.tiers)]
    assert out["per_level"] == pytest.approx([2 * lat[0], 3 * lat[1], 4 * lat[2]])
    assert out["total"] == pytest.approx(sum(pq))


def test_parse_tier_spec_roundtrip(tmp_path):
    spec = tmp_path / "tiers.ini"
    spec.write_text(
        "[tier.ram]\nbandwidth = 12e9\nfixed_latency = 100e-6\n"
        "[tier.ssd]\nbandwidth = 2e9\nfixed_latency = 1e-3\n"
        "[placement]\nlevel1 = ram\nlevel2 = ssd\n"
    )
    pl = ts.parse_tier_spec(spec)
    assert pl.depth == 2
    assert pl.tiers[0].name == "ram" and pl.tiers[1].name == "ssd"
    assert pl.tiers[1].fixed_latency == pytest.approx(1e-3)
    assert pl.bytes_per_param == 4  # the width of a float32 bank


def test_parse_tier_spec_errors(tmp_path):
    with pytest.raises(ts.TierError, match="cannot read"):
        ts.parse_tier_spec(tmp_path / "absent.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latency = 0\n")
    with pytest.raises(ts.TierError, match="placement"):
        ts.parse_tier_spec(bad)
    bad.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latency = 0\n[placement]\nlevel1 = nvme\n")
    with pytest.raises(ts.TierError, match="unknown tier"):
        ts.parse_tier_spec(bad)
    bad.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latency = 0\n[placement]\nlevel1 = ram\nlevel3 = ram\n")
    with pytest.raises(ts.TierError, match="level1..levelN"):
        ts.parse_tier_spec(bad)
    bad.write_text("[tier.ram]\nbandwidth = 0\nfixed_latency = 0\n[placement]\nlevel1 = ram\n")
    with pytest.raises(ts.TierError, match="bandwidth"):
        ts.parse_tier_spec(bad)
    # a misspelt key is refused, not silently left at a default
    bad.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latency = 0\n"
                   "[placement]\nlevel1 = ram\nbytes_per_parm = 4\n")
    with pytest.raises(ts.TierError, match="bytes_per_parm"):
        ts.parse_tier_spec(bad)
    bad.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latncy = 0\n[placement]\nlevel1 = ram\n")
    with pytest.raises(ts.TierError, match="fixed_latncy"):
        ts.parse_tier_spec(bad)
    # so is a section that is neither a tier nor the placement, even one no level uses
    bad.write_text("[tier.ram]\nbandwidth = 12e9\nfixed_latency = 0\n[tier-ssd]\nbandwidth = 1e9\n"
                   "[placement]\nlevel1 = ram\nlevel2 = ram\n")
    with pytest.raises(ts.TierError, match=r"unknown section \[tier-ssd\]"):
        ts.parse_tier_spec(bad)


def test_validation_errors():
    with pytest.raises(ts.TierError):
        ts.Tier("x", bandwidth=-1, fixed_latency=0)
    with pytest.raises(ts.TierError):
        ts.Tier("x", bandwidth=1, fixed_latency=-1)
    for bandwidth, latency in ((float("nan"), 0), (float("inf"), 0), (1, float("nan")), (1, float("inf"))):
        with pytest.raises(ts.TierError, match="finite"):
            ts.Tier("x", bandwidth=bandwidth, fixed_latency=latency)
    with pytest.raises(ts.TierError):
        ts.TierPlacement(tiers=())
    pl = ts.TierPlacement(tiers=(RAM, SSD))
    with pytest.raises(ts.TierError):
        ts.load_latency([1, 2, 3], pl)
    with pytest.raises(ts.TierError):
        ts.load_latency([1, 2], pl, mode="warp")
    with pytest.raises(ts.TierError):
        ts.session_latency([1, 2], pl, queries=[(1,)])

