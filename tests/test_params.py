import numpy as np
import pytest

from egn.config import ModelConfig
from egn.params import (
    ModelParams,
    init_params,
    load_params,
    param_specs,
    save_params,
)


def test_init_deterministic_and_bounded():
    cfg = ModelConfig(variant="gemnet-style", seed=11)
    a = init_params(cfg)
    b = init_params(cfg)
    for name in a.arrays:
        np.testing.assert_array_equal(a.arrays[name], b.arrays[name])
    specs = {s.name: s for s in param_specs(cfg)}
    for name, arr in a.arrays.items():
        bound = 1.0 / np.sqrt(specs[name].fan_in)
        assert np.all(np.abs(arr) <= bound)


def test_different_seed_differs():
    cfg = ModelConfig()
    a = init_params(cfg)
    b = init_params(cfg.replace(seed=1))
    assert any(not np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)


def test_specs_cover_both_variants():
    dime = {s.name for s in param_specs(ModelConfig(variant="dimenet-style"))}
    gem = {s.name for s in param_specs(ModelConfig(variant="gemnet-style"))}
    assert "force_head.w" in gem and "force_head.w" not in dime
    assert "block0.sym.w" in gem and "block0.sym.w" not in dime
    assert "block0.tu.bilinear_a" in gem and "block0.tu.bilinear_a" not in dime
    assert "energy_head.b" in dime and "energy_head.b" in gem


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_container_roundtrip_bit_exact(tmp_path, variant):
    cfg = ModelConfig(variant=variant, blocks=3, d_u=2, d_v=3, d_e=4, d_t=2, d_bil=2, seed=5)
    params = init_params(cfg)
    path = tmp_path / "model.egn"
    save_params(params, path)
    loaded = load_params(path, cfg)
    assert loaded.config.variant == variant
    assert loaded.config.blocks == 3
    for name in params.arrays:
        np.testing.assert_array_equal(loaded.arrays[name], params.arrays[name])
    # byte-stable: saving the loaded params reproduces the file exactly
    path2 = tmp_path / "model2.egn"
    save_params(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_container_magic_and_truncation(tmp_path):
    cfg = ModelConfig()
    params = init_params(cfg)
    path = tmp_path / "model.egn"
    save_params(params, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.egn"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ValueError):
        load_params(bad, cfg)

    short = tmp_path / "short.egn"
    short.write_bytes(blob[:-16])
    with pytest.raises(ValueError):
        load_params(short, cfg)


@pytest.mark.parametrize("field, value", [("blocks", 3), ("variant", "gemnet-style")])
def test_container_header_must_match_config(tmp_path, field, value):
    cfg = ModelConfig()
    path = tmp_path / "model.egn"
    save_params(init_params(cfg), path)
    with pytest.raises(ValueError, match=f"disagree on {field}$"):
        load_params(path, cfg.replace(**{field: value}))


def test_validate_catches_wrong_shapes():
    cfg = ModelConfig()
    params = init_params(cfg)
    arrays = dict(params.arrays)
    arrays["edge_init.w"] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        ModelParams(cfg, arrays).validate()


def test_num_params_counts_everything():
    cfg = ModelConfig()
    params = init_params(cfg)
    assert params.num_params() == sum(a.size for a in params.arrays.values())
