from dataclasses import fields

import pytest

from thzplan import config as cfgmod
from thzplan.geometry import Room
from thzplan.simulation import ConfigError, SimConfig


@pytest.mark.parametrize("value", [True, False])
def test_boolean_blockage_override_is_honoured(value):
    cfg, settings = cfgmod.load_config(overrides={"blockage": value})
    assert cfg.blockage_enabled is value
    assert settings["blockage"] == ("on" if value else "off")


def test_unreadable_blockage_override_names_field():
    with pytest.raises(ConfigError, match="^blockage:"):
        cfgmod.load_config(overrides={"blockage": 2})


# (file text, field the error must name); each is rejected at load time
BAD_CONFIGS = [
    ("[radio]\nfrequency_ghz = 300\n", "frequency_ghz"),
    ("[users]\nn_users = 2.5\n", "n_users"),
    ("[simulation]\nh_override_m = 0\n", "h_override_m"),
    ("[placement]\nplacement_type = D\n", "placement_type"),
    ("[simulation]\nduration_s = nan\n", "duration_s"),
    ("[radio]\np_o_dbm = nan\n", "p_o_dbm"),
    ("[room]\nroom_l_m = inf\n", "room_l_m"),
    ("[simulation]\nseed = -1\n", "seed"),
    ("[placement]\nplacement_type = A\nn_aps = 16\n", "n_aps"),
    ("[radio]\nf_c_ghz = 5000\n", "f_c_ghz"),
    ("[radio]\nf_c_ghz = 5000\n[placement]\nplacement_type = C\n", "f_c_ghz"),
    ("[radio]\np_o_dbm = 1e300\n", "p_o_dbm"),
    ("[radio]\nnf_db_hz = 4000\n", "nf_db_hz"),
    ("[room]\nroom_l_m = -1\n", "room_l_m"),
    ("[radio]\ntau_override_per_m = -1\n", "tau_override_per_m"),
    ("[room]\nroom_h_m = 1.2\n", "room_h_m"),
    ("[users]\nvelocity_mps_mean = 0.3\n", "velocity_mps_mean"),
    ("[users]\nvelocity_mps_mean = 0.3\nvelocity_mps_span = 0.4\n",
     "velocity_mps_mean/velocity_mps_span"),
    ("[simulation]\ndt_ms = 1e-320\n", "dt_ms"),
    ("[simulation]\nh_override_m = 1e-320\n", "h_override_m"),
    ("[users]\nuser_height_m = -1\n", "user_height_m"),
    ("[room]\nroom_l_m = 1e300\n", "room_l_m"),
    ("[room]\nroom_h_m = 1e300\n", "room_h_m"),
    ("[simulation]\nh_override_m = 1e300\n", "h_override_m"),
]


@pytest.mark.parametrize("text,field", BAD_CONFIGS)
def test_bad_config_names_field(tmp_path, text, field):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{field}:"):
        cfgmod.load_config(path)


def test_per_ap_power_is_the_budget_split(tmp_path):
    path = tmp_path / "c12.ini"
    path.write_text("[radio]\np_o_dbm = 7.3\n[placement]\nplacement_type = C\nn_aps = 12\n")
    cfg, _ = cfgmod.load_config(path)
    assert cfg.p_o_w == cfgmod.dbm_to_watts(7.3)
    assert cfg.link.p_t_w == cfgmod.dbm_to_watts(7.3) / 12


def test_height_override_moves_the_ceiling(tmp_path):
    path = tmp_path / "h.ini"
    path.write_text("[users]\nuser_height_m = 1.25\n[simulation]\nh_override_m = 4.5\n")
    cfg, settings = cfgmod.load_config(path)
    assert cfg.room.height_m == 4.5 + 1.25
    assert cfg.effective_height_m() == 4.5
    assert settings["h_override_m"] == 4.5


def test_config_defaults_are_the_library_defaults():
    assert cfgmod.load_config()[0] == SimConfig()


def test_every_field_is_set_by_exactly_one_key():
    table_fields = [entry.field for entry in cfgmod._TABLE.values()]
    names = [f.name for f in fields(SimConfig) if f.name != "room"]
    names += [f"room.{f.name}" for f in fields(Room)]
    for name in names:
        assert table_fields.count(name) == 1, name


@pytest.mark.parametrize(
    "key", [key for key, entry in cfgmod._TABLE.items() if entry.default is not None]
)
def test_overriding_a_key_with_its_default_changes_nothing(key):
    override = {key: cfgmod._TABLE[key].default}
    assert cfgmod.load_config(overrides=override)[0] == cfgmod.load_config()[0]


def test_type_a_runs_one_ap_unless_told_otherwise(tmp_path):
    path = tmp_path / "a.ini"
    path.write_text("[placement]\nplacement_type = a\n")
    cfg, settings = cfgmod.load_config(path)
    assert cfg.n_aps == settings["n_aps"] == 1
    assert cfgmod.load_config(path, {"n_aps": 1})[1] == settings
    with pytest.raises(ConfigError, match="^n_aps:"):
        cfgmod.load_config(path, {"n_aps": 4})


def test_non_string_override_is_parsed_like_file_text():
    with pytest.raises(ConfigError, match="^n_users:"):
        cfgmod.load_config(overrides={"n_users": 2.5})
    cfg, settings = cfgmod.load_config(overrides={"seed": 7, "p_o_dbm": -3.0})
    assert type(cfg.seed) is int and cfg.seed == 7
    assert settings["p_o_dbm"] == -3.0
    assert cfg.p_o_w == cfgmod.dbm_to_watts(-3.0)


@pytest.mark.parametrize("text", [
    "[radio]\nf_c_ghz = 300\n[room]\nf_c_ghz = 600\n",
    "[radio]\nf_c_ghz = 300\nf_c_ghz = 600\n",
    "[DEFAULT]\nf_c_ghz = 300\n[radio]\nf_c_ghz = 600\n",
], ids=["two-sections", "one-section", "default-and-a-section"])
def test_a_key_set_twice_is_an_error_naming_it(tmp_path, text):
    path = tmp_path / "twice.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match="^f_c_ghz: set twice"):
        cfgmod.load_config(path)


def test_default_section_keys_take_effect(tmp_path):
    # [DEFAULT] is an ordinary section, not configparser's fallback for others
    path = tmp_path / "default.ini"
    path.write_text("[DEFAULT]\nseed = 4\n")
    cfg, settings = cfgmod.load_config(path)
    assert cfg.seed == settings["seed"] == 4
    path.write_text("[DEFAULT]\nseed = 4\n[users]\nn_users = 3\n")
    assert cfgmod.load_config(path)[0] == SimConfig(seed=4, n_users=3)
