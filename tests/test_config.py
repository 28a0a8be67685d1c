import pytest

from thzplan import config as cfgmod
from thzplan.simulation import ConfigError


@pytest.mark.parametrize("value", [True, False])
def test_boolean_blockage_override_is_honoured(value):
    cfg, settings = cfgmod.load_config(overrides={"blockage": value})
    assert cfg.blockage_enabled is value
    assert settings["blockage"] == ("on" if value else "off")


def test_unreadable_blockage_override_names_field():
    with pytest.raises(ConfigError, match="^blockage:"):
        cfgmod.load_config(overrides={"blockage": 2})
