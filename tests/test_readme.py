import re
from pathlib import Path

from cloudmorph import RegistrationParams, load_ply, morph_registration, register, save_ply
from cloudmorph.cli import _config_keys, build_parser
from conftest import make_cloud

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_one_namespace(tmp_path, monkeypatch, capsys):
    """The quickstart, then the hand-stepped loop on the clouds it loaded."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for name, seed in (("subject_a", 60), ("subject_b", 61)):
        save_ply(make_cloud(80, seed=seed, cloud_id=name), tmp_path / f"{name}.ply")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the loop prints sigma^2 once per pass
    assert len(capsys.readouterr().out.split()) == 10
    result = register(load_ply("subject_a.ply"), load_ply("subject_b.ply"))
    save_ply(morph_registration(result, 0.5), "expected.ply")
    assert Path("morph_ab.ply").read_bytes() == Path("expected.ply").read_bytes()


def test_config_keys_listed():
    """The config section's ``Keys:`` list names every config key once."""
    listed = re.search(r"Keys: `([^`]*)`", README.read_text(encoding="utf-8")).group(1)
    keys = [key.strip() for key in listed.split(",")]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_config_keys(build_parser()[1]))


def test_hyperparameter_defaults_listed():
    """The hyperparameter table has a row for every registration flag, and
    its default column is RegistrationParams()'s value or, for the two flags
    that set no field, the parser's default."""
    section = README.read_text(encoding="utf-8").split("### Registration hyperparameters")[1]
    rows = dict(re.findall(r"^\| `(--[a-z-]+)` \| ([^|]+?) \|", section, re.MULTILINE))
    actions = {action.option_strings[0]: action
               for action in build_parser()[1]["register"]._actions
               if action.option_strings and action.dest not in ("help", "out", "config")}
    assert rows.keys() == actions.keys()
    defaults = RegistrationParams()
    for flag, text in rows.items():
        action = actions[flag]
        expected = getattr(defaults, action.dest, action.default)
        assert action.default == expected
        if action.nargs == 0:
            assert text == ("on" if expected else "off"), flag
        else:
            assert action.type(text) == expected, flag
