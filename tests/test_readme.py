import re
from pathlib import Path

from cloudmorph import load_ply, morph_registration, register, save_ply
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
