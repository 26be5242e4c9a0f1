"""Each ``scripts/*.py`` runs end to end through its ``main`` on tiny
arguments, with the table cache in a temporary directory."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

#: script name -> arguments; out-of-tree paths are relative to tmp_path
ARGS = {
    "aux_table": ["--n-max", "2", "--digits", "50"],
    "bless_golden": ["{tmp}/golden.json", "recurrence", "--digits", "50"],
    # this checkout against itself
    "compare_checkouts": [str(ROOT), str(ROOT), "moments", "--digits", "50"],
    "equilibrium_profile": ["--n", "4", "--digits", "50", "--points", "4",
                            "--profile", "{tmp}/profile.csv"],
    "sweep_double_scaling": ["--grid", "1", "--n-list", "4,6", "--digits", "50",
                             "--out-dir", "{tmp}/sweep"],
}


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == set(ARGS)


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(ARGS))
def test_script_main_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LAB_CACHE_DIR", str(tmp_path / "cache"))
    module = load(name)
    code = module.main([a.format(tmp=tmp_path) for a in ARGS[name]])
    out = capsys.readouterr().out
    assert out
    if name == "compare_checkouts":
        assert code == 0
        assert out.splitlines()[-3:] == [
            "cold reports equal apart from the timestamp: yes",
            "warm reports equal apart from the timestamp: yes",
            "cache files: 1 and 1, 0 parent only, 0 change only, 0 bytes differ"]
    if name == "equilibrium_profile":
        doc = json.loads(out[:out.rindex("}") + 1])
        assert {"lagrange_residual", "rho"} <= set(doc)
        assert len((tmp_path / "profile.csv").read_text().splitlines()) == 4
    if name == "sweep_double_scaling":
        # the tensor grid (1, 1) and its mirror (-1, 1), one CSV each
        assert len(list((tmp_path / "sweep").glob("sweep_*.csv"))) == 2


def test_compare_checkouts_exits_1_on_other_table_files(tmp_path, capsys):
    # a copy whose cache format number differs writes the same reports
    # under other file names: the parent's file is on its side only, the
    # change's on the other
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = mutant / "src" / "laguerre_lab" / "cache.py"
    text = path.read_text()
    assert "FORMAT_VERSION = 5\n" in text
    path.write_text(text.replace("FORMAT_VERSION = 5\n", "FORMAT_VERSION = 6\n"))
    code = load("compare_checkouts").main([str(ROOT), str(mutant), "moments", "--digits", "50"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-5:-2] == ["cold reports equal apart from the timestamp: yes",
                          "warm reports equal apart from the timestamp: yes",
                          "cache files: 1 and 1, 1 parent only, 1 change only, 0 bytes differ"]
    assert sorted(line.rsplit(".json: ", 1)[1] for line in out[-2:]) == ["change only",
                                                                         "parent only"]


def test_bless_golden_lists_changes_and_refuses_a_looser_tolerance(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LAB_CACHE_DIR", str(tmp_path / "cache"))
    bless = load("bless_golden")
    path = tmp_path / "golden.json"
    bless.main([str(path), "recurrence", "--digits", "50"])
    blessed = path.read_text()
    doc = json.loads(blessed)
    first = doc["reports"][0]["entries"][0]
    was_point = first["point"]
    # a new file: every entry is added
    entries = len(doc["reports"][0]["entries"])
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"wrote {path}: 0 residual and 0 tolerance strings moved, {entries} entries added, "
        "0 removed, 0 re-pointed")

    # a moved residual string is listed old -> new and rewritten
    was = first["residual"]
    first["residual"] = "9.0e-99"
    path.write_text(json.dumps(doc))
    bless.main([str(path)])
    out = capsys.readouterr().out
    assert f"{first['id']} {first['point']} residual: 9.0e-99 -> {was}" in out
    assert out.splitlines()[-2].startswith("largest residual move: ")
    assert out.splitlines()[-2].endswith(f" of its tolerance at recurrence {first['id']} "
                                         f"{first['point']}")
    assert out.splitlines()[-1] == (
        f"wrote {path}: 1 residual and 0 tolerance strings moved, 0 entries added, 0 removed, "
        "0 re-pointed")
    assert path.read_text() == blessed

    # a changed, an added and a removed metadata key are listed, not counted
    first["residual"] = was
    meta = doc["reports"][0]["metadata"]
    meta["digits"], meta["extra"] = 40, "x"
    n_max = meta.pop("n_max")
    path.write_text(json.dumps(doc))
    bless.main([str(path)])
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == ["metadata recurrence digits: 40 -> 50",
                   "metadata recurrence extra: x -> (none)",
                   f"metadata recurrence n_max: (none) -> {n_max}",
                   f"wrote {path}: 0 residual and 0 tolerance strings moved, 0 entries added, "
                   "0 removed, 0 re-pointed"]
    assert path.read_text() == blessed
    doc["reports"][0]["metadata"] = json.loads(blessed)["reports"][0]["metadata"]

    # an entry whose point string moved is re-pointed, not removed and added
    first["point"] += ";moved"
    path.write_text(json.dumps(doc))
    bless.main([str(path)])
    out = capsys.readouterr().out
    assert f"re-pointed recurrence {first['id']}: {first['point']} -> {was_point}" in out
    assert out.splitlines()[-1] == (
        f"wrote {path}: 0 residual and 0 tolerance strings moved, 0 entries added, 0 removed, "
        "1 re-pointed")
    first["point"] = first["point"].removesuffix(";moved")

    # a committed tolerance below the one the run makes: refused, file kept
    first["tolerance"] = "1.0e-70"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        bless.main([str(path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"looser tolerance recurrence {first['id']} {first['point']}: 1.0e-70 ->" in err
    assert json.loads(path.read_text()) == doc


def test_bless_golden_refuses_a_repointed_entry_with_a_looser_tolerance(tmp_path, monkeypatch, capsys):
    # a worst-of entry that moves to another n is held to its old tolerance
    bless = load("bless_golden")
    point = "(1/2,-3/10,1/5);n={}"

    def document(n, tolerance):
        entries = [
            {"id": "dH-t1", "pass": True, "point": point.format(n),
             "residual": "3.78665833925110937034730388233e-63", "tolerance": tolerance},
            {"id": "dH-t2", "pass": True, "point": point.format(1),
             "residual": "1.0e-63", "tolerance": "1.0e-47"},
        ]
        return {"args": ["sigma-pde"], "mpmath": {"version": "1.3.0", "backend": "python"},
                "reports": [{"suite": "sigma-pde", "metadata": {}, "entries": entries}]}

    path = tmp_path / "golden.json"
    committed = json.dumps(document(2, "2.89084542988e-47"), indent=2, sort_keys=True) + "\n"
    path.write_text(committed)

    monkeypatch.setattr(bless, "golden_document", lambda args, out: document(3, "3.34527799124e-47"))
    with pytest.raises(SystemExit) as exc:
        bless.main([str(path)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert f"re-pointed sigma-pde dH-t1: {point.format(2)} -> {point.format(3)}" in captured.out
    assert (f"looser tolerance sigma-pde dH-t1 {point.format(2)} -> {point.format(3)}: "
            "2.89084542988e-47 -> 3.34527799124e-47") in captured.err
    assert path.read_text() == committed

    # the same move to a tighter tolerance is written, counted as re-pointed
    monkeypatch.setattr(bless, "golden_document", lambda args, out: document(3, "2.5e-47"))
    bless.main([str(path)])
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"wrote {path}: 0 residual and 1 tolerance strings moved, 0 entries added, 0 removed, "
        "1 re-pointed")
    assert json.loads(path.read_text()) == document(3, "2.5e-47")


def test_bless_golden_prints_the_largest_residual_move(tmp_path, monkeypatch, capsys):
    # |new - old| / new tolerance over the moved residual strings: 5e-17
    # for dH-t1 beats 2e-18 for dH-t2, and the unmoved H-def is not read
    bless = load("bless_golden")
    point = "(1/2,3/10,1/5);n=2"

    def document(r1, r2):
        entries = [{"id": cid, "pass": True, "point": point, "residual": r, "tolerance": tol}
                   for cid, r, tol in (("dH-t1", r1, "1.0e-47"), ("dH-t2", r2, "1.0e-45"),
                                       ("H-def", "1.0e-90", "1.0e-90"))]
        return {"args": ["sigma-pde"], "mpmath": {"version": "1.3.0", "backend": "python"},
                "reports": [{"suite": "sigma-pde", "metadata": {}, "entries": entries}]}

    path = tmp_path / "golden.json"
    path.write_text(json.dumps(document("1.0e-63", "3.0e-63")))
    monkeypatch.setattr(bless, "golden_document", lambda args, out: document("1.5e-63", "1.0e-63"))
    bless.main([str(path)])
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        f"largest residual move: 5.0e-17 of its tolerance at sigma-pde dH-t1 {point}",
        f"wrote {path}: 2 residual and 0 tolerance strings moved, 0 entries added, 0 removed, "
        "0 re-pointed"]
    # nothing moved: no such line
    bless.main([str(path)])
    assert not any(line.startswith("largest") for line in capsys.readouterr().out.splitlines())
