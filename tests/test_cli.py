import csv
import json
import re
import time

import pytest
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from laguerre_lab import cli, suites
from laguerre_lab import equilibrium as eq
from laguerre_lab.cache import FORMAT_VERSION, cached_recurrence_table, clear_memo, table_key
from laguerre_lab.config import DEFAULTS, parse_config
from laguerre_lab.errors import ConfigError, PrecisionExhausted
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams
from laguerre_lab.registry import REGISTRY, validate_ids
from laguerre_lab.reports import Check, ResidualReport, render


def test_defaults_documented():
    cfg = parse_config()
    assert str(cfg.params.alpha) == "1/2"
    assert cfg.params.m == 2
    assert cfg.prec.digits == 120
    assert cfg.n_max == 10
    assert cfg.active_suites == tuple(REGISTRY)


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("# nothing here\n\n")
    cfg = parse_config(str(p))
    assert cfg.prec.digits == 120 and cfg.n_max == 10


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("digits = 60\nn_max = 4\nsuites = moments,ladder\n")
    cfg = parse_config(str(p), {"n_max": "6"})
    assert cfg.prec.digits == 60
    assert cfg.n_max == 6  # flag wins
    assert cfg.active_suites == ("moments", "ladder")


def test_repeated_suite_runs_once_in_the_order_given(tmp_path):
    cfg = parse_config(None, {"suites": "recurrence,moments,moments"})
    assert cfg.active_suites == ("recurrence", "moments")
    out = tmp_path / "rep.json"
    assert cli.main(["recurrence,moments,moments", "--digits", "60", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [rep["suite"] for rep in doc["reports"]] == ["recurrence", "moments"]


def test_negative_t1_accepted_by_flags():
    cfg = parse_config(None, {"t1": "-0.3"})
    assert cfg.params.t1 < 0


def test_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError):
        parse_config(None, {"suites": "bogus"})
    with pytest.raises(ConfigError):
        parse_config(None, {"format": "xml"})
    with pytest.raises(ConfigError):
        parse_config(None, {"s1": "1/0"})
    p = tmp_path / "bad.cfg"
    p.write_text("unknown_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config(str(p))
    p2 = tmp_path / "bad2.cfg"
    p2.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config(str(p2))
    p3 = tmp_path / "bad3.cfg"
    p3.write_text("s2 = 1/0\n")
    with pytest.raises(ConfigError):
        parse_config(str(p3))
    p4 = tmp_path / "bad4.cfg"
    p4.write_bytes(b"alpha = 1\n\xff\xfe\n")
    with pytest.raises(ConfigError):
        parse_config(str(p4))
    assert cli.main(["moments", "--s1", "1/0"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_exit_code_2_for_domain_violation(capsys):
    # t2 = 0 at m = 2 violates the t_m > 0 invariant
    assert cli.main(["moments", "--t2", "0", "--digits", "60"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_2_for_stencil_at_t0(capsys):
    # at t = 0 every stencil step |t_i| h is 0: a domain error, not a traceback
    assert cli.main(["sigma-pde", "--t1", "0", "--t2", "0", "--digits", "50"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_exit_code_2_for_unwritable_cache_dir(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("a regular file, not a directory")
    clear_memo()
    code = cli.main(["moments", "--digits", "60", "--cache-dir", str(blocker / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and str(blocker / "x") in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag,suite", [("--out", "moments"), ("--table-out", "moments"),
                                        ("--sweep-csv", "scaling"),
                                        ("--density-profile", "equilibrium")])
def test_exit_code_2_for_unwritable_output_path(flag, suite, tmp_path, monkeypatch, capsys):
    # exit 1 means a residual failed; an output that cannot be written is a
    # configuration error naming the path.  The suite itself is not run
    monkeypatch.setitem(suites.SUITE_RUNNERS, suite, lambda config: ResidualReport(suite))
    path = tmp_path / "missing" / "x.json"
    code = cli.main([suite, "--digits", "60", "--n-list", "8,10", flag, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and str(path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag,suite", [("--sweep-csv", "scaling"),
                                        ("--density-profile", "equilibrium")])
def test_exit_code_2_for_extra_without_its_suite(flag, suite, tmp_path, monkeypatch, capsys):
    # the flag's suite is not in the run, so there is nothing to write;
    # the error comes before any suite runs
    def never(config):
        raise AssertionError("a suite ran")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", never)
    path = tmp_path / "x.csv"
    assert cli.main(["moments", "--digits", "60", flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and flag in err and suite in err
    assert not path.exists()


def test_exit_code_2_for_unknown_suite(capsys):
    assert cli.main(["bogus-suite"]) == 2


def test_exit_code_1_for_residual_failure(monkeypatch, capsys):
    def fake(config):
        rep = ResidualReport("moments")
        rep.add(Check("moment-positive", mpf(1), mpf(0), "forced"))
        return rep

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", fake)
    assert cli.main(["moments", "--digits", "60"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_code_3_for_numerical_error(monkeypatch, capsys):
    def fake(config):
        raise PrecisionExhausted("forced loss of significance")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", fake)
    assert cli.main(["moments", "--digits", "60"]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_exit_code_0_and_json_output(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = cli.main(["moments", "--digits", "60", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["suite"] == "moments"
    assert "timestamp" in doc["metadata"]
    for entry in doc["reports"][0]["entries"]:
        assert entry["pass"] is True


def test_json_schema_validation(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    out = tmp_path / "rep.json"
    assert cli.main(["moments", "--digits", "60", "--out", str(out)]) == 0
    schema = json.loads(files("laguerre_lab.schemas").joinpath(
        "report.schema.json").read_text())
    jsonschema.validate(json.loads(out.read_text()), schema)


def test_byte_identical_reports_modulo_timestamp(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["ladder", "--digits", "60", "--n-max", "4",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["metadata"].pop("timestamp")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_csv_report_output(tmp_path):
    out = tmp_path / "rep.csv"
    assert cli.main(["moments", "--digits", "60", "--format", "csv",
                     "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["suite", "id", "point", "residual", "tolerance", "pass"]
    assert all(r[5] == "True" for r in rows[1:])


def test_recurrence_table_csv_roundtrip(tmp_path):
    params = WeightParams("0.5", ("0.3", "0.2"))
    prec = PrecisionContext(digits=60)
    tab = cached_recurrence_table(params, 3, prec, cache_dir=tmp_path / "c")
    out = tmp_path / "table.csv"
    cli.write_table(tab, "csv", str(out))
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4  # N = 3 -> 4 data rows
    assert list(rows[0]) == ["n", "h", "alpha", "beta", "p"]
    assert rows[0]["beta"] == "" and rows[3]["alpha"] == ""
    assert rows[0]["p"] == "0.0"
    # writing again reproduces the bytes (decimal strings, no float noise)
    out2 = tmp_path / "table2.csv"
    cli.write_table(tab, "csv", str(out2))
    assert out.read_text() == out2.read_text()


def test_sweep_emission(tmp_path):
    from laguerre_lab.scaling import ScaledGrid

    prec = PrecisionContext(digits=50)
    grid = ScaledGrid(1, 1, (4, 6, 8), prec, cache_dir=tmp_path / "c")
    out = tmp_path / "sweep.csv"
    cli.write_sweep(grid, str(out))
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["n", "x", "y", "H"]
    assert len(rows) == 4
    limits = json.loads((tmp_path / "sweep.csv.limits.json").read_text())
    names = ("R", "Rstar", "r", "rstar", "H")
    assert set(limits["limits"]) == set(names) | {"err_" + q for q in names}


def test_table_flag_and_m_flag_rejected(tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["moments", "--digits", "60", "--n-max", "3",
                     "--table-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["table"]) == 4
    # the pole order is len(t); there is no flag that restates it
    with pytest.raises(SystemExit) as exc:
        cli.main(["moments", "--digits", "60", "--m", "3"])
    assert exc.value.code == 2


def test_flags_are_the_config_keys():
    # every run setting is one flag and one config key of the same name;
    # --config and the three extra outputs are not run settings
    dests = set(vars(cli.build_parser().parse_args(["all"])))
    extras = {"config", "table_out", "sweep_csv", "density_profile"}
    assert dests - extras == set(DEFAULTS)


def test_registry_covers_cheap_suites(tmp_path):
    cfg = parse_config(None, {"digits": "60", "n_max": "4",
                              "suites": "moments,recurrence,ladder",
                              "cache_dir": str(tmp_path / "c")})
    for rep in suites.run_suite(cfg):
        assert validate_ids(rep.suite, rep.entries) == []
        emitted = {c.id for c in rep.entries}
        assert emitted == set(REGISTRY[rep.suite]), rep.suite


def test_cache_speedup_and_stability(tmp_path):
    # the best of three cold runs, each into an empty cache, against the best
    # of three warm runs, interleaved: a host stall during one ~0.05 s warm
    # run does not decide the ratio
    def timed(cfg):
        clear_memo()
        t0 = time.perf_counter()
        report = suites.run_suite(cfg)[0]
        return time.perf_counter() - t0, report.as_dict()

    cold, warm = [], []
    for i in range(3):
        cfg = parse_config(None, {"digits": "120", "suites": "calculus",
                                  "cache_dir": str(tmp_path / f"cache{i}")})
        cold.append(timed(cfg))
        warm.append(timed(cfg))
    assert min(t for t, _ in cold) / min(t for t, _ in warm) >= 5
    assert all(report == cold[0][1] for _, report in cold + warm)


@pytest.mark.parametrize("suite", ["calculus", "recurrence", "ladder", "multitime", "scaling"])
def test_warm_run_integrates_and_writes_nothing(suite, tmp_path, count_calls):
    # the deterministic side of the speed-up above: a warm run reads
    # every table, the scaling suite's stencil nodes included, so it
    # sweeps no quadrature and adds no cache file
    from laguerre_lab import quadrature

    cache = tmp_path / "cache"
    extra = {"n_list": "8,10"} if suite == "scaling" else {}
    cfg = parse_config(None, {"digits": "60", "suites": suite, "cache_dir": str(cache),
                              **extra})
    clear_memo()
    cold = suites.run_suite(cfg)[0]
    files = sorted(p.name for p in cache.iterdir())
    sweeps = count_calls(quadrature, "moments")
    clear_memo()
    warm = suites.run_suite(cfg)[0]
    assert sweeps == []
    assert sorted(p.name for p in cache.iterdir()) == files
    assert cold.as_dict() == warm.as_dict()


@pytest.mark.parametrize("suite,rule", [("recurrence", "integrate_weighted"),
                                        ("ladder", "integrate_weighted"),
                                        ("equilibrium", "integrate_finite")])
def test_warm_run_makes_one_oracle_pass(suite, rule, tmp_path, count_calls):
    # the four orthogonality pairs share one quadrature pass, and so does
    # ladder-coeff-integral, the ladder suite's one oracle.  lagrange-eq
    # and density-normalization are closed forms of cosine series, so
    # equilibrium makes no tanh-sinh pass, and three theta passes: the two
    # supplementary conditions and the six closed forms of each of two
    # (a, b) pairs
    from laguerre_lab import quadrature

    cfg = parse_config(None, {"digits": "60", "suites": suite,
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    suites.run_suite(cfg)
    passes = count_calls(quadrature, rule)
    theta = count_calls(eq, "_theta_trapezoid")
    clear_memo()
    suites.run_suite(cfg)
    if rule == "integrate_weighted":
        assert len(passes) == 1
    else:
        assert (len(passes), len(theta)) == (0, 3)


def test_scaling_at_negative_s1(tmp_path, capsys):
    # limit-pde-1 has one factor s1 in its squared term, and the s2 -> 0
    # reduction, which has no limit at s1 < 0, is checked at |s1|.  The
    # identities on dH/ds read finite-n t-derivatives, so their tolerances
    # stay at the size of the 1/n extrapolation error
    out = tmp_path / "sc.json"
    assert cli.main(["scaling", "--s1", "-1", "--n-list", "8,10,12", "--digits", "60",
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
    capsys.readouterr()
    entries = {e["id"]: e for e in json.loads(out.read_text())["reports"][0]["entries"]}
    assert mpf(entries["limit-pde-1"]["residual"]) < mpf("1e-3")
    for cid, e in entries.items():
        if cid.startswith(("limit-pde-", "limit-H-")) or cid in (
                "limit-R-identity", "limit-Rstar-identity", "dH-ds1-sign"):
            assert mpf(e["tolerance"]) < mpf("0.1"), cid
    assert entries["reduced-limit"]["point"] == "s1=1;s2=1/20"


def test_cold_scaling_builds_one_sequence_set_per_grid(tmp_path, count_calls):
    # every derivative in s is a finite-n t-derivative on the stencil
    # grid of the scaling point, so a cold run builds the scaled sequences
    # once for the main grid and once for the reduced-limit grid, and
    # sweeps the seeds of each of their two n once
    from laguerre_lab import quadrature, scaling

    cfg = parse_config(None, {"digits": "60", "suites": "scaling", "n_list": "8,10",
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    seqs = count_calls(scaling, "scaled_sequences")
    sweeps = count_calls(quadrature, "moments")
    suites.run_suite(cfg)
    assert (len(seqs), len(sweeps)) == (2, 4)


def test_cold_scaling_computes_each_centre_row_once(tmp_path, count_calls):
    # the scaled sequences read n R_n, n R_n*, r_n, r_n* from the aux row
    # at the centre of each per-n stencil grid, the row the second
    # derivatives of U read there, so each centre row is computed once:
    # 36 rows over the stencil nodes of the two grids' two n
    from laguerre_lab import ladder

    cfg = parse_config(None, {"digits": "60", "suites": "scaling", "n_list": "8,10",
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    rows = count_calls(ladder, "aux_integrals")
    suites.run_suite(cfg)
    assert len(rows) == 36


def test_sweep_csv_computes_no_row_twice(tmp_path, count_calls):
    # --sweep-csv reads the scaled sequences at the suite's point from the
    # suite's own grid, which `cli.run` holds across the run, so the flag
    # adds no row computation to the 36 above
    from laguerre_lab import ladder

    clear_memo()
    rows = count_calls(ladder, "aux_integrals")
    assert cli.main(["scaling", "--digits", "60", "--n-list", "8,10",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--sweep-csv", str(tmp_path / "sweep.csv")]) == 0
    assert len(rows) == 36


def test_warm_multi_suite_run_computes_each_row_once(tmp_path, count_calls):
    # the calculus and sigma-pde grids and the multitime tables read
    # shared tables; each aux row is memoized on its table, and the run
    # holds the tables a later suite reads again, so a warm run computes
    # no row twice for one (point, depth, precision, anchor), the table's
    # cache key, and n
    from laguerre_lab import ladder

    cfg = parse_config(None, {"digits": "60", "suites": "calculus,sigma-pde,multitime",
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    suites.run_suite(cfg)
    clear_memo()
    rows = count_calls(ladder, "aux_integrals")
    suites.run_suite(cfg)
    computed = [(call["table"], call["n"]) for call in rows]
    assert computed and all(isinstance(key, str) for key, _ in computed)
    assert len(set(computed)) == len(computed)


def test_warm_default_run_reads_each_table_once(count_calls):
    # a warm `lab all` at the default point reads each of its 444 tables
    # from disk once and computes 221 aux rows: the tables two suites read
    # are held by the run, so none is read, nor any row computed, twice
    from laguerre_lab import cache, ladder

    clear_memo()
    assert cli.main(["all"]) == 0  # fills the session cache, or reads it
    clear_memo()
    reads = count_calls(cache, "_read_entry")
    rows = count_calls(ladder, "aux_integrals")
    assert cli.main(["all"]) == 0
    assert (len(reads), len(rows)) == (444, 221)


def test_cold_stencil_run_reads_each_node_at_one_depth(tmp_path, count_calls):
    # the calculus and sigma-pde grids (fd-convergence-order reads the
    # calculus one) and seed-shift's corner read the configured point at
    # one depth, so no table is built twice for one (point, anchor) pair;
    # a centre is its own anchor
    from laguerre_lab import cache

    cfg = parse_config(None, {"digits": "60", "suites": "calculus,sigma-pde",
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    requests = count_calls(cache, "cached_recurrence_table")
    suites.run_suite(cfg)
    depths = {}
    for call in requests:
        point, anchor = call["params"], call.get("anchor")
        depths.setdefault((point, None if anchor == point else anchor), set()).add(call["N"])
    assert requests and {pair: d for pair, d in depths.items() if len(d) > 1} == {}


def test_classical_limit_for_negative_alpha(tmp_path, capsys):
    # for alpha < 0 the deformation moves alpha_n, beta_n by O(t1^(alpha+1)),
    # so the classical-limit point shrinks t1 to 1e-12 at alpha = -1/2
    out = tmp_path / "rec.json"
    assert cli.main(["recurrence", "--alpha", "-0.5", "--digits", "60",
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
    capsys.readouterr()
    entry = next(e for e in json.loads(out.read_text())["reports"][0]["entries"]
                 if e["id"] == "classical-limit")
    assert entry["point"] == "t1=1e-12,t2=t1^2"


def test_precision_doubling_is_relative_where_mu0_is_large(tmp_path, capsys):
    # mu_0 = 1.35e40 at t = (-4, 1/25): its values at P = 50 and P = 60
    # differ by 1.0e-34, which is 7.7e-75 relative, against 1e-40
    out = tmp_path / "mom.json"
    assert cli.main(["moments", "--t1=-4", "--t2", "0.04", "--digits", "60",
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
    capsys.readouterr()
    entry = next(e for e in json.loads(out.read_text())["reports"][0]["entries"]
                 if e["id"] == "precision-doubling")
    assert mpf(entry["residual"]) < mpf("1e-70")


def test_reports_name_the_verified_point():
    # the equilibrium suite verifies alpha = max(alpha, 1); at the default
    # alpha = 1/2 its metadata names both points.  multitime names its
    # m = 3 point and its fixed m = 4 and m = 5 points
    cfg = parse_config(None, {"digits": "60", "suites": "equilibrium,multitime"})
    meta, mt_meta = (rep.metadata for rep in suites.run_suite(cfg))
    assert meta["point"] == mt_meta["point"] == "alpha=1/2;t=3/10,1/5"
    assert meta["verified_point"] == "alpha=1;t=3/10,1/5"
    assert mt_meta["verified_point"] == "alpha=1/2;t=3/10,1/5,1/10"
    assert mt_meta["verified_point_m4"] == "alpha=1/2;t=3/10,1/5,1/10,1/20"
    assert mt_meta["verified_point_m5"] == "alpha=1/2;t=3/10,1/5,1/10,1/20,1/50"


def test_equilibrium_verifies_the_m2_part_of_an_m3_point(tmp_path):
    # the endpoint system is the m = 2 one: at t3 = 1/10 the suite
    # verifies (t1, t2) and its checks and metadata agree on that point
    out = tmp_path / "eq.json"
    assert cli.main(["equilibrium", "--t3", "0.1", "--digits", "60",
                     "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["reports"][0]["metadata"]
    assert meta["verified_point"] == "alpha=1;t=3/10,1/5"


@pytest.mark.parametrize("args", [["--t1", "0.001", "--t2", "0.001"], ["--digits", "200"]])
def test_equilibrium_series_checks(args, tmp_path):
    # rho = 0.936 at t1 = t2 = 1/1000, near the t -> 0 limit; at 200
    # digits the closed form carries lagrange-eq below 1e-190
    out = tmp_path / "eq.json"
    assert cli.main(["equilibrium", *args, "--out", str(out)]) == 0
    entries = {e["id"]: e for e in json.loads(out.read_text())["reports"][0]["entries"]}
    for cid in ("lagrange-eq", "density-normalization"):
        assert mpf(entries[cid]["residual"]) < mpf(entries[cid]["tolerance"]) / 100, cid
    if "200" in args:
        assert mpf(entries["lagrange-eq"]["residual"]) < mpf("1e-190")


def test_density_profile_is_written_at_the_verified_point(tmp_path):
    # t1 < 0 has no single-cut solve: the suite and the profile both fall
    # back to alpha = 1, t = (3/10, 1/5)
    prof = tmp_path / "profile.csv"
    assert cli.main(["equilibrium", "--t1", "-0.3", "--digits", "60",
                     "--density-profile", str(prof)]) == 0
    rows = list(csv.reader(prof.read_text().splitlines()))
    assert rows[0] == ["x", "sigma"] and len(rows) == 200
    prec = PrecisionContext(digits=60)
    sol = eq.solve_support(10, WeightParams("1", ("0.3", "0.2")), prec=prec)
    with mp.workdps(prec.work_dps):
        assert rows[1][0] == render(sol.a + (sol.b - sol.a) / 200)


def _report_without_timestamp(path):
    return re.sub(r'"timestamp": "[^"]*"', "", path.read_text())


def test_truncated_cache_file_is_a_miss(tmp_path):
    key = table_key(WeightParams("0.5", ("0.3", "0.2")), 12, PrecisionContext(digits=120))
    reports = []
    for name in ("clean", "truncated"):
        cache = tmp_path / name
        cache.mkdir()
        if name == "truncated":
            (cache / f"table-{key}.json").write_text('{"version": 1, "N": 12, "h": [')
        out = tmp_path / f"{name}.json"
        clear_memo()
        assert cli.main(["moments", "--cache-dir", str(cache), "--out", str(out)]) == 0
        reports.append(_report_without_timestamp(out))
    assert reports[0] == reports[1]
    rebuilt = json.loads((tmp_path / "truncated" / f"table-{key}.json").read_text())
    assert rebuilt["version"] == FORMAT_VERSION and rebuilt["N"] == 12


@pytest.mark.parametrize("mangle", [
    lambda doc: doc.update(version=1),
    lambda doc: doc.update(N=4),
    lambda doc: doc.update(digits=61),
    lambda doc: doc["params"].update(alpha="1/3"),
    lambda doc: doc.pop("h"),
    lambda doc: doc["moments"].update({"0": "not a number"}),
    lambda doc: doc.update(anchor={"alpha": "1/2", "t": ["3/10", "1/4"]}),
    lambda doc: doc["h"].__setitem__(1, "0.25"),
    lambda doc: doc["moments"].update({"0": "2p0"}),
    lambda doc: doc["coeffs"][1].__setitem__(0, "-0p0"),
    lambda doc: doc["h"].pop(),
    lambda doc: doc["alpha_rc"].pop(),
    lambda doc: doc["coeffs"][2].pop(),
    lambda doc: doc["moments"].pop("7"),
], ids=["version", "N", "digits", "params", "missing-key", "bad-value", "anchor",
        "decimal", "even-mantissa", "signed-zero", "short-h", "short-alpha", "short-coeffs",
        "no-top-moment"])
def test_mismatched_cache_entry_is_rebuilt(tmp_path, mangle):
    params, prec = WeightParams("0.5", ("0.3", "0.2")), PrecisionContext(digits=60)
    clear_memo()
    clean = cached_recurrence_table(params, 3, prec, cache_dir=tmp_path)
    path = tmp_path / f"table-{table_key(params, 3, prec)}.json"
    good = path.read_text()
    doc = json.loads(good)
    mangle(doc)
    path.write_text(json.dumps(doc))
    clear_memo()
    again = cached_recurrence_table(params, 3, prec, cache_dir=tmp_path)
    assert (again.h, again.coeffs, again.moments) == (clean.h, clean.coeffs, clean.moments)
    assert path.read_text() == good


def test_cache_entry_stores_the_built_bits(tmp_path):
    # a build returns every value at the table's work_dps; the cache
    # stores and memoizes exactly those bits
    params, prec = WeightParams("0.5", ("0.3", "0.2")), PrecisionContext(digits=60)
    built = recurrence_table(params, 6, prec)
    work = built.prec.work_dps

    def values(tab):
        rows = (tab.h, tab.alpha_rc, *tab.coeffs, tab.moments.values())
        return [v._mpf_ for row in rows for v in row]

    def round_trip(v):
        # the decimal round trip earlier builds ran: rendered at 10 guard
        # digits and parsed back at work_dps, a built value keeps its bits
        with mp.workdps(work + 20):
            text = mp.nstr(mp.make_mpf(v), work + 10, strip_zeros=True)
        with mp.workdps(work):
            return mpf(text)._mpf_

    want = values(built)
    assert max(bc for _, _, _, bc in want) <= dps_to_prec(work)
    assert [round_trip(v) for v in want] == want
    clear_memo()
    cold = cached_recurrence_table(params, 6, prec, cache_dir=tmp_path)
    clear_memo()
    warm = cached_recurrence_table(params, 6, prec, cache_dir=tmp_path)
    assert warm is not cold and list(warm.moments) == list(built.moments)
    assert values(cold) == want
    assert values(warm) == want
    doc = json.loads((tmp_path / f"table-{table_key(params, 6, prec)}.json").read_text())
    assert doc["version"] == FORMAT_VERSION == 5
    # each value is stored once: beta_n and p(n) are read from h and coeffs
    assert set(doc) - {"version", "N", "digits", "params"} == {"h", "alpha_rc", "coeffs", "moments"}
    assert doc["coeffs"][0] == ["1p0"]


def test_point_depth_tables_share_their_first_rows(params_default, prec120, table12):
    # suites._POINT_DEPTH: the configured point's grid tables are shallower
    # than the 12-deep table moments, recurrence and ladder read, at one
    # precision, and every value the two share has the same bits
    shallow = recurrence_table(params_default, suites._POINT_DEPTH, prec120)
    n = shallow.N
    assert n < table12.N and shallow.prec == table12.prec
    assert shallow.h == table12.h[:n + 1]
    assert shallow.alpha_rc == table12.alpha_rc[:n]
    assert shallow.coeffs == table12.coeffs[:n + 1]
    assert shallow.moments == {k: table12.moments[k] for k in shallow.moments}


def test_stencil_suites_honour_cache_dir(tmp_path, monkeypatch):
    # the rode, sigma-reduction and general-m grids build their own tables
    home, env, cache = tmp_path / "home", tmp_path / "env", tmp_path / "cache"
    home.mkdir()
    env.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("LAB_CACHE_DIR", str(env))
    clear_memo()
    assert cli.main(["calculus,sigma-pde,multitime", "--digits", "60",
                     "--cache-dir", str(cache)]) == 0
    assert list(home.iterdir()) == [] and list(env.iterdir()) == []
    assert any(cache.iterdir())


def test_sweep_csv_honours_cache_dir(tmp_path, monkeypatch):
    home, env, cache = tmp_path / "home", tmp_path / "env", tmp_path / "cache"
    home.mkdir()
    env.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("LAB_CACHE_DIR", str(env))
    args = cli.build_parser().parse_args([
        "scaling", "--n-list", "4,6", "--digits", "50",
        "--sweep-csv", str(tmp_path / "sweep.csv"), "--cache-dir", str(cache)])
    # the sweep alone: in a full run the sweep's grid is the suite's own,
    # which `cli.run` holds, so the sweep never reaches the disk
    clear_memo()
    cli.extras(cli.config_from_args(args), args)
    assert (tmp_path / "sweep.csv").exists()
    assert list(home.iterdir()) == [] and list(env.iterdir()) == []
    assert any(cache.iterdir())
