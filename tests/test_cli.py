import numpy as np
import pytest

from larchpmle import CoeffSpec, SimConfig, simulate
from larchpmle import asymptotics, cli, diagnostics, montecarlo
from larchpmle.cli import load_series, main
from larchpmle.errors import DataError

from conftest import CASE1


def run_cli(*args):
    return main(list(args))


class TestLoadSeries:
    def test_headerless_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.5\n-2.25\n0.125\n")
        assert load_series(p) == pytest.approx([1.5, -2.25, 0.125])

    def test_header_with_x_column(self, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("# seed=1\nt,x,sigma,eps\n1,0.5,1.0,0.5\n2,-0.25,1.0,-0.25\n")
        assert load_series(p) == pytest.approx([0.5, -0.25])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_series(p)

    def test_bad_row_is_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\noops\n")
        with pytest.raises(DataError, match="3"):
            load_series(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1.0\ninf\n")
        with pytest.raises(DataError, match="2"):
            load_series(p)

    def test_header_without_x(self, tmp_path):
        p = tmp_path / "nox.csv"
        p.write_text("t,y\n1,2\n")
        with pytest.raises(DataError, match="x"):
            load_series(p)


class TestRoundTrip:
    def test_simulate_then_load(self, tmp_path):
        rc = run_cli("simulate", "--case", "1", "--n", "64", "--burn-in",
                     "100", "--seed", "29", "--out", str(tmp_path))
        assert rc == 0
        x = load_series(tmp_path / "simulate.csv")
        assert len(x) == 64
        s = simulate(CoeffSpec("power", 2000), CASE1,
                     SimConfig(n=64, burn_in=100, J=2000, seed=29))
        assert np.array_equal(x, s.x_obs)

    def test_simulate_csv_columns_round_trip(self, tmp_path):
        rc = run_cli("simulate", "--case", "1", "--n", "5", "--burn-in", "3",
                     "--seed", "1", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0].startswith("# ") and "seed=1" in lines[0].split()
        assert lines[1] == "t,x,sigma,eps"
        assert len(lines) == 2 + 5
        table = np.array([[float(v) for v in line.split(",")]
                          for line in lines[2:]])
        s = simulate(CoeffSpec("power", 2000), CASE1,
                     SimConfig(n=5, burn_in=3, seed=1))
        assert np.array_equal(table[:, 0], np.arange(1, 6))
        assert np.array_equal(table[:, 1], s.x_obs)
        assert np.array_equal(table[:, 2], s.sigma_obs)
        assert np.array_equal(table[:, 3], s.eps_obs)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli("mc", "--case", "1", "--n", "300", "--replicates",
                         "5", "--trim", "1", "--seed", "11", "--out",
                         str(out))
            assert rc == 0
        assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()

    def test_rows_csv_counts_evaluations(self, tmp_path):
        rc = run_cli("mc", "--case", "1", "--n", "300", "--replicates", "4",
                     "--trim", "1", "--seed", "11", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[1] == ("case,n,replicate,seed,d_hat,c_hat,a_hat,loss,"
                            "converged,at_boundary,evals")
        assert all(int(line.rsplit(",", 1)[1]) > 0 for line in lines[2:])

    def test_meta_sidecar_written(self, tmp_path):
        run_cli("simulate", "--case", "2", "--n", "16", "--burn-in", "10",
                "--seed", "3", "--out", str(tmp_path))
        meta = (tmp_path / "simulate_meta.txt").read_text()
        assert "seed = 3" in meta
        assert "d = 0.2" in meta

    def test_csv_comment_header(self, tmp_path):
        run_cli("simulate", "--case", "1", "--n", "8", "--burn-in", "10",
                "--seed", "5", "--out", str(tmp_path))
        first = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        assert first.startswith("#")
        assert "seed=5" in first


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run_cli("simulate", "--bogus", "1") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_missing_input_file(self, capsys):
        assert run_cli("estimate", "--input", "/no/such/file.csv") == 2
        assert "does not exist" in capsys.readouterr().err

    def test_non_numeric_column(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("0.5\nnot-a-number\n")
        assert run_cli("estimate", "--input", str(p)) == 2
        assert "2" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_asymcov_non_finite_epsilon(self, eps, tmp_path, capsys):
        assert run_cli("asymcov", "--case", "1", "--eps", eps,
                       "--path-length", "4000", "--burn-in", "2100",
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, make", [
        ("--input", "directory"), ("--input", "bytes"),
        ("--config", "directory")])
    def test_unreadable_file(self, flag, make, tmp_path, capsys):
        path = tmp_path / "in"
        if make == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00\x01")
        # a config file is read before the flags, the input among them
        argv = ["estimate", "--input", str(path),
                "--out", str(tmp_path / "out")]
        if flag == "--config":
            argv += ["--config", str(path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {flag[2:]}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unwritable_output(self, tmp_path, capsys):
        # the output directory exists, but a directory takes the name of
        # the CSV the command writes
        (tmp_path / "simulate.csv").mkdir()
        assert run_cli("simulate", "--case", "1", "--n", "50", "--burn-in",
                       "10", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_estimate_success(self, tmp_path, capsys):
        run_cli("simulate", "--case", "1", "--n", "400", "--burn-in", "100",
                "--seed", "7", "--out", str(tmp_path))
        rc = run_cli("estimate", "--input", str(tmp_path / "simulate.csv"),
                     "--beta", "0.799", "--eps", "0.01", "--fix-c", "0.2",
                     "--fix-a", "1.0", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "d_hat=" in out
        assert (tmp_path / "estimate.csv").exists()


class TestConfigFile:
    def test_defaults_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nseed = 13\nburn-in = 40\n")
        for i, spelling in enumerate((["--config", str(cfg)],
                                      [f"--config={cfg}"])):
            out = tmp_path / str(i)
            rc = run_cli("simulate", "--case", "1", *spelling,
                         "--out", str(out))
            assert rc == 0
            assert "n = 32" in (out / "simulate_meta.txt").read_text()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nseed = 13\n")
        rc = run_cli("simulate", "--case", "1", "--config", str(cfg),
                     "--n", "48", "--burn-in", "10", "--out", str(tmp_path))
        assert rc == 0
        assert "n = 48" in (tmp_path / "simulate_meta.txt").read_text()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert run_cli("simulate", "--config", str(cfg)) == 1

    @pytest.mark.parametrize("line,raw", [("raw", 1), ("raw = yes", 1),
                                          ("raw = 0", 0), ("raw = maybe", None)])
    def test_switch_from_file(self, tmp_path, line, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        rc = run_cli("acf", "--config", str(cfg), "--n", "200", "--burn-in",
                     "10", "--max-lag", "3", "--out", str(tmp_path / "o"))
        if raw is None:
            assert rc == 1 and not (tmp_path / "o").exists()
        else:
            assert rc == 0
            meta = (tmp_path / "o" / "acf_meta.txt").read_text()
            assert f"raw = {raw}" in meta.splitlines()


class TestOtherCommands:
    def test_landscape_csv_shape(self, tmp_path):
        rc = run_cli("landscape", "--n", "300", "--burn-in", "500", "--seed",
                     "3", "--eps-list", "0.01,0.001", "--d-grid", "0,0.4,5",
                     "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "landscape.csv").read_text().strip().splitlines()
        assert lines[1] == "epsilon,d,loss"
        assert len(lines) == 2 + 2 * 5

    def test_acf_csv(self, tmp_path):
        rc = run_cli("acf", "--case", "2", "--n", "500", "--burn-in", "200",
                     "--seed", "4", "--max-lag", "7", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "acf.csv").read_text().strip().splitlines()
        assert lines[1] == "lag,acf"
        assert len(lines) == 2 + 8

    def test_acf_decay_fit(self, tmp_path, capsys):
        rc = run_cli("acf", "--case", "2", "--n", "20000", "--burn-in",
                     "2000", "--seed", "4", "--max-lag", "40", "--fit",
                     "2,40", "--out", str(tmp_path))
        assert rc == 0
        assert "slope=" in capsys.readouterr().out
        lines = (tmp_path / "acf_decay.csv").read_text().strip().splitlines()
        assert lines[1] == "k,value,log_k,log_value"
        assert lines[-1].startswith("# fit: slope=")

    def test_asymcov_output(self, tmp_path, capsys):
        rc = run_cli("asymcov", "--case", "1", "--path-length", "20000",
                     "--burn-in", "2100", "--seed", "1", "--out",
                     str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "sd_d=" in out
        text = (tmp_path / "asymcov.csv").read_text()
        assert "entry_i,entry_j,G,H,cov" in text
        assert text.strip().splitlines()[-1].startswith("# sd_d=")

    def test_asymcov_burn_in_below_trunc(self, tmp_path):
        # lags before the path's first step read the empty past
        rc = run_cli("asymcov", "--case", "1", "--path-length", "4000",
                     "--burn-in", "100", "--out", str(tmp_path))
        assert rc == 0
        text = (tmp_path / "asymcov.csv").read_text()
        assert "entry_i,entry_j,G,H,cov" in text
        meta = (tmp_path / "asymcov_meta.txt").read_text().splitlines()
        assert "burn_in = 100" in meta and "trunc = 2000" in meta

    def test_check_moments_output(self, capsys):
        assert run_cli("check-moments", "--case", "1") == 0
        out = capsys.readouterr().out
        assert "M3" in out and "lhs=" in out

    def test_check_moments_high_order(self, capsys):
        assert run_cli("check-moments", "--case", "1", "--orders",
                       "4,24") == 0
        assert "M'_24" in capsys.readouterr().out

    def test_check_moments_overflowing_order(self, capsys):
        assert run_cli("check-moments", "--case", "1", "--orders", "400") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "order 302" in err[0]

    def test_rates_output(self, capsys):
        assert run_cli("rates", "--case", "2", "--n", "10000") == 0
        out = capsys.readouterr().out
        assert "score_gap_order=" in out and "regime=clt" in out

    def test_mc_summary_schema(self, tmp_path):
        rc = run_cli("mc", "--case", "2", "--n", "300", "--replicates", "5",
                     "--trim", "1", "--seed", "2", "--threads", "2",
                     "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[1] == "case,n,trimmed,stat,value"
        stats = ["count", "mean", "median", "s", "s_tilde", "s_scaled",
                 "s_tilde_scaled", "skewness", "q_skewness"]
        # the untrimmed statistics, then the trimmed ones
        assert [line.split(",")[2:4] for line in lines[2:]] == [
            [trimmed, stat] for trimmed in "01" for stat in stats]
        assert (tmp_path / "normplot_all_n300.csv").exists()
        assert (tmp_path / "normplot_trimmed_n300.csv").exists()

    def test_mc_default_seed_is_the_studys(self, tmp_path):
        # without --seed, mc runs the replicates of the library's study
        rc = run_cli("mc", "--case", "1", "--n", "300", "--replicates", "4",
                     "--trim", "1", "--out", str(tmp_path))
        assert rc == 0
        meta = (tmp_path / "mc_meta.txt").read_text().splitlines()
        assert "seed = 42" in meta
        report = montecarlo.run_study(montecarlo.case_study(
            1, n_values=(300,), replicates=4, trim=1))
        lines = (tmp_path / "rows.csv").read_text().splitlines()[2:]
        assert len(lines) == len(report.rows) == 4
        for line, row in zip(lines, report.rows):
            fields = line.split(",")
            assert int(fields[3]) == row.seed
            assert [float(v) for v in fields[4:8]] == [
                row.d_hat, row.c_hat, row.a_hat, row.loss]
            assert int(fields[10]) == row.evals


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    out = tmp_path_factory.mktemp("series")
    assert run_cli("simulate", "--case", "1", "--n", "400", "--burn-in", "100",
                   "--seed", "7", "--out", str(out)) == 0
    return out / "simulate.csv"


REJECTED = [
    "mc --case 1 --replicates 0 --out {out}",
    "mc --case 1 --n 300 --replicates 4 --out {out}",      # default --trim 10
    "mc --case 1 --n 300 --replicates 5 --trim 4 --out {out}",
    "mc --n 300 --replicates 5 --trim 1 --out {out}",      # no --case, --beta
    "mc --case 1 --n 300,x --out {out}",
    "mc --case 1 --n 300,300 --replicates 3 --trim 1 --out {out}",
    "mc --case 1 --threads 0 --out {out}",
    "mc --case 1 --seed -5 --out {out}",
    "mc --case 1 --eps 0 --out {out}",
    "mc --case 1 --n 300 --beta 0.1 --out {out}",        # degenerate window
    "mc --case 1 --n 100 --beta 0.45 --out {out}",       # 7-point window
    "mc --case 1 --trunc 0 --out {out}",
    "mc --case 1 --d 0.6 --out {out}",                    # theta0 off the box
    "simulate --seed -1 --out {out}",
    "simulate --n 50,60 --out {out}",
    "simulate --n , --out {out}",
    "simulate --case 1 --conf x --out {out}",
    "simulate --n -5 --out {out}",
    "simulate --trunc 0 --out {out}",
    "acf --trunc -1 --out {out}",
    "landscape --trunc 0 --out {out}",
    "estimate --input {input} --variant bar --out {out}",    # no such flag
    "estimate --input {input} --trunc 50 --out {out}",
    "landscape --beta 0 --out {out}",
    "landscape --beta 1.5 --out {out}",
    "landscape --d-grid 0,1 --out {out}",
    "landscape --d-grid 0,0.4,0 --out {out}",
    "landscape --eps-list 0.01, --out {out}",
    "landscape --eps-list -1 --out {out}",
    "landscape --eps-list 0.01,inf --out {out}",
    "landscape --n 3 --out {out}",                          # degenerate window
    "acf --fit 2 --out {out}",
    "acf --max-lag -1 --out {out}",
    "acf --n 500 --max-lag 500 --out {out}",
    "acf --fit 9,3 --out {out}",                             # empty range
    "acf --fit 1,3 --out {out}",                             # 3 lags
    "acf --max-lag 4 --fit 1,50 --out {out}",                # 4 lags
    "asymcov --path-length 1 --out {out}",
    "asymcov --trunc 0 --burn-in 0 --out {out}",
    "simulate --case 1 --out {input}",                       # a file
    "asymcov --case 1 --out {input}/run",                    # under a file
    "check-moments --orders 4,x",
    "check-moments --orders 1",
    "check-moments --orders 4,1",
    "rates --n 300 --replicates 2 --out {out}",             # no --case, --beta
    "rates --case 1 --beta 1.5 --out {out}",
    "rates --case 1 --replicates -1 --out {out}",
    "rates --case 1 --seed -2 --replicates 2 --out {out}",
    "rates --case 1 --n 2 --replicates 2 --out {out}",      # degenerate window
]


@pytest.mark.parametrize("argv", REJECTED)
def test_rejected_before_any_work(argv, tmp_path, series, capsys,
                                  monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a path was simulated before the check")

    for module in (cli, montecarlo, diagnostics, asymptotics):
        monkeypatch.setattr(module, "simulate", no_work)
    # asymcov reads its path from the simulator's pieces
    monkeypatch.setattr(asymptotics, "_pieces", no_work)
    out = tmp_path / "out"
    args = argv.format(out=out, input=series).split()
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "Traceback" not in err
    assert not out.exists()


# parameter values off the parameter space, which the library refuses with
# ValidationError inside the command (so no stand-in simulator here)
OFF_THE_SPACE = [
    "simulate --d 0.6 --out {out}",
    "acf --c 5 --out {out}",
    "landscape --a 20 --out {out}",
    "asymcov --d 0.47 --out {out}",
    "rates --case 1 --c 5 --replicates 2 --out {out}",
    "estimate --input {input} --fix-d 0.9 --out {out}",
    "estimate --input {input} --eps 0 --out {out}",
]


@pytest.mark.parametrize("argv", OFF_THE_SPACE)
def test_off_the_space_is_a_usage_error(argv, tmp_path, series, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv.format(out=out, input=series).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_acf_fit_leaves_no_output(tmp_path, capsys):
    # the decay fit has too few positive pairs in 1..7 on this path
    out = tmp_path / "out"
    rc = run_cli("acf", "--case", "2", "--n", "500", "--burn-in", "200",
                 "--max-lag", "7", "--fit", "1,7", "--out", str(out))
    assert rc != 0
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "acf.csv").exists()


def meta_line(key, value):
    return f"{key} = {value:.17g}" if isinstance(value, float) else \
        f"{key} = {value}"


# (command line, overriding flags, output file, meta values of the override)
HONOURED = [
    ("simulate --case 2 --n 16 --burn-in 10", "--d 0.3 --a 1.5",
     "simulate.csv", dict(d=0.3, c=0.2, a=1.5)),
    ("mc --case 1 --n 300 --replicates 4 --trim 1 --burn-in 100",
     "--eps 0.5 --beta 0.5 --d 0.3 --trunc 50", "rows.csv",
     dict(eps=0.5, beta=0.5, d=0.3, c=0.2, trunc=50, replicates=4)),
    ("estimate --input {input} --fix-c 0.2 --fix-a 1.0", "--beta 0.5",
     "estimate.csv", dict(beta=0.5, eps=0.01)),
    ("acf --case 2 --n 500 --burn-in 200 --max-lag 7", "--trunc 100 --c 0.3",
     "acf.csv", dict(trunc=100, c=0.3, d=0.2)),
    ("landscape --n 300 --burn-in 200 --eps-list 0.01 --d-grid 0,0.4,3",
     "--d-grid 0,0.25,3 --beta 0.5", "landscape.csv",
     dict(d_grid="0,0.25,3", beta=0.5)),
    ("asymcov --case 1 --path-length 4000 --burn-in 2100",
     "--eps 0.05 --d 0.2", "asymcov.csv", dict(eps=0.05, d=0.2, trunc=2000)),
    ("rates --case 2 --n 300 --replicates 2 --burn-in 100",
     "--beta 0.5 --eps 0.1", "rates.csv", dict(beta=0.5, eps=0.1, d=0.2)),
]


@pytest.mark.parametrize("base,flags,output,expected", HONOURED,
                         ids=[row[0].split()[0] for row in HONOURED])
def test_explicit_flags_honoured(base, flags, output, expected, tmp_path,
                                 series):
    results = []
    for i, extra in enumerate(("", flags)):
        out = tmp_path / str(i)
        args = f"{base} {extra} --out {out}".format(input=series).split()
        assert run_cli(*args) == 0
        results.append((out / output).read_text().splitlines()[1:])
    command = base.split()[0]
    meta = (out / f"{command}_meta.txt").read_text().splitlines()
    for key, value in expected.items():
        assert meta_line(key, value) in meta
    assert results[0] != results[1]


# every command, run in the working directory with the default --out .,
# and whether it writes files
OUTPUTS = [
    ("simulate --case 1 --n 16 --burn-in 10", True),
    ("estimate --input {input} --fix-c 0.2 --fix-a 1.0", True),
    ("mc --case 1 --n 300,400 --replicates 4 --trim 1 --burn-in 100", True),
    ("landscape --n 300 --burn-in 200 --eps-list 0.01,0 --d-grid 0,0.4,3",
     True),
    ("acf --case 2 --n 20000 --burn-in 2000 --seed 4 --max-lag 40 "
     "--fit 2,40", True),
    ("asymcov --case 1 --path-length 4000 --burn-in 2100", True),
    ("rates --case 2 --n 300 --replicates 2 --burn-in 100", True),
    ("check-moments --case 1", False),
    ("rates --case 2 --n 300", False),
]


@pytest.mark.parametrize(
    "argv,writes", OUTPUTS,
    ids=[argv.split()[0] + ("" if writes else "-prints-only")
         for argv, writes in OUTPUTS])
def test_one_writer(argv, writes, tmp_path, series, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv.format(input=series).split()) == 0
    written = {p.name for p in tmp_path.iterdir()}
    stdout = capsys.readouterr().out.splitlines()
    if not writes:
        assert written == set()
        assert not any(line.startswith("wrote") for line in stdout)
        return
    command = argv.split()[0]
    meta = (tmp_path / f"{command}_meta.txt").read_text().splitlines()
    recorded = {tuple(line.split(" = ", 1)) for line in meta}
    csvs = sorted(name for name in written if name.endswith(".csv"))
    assert csvs and written == {*csvs, f"{command}_meta.txt"}
    for name in csvs:
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first.startswith("# ")
        assert {tuple(item.split("=", 1))
                for item in first[2:].split(" ")} == recorded
    names, _, outdir = stdout[-1].removeprefix("wrote ").partition(" to ")
    assert stdout[-1].startswith("wrote ") and outdir == "."
    assert set(names.split(", ")) == written


@pytest.fixture(scope="module")
def series_500(tmp_path_factory):
    out = tmp_path_factory.mktemp("series_500")
    assert run_cli("simulate", "--case", "1", "--n", "500", "--burn-in",
                   "1000", "--out", str(out)) == 0
    return out / "simulate.csv"


# (command line, a line it must print or None): commands on numeric paths
# that the tests above do not reach; each must exit 0
COMPLETES = [
    # estimate and mc through the d-table's derivative rows: a FARIMA
    # profile fit (its weights' product rule) and joint fits, where c is free
    ("estimate --input {input} --beta 1 --fix-c 0.2 --fix-a 1 --out run",
     None),
    ("estimate --input {input} --beta 1 --fix-d 0.1 --out run", None),
    ("estimate --input {input} --beta 1 --family farima --fix-c 0.2 "
     "--fix-a 1 --out run", None),
    ("mc --case 2 --n 300 --replicates 4 --trim 1 --estimate-all --out run",
     None),
    ("landscape --n 500 --d-grid 0,0.45,10 --out run", None),
    # rates: the predictions alone, and the score gap with and without
    # burn-in; without it both scores read the same past, so the gap is 0
    ("rates --case 2 --n 2000", None),
    ("rates --case 2 --n 2000 --replicates 2 --burn-in 3000 --out run", None),
    ("rates --case 1 --n 500 --beta 1 --burn-in 0 --replicates 2 --out run",
     "empirical_gap=0 (replicates=2)"),
    ("rates --case 2 --n 2000 --burn-in 0 --replicates 2 --out run",
     "empirical_gap=0 (replicates=2)"),
    # asymcov: paths of one piece to many, J from 40 to 20000, a tiny and a
    # huge epsilon, and a burn-in of 0, whose lags before the path read the
    # empty past
    ("asymcov --case 1 --path-length 40001 --burn-in 2100 --out run", None),
    ("asymcov --case 1 --trunc 20000 --burn-in 20000 --path-length 40001 "
     "--out run", None),
    ("asymcov --case 1 --trunc 200 --burn-in 300 --path-length 200000 "
     "--out run", None),
    ("asymcov --case 1 --trunc 5000 --burn-in 5000 --path-length 400000 "
     "--out run", None),
    ("asymcov --case 1 --trunc 40 --burn-in 200000 --path-length 40 "
     "--out run", None),
    ("asymcov --case 1 --path-length 40 --burn-in 20000 --out run", None),
    ("asymcov --case 1 --eps 1e200 --path-length 4000 --burn-in 2100 "
     "--out run", None),
    ("asymcov --case 1 --trunc 20000 --burn-in 20000 --path-length 40001 "
     "--eps 1e-300 --out run", None),
    ("asymcov --case 1 --path-length 4000 --burn-in 0 --out run", None),
]


@pytest.mark.parametrize("argv,line", COMPLETES,
                         ids=[argv for argv, _ in COMPLETES])
def test_completes(argv, line, tmp_path, series_500, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv.format(input=series_500).split()) == 0
    if line is not None:
        assert line in capsys.readouterr().out.splitlines()
