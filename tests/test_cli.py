"""Command-line behavior: outputs, exit codes, determinism, env override."""

import csv
import io
import json
import math
import os
import re
import select
import shlex
import subprocess
import sys

import pytest

import renyitail
from renyitail import experiments as ex
from renyitail.cli import (_BLOCK_ROWS, _FIGURES, _resolve_flags,
                           _write_numeric_rows, build_parser, main)
from renyitail.engine import SeedSpec
from renyitail.rand_models import draw, parse_spec
from renyitail.renyi import heavy_sample

_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(renyitail.__file__))}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def test_rate_gamma_hand_values(capsys):
    code, out, _ = _run(capsys, "rate", "--family", "gamma", "--r", "1", "--c", "0.5")
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["upper_rate"]) == pytest.approx(-0.09453, abs=5e-6)
    assert float(row["lower_rate"]) == pytest.approx(-0.19315, abs=5e-6)


def test_rate_iid(capsys):
    code, out, _ = _run(capsys, "rate", "--family", "iid", "--c", "0.9")
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["r"] == "1.0"
    assert float(row["upper_rate"]) == pytest.approx(-0.9 + math.log(1.9), abs=1e-9)


def test_rate_spec_point(capsys):
    code, out, _ = _run(capsys, "rate", "--spec", "exp:gamma=1", "--z", "2.0")
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["rate"]) == pytest.approx(1.0 - math.log(2.0), abs=1e-9)


def test_rate_degenerate_bernoulli_off_its_atom(capsys):
    code, out, _ = _run(capsys, "rate", "--spec", "bern:gamma=1", "--z", "0.5")
    assert code == 0
    assert _parse_csv(out)[0]["rate"] == "inf"


def test_rate_conflicting_modes_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "gamma", "--spec", "exp:gamma=1", "--z", "1.0"])
    assert exc.value.code == 2


def test_rate_c_out_of_domain_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "gamma", "--r", "1", "--c", "1.5"])
    assert exc.value.code == 2


def test_simulate_deterministic(capsys):
    args = ("simulate", "--spec", "exp:gamma=0.5", "--n", "5", "--c", "1", "--seed", "7")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = _parse_csv(out1)
    assert [r["index"] for r in rows] == ["1", "2", "3", "4", "5"]
    w = [float(r["w"]) for r in rows]
    assert w == sorted(w) and w[0] >= 1.0


def test_simulate_rows_across_blocks(tmp_path, capsys):
    # more than three write blocks, the last one partial, and zero spacings (bern)
    n = 3 * _BLOCK_ROWS + 123
    argv = ["simulate", "--spec", "bern:gamma=0.5", "--n", str(n), "--c", "2.5", "--seed", "11"]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "sim.csv"
    assert main(argv + ["--out", str(path)]) == 0
    written = path.read_bytes().decode("utf-8")
    h = heavy_sample(draw(parse_spec("bern:gamma=0.5"), SeedSpec(11).generator(), n), 2.5)
    assert (h.zhat == 0.0).any()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "w", "scaled_log_spacing"])
    writer.writerows(zip(range(1, n + 1), h.w.tolist(), h.zhat.tolist()))
    for text in (out, written):
        meta, body = text.split("index,", 1)
        assert "index," + body == buf.getvalue()
        assert meta.count("\r\n") == 6 and meta.endswith("# stream=0\r\n")
    assert out.split("\r\n", 1)[1] == written.split("\r\n", 1)[1]  # all but the invocation
    code, out, _ = _run(capsys, *argv, "--format", "json")
    rows = [(r["index"], r["w"], r["scaled_log_spacing"]) for r in json.loads(out)["rows"]]
    assert rows == list(zip(range(1, n + 1), h.w.tolist(), h.zhat.tolist()))


def test_numeric_rows_match_csv_writer():
    rows = [(math.nan, math.inf, True), (-math.inf, -0.0, 2**70), (5e-324, 1e16, False),
            (1e-7, 0.0, -3), (0.1, 1 / 3, 12345678901234567890)]
    expected = io.StringIO()
    csv.writer(expected).writerows(rows)
    written = io.StringIO()
    _write_numeric_rows(written, rows)
    assert written.getvalue() == expected.getvalue()


def _simulate(n, *flags, **popen):
    return subprocess.Popen([sys.executable, "-m", "renyitail.cli", "simulate",
                             "--spec", "exp:gamma=0.5", "--n", str(n), *flags],
                            stderr=subprocess.PIPE, env=_ENV, **popen)


@pytest.mark.parametrize("n", [2000, 200000])
def test_reader_closing_stdout_early_exits_quietly(n):
    proc = _simulate(n, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"# invocation=")
        proc.stdout.close()  # as `| head -1` does
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_out_file_that_fails_to_write_exits_1(tmp_path):
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    proc = _simulate(200000, "--out", str(fifo))
    try:
        assert select.select([reader], [], [], 120)[0]
        assert os.read(reader, 100).startswith(b"# invocation=")
        os.close(reader)  # the next write to --out fails with a broken pipe
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err.decode().startswith("renyitail: error: [Errno 32] Broken pipe")


def test_simulate_memory_does_not_grow_with_the_rows(tmp_path):
    pytest.importorskip("resource")
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, KiB elsewhere
    code = ("import resource, sys; from renyitail.cli import main; "
            "main(['simulate', '--spec', 'exp:gamma=0.5', '--n', sys.argv[1], '--out', sys.argv[2]]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    # A process started from this one inherits this one's peak RSS as its own
    # ru_maxrss, so each measured process is started by a small launcher.  Not
    # RUSAGE_CHILDREN either: it would count the suite's forked workers.
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    peak = {}
    for n in (1000, 400000):
        done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code, str(n),
                               str(tmp_path / f"{n}.csv")],
                              capture_output=True, env=_ENV, timeout=300, check=True)
        peak[n] = int(done.stdout) * unit
    assert (peak[400000] - peak[1000]) / (400000 - 1000) < 100  # bytes per row


def test_simulate_rejects_iid_law(capsys):
    code, _, err = _run(capsys, "simulate", "--spec", "hall", "--n", "5", "--c", "1")
    assert code == 1
    assert "spacing law" in err


def test_estimate_hill_hand_value(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    code, out, _ = _run(capsys, "estimate", str(data), "--method", "hill",
                        "--k", "2", "--c", "1")
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["gamma_hat"]) == pytest.approx(1.03972, abs=5e-6)
    assert row["method"] == "hill"
    assert float(row["lower"]) <= 1.03972 <= float(row["upper"])


def test_estimate_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n4\n8\n"))
    code, out, _ = _run(capsys, "estimate", "--method", "hill", "--k", "2", "--c", "1")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(1.5 * math.log(2.0), rel=1e-6)


def test_estimate_unsorted_exit_1_with_line(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n4\n2\n8\n")
    code, _, err = _run(capsys, "estimate", str(data), "--method", "hill", "--c", "1")
    assert code == 1
    assert ":3:" in err  # the decreasing pair is reported at line 3


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text, line", [("1\n4\n2\n", 3), ("1\n\n4\n2\n", 4),
                                        ("\n1\n 4\n\n\n3\n5\n", 6)])
def test_estimate_unsorted_reports_the_line(source, text, line, tmp_path, monkeypatch, capsys):
    code, out, err, where = _estimate_from(source, text, tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == (f"renyitail: error: {where}:{line}: data decreases here; "
                   "pass --allow-unsorted to sort\n")


def test_estimate_allow_unsorted(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n4\n2\n8\n")
    code, out, _ = _run(capsys, "estimate", str(data), "--method", "hill",
                        "--k", "2", "--c", "1", "--allow-unsorted")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(1.5 * math.log(2.0), rel=1e-6)


def test_estimate_bad_number_exit_1(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\nfoo\n")
    code, _, err = _run(capsys, "estimate", str(data), "--c", "1")
    assert code == 1
    assert ":2:" in err


def test_estimate_unreadable_exit_1(capsys):
    code, _, err = _run(capsys, "estimate", "/no/such/file", "--c", "1")
    assert code == 1


def test_estimate_quantile_method(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("\n".join(str(math.exp(0.1 * i)) for i in range(1, 21)) + "\n")
    code, out, _ = _run(capsys, "estimate", str(data), "--method", "quantile",
                        "--s", "0.5", "--c", "1")
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["method"] == "quantile"
    assert row["interval_method"] == "quantile_h"
    assert float(row["gamma_hat"]) == pytest.approx(1.0 / (-math.log(0.5)), rel=1e-9)


def test_estimate_s_out_of_domain_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--method", "quantile", "--s", "1.5", "--c", "1"])
    assert exc.value.code == 2


def test_fit_uniform(tmp_path, capsys):
    data = tmp_path / "w.txt"
    w = [1.0]
    for zhat, coef in zip((0.3, 0.1, 0.2, 0.8, 0.5), (5, 4, 3, 2, 1)):
        w.append(w[-1] * math.exp(zhat / coef))
    data.write_text("\n".join(str(v) for v in w[1:]) + "\n")
    code, out, _ = _run(capsys, "fit", str(data), "--family", "uniform",
                        "--k", "3", "--c", "1")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(0.4, rel=1e-9)


def test_fit_gamma_needs_r(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n")
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(data), "--family", "gamma", "--c", "1"])
    assert exc.value.code == 2
    assert "--family gamma needs --r" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(argv, "1\n2\n4\n", "k must lie in", id=" ".join(argv)) for argv in [
        ("estimate", "--k", "5"),
        ("fit", "--family", "exponential", "--k", "5"),
        ("estimate", "--k", "1"),  # the default spacing interval needs k >= 2
    ]
] + [
    # one value is too few for the spacing interval, with or without --k
    pytest.param(argv, "3\n", "needs at least 2 values, got 1", id=" ".join(argv) + " one value")
    for argv in [("estimate",), ("estimate", "--method", "quantile")]
])
def test_k_out_of_range_exit_1(argv, text, message, tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text(text)
    code, out, err = _run(capsys, argv[0], str(data), "--c", "1", *argv[1:])
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("figure_id, experiment", [("1", "variance_curve"), ("t1", "exp_limit")])
def test_figure_one_rep_exit_1(figure_id, experiment, capsys):
    # figure 1's variances and t1's correlations need two replications
    code, out, err = _run(capsys, "figure", "--id", figure_id, "--reps", "1")
    assert code == 1
    assert out == ""
    assert err == f"renyitail: error: {experiment} needs at least 2 replications, got 1\n"


def test_figure_law_given_twice_exit_1(capsys):
    # equal once parsed: the CSV header would repeat its columns, and JSON keep one pair
    code, out, err = _run(capsys, "figure", "--id", "3", "--spec", "exp:gamma=0.5",
                          "--spec", "EXP:gamma=0.50", "--n", "50", "--reps", "20")
    assert code == 1
    assert out == ""
    assert err == "renyitail: error: law exp:gamma=0.5 is given twice\n"


def test_figure_1_zero_variance_law_exit_1(capsys):
    # the statistic divides by sd(Z) = 0; no numpy warning and no NaN column
    code, out, err = _run(capsys, "figure", "--id", "1", "--spec", "bern:gamma=1",
                          "--n", "60", "--reps", "20")
    assert code == 1
    assert out == ""
    assert err == ("renyitail: error: variance_curve needs a law of positive variance, "
                   "got bern:gamma=1.0\n")


@pytest.mark.parametrize("flags, values", [
    (("--spec", "exp:gamma=400"), "C = 1, x_n = 775.585"),
    (("--spec", "exp:gamma=1", "--c", "1e308"), "C = 1e+308, x_n = 1.93896"),
], ids=["exp overflows", "C times exp overflows"])
def test_simulate_overflow_exit_1_without_a_warning(flags, values):
    # a subprocess, so stderr shows any numpy warning under the default filters
    done = subprocess.run([sys.executable, "-m", "renyitail.cli", "simulate", "--n", "5",
                           "--seed", "1", *flags], capture_output=True, text=True, env=_ENV)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"renyitail: error: C*exp(x_n) overflows float64: {values}\n"


def test_figures_never_form_w_so_a_large_gamma_does_not_overflow(capsys):
    # x_n reaches about 760 here, so C*exp(x_n) overflows; figures 2 and 3 read the
    # log-spacings from x alone
    reps, eps = 400, 0.1
    code, out, _ = _run(capsys, "figure", "--id", "3", "--spec", "exp:gamma=100", "--n", "1000",
                        "--reps", str(reps))
    assert code == 0
    last = _parse_csv(out)[-1]
    assert last["k"] == "1000"
    se = math.sqrt(eps * (1.0 - eps) / reps)
    assert abs(float(last["exp:gamma=100.0_self"]) - (1.0 - eps)) <= 4.0 * se
    code, out, _ = _run(capsys, "figure", "--id", "2", "--spec", "exp:gamma=100", "--n", "1000")
    assert code == 0
    assert len(_parse_csv(out)) == 1000


def test_fit_exponential_matches_hill(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    code, out, _ = _run(capsys, "fit", str(data), "--family", "exponential",
                        "--k", "2", "--c", "1")
    assert code == 0
    assert float(_parse_csv(out)[0]["gamma_hat"]) == pytest.approx(1.5 * math.log(2.0), rel=1e-9)


def test_figure_small_run_csv_meta(capsys):
    code, out, err = _run(capsys, "figure", "--id", "3", "--n", "50", "--reps", "20",
                          "--seed", "9")
    assert code == 0
    assert "# invocation=" in out and "--id 3" in out
    assert "# master_seed=9" in out
    rows = _parse_csv(out)
    assert rows and "k" in rows[0]


def test_figure_json_format(capsys):
    code, out, _ = _run(capsys, "figure", "--id", "ld", "--reps", "500",
                        "--seed", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "meta" in payload and "rows" in payload
    assert payload["rows"][0]["limit"] is not None


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("argv, column, value", [
    (("rate", "--spec", "bern:gamma=1", "--z", "0.5"), "rate", "inf"),
    (("figure", "--id", "ld", "--spec", "unif:gamma=0.5", "--y", "1.2", "--reps", "200"),
     "limit", "-inf"),
])
def test_json_infinite_cells_are_strict_json(capsys, argv, column, value):
    """jq and JSON.parse reject Infinity; an infinite cell is the CSV's text."""
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert {row[column] for row in rows} == {value}
    _, csv_out, _ = _run(capsys, *argv)
    assert {row[column] for row in _parse_csv(csv_out)} == {value}


def test_figure_out_file(tmp_path, capsys):
    out_path = tmp_path / "fig.csv"
    code, out, _ = _run(capsys, "figure", "--id", "1", "--n", "50", "--reps", "5",
                        "--seed", "9", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("# ")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
@pytest.mark.parametrize("failure,message", [
    ("exit", "a replication worker process exited without a result"),
    ("unpicklable", "a replication worker process raised ValueError: <function"),
])
def test_figure_reports_a_worker_failure_exit_1(monkeypatch, capsys, failure, message):
    """A forked worker's failure that cannot be re-raised as itself is a
    one-line error with exit 1, not a traceback, and leaves no child."""
    from renyitail import engine, experiments

    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    parent, real_draw = os.getpid(), experiments.draw

    def draw_failing_in_a_child(spec, rng, count):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(3)
            raise ValueError(lambda: 0)
        return real_draw(spec, rng, count)

    monkeypatch.setattr(experiments, "draw", draw_failing_in_a_child)
    code, out, err = _run(capsys, "figure", "--id", "1", "--n", "50", "--reps", "20",
                          "--workers", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"renyitail: error: {message}") and err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_figure_spec_override(capsys):
    code, out, _ = _run(capsys, "figure", "--id", "1", "--n", "50", "--reps", "5",
                        "--spec", "exp:gamma=0.25", "--seed", "9")
    assert code == 0
    rows = _parse_csv(out)
    assert "exp:gamma=0.25" in rows[0]


def test_env_seed_overrides_flag(monkeypatch, capsys):
    args = ("simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "1", "--seed", "7")
    _, baseline, _ = _run(capsys, *args)
    monkeypatch.setenv("RENYI_SEED", "99")
    _, overridden, _ = _run(capsys, *args)
    assert overridden != baseline
    _, env99, _ = _run(capsys, "simulate", "--spec", "exp:gamma=0.5", "--n", "4",
                       "--c", "1", "--seed", "99")
    monkeypatch.delenv("RENYI_SEED")
    _, plain99, _ = _run(capsys, "simulate", "--spec", "exp:gamma=0.5", "--n", "4",
                         "--c", "1", "--seed", "99")
    assert env99.replace("--seed 7", "--seed 99") == plain99


@pytest.mark.parametrize("flags", [("--seed", "-1"), ("--seed", str(2**64)), ("--stream", "-1"),
                                   ("--stream", str(2**64))], ids=" ".join)
def test_seed_outside_64_bits_exit_2(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "exp:gamma=1", "--n", "2", *flags])
    assert exc.value.code == 2
    assert "0..2**64-1" in capsys.readouterr().err


def test_largest_seed_is_accepted(capsys):
    code, out, _ = _run(capsys, "simulate", "--spec", "exp:gamma=1", "--n", "2",
                        "--seed", str(2**64 - 1), "--stream", str(2**64 - 1))
    assert code == 0
    assert f"# master_seed={2**64 - 1}" in out


@pytest.mark.parametrize("env", ["-1", "-3", str(2**64)])
def test_env_seed_outside_64_bits_exit_1(env, monkeypatch, capsys):
    monkeypatch.setenv("RENYI_SEED", env)
    for argv in (("simulate", "--spec", "exp:gamma=1", "--n", "2"),
                 ("figure", "--id", "ld", "--reps", "5")):
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert out == "" and "RENYI_SEED" in err


def test_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_bad_spec_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "weibull:gamma=1", "--n", "4", "--c", "1"])
    assert exc.value.code == 2


def test_negative_n_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", "exp:gamma=0.5", "--n", "0", "--c", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_figure_non_finite_y_exit_2(y):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--id", "ld", "--y", y])
    assert exc.value.code == 2


def _estimate_from(source, text, tmp_path, monkeypatch, capsys, *flags):
    """Run `estimate` on `text` read from a file or from stdin; returns the name it reports."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path, where = "-", "<stdin>"
    else:
        data = tmp_path / "w.txt"
        data.write_text(text, encoding="utf-8")
        path = where = str(data)
    return (*_run(capsys, "estimate", path, "--c", "1", *flags), where)


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text, message", [
    ("1\n\nfoo\n", ":3: not a number: 'foo'"),  # the blank line counts
    ("1\n2\n 4x \n", ":3: not a number: '4x'"),
    ("1\n0\n", ":2: data must be positive and finite"),
    ("1\n-1\n", ":2: data must be positive and finite"),
    ("1\nnan\n", ":2: data must be positive and finite"),
    ("1\n2\ninf\n", ":3: data must be positive and finite"),
    ("0\nfoo\n", ":1: data must be positive and finite"),  # the first bad line wins
    ("foo\n0\n", ":1: not a number: 'foo'"),
    ("1\n1.5\x00\n", ":2: not a number: '1.5\\x00'"),  # numpy's own str cast takes it
    ("1\n0x10\n", ":2: not a number: '0x10'"),
    ("", ": no data"),
    (" \n\t\n\n", ": no data"),
])
def test_read_column_messages(source, text, message, tmp_path, monkeypatch, capsys):
    code, out, err, where = _estimate_from(source, text, tmp_path, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == f"renyitail: error: {where}{message}\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_read_column_padding_and_blank_lines(source, tmp_path, monkeypatch, capsys):
    flags = ("--method", "hill", "--k", "2")
    code, plain, _, _ = _estimate_from(source, "1\n2\n4\n8\n", tmp_path, monkeypatch, capsys,
                                       *flags)
    assert code == 0
    for text in ("  1 \n\t2\n4  \n 8\t\n", "\n1\n\n2\n4\n \n8\n\n",
                 "1.0\n2e0\n4_0e-1\n8\n", "\u0661\n\u0662\n\u0664\n\u0668\n"):  # Arabic-Indic 1 2 4 8
        code, out, _, _ = _estimate_from(source, text, tmp_path, monkeypatch, capsys, *flags)
        assert code == 0
        assert out.split("\r\n")[1:] == plain.split("\r\n")[1:]  # all but the invocation


IGNORED_FLAGS = [
    (("estimate", "-", "--method", "quantile", "--k", "2", "--c", "1"),
     "--k has no effect with --method quantile"),
    (("estimate", "-", "--method", "quantile", "--interval", "self", "--c", "1"),
     "--interval has no effect with --method quantile"),
    (("estimate", "-", "--method", "ml-uniform", "--interval", "none", "--c", "1"),
     "--interval has no effect with --method ml-uniform"),
    (("estimate", "-", "--s", "0.5", "--c", "1"), "--s has no effect with --method hill"),
    (("estimate", "-", "--method", "ml-uniform", "--s", "0.5", "--c", "1"),
     "--s has no effect with --method ml-uniform"),
    (("estimate", "-", "--method", "ml-uniform", "--eps", "0.05", "--c", "1"),
     "--eps has no effect with --method ml-uniform"),
    (("estimate", "-", "--interval", "none", "--eps", "0.05", "--c", "1"),
     "--eps has no effect with --interval none"),
    (("fit", "-", "--family", "exponential", "--r", "2", "--c", "1"),
     "--r has no effect with --family exponential"),
    (("fit", "-", "--family", "uniform", "--r", "2", "--c", "1"),
     "--r has no effect with --family uniform"),
    (("rate", "--family", "iid", "--r", "3", "--c", "0.5"), "--r has no effect with --family iid"),
    (("rate", "--spec", "exp:gamma=1", "--z", "2", "--r", "3"), "--r has no effect without --family"),
    (("rate", "--spec", "exp:gamma=1", "--z", "2", "--c", "0.5"),
     "--c has no effect without --family"),
    *[(("figure", "--id", fig, "--y", "2"), f"--y has no effect with --id {fig}")
      for fig in ("1", "2", "3", "t1")],
    # figure 2 averages --reps realizations, and no figure has --avg-seeds
    *[(("figure", "--id", fig, "--avg-seeds", "2"), "unrecognized arguments: --avg-seeds 2")
      for fig in ("1", "2", "3", "t1", "ld")],
    (("figure", "--id", "t1", "--n", "50"), "--n has no effect with --id t1"),
    *[(("figure", "--id", fig, "--eps", "0.2"), f"--eps has no effect with --id {fig}")
      for fig in ("1", "2", "t1", "ld")],
]


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0]))
                                           for case in IGNORED_FLAGS])
def test_ignored_flag_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


# the figure flags each --id ignores, written out: the CLI derives them from
# experiments._EXPERIMENTS, and a change there must show here
FIGURE_IGNORES = {"1": ("eps", "y"), "2": ("eps", "y"), "3": ("y",), "t1": ("n", "eps", "y"),
                  "ld": ("eps",)}


@pytest.mark.parametrize("figure_id", list(_FIGURES))
def test_figure_y_flag_is_ignored_where_the_experiment_does_not_read_y(figure_id):
    # the derived usage rule for --y, and for --n, --reps and --eps, is the written one
    assert set(FIGURE_IGNORES) == set(_FIGURES)
    parser, rejected = build_parser(), []
    for flag, value in (("n", "50"), ("reps", "20"), ("eps", "0.2"), ("y", "2")):
        args = parser.parse_args(["figure", "--id", figure_id, f"--{flag}", value])
        try:
            _resolve_flags(args, parser)
        except SystemExit:
            rejected.append(flag)
    assert tuple(rejected) == FIGURE_IGNORES[figure_id]


@pytest.mark.parametrize("figure_id", list(_FIGURES))
def test_figure_config_line_holds_the_settings_its_experiment_reads(figure_id, capsys):
    """At desk scale each config line names the experiment, its laws and exactly the
    settings the experiment reads, and reads back as the config the run was given."""
    experiment = _FIGURES[figure_id][0]
    code, out, _ = _run(capsys, "figure", "--id", figure_id, "--reps", "20")
    assert code == 0
    config = _config(out)
    assert set(config) == {"experiment", "specs", *ex._EXPERIMENTS[experiment][1]}
    line = out.split("# config=", 1)[1].split("\r\n", 1)[0]
    assert ex.ExperimentConfig.from_text(line).to_text() == line


def test_figure_ld_k_grid_must_fit_in_n(capsys):
    # every k of the ld grid (up to 400) draws k values, so n bounds the grid
    code, out, err = _run(capsys, "figure", "--id", "ld", "--n", "50", "--reps", "50")
    assert code == 1
    assert out == ""
    assert err.startswith("renyitail: error: k must lie in 1..50, got ")
    code, out, _ = _run(capsys, "figure", "--id", "ld", "--n", "400", "--reps", "50")
    assert code == 0
    assert _config(out)["n"] == 400


def test_figure_ld_limit_is_zero_not_minus_zero_at_or_below_the_mean(capsys):
    # the limit is -inf_{x>=y} I(x), and I vanishes at the law's mean 1
    for y in ("0.8", "1"):
        code, out, _ = _run(capsys, "figure", "--id", "ld", "--y", y, "--reps", "50")
        assert code == 0
        assert {row["limit"] for row in _parse_csv(out)} == {"0.0"}


def test_flags_the_method_reads_are_accepted(tmp_path, capsys):
    data = tmp_path / "w.txt"
    data.write_text("1\n2\n4\n8\n")
    for argv in (("--method", "hill", "--k", "3", "--interval", "self"),
                 ("--method", "quantile", "--s", "0.5"),
                 ("--method", "ml-uniform", "--k", "2")):
        code, out, _ = _run(capsys, "estimate", str(data), "--c", "1", *argv)
        assert code == 0
    assert _parse_csv(out)[0]["interval_method"] == "none"
    code, out, _ = _run(capsys, "rate", "--family", "gamma", "--c", "0.5")
    assert code == 0
    assert _parse_csv(out)[0]["r"] == "1.0"


def _config(out):
    return json.loads(out.split("# config=", 1)[1].split("\r\n", 1)[0])


def test_figure_reads_its_flags(capsys):
    code, out, _ = _run(capsys, "figure", "--id", "2", "--n", "50", "--reps", "2")
    assert code == 0
    config = _config(out)
    assert config["reps"] == 2 and "y" not in config
    # ld reads --n as the bound on its k grid
    code, out, _ = _run(capsys, "figure", "--id", "ld", "--n", "400", "--reps", "50", "--y", "2")
    assert code == 0
    config = _config(out)
    assert config["y"] == 2.0 and config["n"] == 400 and "eps" not in config
    code, out, _ = _run(capsys, "figure", "--id", "3", "--n", "50", "--reps", "20",
                        "--eps", "0.2")
    assert code == 0
    assert _config(out)["eps"] == 0.2


def test_readme_cli_examples_parse():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        block = f.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("renyitail ")]
    assert any(line.startswith("renyitail figure --id 2 ") for line in lines)
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        _resolve_flags(args, parser)


def test_figure_t1_paper_scale_names_the_n_it_runs(capsys):
    code, out, _ = _run(capsys, "figure", "--id", "t1", "--paper-scale", "--reps", "200")
    assert code == 0
    config = _config(out)
    assert config["n_grid"] == [int(row["n"]) for row in _parse_csv(out)] and "n" not in config


def test_figure_reports_wall_time_on_stderr(capsys):
    code, out, err = _run(capsys, "figure", "--id", "1", "--n", "50", "--reps", "5")
    assert code == 0
    assert re.fullmatch(r"\[variance_curve\] wall time \d+\.\d\ds\n", err)
    assert "wall time" not in out


@pytest.mark.parametrize("argv", [
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "inf"),
    ("simulate", "--spec", "exp:gamma=0.5", "--n", "4", "--c", "nan"),
    ("estimate", "-", "--c", "inf"),
    ("fit", "-", "--family", "gamma", "--r", "inf", "--c", "1"),
    ("fit", "-", "--family", "exponential", "--c", "inf"),
    ("rate", "--family", "gamma", "--r", "inf", "--c", "0.5"),
    ("rate", "--spec", "exp:gamma=1", "--z", "nan"),
    ("rate", "--spec", "exp:gamma=1", "--z", "inf"),
    ("rate", "--spec", "exp:gamma=1", "--z=-inf"),
], ids=" ".join)
def test_non_finite_float_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
