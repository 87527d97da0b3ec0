import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from quotmotives import quiver, quot
from quotmotives.cli import main
from quotmotives.rings import ExactnessError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSeries:
    def test_quot_a2(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--target", "quot",
                               "--space", "A2", "--rank", "1", "--dim", "2",
                               "--order", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["format"] == "quotmotives.series/1"
        assert obj["order"] == 3
        terms = {tuple(m): c for m, c in (tuple(t) for t in obj["terms"])}
        assert terms[(2,)] == {"terms": [[3, "1"], [4, "1"]]}
        assert terms[(3,)] == {"terms": [[4, "1"], [5, "1"], [6, "1"]]}

    def test_punctual_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--target", "punctual",
                               "--rank", "2", "--dim", "1", "--order", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["terms"] == [[[0], {"terms": [[0, "1"]]}]]

    def test_nakajima_m(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--target", "nakajima-M",
                               "--rank", "2", "--order", "1")
        assert code == 0
        obj = json.loads(out)
        terms = {tuple(m): c for m, c in (tuple(t) for t in obj["terms"])}
        assert terms[(1,)] == {"terms": [[3, "1"], [4, "1"]]}

    def test_nakajima_general(self, capsys, tmp_path):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps({"vertices": 1, "arrows": [[0, 0]]}))
        code, out, _ = run_cli(capsys, "series", "--target", "nakajima-general",
                               "--quiver", str(qfile), "--framing", "1",
                               "--order", "2")
        assert code == 0
        obj = json.loads(out)
        terms = {tuple(m): c for m, c in (tuple(t) for t in obj["terms"])}
        assert terms[(1,)] == {"terms": [[2, "1"]]}

    def test_explicit_space_json(self, capsys):
        space = json.dumps({"terms": [[0, "1"], [1, "1"]]})
        code, out, _ = run_cli(capsys, "series", "--target", "quot",
                               "--space", space, "--rank", "1", "--dim", "1",
                               "--order", "2")
        assert code == 0

    def test_bad_space(self, capsys):
        code, _, err = run_cli(capsys, "series", "--target", "quot",
                               "--space", "nope", "--order", "2")
        assert code == 2
        assert "unknown space" in err

    def test_bad_dimension_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--target", "quot", "--space", "A2",
                  "--dim", "3", "--order", "2"])
        assert exc.value.code == 2


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ("verify", "heine", "--order", "10"),
        ("verify", "duality", "--rank", "2", "--nmax", "4"),
        ("verify", "zeta-surface", "--space", "P2", "--rank", "2",
         "--q", "2", "--order", "4"),
        ("verify", "zeta-curve", "--space", "P1", "--rank", "2",
         "--q", "2", "--order", "5"),
        ("verify", "product-vs-exp", "--rank", "2", "--order", "6"),
        ("verify", "class1-vs-closed", "--rank", "1", "--order", "4"),
        ("verify", "power-axioms", "--samples", "3", "--order", "5"),
    ])
    def test_identities_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "pass" in out

    def test_unknown_identity_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "not-an-identity"])
        assert exc.value.code == 2

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(r, order):
            raise ExactnessError("inexact division")

        monkeypatch.setattr(quot, "verify_product_vs_exp", broken)
        code, out, err = run_cli(capsys, "verify", "product-vs-exp", "--order", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: inexact division")


class TestWindowSelfCheck:
    """A precision window too small to determine the motives must fail
    loudly (exit code 3), never print a truncated series."""

    TWO_LOOPS = {"vertices": 1, "arrows": [[0, 0], [0, 0]]}
    ARGV = ["series", "--target", "nakajima-general", "--framing", "1",
            "--order", "3", "--quiver"]

    def test_small_window_is_internal_error(self, capsys, monkeypatch, tmp_path):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps(self.TWO_LOOPS))
        window = quiver._window(quiver.Quiver.from_json_obj(self.TWO_LOOPS), (1,), 3)
        monkeypatch.setattr(quiver, "_window", lambda *args: window - 1)
        code, out, err = run_cli(capsys, *self.ARGV, str(qfile))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")

    def test_check_survives_optimized_mode(self, tmp_path):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps(self.TWO_LOOPS))
        script = (
            "import sys\n"
            "from quotmotives import cli, quiver\n"
            "window = quiver._window\n"
            "quiver._window = lambda *args: window(*args) - int(sys.argv[1])\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        runs = {}
        for shrink in (0, 1):
            runs[shrink] = subprocess.run(
                [sys.executable, "-O", "-c", script, str(shrink), *self.ARGV, str(qfile)],
                capture_output=True, text=True, env=env, timeout=120)
        assert runs[0].returncode == 0
        assert json.loads(runs[0].stdout)["terms"][0] == [[0], {"terms": [[0, "1"]]}]
        assert runs[1].returncode == 3
        assert runs[1].stdout == ""
        assert runs[1].stderr.startswith("internal error:")


class TestOracle:
    def test_punctual_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--rank", "1",
                               "--q", "2", "--dim", "2", "--punctual")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "format"
        assert rows[1][8] == "3" and rows[1][9] == "3"
        assert rows[1][10] == "pass"

    def test_trivial_case(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "0", "--rank", "3",
                               "--q", "5", "--dim", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][8] == "1"

    def test_global_28(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--rank", "2",
                               "--q", "2", "--dim", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][8] == "28"

    def test_budget_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "5", "--rank", "1",
                               "--q", "2", "--dim", "1")
        assert code == 2
        assert "budget" in err


class TestCounts:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "--space", "A2", "--rank", "1",
                               "--dim", "2", "--q", "2", "--order", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[2] for r in rows[1:]] == ["1", "4", "24", "112"]


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        a = run_cli(capsys, "series", "--target", "nakajima-M", "--rank", "2",
                    "--order", "3")
        b = run_cli(capsys, "series", "--target", "nakajima-M", "--rank", "2",
                    "--order", "3")
        assert a == b
