import csv
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from quotmotives import _classsum, cli, oracle, plethystic, quiver, quot, specialize
from quotmotives.cli import main
from quotmotives.rings import ExactnessError, LaurentPoly
from quotmotives.series import TruncatedSeries


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

    def test_json_text_matches_json_dumps(self):
        # the series writer joins the text itself; it must be the text of
        # json.dumps(..., indent=2) byte for byte
        rng = random.Random(3)
        series = [TruncatedSeries({}, order, arity) for order in (0, 3) for arity in (1, 2)]
        series += [quot.punctual_quot_series(r, d, n)
                   for r in range(4) for d in (1, 2) for n in (0, 1, 5)]
        for _ in range(280):
            arity = rng.randint(1, 3)
            order = rng.randint(0, 4)
            coeffs = {}
            for _ in range(rng.randint(0, 6)):
                m = tuple(rng.randint(0, order) for _ in range(arity))
                c = {rng.randint(-5, 5): rng.choice([1, -1, 10 ** 20 + 7, -(10 ** 19)])
                     for _ in range(rng.randint(1, 3))}
                coeffs[m] = rng.choice([LaurentPoly(c), rng.randint(-9, 9)])
            series.append(TruncatedSeries(coeffs, order, arity))
        for s in series:
            obj = {"format": cli.SERIES_FORMAT} | \
                s.map_coefficients(LaurentPoly._coerce).to_json_obj()
            out = io.StringIO()
            cli._emit_series(s, out)
            assert out.getvalue() == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("space", [
        pytest.param("nope", id="nope"),
        # from_json_obj raises ValueError for each shape, which the CLI reports
        pytest.param("[]", id="list"),
        pytest.param("{}", id="no-terms"),
        pytest.param('{"terms": 5}', id="terms-not-a-list"),
        pytest.param('{"terms": [5]}', id="term-not-a-pair"),
        pytest.param('{"terms": [[0, 1.5]]}', id="float-coefficient"),
        pytest.param('{"terms": [[0.5, "1"]]}', id="float-exponent"),
        pytest.param('{"terms": [[true, "2"]]}', id="bool-exponent"),
        pytest.param('{"terms": [[0, "1"], [0, "2"]]}', id="repeated-exponent"),
        # int() reads these, but str(int) never writes them
        pytest.param('{"terms": [[1, " 1_0 "]]}', id="spaces-and-underscore"),
        pytest.param('{"terms": [[1, "+1"]]}', id="plus-sign"),
        pytest.param('{"terms": [[1, "01"]]}', id="leading-zero"),
        pytest.param('{"terms": [[1, "-0"]]}', id="negative-zero"),
    ])
    def test_bad_space(self, capsys, space):
        code, _, err = run_cli(capsys, "series", "--target", "quot", "--dim", "1",
                               "--rank", "1", "--space", space, "--order", "1")
        assert code == 2
        assert "unknown space" in err

    LOOP = {"vertices": 1, "arrows": [[0, 0]]}

    @pytest.mark.parametrize("obj, framing, extra, message", [
        pytest.param(LOOP, "-1", (), "framing vector entries must be >= 0, got (-1,)",
                     id="negative-framing"),
        pytest.param(LOOP, "-1", ("--nilpotent",),
                     "framing vector entries must be >= 0, got (-1,)",
                     id="negative-framing-nilpotent"),
        # int() alone would read "1_0" as 10, and take "+1" and "01"
        pytest.param(LOOP, "1_0", (), "--framing entries must be integers, got '1_0'",
                     id="framing-underscore"),
        pytest.param(LOOP, "+1", (), "--framing entries must be integers, got '+1'",
                     id="framing-plus"),
        pytest.param(LOOP, "01", (), "--framing entries must be integers, got '01'",
                     id="framing-leading-zero"),
        pytest.param(LOOP, "x", (), "--framing entries must be integers, got 'x'",
                     id="framing-not-a-number"),
        pytest.param({"vertices": 2, "arrows": [[0, 1]]}, "1", (),
                     "framing vector size does not match the quiver", id="framing-too-short"),
        pytest.param(LOOP, "1,1", (), "framing vector size does not match the quiver",
                     id="framing-too-long"),
        pytest.param({"vertices": 1}, "1", (),
                     'quiver must be an object with "vertices" and "arrows"',
                     id="missing-arrows"),
        pytest.param([1, 2], "1", (),
                     'quiver must be an object with "vertices" and "arrows"',
                     id="not-an-object"),
        pytest.param({"vertices": None, "arrows": []}, "1", (),
                     "quiver vertex count must be an integer, got None",
                     id="null-vertices"),
        pytest.param({"vertices": 1.5, "arrows": []}, "1", (),
                     "quiver vertex count must be an integer, got 1.5",
                     id="fractional-vertices"),
        pytest.param({"vertices": True, "arrows": []}, "1", (),
                     "quiver vertex count must be an integer, got True",
                     id="bool-vertices"),
        pytest.param({"vertices": 1, "arrows": 5}, "1", (),
                     "quiver arrows must be [source, target] integer pairs, got 5",
                     id="arrows-not-a-list"),
        pytest.param({"vertices": 1, "arrows": [[0, None]]}, "1", (),
                     "quiver arrows must be [source, target] integer pairs, got [[0, None]]",
                     id="null-endpoint"),
        pytest.param({"vertices": 1, "arrows": [[0, 0, 0]]}, "1", (),
                     "quiver arrows must be [source, target] integer pairs, got [[0, 0, 0]]",
                     id="three-endpoints"),
    ])
    def test_bad_quiver_input_is_usage_error(self, capsys, tmp_path, obj, framing,
                                             extra, message):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "series", "--target", "nakajima-general",
                                 "--quiver", str(qfile), "--framing", framing,
                                 "--order", "2", *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("missing", ["--quiver", "--framing"])
    def test_quiver_target_needs_quiver_and_framing(self, capsys, tmp_path, missing):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps({"vertices": 1, "arrows": [[0, 0]]}))
        given = {"--quiver": str(qfile), "--framing": "1"}
        del given[missing]
        with pytest.raises(SystemExit) as exc:
            main(["series", "--target", "nakajima-general", "--order", "2",
                  *(x for kv in given.items() for x in kv)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: quotmotives ")
        assert err.endswith("quotmotives: error: nakajima-general needs --quiver "
                            "and --framing\n")

    @pytest.mark.parametrize("target", [t for t in cli.TARGETS if t != "nakajima-general"])
    @pytest.mark.parametrize("flag", [("--quiver", "missing.json"), ("--framing", "1"),
                                      ("--nilpotent",)], ids=lambda flag: flag[0])
    def test_quiver_flags_need_the_quiver_target(self, capsys, target, flag):
        # another target would ignore the flag: --nilpotent would print the
        # smooth series, and --quiver would not open its file
        with pytest.raises(SystemExit) as exc:
            main(["series", "--target", target, "--rank", "1", "--order", "3", *flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: quotmotives ")
        assert err.endswith("quotmotives: error: --quiver, --framing and --nilpotent need "
                            "--target nakajima-general\n")

    def test_bad_dimension_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--target", "quot", "--space", "A2",
                  "--dim", "3", "--order", "2"])
        assert exc.value.code == 2


def _entry_and_option(argv):
    """The target or identity of a series/verify argv, and its first option."""
    at = 2 if argv[0] == "series" else 1
    return argv[at], argv[at + 1]


class TestCommandTables:
    """Every entry of the ``series`` and ``verify`` tables runs."""

    ARGS = {
        "punctual": ("--rank", "2", "--dim", "1", "--order", "3"),
        "quot": ("--space", "P1", "--rank", "2", "--order", "3"),
        "nakajima-M": ("--rank", "2", "--order", "3"),
        "nakajima-L": ("--rank", "2", "--order", "3"),
        "nakajima-general": ("--framing", "1", "--order", "3"),
        "heine": ("--order", "4"),
        "product-vs-exp": ("--rank", "2", "--order", "4"),
        "class1-vs-closed": ("--rank", "2", "--order", "3"),
        "duality": ("--rank", "2", "--order", "3"),
        "zeta-curve": ("--rank", "2", "--order", "3"),
        "zeta-surface": ("--space", "P2", "--order", "3"),
        "power-axioms": ("--samples", "2", "--order", "3"),
    }

    @pytest.mark.parametrize("argv", [("series", "--target", name) for name in cli.TARGETS]
                             + [("verify", name) for name in cli.IDENTITIES],
                             ids=lambda argv: argv[-1])
    def test_entry_runs(self, capsys, tmp_path, argv):
        extra = self.ARGS[argv[-1]]
        if argv[-1] == "nakajima-general":
            qfile = tmp_path / "quiver.json"
            qfile.write_text(json.dumps({"vertices": 1, "arrows": [[0, 0]]}))
            extra += ("--quiver", str(qfile))
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("argv", [
        ("series", "--target", "punctual", "--space", "P2", "--order", "2"),
        ("series", "--target", "nakajima-M", "--dim", "1", "--order", "1"),
        # the value of the default is rejected too: the target never reads it
        ("series", "--target", "nakajima-L", "--dim", "2", "--order", "1"),
        ("series", "--target", "nakajima-M", "--space", "point", "--order", "1"),
        ("series", "--target", "nakajima-general", "--rank", "1", "--order", "1"),
        ("verify", "heine", "--space", "nonsense", "--order", "3"),
        ("verify", "heine", "--rank", "2"),
        ("verify", "duality", "--q", "3"),
        ("verify", "product-vs-exp", "--samples", "3"),
        ("verify", "power-axioms", "--rank", "1"),
        ("verify", "class1-vs-closed", "--space", "P1"),
        ("verify", "zeta-curve", "--samples", "2"),
    ], ids=lambda argv: "".join(_entry_and_option(argv)))
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        # these used to exit 0 and drop the option without a word
        name, option = _entry_and_option(argv)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: quotmotives ")
        assert err.endswith(f"quotmotives: error: {name} does not read {option}\n")

    def test_nakajima_l_is_the_punctual_surface_series(self, capsys):
        nilpotent = run_cli(capsys, "series", "--target", "nakajima-L", "--rank", "2",
                            "--order", "5")
        punctual = run_cli(capsys, "series", "--target", "punctual", "--dim", "2",
                           "--rank", "2", "--order", "5")
        assert nilpotent[0] == 0 and nilpotent == punctual


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ("verify", "heine", "--order", "10"),
        ("verify", "duality", "--rank", "2", "--order", "4"),
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

    @pytest.mark.parametrize("argv, line", [
        (("verify", "heine", "--order", "0"), "heine: pass (order 0)"),
        (("verify", "duality", "--rank", "0"), "duality: pass (r=0, n<=8)"),
    ])
    def test_degenerate_sizes_pass(self, capsys, argv, line):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, line + "\n", "")

    @pytest.mark.parametrize("identity", list(cli.IDENTITIES))
    def test_every_identity_reads_order(self, capsys, identity):
        # each report's detail names its order, so the two outputs differ;
        # --order is the one truncation option
        runs = [run_cli(capsys, "verify", identity, "--order", n) for n in ("2", "3")]
        assert [code for code, _, _ in runs] == [0, 0]
        assert runs[0][1] != runs[1][1]
        with pytest.raises(SystemExit) as exc:
            main(["verify", identity, "--nmax", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (("verify", "power-axioms", "--order", "0"), "order >= 1"),
        (("verify", "power-axioms", "--order", "-3"), "order >= 1"),
        (("verify", "zeta-curve", "--q", "6"), "prime power"),
        (("verify", "zeta-curve", "--q", "1"), "prime power"),
        (("verify", "zeta-surface", "--space", "P2", "--q", "6"), "prime power"),
        (("verify", "class1-vs-closed", "--rank", "-1"), "rank must be >= 0"),
        (("verify", "power-axioms", "--samples", "-1"), "samples >= 0"),
        # the class itself is named, checked before the Quot series is solved
        (("verify", "zeta-curve", "--space", '{"terms": [[-1, "1"], [0, "1"]]}',
          "--rank", "2"), "1 + L^-1 has negative exponents"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

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


class TestZetaSelfCheck:
    """The product form of a zeta function is checked against the point
    counts of Exp([X] t); a disagreement is an internal error."""

    def test_wrong_exp_is_internal_error(self, capsys, monkeypatch):
        exp = specialize.exp_pleth

        def corrupted(f):
            s = exp(f)
            return s + TruncatedSeries({2: 1}, s.order)

        monkeypatch.setattr(specialize, "exp_pleth", corrupted)
        code, out, err = run_cli(capsys, "verify", "zeta-curve", "--space", "P1",
                                 "--rank", "2", "--q", "3", "--order", "4")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")


class TestWindowSelfCheck:
    """A modulus too small to determine the motives must fail loudly
    (exit code 3), never print a truncated series."""

    TWO_LOOPS = {"vertices": 1, "arrows": [[0, 0], [0, 0]]}
    ARGV = ["series", "--target", "nakajima-general", "--framing", "1",
            "--order", "3", "--quiver"]

    def _quiver_file(self, tmp_path):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps(self.TWO_LOOPS))
        return str(qfile)

    def test_small_window_is_internal_error(self, capsys, monkeypatch, tmp_path):
        # the ratio runs modulo one power of q below the derived modulus N
        rescale = quiver._rescale

        def one_below(q, w, order):
            c, prec = rescale(q, w, order)
            return c, prec - 1

        monkeypatch.setattr(quiver, "_rescale", one_below)
        code, out, err = run_cli(capsys, *self.ARGV, self._quiver_file(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")

    def test_check_survives_optimized_mode(self, tmp_path):
        qfile = self._quiver_file(tmp_path)
        script = (
            "import sys\n"
            "from quotmotives import cli, quiver\n"
            "rescale = quiver._rescale\n"
            "if sys.argv[1] == 'short':\n"
            "    quiver._rescale = lambda q, w, order: (lambda c, n: (c, n - 1))(\n"
            "        *rescale(q, w, order))\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        runs = {}
        for mode in ("exact", "short"):
            runs[mode] = subprocess.run(
                [sys.executable, "-O", "-c", script, mode, *self.ARGV, qfile],
                capture_output=True, text=True, env=env, timeout=120)
        assert runs["exact"].returncode == 0
        assert json.loads(runs["exact"].stdout)["terms"][0] == [[0], {"terms": [[0, "1"]]}]
        assert runs["short"].returncode == 3
        assert runs["short"].stdout == ""
        assert runs["short"].stderr.startswith("internal error:")


    def test_negative_shift_is_internal_error(self, capsys, monkeypatch, tmp_path):
        # with k one too small, theta = 3 of the two-loop quiver gets the
        # S'(w) shift chi + k|theta| = -9 + 2 * 3 = -3, which the chain
        # table refuses explicitly, also under python -O
        rescale = quiver._rescale
        monkeypatch.setattr(quiver, "_rescale", lambda q, w, order: (lambda c, n: (
            tuple(x - 1 for x in c), n))(*rescale(q, w, order)))
        code, out, err = run_cli(capsys, *self.ARGV, self._quiver_file(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:") and "(0, -3)" in err

        script = (
            "import sys\n"
            "from quotmotives import cli, quiver\n"
            "rescale = quiver._rescale\n"
            "quiver._rescale = lambda q, w, order: (lambda c, n: (\n"
            "    tuple(x - 1 for x in c), n))(*rescale(q, w, order))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-O", "-c", script, *self.ARGV,
                              self._quiver_file(tmp_path)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 3
        assert run.stdout == ""
        assert run.stderr.startswith("internal error:")

    def test_narrow_ratio_width_is_internal_error(self, capsys, monkeypatch, tmp_path):
        # a slot width one bit short of the ratio's bound, patched in for
        # the ratio alone: the explicit width check refuses it, also under
        # python -O
        ratio = quiver._packed_ratio

        def narrow(*args):
            monkeypatch.setattr(quiver, "_slot_width", lambda bound: bound.bit_length() or 1)
            return ratio(*args)

        monkeypatch.setattr(quiver, "_packed_ratio", narrow)
        code, out, err = run_cli(capsys, *self.ARGV, self._quiver_file(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: slot width") and "does not hold the bound" in err

        script = (
            "import sys\n"
            "from quotmotives import cli, quiver\n"
            "ratio = quiver._packed_ratio\n"
            "def narrow(*args):\n"
            "    quiver._slot_width = lambda bound: bound.bit_length() or 1\n"
            "    return ratio(*args)\n"
            "quiver._packed_ratio = narrow\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-O", "-c", script, *self.ARGV,
                              self._quiver_file(tmp_path)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 3
        assert run.stdout == ""
        assert run.stderr.startswith("internal error: slot width")


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

    def test_non_divisible_count_is_internal_error(self, capsys, monkeypatch):
        raw = oracle.raw_stable_count
        monkeypatch.setattr(oracle, "raw_stable_count", lambda *args: raw(*args) + 1)
        code, out, err = run_cli(capsys, "oracle", "--n", "2", "--rank", "1",
                                 "--q", "3", "--dim", "2", "--punctual")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")
        assert "not divisible" in err


class TestCentralizerSelfCheck:
    """A wrong centralizer order breaks the class equation, which every
    oracle count checks: exit code 3, never a wrong count."""

    ARGV = ["oracle", "--n", "3", "--rank", "1", "--q", "2", "--dim", "1",
            "--punctual"]

    def test_wrong_centralizer_is_internal_error(self, capsys, monkeypatch):
        order = _classsum._centralizer_order
        monkeypatch.setattr(_classsum, "_centralizer_order",
                            lambda *args: 2 * order(*args))
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")

    def test_check_survives_optimized_mode(self):
        script = (
            "import sys\n"
            "from quotmotives import _classsum, cli\n"
            "order = _classsum._centralizer_order\n"
            "factor = 1 + int(sys.argv[1])\n"
            "_classsum._centralizer_order = lambda *args: factor * order(*args)\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        runs = {}
        for corrupt in (0, 1):
            runs[corrupt] = subprocess.run(
                [sys.executable, "-O", "-c", script, str(corrupt), *self.ARGV],
                capture_output=True, text=True, env=env, timeout=120)
        assert runs[0].returncode == 0
        assert list(csv.reader(io.StringIO(runs[0].stdout)))[1][10] == "pass"
        assert runs[1].returncode == 3
        assert runs[1].stdout == ""
        assert runs[1].stderr.startswith("internal error:")


class TestQuotSelfCheck:
    """A perturbed Log P breaks the power-structure cross-check of every
    Quot series: exit code 3 and no output, in optimized mode too."""

    ARGV = ["series", "--target", "quot", "--space", "P2", "--rank", "2",
            "--dim", "2", "--order", "5"]

    def test_wrong_log_is_internal_error(self, capsys, monkeypatch):
        log = plethystic.log_pleth
        monkeypatch.setattr(plethystic, "log_pleth",
                            lambda g: log(g) + TruncatedSeries({(2,): 1}, g.order))
        code, out, err = run_cli(capsys, *self.ARGV)
        assert (code, out) == (3, "")
        assert err.startswith("internal error:")
        assert "first difference at (2,)" in err

    def test_check_survives_optimized_mode(self):
        script = (
            "import sys\n"
            "from quotmotives import cli, plethystic\n"
            "from quotmotives.series import TruncatedSeries\n"
            "log = plethystic.log_pleth\n"
            "bump = int(sys.argv[1])\n"
            "plethystic.log_pleth = lambda g: log(g) + TruncatedSeries({(2,): bump}, g.order)\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        runs = {}
        for bump in (0, 1):
            runs[bump] = subprocess.run(
                [sys.executable, "-O", "-c", script, str(bump), *self.ARGV],
                capture_output=True, text=True, env=env, timeout=120)
        assert runs[0].returncode == 0
        assert json.loads(runs[0].stdout)["order"] == 5
        assert runs[1].returncode == 3
        assert runs[1].stdout == ""
        assert runs[1].stderr.startswith("internal error:")
        assert "first difference at (2,)" in runs[1].stderr

    # a curve Quot job whose t-degree-1 monomials have k-sums of 20 terms,
    # which the Exp keeps as running sums
    CURVE = ["series", "--target", "quot", "--space", "P2", "--rank", "2",
             "--dim", "1", "--order", "20"]

    def test_exp_fault_survives_optimized_mode(self):
        # one monomial of E f seen by the exact-coefficient Exp gets a wrong
        # (still integral) weight: the two-path Exp check of power-axioms
        # and the Quot cross-check must both fail, in optimized mode too,
        # whether the monomial is merged (surface) or runs (curve)
        script = (
            "import sys\n"
            "from quotmotives import cli, plethystic\n"
            "monomials = plethystic._monomials\n"
            "def corrupted(f):\n"
            "    out = monomials(f)\n"
            "    if sys.argv[1] == '1' and out:\n"
            "        b, e, m = out[0]\n"
            "        out[0] = (b + sum(m), e, m)\n"
            "    return out\n"
            "plethystic._monomials = corrupted\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        axioms = ["verify", "power-axioms", "--samples", "3", "--order", "6"]
        jobs = {"power-axioms": axioms, "surface": self.ARGV, "curve": self.CURVE}
        runs = {}
        for name, argv in jobs.items():
            for bump in (0, 1):
                runs[name, bump] = subprocess.run(
                    [sys.executable, "-O", "-c", script, str(bump), *argv],
                    capture_output=True, text=True, env=env, timeout=120)
        assert runs["power-axioms", 0].returncode == 0
        assert runs["power-axioms", 1].returncode == 1
        assert "two-path Exp agreement" in runs["power-axioms", 1].stdout
        for name in ("surface", "curve"):
            assert runs[name, 0].returncode == 0
            assert runs[name, 1].returncode == 3
            assert runs[name, 1].stdout == ""
            assert runs[name, 1].stderr.startswith(
                "internal error: power-structure and Exp evaluations of the Quot series disagree")
        assert json.loads(runs["curve", 0].stdout)["order"] == 20


class TestCounts:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "counts", "--space", "A2", "--rank", "1",
                               "--dim", "2", "--q", "2", "--order", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[2] for r in rows[1:]] == ["1", "4", "24", "112"]


    @pytest.mark.parametrize("q", ["1", "6", "12"])
    def test_field_size_must_be_a_prime_power(self, capsys, q):
        code, out, err = run_cli(capsys, "counts", "--space", "P1", "--q", q,
                                 "--order", "2")
        assert (code, out) == (2, "")
        assert err == f"error: field size q must be a prime power, got {q}\n"

    @pytest.mark.parametrize("rank", ["0", "2"])
    def test_space_class_is_checked_before_the_series(self, capsys, monkeypatch, rank):
        # the class the user gave is named, not a coefficient of its series,
        # and no series is solved for it
        monkeypatch.setattr(quot, "quot_series",
                            lambda *args: pytest.fail("counts solved the series of a bad class"))
        code, out, err = run_cli(capsys, "counts", "--space", '{"terms": [[-1, "1"]]}',
                                 "--rank", rank, "--q", "2", "--order", "4")
        assert (code, out) == (2, "")
        assert err == "error: L^-1 has negative exponents; point counting needs a polynomial in L\n"

    def test_prime_power_table(self, capsys):
        # #P1(F_4) = 5, #Sym^2 P1(F_4) = #P2(F_4) = 21
        code, out, _ = run_cli(capsys, "counts", "--space", "P1", "--rank", "1",
                               "--dim", "1", "--q", "4", "--order", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[2] for r in rows[1:]] == ["1", "5", "21"]


    def test_large_prime_field_size(self, capsys):
        # a prime near 10^18: the prime-power check must not trial-divide
        # up to sqrt(q), about 10^9 steps
        q = 10 ** 18 + 3
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "counts", "--space", "P1", "--rank", "1",
                               "--dim", "1", "--q", str(q), "--order", "2")
        assert time.perf_counter() - start < 10
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [int(r[2]) for r in rows[1:]] == [1, q + 1, q * q + q + 1]


class TestOptimizedMode:
    """The quiver ratio's division modulo q^N runs the kernel's explicit
    width check and the modulus self-check; under ``python -O`` both jobs
    must print what they print in process."""

    A2_QUIVER = {"vertices": 2, "arrows": [[0, 1], [1, 1]]}

    def test_same_output_under_optimized_mode(self, capsys, tmp_path):
        qfile = tmp_path / "quiver.json"
        qfile.write_text(json.dumps(self.A2_QUIVER))
        jobs = [["verify", "heine", "--order", "12"],
                ["series", "--target", "nakajima-general", "--quiver", str(qfile),
                 "--framing", "1,2", "--order", "4"]]
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for argv in jobs:
            code, out, _ = run_cli(capsys, *argv)
            run = subprocess.run([sys.executable, "-O", "-m", "quotmotives.cli", *argv],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert code == 0 and out
            assert (run.returncode, run.stdout) == (code, out)


class TestDeterminism:
    def test_usage_error_leaves_the_parser_unchanged(self, capsys):
        argv = ("series", "--target", "punctual", "--rank", "2", "--order", "3")
        first = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["series", "--target", "punctual", "--dim", "3", "--order", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert first[0] == 0 and run_cli(capsys, *argv) == first

    def test_repeated_runs_identical(self, capsys):
        a = run_cli(capsys, "series", "--target", "nakajima-M", "--rank", "2",
                    "--order", "3")
        b = run_cli(capsys, "series", "--target", "nakajima-M", "--rank", "2",
                    "--order", "3")
        assert a == b
