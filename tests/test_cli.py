import numpy as np
import pytest

from lrdec import cli
from lrdec.cli import main
from lrdec.convmodel import forward_model
from lrdec.io import (read_dictionary, read_image, read_mask, read_tensor,
                      write_dictionary, write_image, write_tensor)
from lrdec.solver import lrd_fit
from lrdec.synth import make_filters, smooth_low_rank
from lrdec.tensor import KruskalTensor


def run_cli(*argv):
    return main([str(a) for a in argv])


def synth_dir(tmp_path, name, shape="8,8,4", support="3,3,2", m=2, rank=2,
              seed=0, style="noise"):
    out = tmp_path / name
    code = run_cli("synth", "--shape", shape, "--support", support,
                   "-M", m, "--rank", rank, "--seed", seed,
                   "--filter-style", style, "--out", out)
    assert code == 0
    return out


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestSynth:
    def test_same_seed_bitwise_identical(self, tmp_path):
        a = synth_dir(tmp_path, "a", seed=3)
        b = synth_dir(tmp_path, "b", seed=3)
        assert dir_bytes(a) == dir_bytes(b)
        c = synth_dir(tmp_path, "c", seed=4)
        assert dir_bytes(a) != dir_bytes(c)

    def test_rank_zero_rejected(self, tmp_path):
        code = run_cli("synth", "--shape", "8,8", "--rank", "0",
                       "--out", tmp_path / "x")
        assert code == 2

    def test_signal_recomposes_from_parts(self, tmp_path):
        out = synth_dir(tmp_path, "s")
        d = read_dictionary(out / "dictionary.lrd")
        signal = read_tensor(out / "signal.lrt")
        acts = []
        for m in range(2):
            factors = [read_tensor(out / f"activation_m{m}_mode{n}.lrt")
                       for n in range(3)]
            acts.append(KruskalTensor(factors))
        recon = forward_model(d, acts)
        assert np.max(np.abs(recon - signal)) < 1e-12 * max(
            1.0, np.max(np.abs(signal)))

    def test_bad_shape_is_usage_error(self, tmp_path):
        assert run_cli("synth", "--shape", ",", "--out", tmp_path / "x") == 2


class TestReconstruct:
    def test_self_synthesized_high_psnr_csv(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src")
        capsys.readouterr()
        code = run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--reg", "l2", "--alpha", "1e-8", "--rank", "2",
                       "--peak", "4.0", "--tol", "1e-13", "--seed", "1")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "reg,rank,psnr_db,cr,nnz,iters,seconds"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[2]) >= 60.0
        assert fields[6] == "0"

    def test_empty_sweep_is_usage_error(self, tmp_path):
        src = synth_dir(tmp_path, "src")
        code = run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--alpha", ",", "--rank", "2")
        assert code == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha", ",", "empty value list"),
        ("--rank", "1,x", "invalid literal for int() with base 10: 'x'")])
    def test_bad_sweep_list_names_the_value(self, tmp_path, capsys, flag,
                                            value, message):
        src = synth_dir(tmp_path, "src")
        code = run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd", flag, value)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_sweep_order_and_determinism(self, tmp_path):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        args = ("reconstruct", "--signal", src / "signal.lrt",
                "--filters", src / "dictionary.lrd",
                "--reg", "l2", "--alpha", "1e-3,1e-2", "--rank", "1,2",
                "--max-outer", "8", "--seed", "5")
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert run_cli(*args, "--out", out1, "--save-activations") == 0
        assert run_cli(*args, "--out", out2, "--save-activations") == 0
        csv1 = (out1 / "results.csv").read_text()
        assert dir_bytes(out1) == dir_bytes(out2)
        rows = csv1.strip().splitlines()[1:]
        assert len(rows) == 4
        weights = [float(r.split(",")[0]) for r in rows]
        ranks = [int(r.split(",")[1]) for r in rows]
        assert weights == [1e-3, 1e-3, 1e-2, 1e-2]
        assert ranks == [1, 2, 1, 2]
        # sweep points wrote their activation factors
        assert (out1 / "point0_m0_mode0.lrt").exists()
        assert (out1 / "point3_m1_mode1.lrt").exists()

    def test_l1_sweep_runs(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        capsys.readouterr()
        code = run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--reg", "l1", "--lambda", "0.5",
                       "--rank", "2", "--max-outer", "5",
                       "--admm-iters", "30")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_fit_warnings_go_to_stderr(self, tmp_path, capsys, monkeypatch):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        args = ("reconstruct", "--signal", src / "signal.lrt",
                "--filters", src / "dictionary.lrd", "--alpha", "1e-3,1e-2",
                "--max-outer", "3")
        capsys.readouterr()
        assert run_cli(*args) == 0
        plain = capsys.readouterr()
        assert plain.err == ""

        def warning_fit(*fit_args):
            activations, report = lrd_fit(*fit_args)
            report.warnings.append(f"point {fit_args[2].alpha:g}")
            return activations, report

        monkeypatch.setattr(cli, "lrd_fit", warning_fit)
        assert run_cli(*args) == 0
        warned = capsys.readouterr()
        assert warned.out == plain.out
        assert warned.err == "warning: point 0.001\nwarning: point 0.01\n"

    def test_non_finite_alpha_is_runtime_error(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src")
        capsys.readouterr()
        code = run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--reg", "l2", "--alpha", "nan")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha must be finite")

    @pytest.mark.parametrize("command", ["reconstruct", "inpaint"])
    def test_signal_whose_squared_norm_overflows_is_runtime_error(
            self, tmp_path, capsys, command):
        src = synth_dir(tmp_path, "src", shape="8,8", support="3,3")
        huge = tmp_path / "huge.lrt"
        write_tensor(huge, 1e200 * read_tensor(src / "signal.lrt"))
        capsys.readouterr()
        args = ["--missing", "0.3", "--out", tmp_path / "x"] \
            if command == "inpaint" else []
        code = run_cli(command, "--signal", huge, "--filters",
                       src / "dictionary.lrd", "--rank", "2", *args)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: signal too large: its squared "
                                       "norm overflows")
        assert captured.err.endswith("; rescale the signal\n")

    def test_zero_alpha_on_singular_blocks_is_runtime_error(self, tmp_path,
                                                            capsys):
        # 4 filters at rank 2 on a 1-D signal: every ridge block is 8x8 of
        # rank 1, singular at alpha = 0
        src = synth_dir(tmp_path, "src", shape="16", support="5", m=4)
        capsys.readouterr()
        code = run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--reg", "l2", "--alpha", "0", "--rank", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ridge blocks are singular")
        assert "alpha=0: a positive alpha is needed" in err

    def test_missing_signal_file_is_runtime_error(self, tmp_path):
        src = synth_dir(tmp_path, "src")
        code = run_cli("reconstruct", "--signal", tmp_path / "nope.lrt",
                       "--filters", src / "dictionary.lrd")
        assert code == 1


class TestInpaint:
    def test_fraction_zero_matches_plain_fit(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        out = tmp_path / "inp"
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--missing", "0", "--alpha", "1e-3", "--rank", "2",
                       "--max-outer", "10", "--cg-tol", "1e-12",
                       "--cg-iters", "500", "--seed", "2", "--out", out)
        assert code == 0
        assert read_mask(out / "mask.lrt").all()
        completed = read_tensor(out / "completed.lrt")

        from lrdec.solver import SolverConfig, lrd_fit
        signal = read_tensor(src / "signal.lrt")
        d = read_dictionary(src / "dictionary.lrd")
        cfg = SolverConfig(reg="l2", alpha=1e-3, rank=2, outer_iters=10,
                           tol_outer=1e-9, seed=2)
        acts, _ = lrd_fit(signal, d, cfg)
        recon = forward_model(d, acts)
        assert np.max(np.abs(completed - recon)) < 1e-6 * max(
            1.0, np.max(np.abs(recon)))

    def test_smooth_completion_reaches_30db(self, tmp_path, capsys):
        signal = smooth_low_rank((24, 24), 3, seed=11)
        sig_path = tmp_path / "signal.lrt"
        write_tensor(sig_path, signal)
        d = make_filters((5, 5), 10, seed=12, style="smooth")
        dict_path = tmp_path / "filters.lrd"
        write_dictionary(dict_path, d)
        out = tmp_path / "inp"
        code = run_cli("inpaint", "--signal", sig_path, "--filters", dict_path,
                       "--missing", "0.5", "--alpha", "1e-4", "--rank", "3",
                       "--max-outer", "25", "--seed", "3", "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "psnr_db=" in printed
        value = float(printed.split("psnr_db=")[1].split()[0])
        assert value >= 30.0

    def test_sub_floor_benchmark_image_reaches_21db(self, tmp_path, capsys):
        # the benchmark's inpaint_cli image at --seed 44, problem 4, which
        # the alternating sweep alone left at 16.93 dB after 8 sweeps
        seed = 1851209551
        img_path = tmp_path / "image.pgm"
        write_image(img_path, smooth_low_rank((64, 64), 3, seed))
        dict_path = tmp_path / "filters.lrd"
        write_dictionary(dict_path, make_filters((5, 5), 8, seed=7,
                                                 style="smooth"))
        code = run_cli("inpaint", "--signal", img_path, "--filters", dict_path,
                       "--missing", "0.5", "--alpha", "3e-3", "--rank", "3",
                       "--max-outer", "8", "--seed", seed,
                       "--out", tmp_path / "inp")
        assert code == 0
        printed = capsys.readouterr().out
        assert float(printed.split("psnr_db=")[1].split()[0]) >= 21.0

    def test_image_round_trip(self, tmp_path, capsys):
        img = smooth_low_rank((20, 20), 2, seed=13)
        img_path = tmp_path / "image.pgm"
        write_image(img_path, img)
        d = make_filters((4, 4), 8, seed=14, style="smooth")
        dict_path = tmp_path / "filters.lrd"
        write_dictionary(dict_path, d)
        out = tmp_path / "inp"
        code = run_cli("inpaint", "--signal", img_path, "--filters", dict_path,
                       "--missing", "0.3", "--rank", "2", "--max-outer", "15",
                       "--seed", "4", "--out", out)
        assert code == 0
        assert (out / "completed.pgm").exists()
        completed = read_image(out / "completed.pgm")
        assert completed.shape == (20, 20)

    def test_mask_file_without_truth_omits_psnr(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        from lrdec.io import generate_mask, write_mask
        mask_path = tmp_path / "mask.lrt"
        write_mask(mask_path, generate_mask((6, 6), 0.3, seed=5))
        out = tmp_path / "inp"
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--mask", mask_path, "--max-outer", "5",
                       "--rank", "2", "--out", out)
        assert code == 0
        assert "psnr_db=" not in capsys.readouterr().out

    def test_both_mask_and_fraction_rejected(self, tmp_path):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--missing", "0.5", "--mask", "m.lrt",
                       "--out", tmp_path / "x")
        assert code == 1

    def test_non_finite_filter_tap_is_runtime_error(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        bank = src / "dictionary.lrd"
        # the payload ends with the last filter's last tap, a little-endian
        # float64
        data = bank.read_bytes()
        bank.write_bytes(data[:-8] + np.float64(np.nan).astype("<f8")
                         .tobytes())
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", bank, "--missing", "0.3",
                       "--max-outer", "2", "--rank", "2",
                       "--out", tmp_path / "x")
        assert code == 1
        assert "filters contain non-finite values" in capsys.readouterr().err

    def test_tiny_alpha_on_singular_blocks_is_runtime_error(self, tmp_path,
                                                            capsys):
        # 4 filters at rank 2 on a 1-D signal: every preconditioner block is
        # 8x8 of rank 1, singular at alpha = 1e-300
        src = synth_dir(tmp_path, "src", shape="16", support="5", m=4)
        capsys.readouterr()
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--missing", "0.3", "--alpha", "1e-300",
                       "--rank", "2", "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: ridge blocks are singular at sweep 0 mode 0 "
                       "with alpha=1e-300: a larger alpha is needed\n")

    def test_truth_shape_mismatch_fails_before_the_fit(self, tmp_path,
                                                        capsys):
        src = synth_dir(tmp_path, "src", shape="8,8", support="2,2")
        other = synth_dir(tmp_path, "other", shape="9,8", support="2,2")
        capsys.readouterr()
        out = tmp_path / "inp"
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--missing", "0.3", "--truth", other / "signal.lrt",
                       "--rank", "2", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --truth shape (9, 8) != signal shape (8, 8)\n")
        assert not out.exists()

    def test_cg_budget_warnings_go_to_stderr(self, tmp_path, capsys):
        # one CG iteration per visit meets no tolerance, so every visit of
        # the 3 sweeps over 2 modes warns, in visit order
        src = synth_dir(tmp_path, "src", shape="8,8", support="3,3")
        capsys.readouterr()
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli("inpaint", "--signal", src / "signal.lrt",
                           "--filters", src / "dictionary.lrd",
                           "--missing", "0.4", "--alpha", "1e-3",
                           "--rank", "2", "--max-outer", "3",
                           "--cg-iters", "1", "--out", out)
            assert code == 0
            runs.append((capsys.readouterr(), dir_bytes(out)))
        (first, files), (second, again) = runs
        lines = first.err.splitlines()
        assert len(lines) == 3 * 2
        for line, (sweep, mode) in zip(lines, [(s, n) for s in range(3)
                                               for n in range(2)]):
            head = (f"warning: cg budget exhausted at sweep {sweep} mode "
                    f"{mode}: 1 iterations, relative residual ")
            assert line.startswith(head), line
            assert line.endswith(" > cg_tol 1.0e-08"), line
        assert first.out.startswith("psnr_db=")
        assert (second.out, second.err) == (first.out, first.err)
        assert again == files

    def test_fraction_out_of_range(self, tmp_path):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        for fraction in ("1.0", "-0.1"):
            code = run_cli("inpaint", "--signal", src / "signal.lrt",
                           "--filters", src / "dictionary.lrd",
                           "--missing", fraction, "--out", tmp_path / "x")
            assert code == 1, fraction


class TestMetrics:
    def test_identical_inputs_inf_token(self, tmp_path, capsys):
        path = tmp_path / "t.lrt"
        write_tensor(path, np.ones((3, 3)))
        assert run_cli("metrics", "--ref", path, "--est", path) == 0
        out = capsys.readouterr().out.strip()
        assert out.split(",")[0] == "inf"

    def test_constant_offset_analytic(self, tmp_path, capsys):
        a = tmp_path / "a.lrt"
        b = tmp_path / "b.lrt"
        write_tensor(a, np.zeros((4, 4)))
        write_tensor(b, np.full((4, 4), 0.1))
        assert run_cli("metrics", "--ref", a, "--est", b) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert abs(float(fields[0]) - 20.0) < 1e-9
        assert abs(float(fields[1]) - 0.01) < 1e-12

    def test_activation_stats_appended(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        capsys.readouterr()
        assert run_cli("metrics", "--ref", src / "signal.lrt",
                       "--est", src / "signal.lrt",
                       "--activations", src) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert len(fields) == 4
        assert int(fields[3]) == 2 * (6 + 6) * 2  # M * sum(I_n) * R

    def test_activation_gap_is_runtime_error(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src")
        (src / "activation_m0_mode1.lrt").unlink()
        capsys.readouterr()
        assert run_cli("metrics", "--ref", src / "signal.lrt",
                       "--est", src / "signal.lrt",
                       "--activations", src) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "activation_m0_mode1.lrt" in captured.err

    def test_two_activation_sets_are_runtime_error(self, tmp_path, capsys):
        src = synth_dir(tmp_path, "src")
        for path in sorted(src.glob("activation_*.lrt")):
            (src / path.name.replace("activation", "point1")).write_bytes(
                path.read_bytes())
        capsys.readouterr()
        assert run_cli("metrics", "--ref", src / "signal.lrt",
                       "--est", src / "signal.lrt",
                       "--activations", src) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "activation, point1" in captured.err

    def test_shape_mismatch_is_runtime_error(self, tmp_path):
        a = tmp_path / "a.lrt"
        b = tmp_path / "b.lrt"
        write_tensor(a, np.zeros((3, 3)))
        write_tensor(b, np.zeros((3, 4)))
        assert run_cli("metrics", "--ref", a, "--est", b) == 1


class TestSubcommandFlags:
    def test_compression_ratio_counts_channels(self, tmp_path, capsys):
        # cr used to be computed from one activation's shape, C times too
        # low for a C-channel signal
        src = tmp_path / "src"
        assert run_cli("synth", "--shape", "10,9", "--support", "3,3",
                       "-M", "3", "--rank", "2", "--channels", "3",
                       "--out", src) == 0
        size = read_tensor(src / "signal.lrt").size
        assert size == 10 * 9 * 3
        capsys.readouterr()
        assert run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd", "--reg", "l1",
                       "--lambda", "0.01", "--max-outer", "3") == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert abs(float(row[3]) * int(row[4]) - size) < 1e-9 * size
        assert run_cli("metrics", "--ref", src / "signal.lrt",
                       "--est", src / "signal.lrt",
                       "--activations", src) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert abs(float(fields[2]) * int(fields[3]) - size) < 1e-9 * size

    @pytest.mark.parametrize("command,flag", [
        ("reconstruct", "--cg-tol"), ("reconstruct", "--cg-iters"),
        ("inpaint", "--rho"), ("inpaint", "--admm-iters"),
        ("inpaint", "--eps-rel")])
    def test_flags_the_fit_does_not_read_are_usage_errors(
            self, tmp_path, capsys, command, flag):
        # both fitting commands used to accept every solver flag, and these
        # changed no output byte
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        argv = [command, "--signal", src / "signal.lrt",
                "--filters", src / "dictionary.lrd", flag, "2"]
        if command == "inpaint":
            argv += ["--missing", "0.5", "--out", tmp_path / "out"]
        assert run_cli(*argv) == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("inpaint", "--peak", "0"), ("reconstruct", "--peak", "0"),
        ("metrics", "--peak", "inf"), ("reconstruct", "--peak", "nan"),
        ("synth", "--seed", "-1"), ("inpaint", "--seed", "-1"),
        ("reconstruct", "--seed", "-1")])
    def test_bad_peak_or_seed_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, flag, value):
        # inpaint used to fit and write its outputs before psnr rejected
        # --peak 0, metrics printed inf for --peak inf, and --seed -1 failed
        # with numpy's message, which names no flag
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "lrd_fit", no_fit)
        monkeypatch.setattr(cli, "lrd_fit_masked", no_fit)
        out = tmp_path / "out"
        argv = [command, flag, value]
        if command == "synth":
            argv += ["--shape", "6,6", "--out", out]
        elif command == "metrics":
            argv += ["--ref", src / "signal.lrt", "--est", src / "signal.lrt"]
        else:
            argv += ["--signal", src / "signal.lrt",
                     "--filters", src / "dictionary.lrd", "--out", out]
            if command == "inpaint":
                argv += ["--missing", "0.5"]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "reconstruct"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1", "-0.5"])
    def test_bad_eps_rel_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, value):
        # NaN, infinite and >= 1 thresholds used to report cr=inf, nnz=0
        # with exit 0, and reconstruct fitted before any check
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "lrd_fit", no_fit)
        out = tmp_path / "out"
        if command == "metrics":
            argv = ["metrics", "--ref", src / "signal.lrt",
                    "--est", src / "signal.lrt", "--activations", src]
        else:
            argv = ["reconstruct", "--signal", src / "signal.lrt",
                    "--filters", src / "dictionary.lrd", "--out", out]
        assert run_cli(*argv, "--eps-rel", value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: --eps-rel must be finite and in [0, 1)")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--tol", "-1"], "tol_outer must be finite and positive"),
        (["--rank", "2,0"], "rank must be >= 1"),
        (["--alpha", "1e-3,-1"], "alpha must be finite and >= 0"),
        (["--reg", "l1", "--lambda", "0.1,nan"], "lam must be finite"),
        (["--reg", "l1", "--rho", "0"], "rho_init must be finite"),
    ], ids=["tol", "rank", "alpha", "lambda", "rho"])
    def test_bad_sweep_point_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, flags, message):
        # reconstruct used to create --out, then check each point's config
        # only when the sweep reached it, after fitting and saving the
        # points before it
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "lrd_fit", no_fit)
        out = tmp_path / "out"
        assert run_cli("reconstruct", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd", "--out", out,
                       "--save-activations", *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert not out.exists()
