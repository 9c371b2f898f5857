import numpy as np

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

    def test_fraction_out_of_range(self, tmp_path):
        src = synth_dir(tmp_path, "src", shape="6,6", support="2,2")
        code = run_cli("inpaint", "--signal", src / "signal.lrt",
                       "--filters", src / "dictionary.lrd",
                       "--missing", "1.0", "--out", tmp_path / "x")
        assert code == 1


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
