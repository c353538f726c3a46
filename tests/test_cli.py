"""File format and CLI pipeline tests."""
import hashlib
import json
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import divtraj
from divtraj import (
    Context,
    CrossroadConfig,
    CrossroadDecoder,
    Dataset,
    EnergyConfig,
    Example,
    GroundSet,
    KernelConfig,
    AffineFlowSet,
    LinearDecoder,
    SampleSet,
    TabulatedDecoder,
    TrainConfig,
    apply_flows,
    build_kernel,
    decoder_from_config,
    evaluate_sample_sets,
    generate_crossroad,
    greedy_map,
)
from divtraj import cli
from divtraj.cli import main
from divtraj.flows import _fold_features
from divtraj.fileio import (
    read_dataset,
    read_model,
    read_samples,
    train_config_from_dict,
    train_config_to_dict,
    write_dataset,
    write_model,
    write_samples,
)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


DSF_TRAIN_CONFIG = {
    "mode": "dsf",
    "k": 6,
    "iters": 40,
    "lr": 0.02,
    "seed": 5,
    "kernel": {"sim_scale": 8.0, "base_quality": 1.0, "rho": 0.9},
    "decoder": {
        "kind": "crossroad",
        "mode_probs": [0.8, 0.1, 0.1],
        "speed": 1.0,
        "t_steps": 3,
        "within_mode_scale": 0.3,
    },
}


# a test value: the key is taken out of its block
MISSING = object()


# the decoder block a wrong-type case starts from when its key belongs to
# the linear or the tabulated kind (2-d codes, T = 3, D = 2)
DECODER_WITH_KEY = {
    "W": {"kind": "linear", "W": [[1.0, 0.0]] * 6, "c0": [0.0] * 6, "t_steps": 3, "state_dim": 2},
    "z_grid": {"kind": "tabulated", "z_grid": [[-1.0, 1.0]] * 2, "table": np.zeros((2, 2, 3, 2)).tolist(), "T": 3, "D": 2},
}
DECODER_WITH_KEY["ctx_proj"] = DECODER_WITH_KEY["c0"] = DECODER_WITH_KEY["W"]
DECODER_WITH_KEY["table"] = DECODER_WITH_KEY["z_grid"]


# Adam's constants, which version-1 train configs and saved models carry
ADAM_CONSTANTS = {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8}


class TestFileFormats:
    def test_dataset_round_trip(self, tmp_path):
        ds = generate_crossroad(CrossroadConfig(n_examples=12, seed=0))
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        loaded = read_dataset(path)
        assert len(loaded) == 12
        for a, b in zip(ds.examples, loaded.examples):
            np.testing.assert_allclose(a.future, b.future)
            np.testing.assert_allclose(a.context.past, b.context.past)
            assert a.meta == b.meta
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format_version"] == 1

    def test_train_config_round_trip_and_unknown_keys(self):
        cfg = TrainConfig(
            mode="dlow", k=4, iters=10, lr=0.01, seed=2,
            kernel=KernelConfig(sim_scale=2.0),
            energy=EnergyConfig(sigma_d=5.0, joint_split=((0,), (1,))),
        )
        block = train_config_to_dict(cfg)
        assert train_config_from_dict(block) == cfg
        bad = dict(block)
        bad["learning_rate"] = 0.1
        with pytest.raises(ValueError, match="unknown keys"):
            train_config_from_dict(bad)
        bad2 = dict(block)
        bad2["kernel"] = dict(block["kernel"], scale=1.0)
        with pytest.raises(ValueError, match="unknown keys"):
            train_config_from_dict(bad2)

    def test_version1_config_with_fd_step_still_loads(self):
        # configs and models written while training used finite differences carry fd_step
        cfg = TrainConfig(mode="dlow", k=4, iters=10, seed=2)
        # and a kernel latent_dim, now taken from the codes, and Adam's constants, now fixed
        block = dict(train_config_to_dict(cfg), fd_step=1e-4, **ADAM_CONSTANTS)
        block["kernel"] = dict(block["kernel"], latent_dim=2)
        assert train_config_from_dict(block) == cfg
        for key, value in (("adam_beta1", 0.5), ("adam_beta2", 0.99), ("adam_eps", 0.0)):
            with pytest.raises(ValueError, match=f"{key} is fixed at"):
                train_config_from_dict(dict(block, **{key: value}))


def _write_dataset_file(path):
    """A dataset with context features and example meta, through write_dataset."""
    examples = tuple(
        Example(
            context=Context(past=np.full((2, 2), 0.1 * i), features=[i / 3.0, -1e-7]),
            future=np.arange(6.0).reshape(3, 2) / (i + 7.0),
            id=10 - i,
            meta={"route": "left", "weight": 1 / (i + 3.0)},
        )
        for i in range(3)
    )
    write_dataset(path, Dataset(examples=examples, meta={"description": "three", "T": 3}))


def _write_samples_file(path):
    """Sample sets with and without a DPP MAP subset, through write_samples."""
    rng = np.random.default_rng(8)
    records = [
        {"id": 2, "samples": rng.normal(size=(3, 2, 2)), "dpp_map": [2, 0]},
        {"id": 5, "samples": rng.normal(size=(3, 2, 2)) / 3.0},
    ]
    write_samples(path, records, meta={"K": 3, "omega": 1.0})


class TestJsonLinesCodec:
    """Datasets and sample sets share one JSON-lines codec: the same header
    checks and byte-stable records."""

    KINDS = {
        "dataset": (_write_dataset_file, read_dataset, _write_samples_file),
        "samples": (_write_samples_file, read_samples, _write_dataset_file),
    }

    @pytest.mark.parametrize("kind", ["dataset", "samples"])
    def test_header_errors(self, kind, tmp_path):
        write, read, write_other = self.KINDS[kind]
        path = tmp_path / "f.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty {kind} file$"):
            read(path)
        write_other(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a {kind} file$"):
            read(path)
        write(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        for version in (None, 2, "1"):
            if version is None:
                del header["format_version"]
            else:
                header["format_version"] = version
            path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
            expected = f"{path}: unsupported or missing format_version (expected 1)"
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                read(path)

    def test_header_meta_must_be_an_object(self, tmp_path):
        # each writer wrote these headers, and its reader rejected the file
        path = tmp_path / "f.jsonl"
        with pytest.raises(ValueError, match="^dataset meta must be a JSON object, got list$"):
            write_dataset(path, Dataset(examples=(), meta=[1]))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: header meta must be a JSON object, got list')}$"):
            write_samples(path, [], meta=[1])
        assert not path.exists()

    def test_write_read_write_same_bytes(self, tmp_path):
        _write_dataset_file(tmp_path / "a.jsonl")
        write_dataset(tmp_path / "b.jsonl", read_dataset(tmp_path / "a.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        _write_samples_file(tmp_path / "s.jsonl")
        records = read_samples(tmp_path / "s.jsonl")
        assert [rec["dpp_map"] for rec in records] == [[2, 0], None]
        write_samples(tmp_path / "t.jsonl", records, meta={"K": 3, "omega": 1.0})
        assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "t.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "dpp_map, says",
        [
            ([1.7, True], "dpp_map entry must be an integer, got 1.7"),  # was written as [1,1]
            ([True], "dpp_map entry must be an integer, got True"),
            ([0, 3], "dpp_map must hold distinct indices in [0, 3), got [0, 3]"),
            ([2, 2], "dpp_map must hold distinct indices in [0, 3), got [2, 2]"),
            ("0", "dpp_map must be null or a list of sample indices, got '0'"),
        ],
    )
    def test_write_samples_rejects_a_bad_dpp_map(self, tmp_path, dpp_map, says):
        path = tmp_path / "s.jsonl"
        records = [{"id": 1, "samples": np.zeros((3, 2, 2))}, {"id": 2, "samples": np.zeros((3, 2, 2)), "dpp_map": dpp_map}]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {says}')}$"):
            write_samples(path, records)
        assert not path.exists()
        records[1]["dpp_map"] = (np.int64(2), 0)  # numpy integers in a tuple are integer indices too
        write_samples(path, records)
        assert [rec["dpp_map"] for rec in read_samples(path)] == [None, [2, 0]]

    # write_samples wrote each of these, and read_samples rejected the file
    @pytest.mark.parametrize(
        "edit, says",
        [
            ({"id": 1}, "duplicate sample id 1"),
            ({"id": 2.0}, "id must be an integer, got 2.0"),
            ({"samples": [[[0.0, True]]]}, "samples must be an array of numbers in rows of equal length, got [[[0.0, True]]]"),
            ({"samples": [[["0.5", 0.0]]]}, "samples must be an array of numbers in rows of equal length, got [[['0.5', 0.0]]]"),
        ],
    )
    def test_write_samples_rejects_what_read_samples_rejects(self, tmp_path, edit, says):
        path = tmp_path / "s.jsonl"
        records = [{"id": 1, "samples": np.zeros((1, 1, 2))}, {"id": 2, "samples": np.zeros((1, 1, 2))} | edit]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {says}')}$"):
            write_samples(path, records)
        assert not path.exists()

    def test_writer_names_the_file_as_the_reader_does(self, tmp_path, monkeypatch):
        # the writer named the file ./x//s.jsonl, as given, and the reader x/s.jsonl
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir()
        records = [{"id": 0, "samples": np.zeros((1, 1, 2))}, {"id": 1, "samples": np.zeros((1, 1, 2))}]
        with pytest.raises(ValueError) as written:
            write_samples("./x//s.jsonl", [records[0], dict(records[1], id=0)])
        with pytest.raises(ValueError) as written_meta:
            write_samples("./x//s.jsonl", records, meta=[1])
        write_samples("x/s.jsonl", records)
        path = tmp_path / "x" / "s.jsonl"
        path.write_text(path.read_text().replace('{"id":1,', '{"id":0,'))
        with pytest.raises(ValueError) as read:
            read_samples("./x//s.jsonl")
        assert str(written.value) == str(read.value) == "x/s.jsonl:3: duplicate sample id 0"
        assert str(written_meta.value) == "x/s.jsonl:1: header meta must be a JSON object, got list"


class TestModelCodec:
    """write_model and read_model run one model check, with the same messages."""

    DSF = {"mode": "dsf", "n_z": 2, "K": 4, "params": {"codes": np.zeros((4, 2)).tolist()}, "decoder": {},
           "train_config": {}, "seed": 0}
    DLOW = dict(DSF, mode="dlow", params={"A": np.tile(np.eye(2), (4, 1, 1)).tolist(), "b": np.zeros((4, 2)).tolist()})

    # write_model wrote each of these but the last, and read_model rejected the file
    CASES = {
        "codes shape": (dict(DSF, params={"codes": np.zeros((6, 2)).tolist()}), "codes of shape (6, 2) does not match K=4, n_z=2"),
        "A shape": (dict(DLOW, params=dict(DLOW["params"], A=DLOW["params"]["A"][:3])),
                    "A of shape (3, 2, 2) does not match K=4, n_z=2"),
        "b shape": (dict(DLOW, params=dict(DLOW["params"], b=np.zeros((4, 3)).tolist())),
                    "b of shape (4, 3) does not match K=4, n_z=2"),
        "float K": (dict(DSF, K=4.0), "K must be an integer, got 4.0"),
        "unknown mode": (dict(DSF, mode="gan"), "unknown sampler mode 'gan'"),
        "missing field": ({key: value for key, value in DSF.items() if key != "seed"}, "model is missing keys ['seed']"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_write_model_rejects_what_read_model_rejects(self, tmp_path, case):
        model, says = self.CASES[case]
        raw, written = tmp_path / "raw.json", tmp_path / "m.json"
        raw.write_text(json.dumps({**model, "format_version": 1}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{raw}: {says}')}$"):
            read_model(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{written}: {says}')}$"):
            write_model(written, model)
        assert not written.exists()
        for valid in (self.DSF, self.DLOW):  # the models each case edits
            write_model(written, valid)
            assert read_model(written) == {**valid, "format_version": 1}


@pytest.fixture()
def workdir(tmp_path):
    gen_cfg = {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 24, "seed": 11}
    (tmp_path / "gen.json").write_text(json.dumps(gen_cfg))
    (tmp_path / "train.json").write_text(json.dumps(DSF_TRAIN_CONFIG))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestGenData:
    def test_writes_expected_count_and_histogram(self, workdir, capsys):
        code = run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        assert code == 0
        out = capsys.readouterr().out
        assert "24 examples" in out and "routes=" in out
        assert len((workdir / "d.jsonl").read_text().splitlines()) == 25  # header + examples

    def test_zero_examples_fails(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"n_examples": 0}))
        code = run(["gen-data", "--config", workdir / "bad.json", "--out", workdir / "x.jsonl"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_rerun_identical_hash(self, workdir):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "a.jsonl"])
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "b.jsonl"])
        assert sha(workdir / "a.jsonl") == sha(workdir / "b.jsonl")

    def test_unknown_config_key_fails(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"n_example": 5}))
        assert run(["gen-data", "--config", workdir / "bad.json", "--out", workdir / "x.jsonl"]) != 0
        assert "unknown keys" in capsys.readouterr().err

    def test_legacy_out_key_ignored(self, workdir):
        gen_cfg = json.loads((workdir / "gen.json").read_text())
        (workdir / "old.json").write_text(json.dumps(dict(gen_cfg, out=str(workdir / "x.jsonl"))))
        assert run(["gen-data", "--config", workdir / "old.json", "--out", workdir / "a.jsonl"]) == 0
        assert run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "b.jsonl"]) == 0
        assert sha(workdir / "a.jsonl") == sha(workdir / "b.jsonl")
        assert not (workdir / "x.jsonl").exists()

    def test_out_required(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--config", workdir / "gen.json"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_parser_built_once_handlers_looked_up_per_call(self, workdir, monkeypatch):
        # the parser is cached, so a handler replaced on the module after the
        # first call (as a tracer wraps them) must still be the one that runs
        from divtraj import cli

        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_gen_data", lambda args: seen.append(args.out) or 0)
        assert run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"]) == 0
        assert seen == [str(workdir / "d.jsonl")] and not (workdir / "d.jsonl").exists()

    def test_fresh_interpreter_loads_no_scipy(self, workdir):
        # scipy is imported only inside the functions that call it, and the
        # distances of small sets and the quality radius need none of it:
        # gen-data, the README's DSF train, sample --dpp-map and eval with its
        # baseline (one set per sample set and per anchor against 300
        # examples), a small DLow train, sample --dpp-map and eval, a small
        # DSF train, sample --dpp-map and eval on a tabulated decoder, and a
        # K = 100 DLow walkthrough shaped like perfbench's dpp-map-k100 (its
        # energies' sets take the Gram form, its self metrics numpy), each
        # run in a fresh interpreter, load no scipy module
        script = "\n".join([
            "import json, sys",
            f"sys.path.insert(0, {str(Path(divtraj.__file__).parent.parent)!r})",
            "from divtraj import cli",
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]",
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
        ])
        readme_gen = {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 300, "seed": 11}
        readme_train = dict(DSF_TRAIN_CONFIG, k=10, iters=300, lr=0.01, seed=0)
        dlow_train = {
            "mode": "dlow", "k": 5, "iters": 40, "lr": 0.01, "seed": 3, "noise_draws_per_iter": 4,
            "decoder": DSF_TRAIN_CONFIG["decoder"],
        }
        ax = np.linspace(-3.0, 3.0, 13)
        table = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1)).decode_batch(np.stack(np.meshgrid(ax, ax, indexing="ij"), -1))
        tabulated_train = dict(DSF_TRAIN_CONFIG, decoder=TabulatedDecoder((ax, ax), table, 3, 2).to_config())
        # 8 examples: the reconstruction set, 8 x (8 draws * 100 samples) x 6, is above 2^14
        k100_gen = {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 8, "seed": 3000}
        k100_train = {
            "mode": "dlow", "k": 100, "iters": 3, "lr": 0.01, "seed": 0,
            "energy": {"sigma_d": 10.0, "lambda_d": 25.0, "lambda_r": 2.0, "beta": 1.0},
            "decoder": {"kind": "linear", "W": [[0.6, -0.8, 0, 0], [0.8, 0.6, 0, 0], [0, 0, 0.6, 0], [0, 0, 0, 0.6],
                                                [0, 0, 0.8, 0], [0, 0, 0, 0.8]],
                        "c0": [0.0] * 6, "t_steps": 3, "state_dim": 2},
        }
        configs = {"readme-gen": readme_gen, "readme-train": readme_train, "dlow": dlow_train, "tab": tabulated_train,
                   "k100-gen": k100_gen, "k100": k100_train}
        for name, cfg in configs.items():
            (workdir / f"{name}.json").write_text(json.dumps(cfg))

        def files(*names):
            return [str(workdir / name) for name in names]

        def train(config, data, tag):
            return ["train", "--config", *files(config), "--dataset", *files(data),
                    "--model-out", *files(f"{tag}-m.json"), "--report-out", *files(f"{tag}-r.json")]

        def sample(data, tag):
            return ["sample", "--model", *files(f"{tag}-m.json"), "--dataset", *files(data),
                    "--out", *files(f"{tag}-s.jsonl"), "--dpp-map", "--omega", "10"]

        runs = [
            [["gen-data", "--config", *files("gen.json"), "--out", *files("d.jsonl")]],
            [
                ["gen-data", "--config", *files("readme-gen.json"), "--out", *files("readme.jsonl")],
                train("readme-train.json", "readme.jsonl", "readme"),
                sample("readme.jsonl", "readme"),
                ["eval", "--samples", *files("readme-s.jsonl"), "--dataset", *files("readme.jsonl"), "--eps", "1.0",
                 "--out", *files("readme-metrics"), "--model", *files("readme-m.json"), "--seed", "99"],
            ],
            [
                train("dlow.json", "d.jsonl", "dlow"),
                sample("d.jsonl", "dlow"),
                ["eval", "--samples", *files("dlow-s.jsonl"), "--dataset", *files("d.jsonl"), "--eps", "1.0",
                 "--out", *files("dlow-metrics"), "--model", *files("dlow-m.json"), "--seed", "99"],
            ],
            [
                train("tab.json", "d.jsonl", "tab"),
                sample("d.jsonl", "tab"),
                ["eval", "--samples", *files("tab-s.jsonl"), "--dataset", *files("d.jsonl"), "--eps", "1.0",
                 "--out", *files("tab-metrics"), "--model", *files("tab-m.json"), "--seed", "99"],
            ],
            [
                ["gen-data", "--config", *files("k100-gen.json"), "--out", *files("k100.jsonl")],
                train("k100.json", "k100.jsonl", "k100"),
                sample("k100.jsonl", "k100"),
                ["eval", "--samples", *files("k100-s.jsonl"), "--dataset", *files("k100.jsonl"), "--eps", "0.04",
                 "--out", *files("k100-metrics")],
            ],
        ]
        for argvs in runs:
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(argvs), []], argvs

    def test_balanced_300_near_uniform_histogram(self, workdir):
        cfg = {"mode_probs": [1 / 3, 1 / 3, 1 / 3], "n_examples": 300, "seed": 4}
        (workdir / "bal.json").write_text(json.dumps(cfg))
        assert run(["gen-data", "--config", workdir / "bal.json", "--out", workdir / "bal.jsonl"]) == 0
        ds = read_dataset(workdir / "bal.jsonl")
        assert len(ds) == 300
        counts = {"forward": 0, "left": 0, "right": 0}
        for ex in ds.examples:
            counts[ex.meta["route"]] += 1
        band = 3.0 * np.sqrt(300 * (1 / 3) * (2 / 3))  # ~24.5
        assert all(abs(c - 100) <= band for c in counts.values())


class TestTrain:
    def test_dsf_training_improves_loss(self, workdir, capsys):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        code = run([
            "train", "--config", workdir / "train.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ])
        assert code == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["final_loss"] < report["trace"][0]["total"]
        model = read_model(workdir / "m.json")
        assert model["mode"] == "dsf" and model["K"] == 6
        assert "iter" in capsys.readouterr().out

    def test_unknown_decoder_key_fails(self, workdir, capsys):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        decoder = dict(DSF_TRAIN_CONFIG["decoder"], within_mode_scal=9.0)
        (workdir / "bad.json").write_text(json.dumps(dict(DSF_TRAIN_CONFIG, decoder=decoder)))
        assert run([
            "train", "--config", workdir / "bad.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 1
        assert "unknown keys in decoder config: ['within_mode_scal']" in capsys.readouterr().err
        assert not (workdir / "m.json").exists()

    def test_nan_within_mode_scale_fails(self, workdir, capsys):
        # json reads NaN; the decoder must reject it before training starts
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        decoder = dict(DSF_TRAIN_CONFIG["decoder"], within_mode_scale=float("nan"))
        (workdir / "bad.json").write_text(json.dumps(dict(DSF_TRAIN_CONFIG, decoder=decoder)))
        assert "NaN" in (workdir / "bad.json").read_text()
        assert run([
            "train", "--config", workdir / "bad.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 1
        assert "within_mode_scale must be finite and > 0, got nan" in capsys.readouterr().err
        assert not (workdir / "m.json").exists()

    def test_featurized_dlow_on_featureless_data_fails(self, workdir, capsys):
        # gen-data writes no context features: featurized flows would train
        # one copy of the shared flows per example
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        cfg = {"mode": "dlow", "k": 3, "iters": 2, "context_featurization": True, "decoder": DSF_TRAIN_CONFIG["decoder"]}
        (workdir / "feat.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run([
            "train", "--config", workdir / "feat.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: context_featurization needs context features")
        assert not (workdir / "m.json").exists()

    def test_missing_dataset_fails(self, workdir, capsys):
        code = run([
            "train", "--config", workdir / "train.json", "--dataset", workdir / "nope.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_dlow_beta_direction_on_final_diversity_energy(self, workdir):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        finals = {}
        for beta in (1.0, 100.0):
            cfg = {
                "mode": "dlow", "k": 5, "iters": 60, "lr": 0.01, "seed": 3,
                "noise_draws_per_iter": 4,
                "energy": {"sigma_d": 10.0, "lambda_d": 25.0, "lambda_r": 2.0, "beta": beta},
                "decoder": DSF_TRAIN_CONFIG["decoder"],
            }
            (workdir / f"dlow{beta}.json").write_text(json.dumps(cfg))
            assert run([
                "train", "--config", workdir / f"dlow{beta}.json",
                "--dataset", workdir / "d.jsonl",
                "--model-out", workdir / f"m{beta}.json",
                "--report-out", workdir / f"r{beta}.json",
            ]) == 0
            report = json.loads((workdir / f"r{beta}.json").read_text())
            finals[beta] = report["final_terms"]["diversity"] / 25.0  # unweighted E_d
        # beta = 100 keeps flows near the prior: samples stay closer together,
        # so the final diversity energy is higher (less diverse)
        assert finals[100.0] > finals[1.0]

    def test_config_with_fd_step_trains(self, workdir, capsys):
        # a version-1 config's legacy keys change no trained bit
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        kernel = dict(DSF_TRAIN_CONFIG["kernel"], latent_dim=2)
        legacy = dict(DSF_TRAIN_CONFIG, fd_step=1e-4, kernel=kernel, **ADAM_CONSTANTS)
        (workdir / "fd.json").write_text(json.dumps(legacy))
        (workdir / "beta1.json").write_text(json.dumps(dict(legacy, adam_beta1=0.5)))
        for name in ("train", "fd"):
            assert run([
                "train", "--config", workdir / f"{name}.json", "--dataset", workdir / "d.jsonl",
                "--model-out", workdir / f"m-{name}.json", "--report-out", workdir / f"r-{name}.json",
            ]) == 0
        for prefix in ("m", "r"):
            assert sha(workdir / f"{prefix}-fd.json") == sha(workdir / f"{prefix}-train.json")
        assert "fd_step" not in read_model(workdir / "m-fd.json")["train_config"]
        assert run([
            "train", "--config", workdir / "beta1.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 1
        assert "adam_beta1 is fixed at 0.9, got 0.5" in capsys.readouterr().err


class TestConfigTypes:
    """A config value of the wrong JSON type is a one-line error that names
    the field: integer fields take integers, real fields real numbers, and
    neither takes a bool; flags take only a bool, ``mode_probs`` a list of
    numbers, a decoder's ``kind`` a string, ``W`` and ``ctx_proj`` 2-d
    arrays of numbers, ``c0`` and ``table`` arrays of numbers and ``z_grid``
    a list of lists of numbers; a config or block that is not a JSON
    object, or a decoder block without a key, names the block."""

    @staticmethod
    def assert_one_error_line(capsys, field, says="must be"):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and f"{field} {says}" in line

    @pytest.mark.parametrize(
        "block, field",
        [
            ({"n_examples": 3.5}, "n_examples"),
            ({"n_examples": "10"}, "n_examples"),
            ({"n_examples": True}, "n_examples"),
            ({"n_examples": 3, "seed": 1.5}, "seed"),
            ({"n_examples": 3, "past_steps": 2.0}, "past_steps"),
            ({"n_examples": 3, "noise_std": "0.1"}, "noise_std"),
            ({"n_examples": 3, "mode_probs": 0.5}, "mode_probs"),
            ({"n_examples": 3, "mode_probs": "abc"}, "mode_probs"),
            ({"n_examples": 3, "mode_probs": [True, False, False]}, "mode_probs entry"),
            ({"n_examples": 3, "mode_probs": ["0.8", "0.1", "0.1"]}, "mode_probs entry"),
            ([1, 2], "gen-data config"),
        ],
    )
    def test_gen_data(self, tmp_path, capsys, block, field):
        (tmp_path / "gen.json").write_text(json.dumps(block))
        assert run(["gen-data", "--config", tmp_path / "gen.json", "--out", tmp_path / "d.jsonl"]) == 1
        self.assert_one_error_line(capsys, field)
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            (None, "k", 2.5),
            (None, "k", True),
            (None, "iters", "5"),
            (None, "iters", 5.0),
            (None, "seed", 0.5),
            (None, "lr", "0.1"),
            ("decoder", "t_steps", 3.5),
            ("decoder", "speed", "1.0"),
            ("kernel", "rho", "0.9"),
            ("energy", "beta", False),
            (None, "fix_first_identity", "no"),
            (None, "fix_first_identity", 1),
            (None, "context_featurization", None),
            ("decoder", "mode_probs", 0.5),
            ("decoder", "mode_probs", "abc"),
            ("energy", "joint_split", 5),
            ("energy", "joint_split", [[0], [1], [2]]),
            # no key: the block, or with no block the whole config, is the value
            ("kernel", None, 5),
            ("energy", None, "x"),
            ("decoder", None, 5),
            (None, None, [1, 2]),
            ("decoder", "mode_probs", MISSING),
            ("decoder", "kind", ["crossroad"]),
            ("decoder", "W", 5),
            ("decoder", "ctx_proj", 5),
            ("decoder", "z_grid", 5),
            # decoder arrays with ragged rows or entries that are not numbers
            ("decoder", "W", [[1, 0], [0]]),
            ("decoder", "W", [[True, False]] * 6),
            ("decoder", "c0", ["0"] * 6),
            ("decoder", "ctx_proj", [[1.0], None]),
            ("decoder", "z_grid", [["a", "b"]]),
            ("decoder", "table", [[0.0], [0.0, 1.0]]),
        ],
    )
    def test_train(self, workdir, capsys, block, key, value):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        cfg = json.loads(json.dumps(DSF_TRAIN_CONFIG))
        if block == "decoder" and key in DECODER_WITH_KEY:
            cfg["decoder"] = dict(DECODER_WITH_KEY[key])
        if key is None:
            cfg = value if block is None else dict(cfg, **{block: value})
        elif value is MISSING:
            del cfg[block][key]
        else:
            (cfg.setdefault(block, {}) if block else cfg)[key] = value
        (workdir / "bad.json").write_text(json.dumps(cfg))
        assert run([
            "train", "--config", workdir / "bad.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 1
        if key is None:
            self.assert_one_error_line(capsys, f"{block or 'train'} config", "must be a JSON object")
        elif value is MISSING:
            self.assert_one_error_line(capsys, f"{block} config", f"is missing keys ['{key}']")
        else:
            self.assert_one_error_line(capsys, key)
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (CrossroadConfig, "n_examples", 3.5),
            (CrossroadConfig, "seed", True),
            (CrossroadConfig, "noise_std", "0.1"),
            (TrainConfig, "k", np.True_),
            (TrainConfig, "noise_draws_per_iter", 8.0),
            (TrainConfig, "lr", "0.1"),
            (KernelConfig, "rho", None),
            (EnergyConfig, "sigma_d", "10"),
            (EnergyConfig, "beta", False),
            (CrossroadDecoder, "t_steps", 3.5),
            (CrossroadDecoder, "within_mode_scale", "0.3"),
            (partial(LinearDecoder, W=np.zeros((6, 2)), c0=np.zeros(6), state_dim=2), "t_steps", 3.0),
            (partial(TabulatedDecoder, z_grid=([0.0, 1.0],), table=np.zeros((2, 3, 2)), t_steps=3), "state_dim", 2.0),
            (TrainConfig, "fix_first_identity", "no"),
            (TrainConfig, "fix_first_identity", 1),
            (TrainConfig, "context_featurization", None),
            (CrossroadConfig, "mode_probs", 0.5),
            (CrossroadDecoder, "mode_probs", "abc"),
            (EnergyConfig, "joint_split", 5),
            (EnergyConfig, "joint_split", [[0], [1], [2]]),
        ],
    )
    def test_direct_construction(self, make, field, value):
        integral = field in ("n_examples", "seed", "k", "noise_draws_per_iter", "t_steps", "state_dim")
        kind = {
            "fix_first_identity": "true or false",
            "context_featurization": "true or false",
            "mode_probs": "a list of 3 numbers",
            "joint_split": "a pair of integer lists",
        }.get(field, "an integer" if integral else "a number")
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {re.escape(repr(value))}$"):
            make(**{field: value})

    def test_negative_seed_names_the_seed(self, workdir, capsys):
        # gen-data, train and eval failed with numpy's "expected non-negative
        # integer", and sample on a DSF model wrote "seed": -3 into its header
        _train_model(workdir)
        data, model, out = workdir / "d.jsonl", workdir / "m.json", workdir / "out"
        assert run(["sample", "--model", model, "--dataset", data, "--out", workdir / "s.jsonl"]) == 0
        (workdir / "neg-gen.json").write_text(json.dumps({"n_examples": 3, "seed": -1}))
        (workdir / "neg-train.json").write_text(json.dumps(dict(DSF_TRAIN_CONFIG, seed=-1)))
        train = ["train", "--dataset", data, "--model-out", out, "--report-out", out, "--config"]
        evaluate = ["eval", "--samples", workdir / "s.jsonl", "--dataset", data, "--eps", 1.0, "--out", out, "--model", model]
        for argv, name in [
            (["gen-data", "--out", out, "--config", workdir / "neg-gen.json"], "seed"),
            ([*train, workdir / "neg-train.json"], "seed"),
            (["gen-data", "--out", out, "--config", workdir / "gen.json", "--seed", -1], "--seed"),
            ([*train, workdir / "train.json", "--seed", -1], "--seed"),
            (["sample", "--model", model, "--dataset", data, "--out", out, "--seed", -1], "--seed"),
            ([*evaluate, "--seed", -1], "--seed"),
        ]:
            assert run(argv) == 1
            self.assert_one_error_line(capsys, name, "must be >= 0, got -1")
            assert not list(workdir.glob("out*"))

    def test_numpy_scalars_accepted(self):
        cfg = CrossroadConfig(n_examples=np.int64(2), seed=np.uint8(3), speed=np.float32(1.5), noise_std=np.float64(0))
        assert (cfg.n_examples, cfg.noise_std) == (2, 0.0)
        assert TrainConfig(k=np.int32(3), iters=np.int64(2), lr=np.float16(0.5)).k == 3
        assert KernelConfig(rho=np.float32(0.5)).rho == 0.5
        assert EnergyConfig(beta=np.int64(2)).beta == 2
        assert CrossroadDecoder(t_steps=np.int64(4), speed=2).templates["forward"].shape == (4, 2)
        for flag in (True, False, np.True_, np.bool_(False)):  # a flag takes a bool, numpy's too
            cfg = TrainConfig(fix_first_identity=flag, context_featurization=flag)
            assert cfg.fix_first_identity == cfg.context_featurization == flag


def _train_model(workdir):
    run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
    run([
        "train", "--config", workdir / "train.json", "--dataset", workdir / "d.jsonl",
        "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
    ])


def _first_entry(value, new):
    """A nested list ``value`` with its first number replaced by ``new``."""
    row = value
    while isinstance(row[0], list):
        row = row[0]
    row[0] = new
    return value


class TestArtifactTypes:
    """A dataset, sample or model file whose header, meta, record or whole body
    is not a JSON object, whose ids (or a model's K, n_z and seed) are not JSON
    integers, or whose arrays hold an entry that is not a finite number, is a
    one-line error through the CLI, from ``sample`` and ``eval --model`` alike
    for a model file; it names the file, and the line of a JSON-lines file."""

    # id: (file, line, edit of the JSON value on that line, how the error line starts)
    CASES = {
        "dataset past string": ("d.jsonl", 2, lambda rec: dict(rec, past=_first_entry(rec["past"], "1.5")),
                                "{path}:2: trajectory must be an array of numbers"),
        "dataset features null": ("d.jsonl", 3, lambda rec: dict(rec, features=[None]),
                                  "{path}:3: features must be an array of numbers"),
        "dataset header list": ("d.jsonl", 1, lambda header: [header], "{path}:1: header must be a JSON object, got list"),
        "dataset meta list": ("d.jsonl", 1, lambda header: dict(header, meta=[1]),
                              "{path}:1: header meta must be a JSON object, got list"),
        "dataset record list": ("d.jsonl", 3, lambda rec: [rec], "{path}:3: record must be a JSON object, got list"),
        "dataset id float": ("d.jsonl", 3, lambda rec: dict(rec, id=1.7), "{path}:3: id must be an integer, got 1.7"),
        "dataset id true": ("d.jsonl", 3, lambda rec: dict(rec, id=True), "{path}:3: id must be an integer, got True"),
        "dataset id string": ("d.jsonl", 4, lambda rec: dict(rec, id="2"), "{path}:4: id must be an integer, got '2'"),
        # the error came from Dataset, naming neither the file nor the line
        "dataset id repeated": ("d.jsonl", 3, lambda rec: dict(rec, id=0), "{path}:3: duplicate example id 0"),
        "dataset future short": ("d.jsonl", 3, lambda rec: dict(rec, future=rec["future"][:-1]),
                                 "{path}:3: dataset examples are not shape-homogeneous: future of shape (2, 2), "
                                 "expected (3, 2)"),
        "samples record list": ("s.jsonl", 2, lambda rec: [rec], "{path}:2: record must be a JSON object, got list"),
        "samples id float": ("s.jsonl", 2, lambda rec: dict(rec, id=0.5), "{path}:2: id must be an integer, got 0.5"),
        # eval scored the later of two records with one id
        "samples id repeated": ("s.jsonl", 3, lambda rec: dict(rec, id=rec["id"] - 1), "{path}:3: duplicate sample id 0"),
        # read_samples passed it, and eval's check named no file
        "samples not K x T x D": ("s.jsonl", 2, lambda rec: dict(rec, samples=rec["samples"][0]),
                                  "{path}:2: samples must be a K x T x D array with K >= 1, got shape (3, 2)"),
        "samples entry null": ("s.jsonl", 3, lambda rec: dict(rec, samples=_first_entry(rec["samples"], None)),
                               "{path}:3: samples must be an array of numbers"),
        # read_samples returned a dpp_map unchecked
        "samples dpp_map entries": ("s.jsonl", 2, lambda rec: dict(rec, dpp_map=["x", 99, True, 1.5]),
                                    "{path}:2: dpp_map entry must be an integer, got 'x'"),
        "samples dpp_map range": ("s.jsonl", 3, lambda rec: dict(rec, dpp_map=[0, 99]),
                                  "{path}:3: dpp_map must hold distinct indices in [0, 6), got [0, 99]"),
        "samples dpp_map repeat": ("s.jsonl", 3, lambda rec: dict(rec, dpp_map=[1, 1]),
                                   "{path}:3: dpp_map must hold distinct indices in [0, 6), got [1, 1]"),
        "samples dpp_map object": ("s.jsonl", 2, lambda rec: dict(rec, dpp_map={"0": 1}),
                                   "{path}:2: dpp_map must be null or a list of sample indices, got {{'0': 1}}"),
        "model list": ("m.json", 1, lambda model: [model], "{path}: model must be a JSON object, got list"),
        "model params list": ("m.json", 1, lambda model: dict(model, params=[1]),
                              "{path}: model params must be a JSON object, got list"),
        "model codes true": ("m.json", 1, lambda model: dict(model, params={"codes": _first_entry(model["params"]["codes"], True)}),
                             "{path}: codes must be an array of numbers"),
        # a missing field read as a bare KeyError, error: 'K', and a train
        # config that is a list ended sample in an AttributeError traceback
        "model without K": ("m.json", 1, lambda model: {key: v for key, v in model.items() if key != "K"},
                            "{path}: model is missing keys ['K']"),
        "model without codes": ("m.json", 1, lambda model: dict(model, params={}),
                                "{path}: model params is missing keys ['codes']"),
        "model train_config list": ("m.json", 1, lambda model: dict(model, train_config=[1]),
                                    "{path}: model train_config must be a JSON object, got list"),
        # int() read 10.7 and "10" as 10 and true as 1, and sample wrote the truncated K
        **{
            f"model {field} {value!r}": ("m.json", 1, lambda model, field=field, value=value: dict(model, **{field: value}),
                                         f"{{path}}: {field} must be an integer, got {value!r}")
            for field in ("K", "n_z", "seed") for value in (10.7, True, "10")
        },
        # sample on a DSF model wrote "seed": -3 into its header
        "model seed negative": ("m.json", 1, lambda model: dict(model, seed=-3), "{path}: seed must be >= 0, got -3"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_error_line(self, workdir, capsys, case):
        name, number, edit, says = self.CASES[case]
        _train_model(workdir)
        sample = ["sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl", "--out", workdir / "s.jsonl"]
        assert run(sample) == 0
        path = workdir / name
        lines = path.read_text().splitlines()
        lines[number - 1] = json.dumps(edit(json.loads(lines[number - 1])))
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        resample = [*sample[:-1], workdir / "t.jsonl"]
        evaluate = ["eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl", "--eps", 1.0,
                    "--out", workdir / "e"]
        runs = {"s.jsonl": [evaluate], "m.json": [resample, [*evaluate, "--model", path, "--seed", 99]]}
        for argv in runs.get(name, [resample]):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            (line,) = err.splitlines()
            assert line.startswith("error: " + says.format(path=path))
        assert not (workdir / "t.jsonl").exists() and not (workdir / "e.json").exists()


def _write_long_decoder_model(workdir):
    """A trained model on T = 3 data, saved as long.json with its decoder's
    t_steps set to 5."""
    _train_model(workdir)
    model = read_model(workdir / "m.json")
    write_model(workdir / "long.json", dict(model, decoder=dict(model["decoder"], t_steps=5)))


class TestCommandReads:
    def test_each_command_reads_only_its_inputs(self, workdir, monkeypatch):
        # a command checks what it writes as it writes it, so it reads back none of its outputs
        reads = []

        def recording(reader):
            def read(path):
                reads.append((reader.__name__, Path(path).name))
                return reader(path)
            return read

        for name in ("read_dataset", "read_model", "read_samples"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        commands = {
            "gen-data": (["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"], []),
            "train": (["train", "--config", workdir / "train.json", "--dataset", workdir / "d.jsonl",
                       "--model-out", workdir / "m.json", "--report-out", workdir / "r.json"],
                      [("read_dataset", "d.jsonl")]),
            "sample": (["sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl",
                        "--out", workdir / "s.jsonl", "--dpp-map"],
                       [("read_model", "m.json"), ("read_dataset", "d.jsonl")]),
        }
        for name, (argv, inputs) in commands.items():
            reads.clear()
            assert run(argv) == 0, name
            assert reads == inputs, name


class TestSample:
    def test_k_samples_per_example(self, workdir):
        _train_model(workdir)
        assert run([
            "sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl",
            "--out", workdir / "s.jsonl",
        ]) == 0
        records = read_samples(workdir / "s.jsonl")
        assert len(records) == 24
        assert all(rec["samples"].shape == (6, 3, 2) for rec in records)

    def test_k_mismatch_rejected(self, workdir, capsys):
        # K comes only from the model header, so a header that disagrees with
        # the params is refused wherever the model is read
        _train_model(workdir)
        run(["sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl",
             "--out", workdir / "s.jsonl"])
        capsys.readouterr()
        model = read_model(workdir / "m.json")  # K=6 codes, n_z = 2
        a, b = np.tile(np.eye(2), (4, 1, 1)).tolist(), np.zeros((4, 2)).tolist()
        bad = {
            "dsf": dict(model, K=4),
            "dlow_A": dict(model, K=4, mode="dlow", params={"A": a[:3], "b": b}),
            "dlow_b": dict(model, K=4, mode="dlow", params={"A": a, "b": b[:3]}),
        }
        for name, bad_model in bad.items():  # as raw JSON: write_model rejects each of them
            (workdir / f"{name}.json").write_text(json.dumps({**bad_model, "format_version": 1}))
            for argv in (
                ["sample", "--model", workdir / f"{name}.json", "--dataset", workdir / "d.jsonl",
                 "--out", workdir / "bad.jsonl"],
                ["sample", "--model", workdir / f"{name}.json", "--dataset", workdir / "d.jsonl",
                 "--out", workdir / "bad.jsonl", "--dpp-map"],
                ["eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
                 "--eps", "1.0", "--out", workdir / "report", "--model", workdir / f"{name}.json",
                 "--seed", "1"],
            ):
                assert run(argv) == 1
                err = capsys.readouterr().err
                assert "K=4" in err and "n_z=2" in err
            assert not (workdir / "bad.jsonl").exists() and not (workdir / "report.json").exists()

    def test_decoder_shape_mismatch_rejected(self, workdir, capsys):
        # sample wrote (K, 5, 2) sets for T = 3 data, and only eval failed
        _write_long_decoder_model(workdir)
        assert run(["sample", "--model", workdir / "long.json", "--dataset", workdir / "d.jsonl",
                    "--out", workdir / "s.jsonl"]) == 1
        assert "error: decoder output shape (5, 2) does not match data (3, 2)" in capsys.readouterr().err
        assert not (workdir / "s.jsonl").exists()

    def test_dpp_map_never_selects_duplicates(self, workdir):
        _train_model(workdir)
        # duplicate a trained code to force exact duplicate samples
        model = json.loads((workdir / "m.json").read_text())
        codes = model["params"]["codes"]
        codes[1] = list(codes[0])
        (workdir / "m.json").write_text(json.dumps(model))
        assert run([
            "sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl",
            "--out", workdir / "s.jsonl", "--dpp-map", "--omega", "40.0",
        ]) == 0
        for rec in read_samples(workdir / "s.jsonl"):
            sel = rec["dpp_map"]
            assert len(sel) == len(set(sel))
            assert not ({0, 1} <= set(sel))  # the duplicated pair is never co-selected

    def test_dpp_map_on_dlow_model_with_latent_dim_4(self, workdir):
        # the kernel's quality sphere follows the model's n_z = 4; a latent_dim
        # of 2 in an older model's kernel block is ignored (a 2-d sphere would
        # change 5 of the 24 selections here)
        rng = np.random.default_rng(3)
        cfg = {
            "mode": "dlow", "k": 4, "iters": 3, "lr": 0.01, "seed": 0,
            "decoder": {
                "kind": "linear", "W": rng.normal(size=(6, 4)).tolist(), "c0": [0.0] * 6,
                "t_steps": 3, "state_dim": 2,
            },
        }
        (workdir / "lin.json").write_text(json.dumps(cfg))
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        assert run([
            "train", "--config", workdir / "lin.json", "--dataset", workdir / "d.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 0
        model = read_model(workdir / "m.json")
        model["train_config"]["kernel"]["latent_dim"] = 2
        write_model(workdir / "old.json", model)
        for name in ("m", "old"):
            assert run([
                "sample", "--model", workdir / f"{name}.json", "--dataset", workdir / "d.jsonl",
                "--out", workdir / f"{name}.jsonl", "--dpp-map",
            ]) == 0
        records = read_samples(workdir / "m.jsonl")
        assert all(set(rec["dpp_map"]) <= set(range(4)) for rec in records)
        assert (workdir / "old.jsonl").read_bytes() == (workdir / "m.jsonl").read_bytes()

    def train_featurized(self, workdir, fix_first, n_features=3):
        """A linear-decoder DLow model (K=3) trained with context featurization
        on 6 examples; returns the examples, the decoder weights and the model."""
        rng = np.random.default_rng(20)
        examples = [
            Example(
                context=Context(past=rng.normal(size=(2, 2)), features=rng.normal(size=n_features)),
                future=rng.normal(size=(3, 2)),
                id=i,
            )
            for i in range(6)
        ]
        write_dataset(workdir / "f.jsonl", Dataset(examples=tuple(examples)))
        w = rng.normal(size=(6, 2))
        cfg = {
            "mode": "dlow", "k": 3, "iters": 30, "lr": 0.05, "seed": 0,
            "context_featurization": True, "fix_first_identity": fix_first,
            "energy": {"sigma_d": 5.0, "lambda_d": 2.0, "lambda_r": 1.0, "beta": 0.5},
            "decoder": {
                "kind": "linear", "W": w.tolist(), "c0": [0.0] * 6, "t_steps": 3, "state_dim": 2,
            },
        }
        (workdir / "feat.json").write_text(json.dumps(cfg))
        assert run([
            "train", "--config", workdir / "feat.json", "--dataset", workdir / "f.jsonl",
            "--model-out", workdir / "m.json", "--report-out", workdir / "r.json",
        ]) == 0
        return examples, w, read_model(workdir / "m.json")

    def sample_records(self, workdir, model_path, out_name):
        assert run([
            "sample", "--model", model_path, "--dataset", workdir / "f.jsonl",
            "--out", workdir / out_name,
        ]) == 0
        return read_samples(workdir / out_name)

    def test_featurized_model_samples_use_per_example_flows(self, workdir):
        for fix_first in (False, True):
            examples, w, model = self.train_featurized(workdir, fix_first)
            k_t, n_f = 3 - fix_first, 3
            block = np.asarray(model["params"]["featurization"])
            assert block.size == k_t * (2 * 2 + 2) * n_f and np.abs(block).max() > 0.1
            ma = block[: k_t * 2 * 2 * n_f].reshape(k_t, 2, 2, n_f)
            mb = block[k_t * 2 * 2 * n_f :].reshape(k_t, 2, n_f)
            records = self.sample_records(workdir, workdir / "m.json", "s.jsonl")
            for ex, rec in zip(examples, records):
                a, b = np.array(model["params"]["A"]), np.array(model["params"]["b"])
                a[fix_first:] += ma @ ex.context.features
                b[fix_first:] += mb @ ex.context.features
                eps = np.random.default_rng([model["seed"], ex.id]).standard_normal(2)
                z = apply_flows(AffineFlowSet(A=a, b=b), eps)
                np.testing.assert_allclose(rec["samples"], (z @ w.T).reshape(3, 3, 2), atol=1e-12)
            # the same model with its featurization block zeroed samples differently
            model["params"]["featurization"] = [0.0] * block.size
            (workdir / "m0.json").write_text(json.dumps(model))
            for rec, rec0 in zip(records, self.sample_records(workdir, workdir / "m0.json", "s0.jsonl")):
                assert np.abs(rec["samples"] - rec0["samples"]).max() > 1e-6

    def test_featurized_model_rejects_feature_length_mismatch(self, workdir, capsys):
        self.train_featurized(workdir, fix_first=False)
        examples = [
            Example(context=Context(past=np.zeros((2, 2)), features=np.ones(2)), future=np.zeros((3, 2)), id=0)
        ]
        write_dataset(workdir / "f2.jsonl", Dataset(examples=tuple(examples)))
        assert run([
            "sample", "--model", workdir / "m.json", "--dataset", workdir / "f2.jsonl",
            "--out", workdir / "s.jsonl",
        ]) == 1
        assert "featurization block has 54 entries, 2 features need 36" in capsys.readouterr().err

    def test_larger_omega_selects_no_fewer_items(self, workdir):
        _train_model(workdir)
        sizes = {}
        for omega in (1.0, 10.0):
            run([
                "sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl",
                "--out", workdir / f"s{omega}.jsonl", "--dpp-map", "--omega", omega,
            ])
            sizes[omega] = [len(r["dpp_map"]) for r in read_samples(workdir / f"s{omega}.jsonl")]
        assert all(b >= a for a, b in zip(sizes[1.0], sizes[10.0]))
        assert sum(sizes[10.0]) > sum(sizes[1.0])  # strictly more somewhere


    @pytest.mark.parametrize(
        "name", ["crossroad dsf", "linear dlow", "linear dlow ctx_proj", "featurized dlow", "featurized dlow k0"]
    )
    def test_dpp_map_equals_per_example_kernels(self, tmp_path, name):
        # the per-example loop the batched sampler replaced: each example's
        # own latents, decode with its context, build_kernel, greedy_map
        rng = np.random.default_rng(40)
        k, n_z, n_f = (10, 2, 0) if name == "crossroad dsf" else (7, 3, 2)
        examples = tuple(
            Example(context=Context(past=rng.normal(size=(2, 2)), features=rng.normal(size=n_f)),
                    future=rng.normal(size=(3, 2)), id=int(i))
            for i in rng.permutation(90)[:60]
        )
        write_dataset(tmp_path / "d.jsonl", Dataset(examples=examples))
        train_config = {"kernel": {"sim_scale": 2.0, "rho": 0.9}, "fix_first_identity": name.endswith("k0")}
        if name == "crossroad dsf":
            decoder = DSF_TRAIN_CONFIG["decoder"]
            params = {"codes": rng.normal(size=(k, n_z)).tolist()}
        else:
            decoder = {"kind": "linear", "W": rng.normal(size=(6, n_z)).tolist(),
                       "c0": rng.normal(size=6).tolist(), "t_steps": 3, "state_dim": 2}
            if name == "linear dlow ctx_proj":
                decoder["ctx_proj"] = rng.normal(size=(6, n_f)).tolist()
            a = np.eye(n_z) + rng.normal(scale=0.3, size=(k, n_z, n_z))
            params = {"A": a.tolist(), "b": rng.normal(size=(k, n_z)).tolist()}
            if name.startswith("featurized"):
                k_t = k - int(train_config["fix_first_identity"])
                params["featurization"] = rng.normal(scale=0.2, size=k_t * (n_z * n_z + n_z) * n_f).tolist()
        model = {"mode": "dsf" if "dsf" in name else "dlow", "n_z": n_z, "K": k, "params": params,
                 "decoder": decoder, "train_config": train_config, "seed": 9}
        write_model(tmp_path / "m.json", model)
        assert run([
            "sample", "--model", tmp_path / "m.json", "--dataset", tmp_path / "d.jsonl",
            "--out", tmp_path / "s.jsonl", "--dpp-map", "--omega", "3.0",
        ]) == 0
        dec = decoder_from_config(decoder)
        kcfg = KernelConfig(sim_scale=2.0, base_quality=3.0, rho=0.9)
        sizes = set()
        for ex, rec in zip(examples, read_samples(tmp_path / "s.jsonl")):
            if model["mode"] == "dsf":
                latents = np.asarray(params["codes"])
            else:
                a, b = np.array(params["A"]), np.array(params["b"])
                if "featurization" in params:
                    k0 = int(train_config["fix_first_identity"])
                    (a,), (b,) = _fold_features(a, b, params["featurization"], ex.context.features, k0)
                eps = np.random.default_rng([9, ex.id]).standard_normal(n_z)
                latents = apply_flows(AffineFlowSet(A=a, b=b), eps)
            samples = dec.decode_batch(latents, ex.context)
            kernel = build_kernel(GroundSet(items=samples.reshape(k, -1), latents=latents), kcfg)
            assert rec["id"] == ex.id and np.array_equal(rec["samples"], samples)
            assert rec["dpp_map"] == greedy_map(kernel)
            sizes.add(len(rec["dpp_map"]))
        assert len(sizes) > 1 or model["mode"] == "dsf"  # DLow sets stop at different lengths

    def test_featurized_flow_singular_for_one_example_rejected(self, tmp_path, capsys):
        # A_k + Ma_k f = I - I = 0 for the example with feature 1.0 only
        examples = tuple(
            Example(context=Context(past=np.zeros((2, 2)), features=[f]), future=np.zeros((3, 2)), id=i)
            for i, f in enumerate((2.0, 1.0, 3.0))
        )
        write_dataset(tmp_path / "d.jsonl", Dataset(examples=examples))
        block = np.concatenate([np.tile(-np.eye(2)[..., None], (2, 1, 1, 1)).ravel(), np.zeros(4)])
        model = {
            "mode": "dlow", "n_z": 2, "K": 2, "seed": 0, "train_config": {},
            "params": {"A": np.tile(np.eye(2), (2, 1, 1)).tolist(), "b": np.zeros((2, 2)).tolist(),
                       "featurization": block.tolist()},
            "decoder": {"kind": "linear", "W": np.ones((6, 2)).tolist(), "c0": [0.0] * 6,
                        "t_steps": 3, "state_dim": 2},
        }
        write_model(tmp_path / "m.json", model)
        assert run([
            "sample", "--model", tmp_path / "m.json", "--dataset", tmp_path / "d.jsonl",
            "--out", tmp_path / "s.jsonl",
        ]) == 1
        assert "flow not invertible" in capsys.readouterr().err

    def test_empty_dataset_writes_header_only(self, workdir, capsys):
        _train_model(workdir)
        write_dataset(workdir / "empty.jsonl", Dataset(examples=()))
        for extra in ([], ["--dpp-map"]):
            assert run([
                "sample", "--model", workdir / "m.json", "--dataset", workdir / "empty.jsonl",
                "--out", workdir / "s.jsonl", *extra,
            ]) == 0
            assert len((workdir / "s.jsonl").read_text().splitlines()) == 1
            assert read_samples(workdir / "s.jsonl") == []
        assert "wrote 0 sample sets" in capsys.readouterr().out


class TestEval:
    def test_repeated_gt_scores_zero(self, workdir):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        ds = read_dataset(workdir / "d.jsonl")
        from divtraj.fileio import write_samples

        records = [
            {"id": ex.id, "samples": np.stack([ex.future] * 4)} for ex in ds.examples
        ]
        write_samples(workdir / "s.jsonl", records)
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
            "--eps", "0.5", "--out", workdir / "report",
        ]) == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["means"]["ade"] == 0.0
        assert payload["means"]["fde"] == 0.0
        assert payload["means"]["apd"] == 0.0
        csv_lines = (workdir / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "id,apd,asd,fsd,ade,fde,mmade,mmfde"
        assert len(csv_lines) == 25

    def test_eps_zero_mmade_equals_ade(self, workdir):
        _train_model(workdir)
        run([
            "sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl",
            "--out", workdir / "s.jsonl",
        ])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
            "--eps", "0", "--out", workdir / "report",
        ]) == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["means"]["mmade"] == pytest.approx(payload["means"]["ade"], rel=1e-12)
        assert payload["means"]["mmfde"] == pytest.approx(payload["means"]["fde"], rel=1e-12)

    def test_empty_dataset_rejected(self, workdir, capsys):
        _train_model(workdir)
        write_dataset(workdir / "empty.jsonl", Dataset(examples=()))
        assert run([
            "sample", "--model", workdir / "m.json", "--dataset", workdir / "empty.jsonl",
            "--out", workdir / "s.jsonl",
        ]) == 0
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "empty.jsonl",
            "--eps", "1.0", "--out", workdir / "report",
        ]) == 1
        assert "error: dataset has no examples" in capsys.readouterr().err

    def test_baseline_equals_per_example_decodes(self, workdir):
        _train_model(workdir)
        run(["sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl", "--out", workdir / "s.jsonl"])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl", "--eps", "1.0",
            "--out", workdir / "report", "--model", workdir / "m.json", "--seed", "77",
        ]) == 0
        ds, model = read_dataset(workdir / "d.jsonl"), read_model(workdir / "m.json")
        dec = decoder_from_config(model["decoder"])
        sets = {
            ex.id: SampleSet(samples=dec.decode_batch(
                np.random.default_rng([77, ex.id]).standard_normal((6, 2)), ex.context))
            for ex in ds.examples
        }
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["baseline_means"] == evaluate_sample_sets(ds, sets, 1.0).means

    def test_baseline_decoder_shape_mismatch_rejected(self, workdir, capsys):
        # the baseline's (K, 5, 2) sets failed later, as "shape mismatch"
        _write_long_decoder_model(workdir)
        run(["sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl", "--out", workdir / "s.jsonl"])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl", "--eps", "1.0",
            "--out", workdir / "report", "--model", workdir / "long.json", "--seed", "77",
        ]) == 1
        assert "error: decoder output shape (5, 2) does not match data (3, 2)" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_trained_beats_iid_baseline_on_imbalanced_data(self, workdir):
        # needs the tuned full config: K=10, 300 iters
        cfg = dict(DSF_TRAIN_CONFIG, k=10, iters=300, lr=0.01, seed=0)
        (workdir / "train10.json").write_text(json.dumps(cfg))
        gen = {"mode_probs": [0.8, 0.1, 0.1], "n_examples": 40, "seed": 17}
        (workdir / "gen40.json").write_text(json.dumps(gen))
        run(["gen-data", "--config", workdir / "gen40.json", "--out", workdir / "d40.jsonl"])
        run([
            "train", "--config", workdir / "train10.json", "--dataset", workdir / "d40.jsonl",
            "--model-out", workdir / "m10.json", "--report-out", workdir / "r10.json",
        ])
        run([
            "sample", "--model", workdir / "m10.json", "--dataset", workdir / "d40.jsonl",
            "--out", workdir / "s10.jsonl",
        ])
        assert run([
            "eval", "--samples", workdir / "s10.jsonl", "--dataset", workdir / "d40.jsonl",
            "--eps", "1.0", "--out", workdir / "cmp", "--model", workdir / "m10.json",
            "--seed", "123",
        ]) == 0
        payload = json.loads((workdir / "cmp.json").read_text())
        assert payload["means"]["apd"] > payload["baseline_means"]["apd"]
        assert payload["means"]["mmade"] < payload["baseline_means"]["mmade"]

    def test_tabulated_decoder_model_plugs_into_sampling(self, workdir):
        # external models ship as a latent grid; sampling/eval must accept them
        from divtraj import CrossroadDecoder, TabulatedDecoder

        source = CrossroadDecoder(mode_probs=(0.8, 0.1, 0.1))
        ax = np.linspace(-3.0, 3.0, 25)
        grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
        table = source.decode_batch(grid).reshape(25, 25, 3, 2)
        tab = TabulatedDecoder(z_grid=(ax, ax), table=table, t_steps=3, state_dim=2)
        model = {
            "format_version": 1,
            "mode": "dsf",
            "n_z": 2,
            "K": 3,
            "params": {"codes": [[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]},
            "decoder": tab.to_config(),
            "train_config": {},
            "seed": 0,
        }
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        (workdir / "tab_model.json").write_text(json.dumps(model))
        assert run([
            "sample", "--model", workdir / "tab_model.json", "--dataset", workdir / "d.jsonl",
            "--out", workdir / "tab_s.jsonl",
        ]) == 0
        records = read_samples(workdir / "tab_s.jsonl")
        assert records[0]["samples"].shape == (3, 3, 2)

    def test_nan_eps_rejected(self, workdir, capsys):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        from divtraj.fileio import write_samples

        ds = read_dataset(workdir / "d.jsonl")
        write_samples(workdir / "s.jsonl", [{"id": ex.id, "samples": np.stack([ex.future] * 2)} for ex in ds.examples])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
            "--eps", "nan", "--out", workdir / "report",
        ]) == 1
        assert "eps must be >= 0, got nan" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_infinite_eps_rejected_before_any_write(self, workdir, capsys):
        # eval scored every example in one group, wrote report.csv and then
        # failed to write inf into report.json
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        from divtraj.fileio import write_samples

        ds = read_dataset(workdir / "d.jsonl")
        write_samples(workdir / "s.jsonl", [{"id": ex.id, "samples": np.stack([ex.future] * 2)} for ex in ds.examples])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
            "--eps", "inf", "--out", workdir / "report",
        ]) == 1
        assert "error: eps must be finite, got inf" in capsys.readouterr().err
        assert not (workdir / "report.json").exists() and not (workdir / "report.csv").exists()

    def test_group_sizes_printed_not_written(self, workdir, capsys):
        from divtraj import SampleSet, evaluate_sample_sets
        from divtraj.fileio import metrics_to_csv, write_report, write_samples

        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        ds = read_dataset(workdir / "d.jsonl")
        rng = np.random.default_rng(2)
        records = [{"id": ex.id, "samples": ex.future + rng.normal(size=(3, 3, 2))} for ex in ds.examples]
        write_samples(workdir / "s.jsonl", records)
        capsys.readouterr()
        for eps, line in (("1.0", "groups: min=24 mean=24.0 max=24"), ("0", "groups: min=1 mean=1.0 max=1")):
            assert run([
                "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
                "--eps", eps, "--out", workdir / "report",
            ]) == 0
            assert line in capsys.readouterr().out.splitlines()
        # the files hold only the metric table: their bytes do not depend on group_sizes
        report = evaluate_sample_sets(
            ds, {rec["id"]: SampleSet(samples=rec["samples"]) for rec in read_samples(workdir / "s.jsonl")}, 0.0
        )
        write_report(workdir / "expected.json", {
            "conventions": report.conventions, "eps": 0.0, "means": report.means,
            "per_example": list(report.per_example),
        })
        assert (workdir / "report.json").read_bytes() == (workdir / "expected.json").read_bytes()
        assert (workdir / "report.csv").read_text() == metrics_to_csv(report)

    def test_seed_without_model_rejected(self, workdir, capsys):
        _train_model(workdir)
        run(["sample", "--model", workdir / "m.json", "--dataset", workdir / "d.jsonl", "--out", workdir / "s.jsonl"])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl", "--eps", "1.0",
            "--out", workdir / "report", "--seed", "77",
        ]) == 1
        assert "baseline comparison needs --model alongside --seed" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_feature_length_mismatch_rejected(self, workdir, capsys):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        from divtraj.fileio import write_samples

        ds = read_dataset(workdir / "d.jsonl")
        write_samples(workdir / "s.jsonl", [{"id": ex.id, "samples": np.stack([ex.future] * 2)} for ex in ds.examples])
        lines = (workdir / "d.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        last["features"] = last["features"] + [0.0]
        (workdir / "d.jsonl").write_text("\n".join([*lines[:-1], json.dumps(last)]) + "\n")
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
            "--eps", "1.0", "--out", workdir / "report",
        ]) == 1
        assert "dataset examples are not shape-homogeneous" in capsys.readouterr().err

    def test_misaligned_ids_listed(self, workdir, capsys):
        run(["gen-data", "--config", workdir / "gen.json", "--out", workdir / "d.jsonl"])
        from divtraj.fileio import write_samples

        write_samples(workdir / "s.jsonl", [{"id": 999, "samples": np.zeros((2, 3, 2))}])
        assert run([
            "eval", "--samples", workdir / "s.jsonl", "--dataset", workdir / "d.jsonl",
            "--eps", "0.5", "--out", workdir / "report",
        ]) != 0
        err = capsys.readouterr().err
        assert "misaligned" in err and "999" in err


class TestPipelineDeterminism:
    def test_full_pipeline_hashes_stable(self, workdir):
        hashes = []
        for tag in ("one", "two"):
            d = workdir / tag
            d.mkdir()
            run(["gen-data", "--config", workdir / "gen.json", "--out", d / "d.jsonl"])
            run([
                "train", "--config", workdir / "train.json", "--dataset", d / "d.jsonl",
                "--model-out", d / "m.json", "--report-out", d / "r.json",
            ])
            run([
                "sample", "--model", d / "m.json", "--dataset", d / "d.jsonl",
                "--out", d / "s.jsonl", "--dpp-map",
            ])
            run([
                "eval", "--samples", d / "s.jsonl", "--dataset", d / "d.jsonl",
                "--eps", "0.5", "--out", d / "report", "--model", d / "m.json", "--seed", "7",
            ])
            hashes.append(
                tuple(
                    sha(d / name)
                    for name in ("d.jsonl", "m.json", "r.json", "s.jsonl", "report.json", "report.csv")
                )
            )
        assert hashes[0] == hashes[1]
