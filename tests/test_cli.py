import json
import re
import struct
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdcn import cli, graph
from kdcn.cli import CONFIG_KEYS, SECTIONS, _section_keys, load_config, main
from kdcn.errors import KdcnError, ParseError
from kdcn.model import MODEL_MAGIC, MODEL_VERSION, load_model_values
from kdcn.numeric import write_slots
from kdcn.pretrain import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, PretrainCheckpoint, load_checkpoint

TINY_CONFIG = """
# tiny world so the whole pipeline runs in seconds
n_users = 12
n_items = 20
n_categories = 3
n_sellers = 4
n_tags = 4
n_keywords = 18
n_sessions = 16
n_samples = 300
alpha = 1.0
noise_std = 1.5

dim = 8
layers = 1
pretrain_epochs = 2
pretrain_lr = 0.01

epochs = 2
lr = 0.003
batch_size = 64
cat_dim = 4
deep_width = 8
conv_filters = 2
attention_heads = 2
max_query_keywords = 3
max_title_keywords = 3
"""


def tiny_config_with(lines: list[str]) -> str:
    """TINY_CONFIG with lines added, each in place of the line that sets its key."""
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [line for line in TINY_CONFIG.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + lines) + "\n"


# a samples.jsonl record that train reads without error
GOOD_SAMPLE = {
    "user_id": "user0", "behaviors": [[], [], [], []], "query": "kw0",
    "candidate_item": "item0", "categories": ["cat0"], "dense": [1.0], "label": 1,
}
# JSON number literals that json reads as non-finite floats; json.dumps
# writes no 1e400, so the tests put them into the line as text
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(TINY_CONFIG)
    return tmp_path, cfg


def run_pipeline(out: Path, cfg: Path, seed: int = 0) -> None:
    base = ["--seed", str(seed), "--config", str(cfg), "--out", str(out)]
    for cmd in ("gen-data", "build-kg", "pretrain", "train"):
        assert main([cmd] + base) == 0, cmd
    assert main(["eval"] + base + ["--configs", "kdcn,dcn"]) == 0


class TestConfigFile:
    def test_parses_keys_and_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a = 1\n# comment\nb=two # trailing\n\n")
        assert load_config(path) == {"a": "1", "b": "two"}

    def test_bad_line_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        for text, error in (("not a pair\n", "1: expected key=value"), ("a = 1\n = 5\n", "2: empty config key")):
            path.write_text(text)
            assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: {path}:{error}\n"

    def test_unknown_keys_are_named_and_cut(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("bogus_b = 1\nbogus_a = 2\n")
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown config key(s) bogus_a, bogus_b\n"
        path.write_text("".join(f"bogus{i} = 0\n" for i in range(100000)))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unknown config key(s) bogus0, bogus1, ")
        assert len(err) < len(str(path)) + 250, len(err)

    @pytest.mark.parametrize(
        "command, key",
        [("pretrain", "self_loops"), ("pretrain", "negatives_per_positive"), ("build-kg", "prune_min_count")],
    )
    def test_removed_pretraining_key_is_unknown(self, tmp_path, capsys, command, key):
        path = tmp_path / "c.txt"
        path.write_text(f"{key} = 1\n")
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown config key(s) {key}\n"

    def test_repeated_key_is_data_error_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text(TINY_CONFIG + "epochs = 1\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:28: repeated config key 'epochs'") + "$"):
            load_config(path)
        assert main(["train", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:28: repeated config key 'epochs'\n"
        # the value does not matter, and the key is matched after stripping
        path.write_text("a = 1\n# a = 3\n\n a=1 # again\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:4: repeated config key 'a'") + "$"):
            load_config(path)


class TestConfigKeys:
    def test_cast_is_the_field_type(self):
        # the cast is type(default), so a float field needs a float literal default
        for section, (cls, _) in SECTIONS.items():
            types = {f.name: f.type for f in fields(cls)}
            for key, name, cast in _section_keys(section):
                assert cast.__name__ == getattr(types[name], "__name__", types[name]), key

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"`(\w+)`", section)) - {"full", "sampled", "sym", "mean"}
        assert documented == CONFIG_KEYS


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_eval_config_is_usage_error(self, workdir):
        out, cfg = workdir
        assert main(["eval", "--out", str(out), "--configs", "bogus"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--configs", ""],
            ["eval", "--configs", "kdcn,"],
            ["rank", "--user", "user0", "--query", "kw0", "--candidates", ""],
            ["rank", "--user", "user0", "--query", "kw0", "--candidates", "item0,,item1"],
        ],
    )
    def test_empty_name_is_usage_error(self, tmp_path, capsys, argv):
        # checked before any input is read: tmp_path holds no artifact
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: {argv[-2]}"), err

    @pytest.mark.parametrize("configs, named", [("dcn,dcn", "dcn"), ("kdcn,dcn,kdcn,lr_like,dcn", "dcn, kdcn")])
    def test_repeated_eval_config_is_usage_error(self, tmp_path, capsys, configs, named):
        # checked before any input is read: tmp_path holds no artifact
        assert main(["eval", "--configs", configs, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"usage error: --configs names {named} more than once"], err
        assert not (tmp_path / "report.csv").exists()

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["pretrain", "--out", str(tmp_path)]) == 2

    def test_malformed_events_is_data_error(self, tmp_path):
        (tmp_path / "events.jsonl").write_text("{not json}\n")
        assert main(["build-kg", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, lines, named",
        [
            ("pretrain", ["mode = dense"], "mode"),
            ("pretrain", ["fanout = 0"], "fanout"),
            ("train", ["use_cross = false", "use_deep = false"], "use_cross"),
            ("train", ["epochs = abc"], "'epochs': 'abc'"),
            ("train", ["lr = x"], "'lr': 'x'"),
            ("gen-data", ["n_users = 1.5"], "'n_users': '1.5'"),
            ("train", ["epoch = 3"], "epoch"),
            ("train", ["batch_size = 0"], "TrainConfig.batch_size"),
            ("pretrain", ["pretrain_batch_size = 0"], "PretrainConfig.batch_size"),
            ("train", ["attention_heads = 0"], "attention_heads"),
            ("train", ["deep_width = 0"], "deep_width"),
            ("train", ["conv_filters = 0"], "conv_filters"),
            ("train", ["cat_dim = 0"], "cat_dim"),
            ("train", ["candidate_cap = 0"], "candidate_cap"),
            ("gen-data", ["n_users = 0"], "n_users"),
            ("train", ["use_dialogue = ture"], "'use_dialogue': 'ture'"),
            ("pretrain", ["margin = nan"], "PretrainConfig.margin"),
            ("pretrain", ["margin = inf"], "PretrainConfig.margin"),
            ("pretrain", ["pretrain_lr = -1"], "PretrainConfig.lr"),
            ("train", ["lr = nan"], "TrainConfig.lr"),
            ("train", ["lr = 0"], "TrainConfig.lr"),
            ("gen-data", ["n_samples = -5"], "n_samples must be >= 0, got -5"),
            ("train", ["n_cat_slots = -1"], "TrainConfig.n_cat_slots must be >= 0, got -1"),
            ("train", ["max_query_keywords = -1"], "TrainConfig.max_query_keywords"),
            ("train", ["max_title_keywords = -3"], "TrainConfig.max_title_keywords"),
            ("train", ["n_cross = -1"], "TrainConfig.n_cross"),
            ("train", ["epochs = -1"], "TrainConfig.epochs must be >= 0, got -1"),
            ("pretrain", ["pretrain_epochs = -1"], "PretrainConfig.epochs must be >= 0, got -1"),
            ("gen-data", ["alpha = nan"], "WorldConfig.affinity_strength must be finite, got nan"),
            ("gen-data", ["alpha = -inf"], "WorldConfig.affinity_strength must be finite"),
            ("gen-data", ["noise_std = nan"], "WorldConfig.noise_std must be finite, got nan"),
            ("gen-data", ["noise_std = inf"], "WorldConfig.noise_std must be finite"),
            ("gen-data", ["noise_std = -0.5"], "WorldConfig.noise_std must be >= 0, got -0.5"),
            ("gen-data", ["w_tag_match = nan"], "ClickModel.w_tag_match must be finite"),
            ("gen-data", ["w_overlap = inf"], "ClickModel.w_overlap must be finite, got inf"),
            ("gen-data", ["w_cluster = -inf"], "ClickModel.w_cluster must be finite"),
            ("eval", ["loss_threshold = nan"], "loss_threshold must be finite, got nan"),
            ("eval", ["loss_threshold = inf"], "loss_threshold must be finite, got inf"),
        ],
    )
    def test_bad_config_value_is_data_error(self, workdir, capsys, command, lines, named):
        out, cfg = workdir
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        bad = out / "bad.txt"
        bad.write_text(tiny_config_with(lines))
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dense", "x"), ("dense", 5), ("label", "a"), ("label", 1.7),
            ("behaviors", 5), ("categories", "cat0"),
            ("query", 5), ("behaviors", [["x"], 3, [], []]), ("dense", ["1.5"]), ("dense", [True]),
            ("user_id", None), ("candidate_item", ["item0"]), ("categories", [0]),
            ("behaviors", [[1], [], [], []]), ("label", True),
        ],
    )
    def test_malformed_sample_value_is_data_error(self, tmp_path, capsys, field, value):
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps(GOOD_SAMPLE) + "\n" + json.dumps({**GOOD_SAMPLE, field: value}) + "\n")
        assert main(["train", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"{path}:2:" in err[0], err

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_non_finite_sample_dense_is_data_error(self, tmp_path, capsys, literal):
        path = tmp_path / "samples.jsonl"
        bad = json.dumps(GOOD_SAMPLE).replace('"dense": [1.0]', f'"dense": [1.0, {literal}]')
        path.write_text(json.dumps(GOOD_SAMPLE) + "\n" + bad + "\n")
        assert main(["train", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}:2: bad sample record (dense must be"), err

    def test_rejected_sample_value_is_shown_cut(self, tmp_path, capsys):
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps({**GOOD_SAMPLE, "behaviors": [[f"item{i}" for i in range(100000)], 5]}) + "\n")
        assert main(["train", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{path}:1: bad sample record (behaviors must be" in err[0], err
        assert len(err[0]) < len(str(path)) + 250, len(err[0])


class TestPipeline:
    def test_full_pipeline_writes_artifacts(self, workdir):
        out, cfg = workdir
        run_pipeline(out, cfg)
        for name in (
            "events.jsonl",
            "triples.tsv",
            "samples.jsonl",
            "vocab.tsv",
            "ckge.bin",
            "ckge.vocab.tsv",
            "pretrain_loss.csv",
            "kdcn.bin",
            "kdcn.meta.json",
            "history.csv",
            "report.csv",
        ):
            assert (out / name).exists(), name

    def test_report_has_sorted_configs_and_auc(self, workdir):
        out, cfg = workdir
        run_pipeline(out, cfg)
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "config,test_auc,final_train_loss,epochs_to_threshold,wall_time_s"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names) and len(names) >= 2
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[1]) <= 1.0

    def test_eval_releases_each_fit_before_the_next(self, trained_dir, tmp_path, monkeypatch):
        # an ablation's model, gradients and Adam moments are freed before the next fit allocates its own
        fitted = []

        def fit(*args):
            assert all(ref() is None for ref in fitted), "an earlier fit is still referenced"
            result = real_fit(*args)
            fitted.append(weakref.ref(result))
            return result

        real_fit = cli.model_mod.fit
        monkeypatch.setattr(cli.model_mod, "fit", fit)
        inputs = [f"--{name}={trained_dir / file}" for name, file in (
            ("samples", "samples.jsonl"), ("events", "events.jsonl"), ("checkpoint", "ckge.bin"),
            ("vocab", "ckge.vocab.tsv"), ("config", "config.txt"),
        )]
        assert main(["eval", "--out", str(tmp_path), "--configs", "kdcn,dcn,lr_like", *inputs]) == 0
        assert len(fitted) == 3

    def test_rank_prints_single_row(self, workdir, capsys):
        out, cfg = workdir
        run_pipeline(out, cfg)
        samples = (out / "samples.jsonl").read_text().splitlines()
        user = json.loads(samples[0])["user_id"]
        capsys.readouterr()  # drain pipeline status lines
        code = main(
            [
                "rank",
                "--out",
                str(out),
                "--config",
                str(cfg),
                "--user",
                user,
                "--query",
                "kw0 kw1",
                "--candidates",
                "item0",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and "item0" in printed[1]

    def test_rank_defaults_to_capped_item_list(self, workdir, capsys):
        out, cfg = workdir
        run_pipeline(out, cfg)
        capsys.readouterr()
        code = main(
            ["rank", "--out", str(out), "--config", str(cfg), "--user", "user0",
             "--query", "kw0 kw1"]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + 20  # header + all items (world has 20, under the cap)

    def test_rank_unknown_candidate_is_data_error(self, workdir, capsys):
        out, cfg = workdir
        run_pipeline(out, cfg)
        capsys.readouterr()
        code = main(
            ["rank", "--out", str(out), "--user", "user0", "--query", "kw0",
             "--candidates", "missing-item"]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: no metadata for item 'missing-item'"]


class TestRankInputErrors:
    @pytest.fixture()
    def trained(self, workdir, capsys):
        out, cfg = workdir
        base = ["--seed", "0", "--config", str(cfg), "--out", str(out)]
        for cmd in ("gen-data", "build-kg", "pretrain", "train"):
            assert main([cmd] + base) == 0, cmd
        capsys.readouterr()
        return out

    def errors(self, capsys, *argv) -> list[str]:
        code = main(list(argv))
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error:"), (code, err)
        return err

    def rank_errors(self, out, capsys, *extra) -> list[str]:
        return self.errors(capsys, "rank", "--out", str(out), "--user", "user0", "--query", "kw0", *extra)

    def test_duplicate_candidates(self, trained, capsys):
        err = self.rank_errors(trained, capsys, "--candidates", "item1,item0,item1")
        assert "item1" in err[0] and "item0" not in err[0]

    def test_default_candidates_are_entities_in_id_order(self, trained, capsys):
        # an events file newer than the graph lists an item that ckge.vocab.tsv does not hold
        lines = (trained / "events.jsonl").read_text().splitlines()
        listing = next(json.loads(line) for line in lines if json.loads(line)["type"] == "item_listing")
        newer = trained / "newer.jsonl"
        newer.write_text("\n".join([*lines, json.dumps({**listing, "item": "ghost-item"})]) + "\n")
        meta_path = trained / "kdcn.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["candidate_cap"] = 5
        meta_path.write_text(json.dumps(meta))
        argv = ["rank", "--out", str(trained), "--user", "user0", "--query", "kw0", "--events", str(newer)]
        assert main(argv) == 0
        printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        items = [e.name for e in graph.load_vocab(trained / "ckge.vocab.tsv") if e.kind == "item"]
        assert len(items) > 5 and sorted(printed) == sorted(items[:5]), printed

    @pytest.mark.parametrize("after", [True, False])
    def test_samples_are_read_up_to_the_users_first(self, trained, capsys, after):
        path = trained / "samples.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if json.loads(line)["user_id"] == "user0")
        at = first + 1 if after else first
        path.write_text("".join(lines[:at] + ["{not json\n"] + lines[at:]))
        argv = ["rank", "--out", str(trained), "--user", "user0", "--query", "kw0", "--candidates", "item0"]
        if after:
            assert main(argv) == 0
        else:
            err = self.errors(capsys, *argv)
            assert err[0].startswith(f"error: {path}:{at + 1}: bad sample record"), err

    def test_unknown_user(self, trained, capsys):
        err = self.rank_errors(trained, capsys, "--user", "nobody")  # the last --user wins
        assert "'nobody'" in err[0]

    def test_truncated_model_file(self, trained, capsys):
        model = trained / "kdcn.bin"
        model.write_bytes(model.read_bytes()[:30])
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.bin" in err[0] and "truncated" in err[0]

    @pytest.mark.parametrize("command", ["rank", "train"])
    @pytest.mark.parametrize("damage", ["truncated", "swapped", "repeated"])
    def test_vocab_disagrees_with_checkpoint(self, trained, capsys, command, damage):
        vocab = trained / "ckge.vocab.tsv"
        lines = vocab.read_text().splitlines(keepends=True)
        if damage == "truncated":
            lines = lines[: len(lines) // 2]
        elif damage == "swapped":
            lines = [lines[1], lines[0], *lines[2:]]
        else:  # entity 1 takes entity 0's kind and name
            lines[1] = "1\t" + lines[0].split("\t", 1)[1]
        vocab.write_text("".join(lines))
        if command == "rank":
            err = self.rank_errors(trained, capsys, "--candidates", "item0")
        else:
            err = self.errors(capsys, "train", "--out", str(trained))
        assert "ckge.vocab.tsv" in err[0], err

    def checkpoint_errors(self, out, capsys, ckpt) -> list[list[str]]:
        """The one error line of train and of rank on the given ckge.bin."""
        return [
            self.errors(capsys, "train", "--out", str(out), "--checkpoint", str(ckpt)),
            self.rank_errors(out, capsys, "--candidates", "item0", "--checkpoint", str(ckpt)),
        ]

    def test_zero_width_checkpoint(self, trained, capsys):
        ckpt = trained / "zero.bin"
        tables = {"entity_table": np.zeros((5, 0)), "relation_table": np.zeros((9, 0))}
        write_slots(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, tables)
        for err in self.checkpoint_errors(trained, capsys, ckpt):
            assert str(ckpt) in err[0] and "dim" in err[0], err

    def test_checkpoint_needs_its_two_tables_of_one_width(self, trained, capsys):
        ckpt = trained / "slots.bin"
        entity, relation = np.zeros((5, 4)), np.zeros((9, 4))
        for tables, error in (
            ({"entity_table": entity}, "expected slots"),
            ({"entity_table": entity, "relation_table": relation, "extra": relation}, "expected slots"),
            ({"entity_table": entity, "relation_table": np.zeros((9, 3))}, "both tables need one width"),
        ):
            write_slots(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, tables)
            for err in self.checkpoint_errors(trained, capsys, ckpt):
                assert f"{ckpt}: {error}" in err[0], err

    def test_version_1_checkpoint_says_to_rerun_pretrain(self, trained, capsys):
        ckpt = trained / "v1.bin"
        ckpt.write_bytes(struct.pack("<4sIQQI", b"CKGE", 1, 5, 9, 4) + bytes(4 * 4 * (5 + 9)))
        for err in self.checkpoint_errors(trained, capsys, ckpt):
            assert str(ckpt) in err[0] and "re-run `kdcn pretrain`" in err[0], err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("config.seed", 0),  # written before TrainConfig lost its seed field
            ("config.bogus", 1),
            ("config.candidate_cap", 0),
            ("n_dense", None),
            ("n_behavior_kinds", None),
            ("dense_mean", None),
            ("dense_std", None),
            ("dense_mean", [0.0]),
            ("dense_std", [1.0] * 9),
            # a callable value maps the stored list to the damaged one
            pytest.param("dense_std", lambda old: [0.0] * len(old), id="dense_std-zero"),
            pytest.param("dense_std", lambda old: [float("inf")] * len(old), id="dense_std-inf"),
            pytest.param("dense_mean", lambda old: ["x"] * len(old), id="dense_mean-str"),
            pytest.param("dense_mean", lambda old: [None] * len(old), id="dense_mean-null"),
            pytest.param("dense_mean", lambda old: [float("nan")] * len(old), id="dense_mean-nan"),
            pytest.param("dense_mean", lambda old: [-(10**400)] * len(old), id="dense_mean-huge"),
            ("n_behavior_kinds", "x"),
            ("n_behavior_kinds", 0),
            ("n_behavior_kinds", True),
            # a stored setting must have its field's JSON type: at the parent the
            # first five crashed with a TypeError and "no" was read as true
            ("config.n_cross", 2.5),
            ("config.deep_width", 8.0),
            ("config.conv_widths", [2.5]),
            ("config.conv_widths", ["a"]),
            ("config.n_cat_slots", True),
            ("config.use_cross", "no"),
            ("config.conv_widths", []),
            ("config.conv_widths", [2, 2]),
        ],
    )
    def test_bad_meta_file(self, trained, capsys, key, value):
        path = trained / "kdcn.meta.json"
        meta = json.loads(path.read_text())
        name = key.removeprefix("config.")
        target = meta["config"] if key.startswith("config.") else meta
        if value is None:
            del target[name]
        else:
            target[name] = value(target[name]) if callable(value) else value
        path.write_text(json.dumps(meta))
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.meta.json" in err[0] and name in err[0], err

    def test_stale_meta_names_the_key(self, trained, capsys):
        # the message README quotes for a meta file that still holds seed
        path = trained / "kdcn.meta.json"
        meta = json.loads(path.read_text())
        meta["config"]["seed"] = 0
        path.write_text(json.dumps(meta))
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert err == [f"error: {path}: unknown config key(s) seed"], err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("config.conv_widths", [0.5] * 100000),
            ("config.use_cross", "x" * 100000),
            ("n_behavior_kinds", [[1] * 1000] * 1000),
            ("n_dense", 10**4000),
            ("config", {f"bogus{i}": 0 for i in range(100000)}),
        ],
        ids=["conv_widths", "use_cross", "n_behavior_kinds", "n_dense", "unknown-keys"],
    )
    def test_rejected_meta_value_is_shown_cut(self, trained, capsys, key, value):
        path = trained / "kdcn.meta.json"
        meta = json.loads(path.read_text())
        name = key.removeprefix("config.")
        target = meta["config"] if key.startswith("config.") else meta
        target[name] = {**target[name], **value} if isinstance(value, dict) else value
        path.write_text(json.dumps(meta))
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert str(path) in err[0] and len(err[0]) < len(str(path)) + 250, (len(err[0]), err[0][:500])

    def test_config_disagrees_with_meta(self, trained, capsys):
        cfg = trained / "config.txt"
        argv = ["--config", str(cfg), "--candidates", "item0"]
        assert main(["rank", "--out", str(trained), "--user", "user0", "--query", "kw0", *argv]) == 0
        cfg.write_text(TINY_CONFIG + "candidate_cap = 3\n")
        capsys.readouterr()
        err = self.rank_errors(trained, capsys, *argv)
        assert "'candidate_cap' = 3" in err[0] and "50" in err[0] and "kdcn.meta.json" in err[0], err

    def test_meta_disagrees_with_model(self, trained, capsys):
        # a meta file that is consistent in itself, but not with kdcn.bin
        path = trained / "kdcn.meta.json"
        meta = json.loads(path.read_text())
        meta["n_dense"] -= 1
        meta["dense_mean"].pop()
        meta["dense_std"].pop()
        path.write_text(json.dumps(meta))
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.meta.json" in err[0] and "kdcn.bin" in err[0] and "'cross_w'" in err[0], err

    def test_model_file_from_flattened_block(self, trained, capsys):
        # earlier builds put every keyword slot's attention output into f,
        # so each f-wide slot was (P - 2) * dim wider: 6 slots at dim 8
        path = trained / "kdcn.bin"
        values = load_model_values(path)
        extra = (6 - 2) * 8
        for name, arr in values.items():
            if name.startswith("cross_") or name == "logits_w":
                values[name] = np.concatenate([arr, np.zeros((extra, arr.shape[1]))])
            elif name == "deep_w0":
                values[name] = np.concatenate([arr, np.zeros((arr.shape[0], extra))], axis=1)
        write_slots(path, MODEL_MAGIC, MODEL_VERSION, values)
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.bin" in err[0] and "'cross_w'" in err[0] and "retrained" in err[0], err

    def test_model_file_with_per_layer_slots(self, trained, capsys):
        # earlier builds stored one slot per cross layer, per attention
        # projection and per conv filter bank, holding the same values
        path = trained / "kdcn.bin"
        values = load_model_values(path)
        n_f = values["conv_b2"].shape[0]
        for w in (2, 4):
            taps = values.pop(f"conv_taps{w}")
            values[f"conv_w{w}"] = taps.reshape(len(taps), w, n_f).transpose(2, 0, 1).reshape(n_f, -1)
        for name, part in zip(("attn_query", "attn_key", "attn_value"), np.split(values.pop("attn_qkv"), 3)):
            values[name] = part
        for prefix in ("cross_w", "cross_b"):
            for i, column in enumerate(values.pop(prefix).T):
                values[f"{prefix}{i}"] = column[:, None]
        write_slots(path, MODEL_MAGIC, MODEL_VERSION, values)
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.meta.json" in err[0] and "kdcn.bin" in err[0] and "retrained" in err[0], err
        assert "'cross_w0'" in err[0] and "'conv_taps2'" in err[0], err

    def test_meta_conv_widths_of_equal_count_and_sum(self, trained, capsys):
        # [1, 5] has [2, 4]'s filter count and total width, so the taps
        # would fill the same columns; the per-width slot names refuse it
        path = trained / "kdcn.meta.json"
        meta = json.loads(path.read_text())
        assert meta["config"]["conv_widths"] == [2, 4]
        meta["config"]["conv_widths"] = [1, 5]
        path.write_text(json.dumps(meta))
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.meta.json" in err[0] and "kdcn.bin" in err[0] and "'conv_taps5'" in err[0], err

    def test_model_slot_name_not_utf8(self, trained, capsys):
        model = trained / "kdcn.bin"
        data = bytearray(model.read_bytes())
        data[data.index(b"cat_table")] = 0xFF  # the first name match is in the manifest
        model.write_bytes(bytes(data))
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.bin" in err[0] and "not UTF-8" in err[0], err

    def test_meta_file_not_json(self, trained, capsys):
        (trained / "kdcn.meta.json").write_text("{")
        err = self.rank_errors(trained, capsys, "--candidates", "item0")
        assert "kdcn.meta.json" in err[0], err

    def test_events_without_items_and_no_candidates(self, trained, capsys):
        # without --candidates rank scores the listed items; here there are none
        lines = (trained / "events.jsonl").read_text().splitlines()
        kept = [line for line in lines if json.loads(line)["type"] != "item_listing"]
        assert kept and len(kept) < len(lines)
        events = trained / "no_items.jsonl"
        events.write_text("\n".join(kept) + "\n")
        err = self.rank_errors(trained, capsys, "--events", str(events))
        assert "no_items.jsonl" in err[0] and "item_listing" in err[0], err


# every file each subcommand reads, by flag; a trained directory supplies the others
INPUT_FLAGS = {
    "gen-data": ["--config"],
    "build-kg": ["--config", "--events"],
    "pretrain": ["--config", "--triples"],
    "train": ["--config", "--samples", "--checkpoint", "--vocab", "--events"],
    "eval": ["--config", "--samples", "--checkpoint", "--vocab", "--events"],
    "rank": ["--config", "--samples", "--checkpoint", "--vocab", "--events", "--model", "--meta"],
}


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "config.txt"
    cfg.write_text(TINY_CONFIG)
    for cmd in ("gen-data", "build-kg", "pretrain", "train"):
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
    return out


class TestMalformedEvents:
    def errors(self, capsys, argv) -> list[str]:
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err

    def test_item_listing_without_item_names_the_line(self, trained_dir, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('\n{"type": "item_listing", "category": "c"}\n')
        inputs = [f"--{name}={trained_dir / file}" for name, file in (
            ("samples", "samples.jsonl"), ("checkpoint", "ckge.bin"), ("vocab", "ckge.vocab.tsv")
        )]
        err = self.errors(capsys, ["train", "--out", str(tmp_path), "--events", str(events), *inputs])
        assert err[0].startswith(f"error: {events}:2: missing field(s) ['item', 'seller']"), err
        assert not (tmp_path / "kdcn.bin").exists()

    def test_entity_name_with_tab_writes_no_graph(self, tmp_path, capsys):
        record = {"type": "user_profile", "user": "a\tb", "tags": ["t"]}
        (tmp_path / "events.jsonl").write_text(json.dumps(record) + "\n")
        err = self.errors(capsys, ["build-kg", "--out", str(tmp_path)])
        assert "record 1: user name 'a\\tb'" in err[0], err
        assert not (tmp_path / "triples.tsv").exists() and not (tmp_path / "vocab.tsv").exists()

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_non_finite_dense_names_the_line(self, tmp_path, capsys, literal):
        events = tmp_path / "events.jsonl"
        good = {"type": "user_profile", "user": "a", "tags": ["t"]}
        item = {"type": "item_listing", "item": "i", "category": "c", "seller": "s", "dense": ["x"]}
        bad = json.dumps(item).replace('["x"]', f"[1.5, {literal}]")
        events.write_text(json.dumps(good) + "\n" + bad + "\n")
        err = self.errors(capsys, ["build-kg", "--out", str(tmp_path)])
        assert err[0].startswith(f"error: {events}:2: field 'dense' of 'item_listing' must be"), err

    @pytest.mark.parametrize(
        "record",
        [
            {"type": list(range(100000))},
            {"type": "user_profile", "user": ["u"] * 100000, "tags": ["t"]},
            {"type": "user_profile", "user": "a\t" + "b" * 100000, "tags": ["t"]},
        ],
        ids=["type", "name-not-a-string", "name-with-tab"],
    )
    def test_rejected_event_value_is_shown_cut(self, tmp_path, capsys, record):
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(record) + "\n")
        err = self.errors(capsys, ["build-kg", "--out", str(tmp_path)])
        assert len(err[0]) < len(str(events)) + 250, (len(err[0]), err[0][:500])

    def test_repeated_sample_key_is_data_error_at_its_line(self, trained_dir, tmp_path, capsys):
        lines = (trained_dir / "samples.jsonl").read_text().splitlines()
        lines[2] = lines[2][:-1] + ', "label": 0}'
        samples = tmp_path / "samples.jsonl"
        samples.write_text("\n".join(lines) + "\n")
        inputs = [f"--{name}={trained_dir / file}" for name, file in (
            ("events", "events.jsonl"), ("checkpoint", "ckge.bin"), ("vocab", "ckge.vocab.tsv")
        )]
        err = self.errors(capsys, ["train", "--out", str(tmp_path), "--samples", str(samples), *inputs])
        assert err == [f"error: {samples}:3: repeated JSON key 'label'"], err
        assert not (tmp_path / "kdcn.bin").exists()

    def test_rank_refuses_a_non_finite_item_dense(self, trained_dir, tmp_path, capsys):
        # an item's NaN dense value would make every probability of the request NaN
        lines = (trained_dir / "events.jsonl").read_text().splitlines()
        number = next(i for i, line in enumerate(lines, 1) if '"item_listing"' in line)
        record = json.loads(lines[number - 1])
        record["dense"][0] = float("nan")
        lines[number - 1] = json.dumps(record)
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n")
        argv = ["rank", "--out", str(trained_dir), "--events", str(events), "--user", "user0", "--query", "kw0"]
        err = self.errors(capsys, argv)
        assert err[0].startswith(f"error: {events}:{number}: field 'dense' of 'item_listing'"), err

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"type": "user_profile", "tags": 5}, "'tags' of 'user_profile' must be an array"),
            ({"type": "user_profile", "tags": "ab"}, "'tags' of 'user_profile' must be an array"),
            ({"keywords": None}, "'keywords' of 'session_log' must be an array"),
            ({"type": "item_listing", "properties": [5]}, "'properties' of 'item_listing' must be"),
            ({"type": "item_listing", "properties": [{"value": "v"}]}, "'properties' of 'item_listing'"),
            ({"type": "item_listing", "title": 5}, "'title' of 'item_listing' must be a string"),
            ({"type": "item_listing", "dense": "ab"}, "'dense' of 'item_listing' must be an array"),
            ({"type": "item_listing", "dense": [1.5, True]}, "'dense' of 'item_listing' must be"),
            ({"type": "item_listing", "dense": [1.5, 10**400]}, "'dense' of 'item_listing' must be"),
        ],
    )
    def test_field_of_wrong_json_type_names_the_line(self, tmp_path, capsys, fields, named):
        base = {
            "type": "session_log", "user": "u", "session": "s", "seller": "x", "intention": "n",
            "keywords": ["k"], "item": "i", "category": "c",
        }
        events = tmp_path / "events.jsonl"
        good = {"type": "user_profile", "user": "a", "tags": ["t"]}
        events.write_text(json.dumps(good) + "\n" + json.dumps({**base, **fields}) + "\n")
        err = self.errors(capsys, ["build-kg", "--out", str(tmp_path)])
        assert err[0].startswith(f"error: {events}:2: field {named}"), err
        assert not (tmp_path / "triples.tsv").exists()


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize(
        "command, flag", [(cmd, flag) for cmd, flags in INPUT_FLAGS.items() for flag in flags]
    )
    def test_one_line_data_error(self, trained_dir, tmp_path, capsys, command, flag, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe x\n")
        argv = [command, "--out", str(trained_dir), flag, str(bad)]
        if command == "rank":
            argv += ["--user", "user0", "--query", "kw0", "--candidates", "item0"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0], err


BINARY_READERS = {"ckge.bin": load_checkpoint, "kdcn.bin": load_model_values}


def _well_formed(result) -> bool:
    if isinstance(result, PretrainCheckpoint):
        entity, relation = result.entity_table, result.relation_table
        return (
            entity.ndim == relation.ndim == 2 and entity.shape[1] == relation.shape[1]
            and entity.dtype == relation.dtype == np.float32
        )
    return all(isinstance(k, str) and v.ndim == 2 and v.dtype == np.float32 for k, v in result.items())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # hypothesis reruns a test body many times, so the file lives in a module-scoped directory
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", BINARY_READERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_binary_file_is_kdcn_error_or_valid(trained_dir, fuzz_dir, name, data):
    """A truncated file is a KdcnError; a file with flipped bits (biased toward the
    first KiB, where the header and manifest sit) is a KdcnError or loads well formed."""
    raw = bytearray((trained_dir / name).read_bytes())
    truncate = data.draw(st.booleans())
    if truncate:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        head = 8 * min(len(raw), 1024)
        bits = st.one_of(st.integers(0, head - 1), st.integers(0, 8 * len(raw) - 1))
        for bit in data.draw(st.lists(bits, min_size=1, max_size=4)):
            raw[bit // 8] ^= 1 << (bit % 8)
    path = fuzz_dir / name
    path.write_bytes(bytes(raw))
    try:
        result = BINARY_READERS[name](path)
    except KdcnError:
        return
    assert not truncate and _well_formed(result)


def _masked_report(path: Path) -> str:
    # wall-clock time is the one legitimately non-reproducible column
    lines = path.read_text().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


class TestDeterminism:
    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(TINY_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(out_a, cfg, seed=5)
        run_pipeline(out_b, cfg, seed=5)
        for name in (
            "events.jsonl",
            "triples.tsv",
            "samples.jsonl",
            "vocab.tsv",
            "ckge.bin",
            "ckge.vocab.tsv",
            "pretrain_loss.csv",
            "kdcn.bin",
            "kdcn.meta.json",
            "history.csv",
        ):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        assert _masked_report(out_a / "report.csv") == _masked_report(out_b / "report.csv")

    def test_different_seed_changes_model(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(TINY_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(out_a, cfg, seed=1)
        run_pipeline(out_b, cfg, seed=2)
        assert (out_a / "kdcn.bin").read_bytes() != (out_b / "kdcn.bin").read_bytes()
