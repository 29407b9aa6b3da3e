"""Every value a caller can set in ``src/`` is listed here, so a new
option shows up in the same diff that adds it.

A settable value is a function parameter with a default or a dataclass
field with a default that ``__init__`` takes (not ``init=False``).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SETTABLE = [
    "repro/core/dataset.py: build_pcr_dataset(sf)",
    "repro/core/dataset.py: features_to_arrays(label_col)",
    "repro/core/experiments.py: table1_size_reduction(sf)",
    "repro/core/experiments.py: table2_decode_rates(sf)",
    "repro/core/experiments.py: table3_dataset_summary(sf)",
    "repro/core/experiments.py: fig5_throughput(sf)",
    "repro/core/experiments.py: fig8_scan_sizes(sf)",
    "repro/core/experiments.py: fig13_mssim(sf)",
    "repro/core/experiments.py: fig22_encoding_times(sf)",
    "repro/core/experiments.py: fig24_reader(sf)",
    "repro/core/harness.py: get_or_build(sf)",
    "repro/jpeg/markers.py: Segment.entropy",
    "repro/jpeg/markers.py: seg(payload)",
    "repro/synth_images.py: DatasetSpec.n_makes",
    "repro/synth_images.py: DatasetSpec.images_per_record",
    "repro/synth_images.py: n_images(sf)",
    "repro/train/autotune.py: autotune_train(threshold)",
    "repro/train/experiments.py: load_scan_data(sf)",
    "repro/train/experiments.py: load_scan_data(label_col)",
    "repro/train/experiments.py: load_scan_data(model)",
    "repro/train/experiments.py: fig7_time_to_accuracy(sf)",
    "repro/train/experiments.py: fig7_time_to_accuracy(models)",
    "repro/train/experiments.py: fig7_time_to_accuracy(label_col)",
    "repro/train/experiments.py: fig6_gradient_similarity(sf)",
    "repro/train/experiments.py: fig14_autotune(sf)",
    "repro/train/experiments.py: fig14_autotune(threshold)",
    "repro/train/experiments.py: fig16_bandwidth_sweep(sf)",
    "repro/train/model.py: standardize(mean)",
    "repro/train/model.py: standardize(std)",
    "repro/train/model.py: train_sgd(seed)",
    "repro/train/model.py: train_sgd(eval_fn)",
]


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def _settable(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            name = getattr(node, "name", "<lambda>")
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out += [f"{name}({arg.arg})" for arg in defaulted]
        elif isinstance(node, ast.ClassDef) and any(
            getattr(getattr(d, "func", d), "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            out += [
                f"{node.name}.{st.target.id}"
                for st in node.body
                if isinstance(st, ast.AnnAssign) and st.value is not None
                and not _init_false(st.value)
            ]
    return out


def test_settable_values_are_the_listed_ones():
    found = [
        f"{path.relative_to(SRC).as_posix()}: {value}"
        for path in sorted(SRC.rglob("*.py"))
        for value in _settable(ast.parse(path.read_text()))
    ]
    assert sorted(found) == sorted(SETTABLE)
