import contextlib
import io
import pathlib
import re
import typing

import coopnoma

HERE = pathlib.Path(__file__).resolve().parent
README = HERE.parent / "README.md"
PACKAGE = pathlib.Path(coopnoma.__file__).parent


def quick_start():
    return re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)


def test_quick_start_runs_as_written():
    block = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
    p_analytic, p_mc = map(float, out.getvalue().splitlines()[0].split())
    assert f"{p_analytic:.4f}" == "0.2701"  # the value the README quotes
    assert abs(p_mc - p_analytic) <= 5.0 * (p_analytic * (1.0 - p_analytic) / 1e6) ** 0.5


def test_every_exported_name_resolves():
    missing = [name for name in coopnoma.__all__ if not hasattr(coopnoma, name)]
    assert missing == []
    assert len(set(coopnoma.__all__)) == len(coopnoma.__all__)


def test_every_exported_name_is_needed():
    # a name is exported only if the CLI, an acceptance gate or the quick start
    # names it, or if it is a type the engines' results come in
    named = "\n".join(((PACKAGE / "cli.py").read_text(),
                       (HERE / "test_acceptance.py").read_text(), quick_start()))
    hints = typing.get_type_hints
    result_types = {hints(coopnoma.evaluate)["return"]}
    for point in typing.get_args(hints(coopnoma.estimate)["return"]):
        result_types |= set(hints(point).values())
    unneeded = [name for name in coopnoma.__all__
                if not re.search(rf"\b{name}\b", named)
                and getattr(coopnoma, name) not in result_types]
    assert unneeded == []


def test_readme_lists_the_exported_names():
    text = re.search(r"The package itself exports(.*?)\. Everything else", README.read_text(),
                     re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", text)) == sorted(coopnoma.__all__)


def test_config_key_listing_matches_the_key_table():
    from coopnoma.cli import _DEFAULTS
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    listed = {}
    for line in block.splitlines():
        section, keys = re.match(r"\[(\w+)\]\s+([^;]*)", line).groups()
        listed[section] = [key.strip() for key in keys.split(",")]
    assert listed == {section: list(keys) for section, keys in _DEFAULTS.items()}


def test_each_module_imports_only_the_layers_below_it():
    # the layer list of the package docstring, bottom to top
    layers = re.findall(r"^- ``(\w+)``:", coopnoma.__doc__, re.M)
    assert sorted(layers) == sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    upward = [(module, imported) for below, module in enumerate(layers)
              for imported in re.findall(r"^\s*from \.(\w+) import", (PACKAGE / f"{module}.py")
                                         .read_text(), re.M)
              if imported not in layers[:below]]
    assert upward == []
