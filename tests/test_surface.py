"""The public options, as scripts/surface.py counts them, are pinned here."""
import importlib.util
from pathlib import Path


def _load():
    path = Path(__file__).resolve().parent.parent / "scripts" / "surface.py"
    spec = importlib.util.spec_from_file_location("surface", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


surface = _load()

# Adding an option to a public function, or a GenParams field, means editing
# this list on purpose.
PINNED = [
    "automata.name_classes(open_)",
    "automata.name_classes(close)",
    "automata.build_alphabet(channels)",
    "cli.main(argv)",
    "decomposability.replay_condition_witness(sets)",
    "dot.dot_export(name)",
    "GenParams.seed",
    "GenParams.max_states",
    "GenParams.max_events",
    "GenParams.agent_count",
    "GenParams.max_branching",
    "GenParams.allow_cycles",
    "testkit.gen_scenario(require_decomposable)",
    "testkit.gen_failures(only_passive)",
    "testkit.differential_suite(corpus_dir)",
]


def test_public_options_are_the_pinned_list():
    assert surface.public_options() == PINNED


def test_options_are_read_from_defaults_and_fields(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, *c, d, e=2, **g): pass\n"
        "def _hidden(x=1): pass\n"
        "class GenParams:\n"
        "    seed: int = 0\n"
        "    def method(self, y=1): pass\n"
    )
    assert surface.public_options(tmp_path) == ["mod.f(b)", "mod.f(e)", "GenParams.seed"]
    assert surface.line_count(tmp_path) == 5
