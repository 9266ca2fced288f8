"""Tests for repro.store.keys — cache-key derivation.

The property pair that matters: a key is *insensitive* to irrelevant
permutations (dict insertion order, tuple-vs-list spelling) and
*sensitive* to every real change (any config field, the stage name, the
code fingerprint, upstream digests, the RNG cursor).
"""

import enum
import pathlib
import shutil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import StoreError
from repro.store.keys import CacheKey, canonicalize, code_fingerprint

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=12)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_configs = st.dictionaries(
    st.text(min_size=1, max_size=8), _values, min_size=1, max_size=6
)


def _reorder(value):
    """Deep copy with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {k: _reorder(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


class TestKeyProperties:
    @settings(max_examples=60, deadline=None)
    @given(_configs)
    def test_insertion_order_never_changes_the_key(self, config):
        original = CacheKey(stage="s", config=config, fingerprint="f")
        shuffled = CacheKey(stage="s", config=_reorder(config), fingerprint="f")
        assert original.digest() == shuffled.digest()

    @settings(max_examples=60, deadline=None)
    @given(_configs, st.integers())
    def test_changed_field_changes_the_key(self, config, salt):
        name = sorted(config)[0]
        mutated = dict(config)
        mutated[name] = ["__mutant__", salt]
        assume(canonicalize(mutated[name]) != canonicalize(config[name]))
        before = CacheKey(stage="s", config=config, fingerprint="f")
        after = CacheKey(stage="s", config=mutated, fingerprint="f")
        assert before.digest() != after.digest()

    @settings(max_examples=60, deadline=None)
    @given(_configs, st.text(min_size=1, max_size=8))
    def test_added_field_changes_the_key(self, config, name):
        assume(name not in config)
        grown = dict(config)
        grown[name] = "__added__"
        before = CacheKey(stage="s", config=config, fingerprint="f")
        after = CacheKey(stage="s", config=grown, fingerprint="f")
        assert before.digest() != after.digest()


class TestKeyFields:
    def test_every_field_is_load_bearing(self):
        base = dict(
            stage="scan", config={"seed": 7}, fingerprint="f" * 64,
            upstream=("scan=abc",), cursor="c" * 64,
        )
        reference = CacheKey(**base).digest()
        for field_name, changed in [
            ("stage", "crawl"),
            ("config", {"seed": 8}),
            ("fingerprint", "0" * 64),
            ("upstream", ("scan=def",)),
            ("cursor", "d" * 64),
        ]:
            variant = dict(base)
            variant[field_name] = changed
            assert CacheKey(**variant).digest() != reference, field_name

    def test_canonical_form_is_stable(self):
        key = CacheKey(stage="s", config={"b": 1, "a": 2}, fingerprint="f")
        assert key.canonical() == {
            "stage": "s",
            "config": {"a": 2, "b": 1},
            "fingerprint": "f",
            "upstream": [],
            "cursor": "",
        }


class TestCanonicalize:
    def test_tuple_and_list_spell_the_same_value(self):
        assert canonicalize((1, 2, 3)) == canonicalize([1, 2, 3])

    def test_sets_are_sorted(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]
        assert canonicalize(frozenset({"b", "a"})) == ["a", "b"]

    def test_enums_collapse_to_values(self):
        class Kind(enum.Enum):
            OPEN = "open"

        assert canonicalize({"k": Kind.OPEN}) == {"k": "open"}

    def test_non_json_value_rejected(self):
        with pytest.raises(StoreError, match="not canonicalizable"):
            canonicalize({"x": object()})


class TestCodeFingerprint:
    """One package-wide fingerprint: coverage holds by construction."""

    @pytest.fixture
    def package(self, tmp_path):
        """A byte-identical copy of the ``repro`` package to edit."""
        copy = tmp_path / "repro"
        shutil.copytree(
            PACKAGE_ROOT, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        return copy

    @staticmethod
    def fingerprint(root):
        # Bypass the per-process cache: these tests edit files in place.
        return code_fingerprint.__wrapped__(root)

    def test_copy_fingerprints_like_the_package(self, package):
        assert self.fingerprint(package) == code_fingerprint()
        assert len(code_fingerprint()) == 64

    @pytest.mark.parametrize(
        "relative", ["crypto/__init__.py", "experiments/fig3_geomap.py"]
    )
    def test_edit_to_any_measurement_module_changes_it(self, package, relative):
        before = self.fingerprint(package)
        with open(package / relative, "a", encoding="utf-8") as handle:
            handle.write("\n# edited\n")
        assert self.fingerprint(package) != before

    def test_added_module_changes_it(self, package):
        before = self.fingerprint(package)
        (package / "sim" / "extra.py").write_text("VALUE = 1\n")
        assert self.fingerprint(package) != before

    @pytest.mark.parametrize("relative", ["obs/metrics.py", "errors.py"])
    def test_edit_to_an_exempt_layer_leaves_it(self, package, relative):
        before = self.fingerprint(package)
        with open(package / relative, "a", encoding="utf-8") as handle:
            handle.write("\n# edited\n")
        assert self.fingerprint(package) == before

    def test_stray_bytecode_leaves_it(self, package):
        before = self.fingerprint(package)
        cache = package / "sim" / "__pycache__"
        cache.mkdir()
        (cache / "rng.cpython-311.pyc").write_bytes(b"\x00stale")
        assert self.fingerprint(package) == before

    def test_fingerprinting_imports_nothing(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "boom.py").write_text("raise SystemExit('imported')\n")
        assert len(self.fingerprint(package)) == 64
