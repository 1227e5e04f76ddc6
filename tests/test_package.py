import ast
from pathlib import Path

import impact_bsde


def test_all_lists_exactly_the_imported_names():
    # a name dropped from an import must leave __all__ too, and the reverse
    source = Path(impact_bsde.__file__).read_text()
    imported = [alias.asname or alias.name for node in ast.parse(source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(impact_bsde.__all__)) == len(impact_bsde.__all__)
    assert set(impact_bsde.__all__) == set(imported)
    assert all(hasattr(impact_bsde, name) for name in impact_bsde.__all__)
