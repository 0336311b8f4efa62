"""Proof translation and program extraction for arithmetic with a standardness predicate.

The package implements two functional interpretations over intuitionistic
arithmetic in all finite types with finite-sequence types: a herbrandised
translation whose witnesses are sequences of candidates, and a uniform
translation with computationally empty internal quantifiers. A Hilbert-style
kernel checks proofs in the matching characteristic systems, extracts closed
realiser terms, and a brute-force oracle certifies extracted bundles on
finite grids.

The names below load their home module on first access (PEP 562), so that
importing one layer does not import the others.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "ftypes": ("Arrow", "FiniteType", "Ground", "N", "Star", "is_data_type"),
    "terms": ("Term", "alpha_eq", "substitute", "type_check"),
    "reduce": ("eval_nat", "eval_seq", "normalize"),
    "formulas": ("Flavor", "Formula", "RealiserBundle", "TranslatedFormula", "classify", "desugar"),
    "translate": ("dst_translate", "u_translate"),
    "proofs": ("check_proof",),
    "extract": ("extract", "extract_dst", "extract_u"),
    "oracle": (
        "CounterexampleFound",
        "Grid",
        "GridValid",
        "Unknown",
        "brute_force_witness",
        "check_upward_closed",
        "enumerate_values",
        "eval_formula",
        "verify_bundle",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    # Bind every export of the module at once. Loading nsdial.extract binds the
    # package attribute ``extract`` to the submodule; this puts the function back.
    for export in _EXPORTS[home]:
        globals()[export] = getattr(module, export)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME})
