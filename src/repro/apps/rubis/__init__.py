"""RUBiS — the Rice University Bidding System (Session Façade version)."""

from ... import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ALL_PAGES": "app",
    "BIDDER_PAGES": "app",
    "BROWSER_PAGES": "app",
    "build_application": "app",
    "DEFAULT_SIZES": "data",
    "RubisCatalog": "data",
    "populate_rubis": "data",
    "bidder_pattern": "workload",
    "browser_pattern": "workload",
})
