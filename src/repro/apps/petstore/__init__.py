"""The Java Pet Store sample application (version 1.1.2 analogue)."""

from ... import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ALL_PAGES": "app",
    "BROWSER_PAGES": "app",
    "BUYER_PAGES": "app",
    "build_application": "app",
    "DEFAULT_SIZES": "data",
    "PetStoreCatalog": "data",
    "populate_petstore": "data",
    "browser_pattern": "workload",
    "buyer_pattern": "workload",
})
