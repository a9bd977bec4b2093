"""The E-stage backend name that run labels carry.

The E stage has one implementation,
:class:`~repro.core.set_splitting.SetSplitter`'s candidate-set path;
:func:`resolve_backend` names it for spans, metrics and worker stats.
Co-traveler counts read the store's own inclusive sets
(:func:`~repro.sensing.scenarios.co_travelers`), so no index over the
store lives here.
"""

from __future__ import annotations

from repro.core.set_splitting import SplitConfig


def resolve_backend(backend: str) -> str:
    """The E-stage implementation a configured ``backend`` runs as.

    There is one — :class:`~repro.core.set_splitting.SetSplitter`'s
    candidate-set path, named by ``SplitConfig.backend`` — so this
    returns that name; run labels (spans, metrics, worker stats) carry
    it.
    """
    if backend != SplitConfig.backend:
        raise ValueError(
            f"unknown E-stage backend {backend!r}; "
            f"the only one is {SplitConfig.backend!r}"
        )
    return backend
