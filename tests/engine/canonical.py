"""Backend-agnostic views of a batch state's occupancy bitplanes.

The two built-in backends store the same planes in different layouts:
:class:`~repro.engine.state.PythonState` nests lists of Python ints in
view-oriented order, :class:`~repro.engine.fused.FusedState` keeps
``[b, ...]``-leading int64 arrays (with a trailing word axis when any
mask family spans more than one word).  :func:`canonical_planes`
reduces either to the same nested Python ints, so identity suites can
compare end states with ``==``.
"""

from __future__ import annotations

from repro.engine.fused import FusedState
from repro.engine.planes import WORD_BITS
from repro.engine.state import PythonState


def _joined(words):
    """A ``[..., W]`` int64 word array as nested Python-int masks."""
    out = words[..., 0].astype(object)
    for wi in range(1, words.shape[-1]):
        out = out | (words[..., wi].astype(object) << (WORD_BITS * wi))
    return out.tolist()


def canonical_planes(state) -> list[dict]:
    """Per-replication occupancy bitplanes as nested Python ints.

    Fused states join their word rows back into ints and drop the
    padding rows above each replication's own ``m``; the python backend
    transposes its view-oriented nesting into the same
    ``[b][...]``-leading order.
    """
    geos = state.geometries
    if isinstance(state, FusedState):

        def grab(name):
            arr = getattr(state, name)
            if not state.plane_layout.multiword:
                arr = arr[..., None]
            return _joined(arr)

        out_busy = grab("_out_busy")
        if state.msw_dominant:
            in_busy = grab("_in_busy")
            return [
                {
                    "in_busy": in_busy[b],
                    "out_busy": out_busy[b][: geos[b].m],
                }
                for b in range(state.batch)
            ]
        in_wave = grab("_in_wave")
        in_full = grab("_in_full")
        out_wave = grab("_out_wave")
        out_full = grab("_out_full")
        return [
            {
                "in_wave": [row[: geos[b].m] for row in in_wave[b]],
                "in_full": in_full[b],
                "out_wave": out_wave[b][: geos[b].m],
                "out_full": out_full[b][: geos[b].m],
                "out_busy": out_busy[b][: geos[b].m],
            }
            for b in range(state.batch)
        ]
    assert isinstance(state, PythonState)
    k = len(state._out_busy)
    if state.msw_dominant:
        r = len(state._in_busy)
        return [
            {
                "in_busy": [
                    [state._in_busy[g][w][b] for w in range(k)]
                    for g in range(r)
                ],
                "out_busy": [
                    [state._out_busy[w][b][j] for w in range(k)]
                    for j in range(geos[b].m)
                ],
            }
            for b in range(state.batch)
        ]
    r = len(state._in_wave)
    return [
        {
            "in_wave": [
                [state._in_wave[g][b][j] for j in range(geos[b].m)]
                for g in range(r)
            ],
            "in_full": [state._in_full[g][b] for g in range(r)],
            "out_wave": [
                [state._out_wave[b][j][p] for p in range(r)]
                for j in range(geos[b].m)
            ],
            "out_full": [state._out_full[b][j] for j in range(geos[b].m)],
            "out_busy": [
                [state._out_busy[w][b][j] for w in range(k)]
                for j in range(geos[b].m)
            ],
        }
        for b in range(state.batch)
    ]
