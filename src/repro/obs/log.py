"""``repro``-namespaced :mod:`logging` integration.

Every module of the library logs through a child of the ``repro``
logger (``logging.getLogger(__name__)`` inside the package), and this
module owns the root of that namespace: a :class:`logging.NullHandler`
is attached on import so the library stays silent by default — the
standard library-package contract — while :func:`configure_logging`
turns the stream on for scripts, notebooks and debugging sessions.

Two levels carry the telemetry:

* **DEBUG** — every record of an active
  :class:`~repro.obs.events.Recorder` (spans as they close, events as
  they are emitted), so a debug stream is a live tail of the run;
* **WARNING** — path failures and precision escalations from the
  trackers (:mod:`repro.series.tracker`, :mod:`repro.batch.fleet`),
  emitted *whether or not* a recorder is active.  Before this module
  existed a failed path was silent until the caller inspected the
  result object.
"""

from __future__ import annotations

import logging

__all__ = ["LOGGER_NAME", "logger", "get_logger", "configure_logging"]

#: Root of the library's logging namespace.
LOGGER_NAME = "repro"

#: The package root logger; module loggers are its children.
logger = logging.getLogger(LOGGER_NAME)
# silent-by-default: a NullHandler stops logging.lastResort from
# printing tracker warnings to stderr in library use
logger.addHandler(logging.NullHandler())

#: The handler installed by :func:`configure_logging` (so a second call
#: reconfigures instead of duplicating output).
_configured_handler: logging.Handler | None = None


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace (the root one for ``""``)."""
    if not name:
        return logger
    if name.startswith(LOGGER_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def configure_logging(
    level=logging.INFO,
    *,
    stream=None,
    fmt: str = "%(levelname)s %(name)s: %(message)s",
) -> logging.Handler:
    """Attach a stream handler to the ``repro`` logger.

    ``level=logging.DEBUG`` tails every recorder span/event;
    ``logging.WARNING`` surfaces only path failures and precision
    escalations.  ``stream`` defaults to ``sys.stderr``.  Calling again
    replaces the previously configured handler (idempotent setup for
    notebooks and REPLs).
    """
    global _configured_handler
    if _configured_handler is not None:
        logger.removeHandler(_configured_handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(fmt))
    logger.addHandler(handler)
    logger.setLevel(level)
    _configured_handler = handler
    return handler
