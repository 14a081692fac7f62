"""Document-level JSON: stable, versioned files for specs, certificates,
pairs and reports.  Every transcript embeds the tool version and the
truncation/bound parameters so runs are reproducible, and names its kind,
which the loaders check."""

from __future__ import annotations

import json

from . import __version__
from .darboux import DarbouxCertificate, KernelSpec, certify
from .errors import UsageError
from .involution import BispectralPair
from .scalars import _shown

# what a document of the wrong shape raises inside a from_json: a missing
# key, a value of the wrong type, or a list of the wrong length
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def document(kind, payload, **params):
    """The envelope of every document the tool writes: the tool block with
    the parameters that are set, the kind, then the payload's keys."""
    tool = {"name": "bispectral", "version": __version__}
    tool.update({k: v for k, v in params.items() if v is not None})
    return {"tool": tool, "kind": kind, **payload}


def dumps(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write(path, document):
    with open(path, "w") as fh:
        fh.write(dumps(document))


def read(path):
    """Parse a document file; every document the tool reads is an object.

    Bytes that do not decode, malformed JSON, an integer past the int digit
    limit (each a ValueError) and nesting too deep to parse raise
    UsageError.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object, "
                         f"got {type(data).__name__}")
    return data


def _parse(data, kind, cls, what, optional=False):
    """``cls.from_json`` of a document of the given kind.

    A document of another kind, or one of the wrong shape, raises
    UsageError; ``optional`` lets the document leave out its kind.
    """
    got = data.get("kind")
    if got != kind and not (optional and got is None):
        raise UsageError(f"document kind {_shown(got)} where {kind!r} "
                         f"was expected")
    try:
        return cls.from_json(data)
    except _MALFORMED as exc:
        raise UsageError(f"malformed {what}: {exc}") from exc


def load_spec(data) -> KernelSpec:
    """Parse a kernel spec; a spec file may leave out its kind."""
    return _parse(data, "kernel-spec", KernelSpec, "kernel spec",
                  optional=True)


def load_certificate(data) -> DarbouxCertificate:
    """Parse a certificate document and certify it at the default depth.

    The parsed certificate is returned as stored; a failed witness raises.
    """
    cert = _parse(data, "darboux-certificate", DarbouxCertificate,
                  "certificate")
    certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec)
    return cert


def pair_document(pair: BispectralPair, **params):
    return document("bispectral-pair", pair.to_json(), **params)


def load_pair(data) -> BispectralPair:
    return _parse(data, "bispectral-pair", BispectralPair, "pair")
