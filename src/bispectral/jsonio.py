"""Document-level JSON: stable, versioned files for specs, certificates,
pairs and reports.  Every transcript embeds the tool version and the
truncation/bound parameters so runs are reproducible."""

from __future__ import annotations

import json

from . import __version__
from .darboux import DarbouxCertificate, KernelSpec, certify
from .errors import UsageError
from .involution import BispectralPair

# what a document of the wrong shape raises inside a from_json: a missing
# key, a value of the wrong type, or a list of the wrong length
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def tool_block(**params):
    out = {"name": "bispectral", "version": __version__}
    out.update({k: v for k, v in params.items() if v is not None})
    return out


def dumps(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write(path, document):
    with open(path, "w") as fh:
        fh.write(dumps(document))


def read(path):
    """Parse a document file; every document the tool reads is an object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object, "
                         f"got {type(data).__name__}")
    return data


def load_spec(data) -> KernelSpec:
    try:
        return KernelSpec.from_json(data)
    except _MALFORMED as exc:
        raise UsageError(f"malformed kernel spec: {exc}") from exc


def certificate_document(cert: DarbouxCertificate, **params):
    return {"tool": tool_block(**params), "kind": "darboux-certificate",
            **cert.to_json()}


def load_certificate(data) -> DarbouxCertificate:
    """Parse a certificate document and certify it at the default depth.

    The parsed certificate is returned as stored; a failed witness raises.
    """
    try:
        cert = DarbouxCertificate.from_json(data)
    except _MALFORMED as exc:
        raise UsageError(f"malformed certificate: {exc}") from exc
    certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec)
    return cert


def pair_document(pair: BispectralPair, **params):
    return {"tool": tool_block(**params), "kind": "bispectral-pair",
            **pair.to_json()}


def load_pair(data) -> BispectralPair:
    try:
        return BispectralPair.from_json(data)
    except _MALFORMED as exc:
        raise UsageError(f"malformed pair: {exc}") from exc
