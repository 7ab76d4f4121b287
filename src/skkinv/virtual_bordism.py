"""Symbolic manifold pieces with labeled boundaries, closed up by catalogs.

A piece carries only invariant-level data: dimension, Euler characteristic,
signature, a multiset of named boundary labels, and optional exact-rational
attributes for closed catalog entries (Pontryagin numbers in the
dimension-8 demo catalog). Pieces have even dimension, so their boundary
labels are odd-dimensional and of Euler characteristic zero.

Catalogs declare named pieces, a boundary-capping assignment (for each
label, a piece whose boundary is l copies of the label), and construction
identities that let a glued piece resolve to a named closed manifold. No
recognition beyond declared identities is attempted. Identities match by
part-name multiset and cappings by label name, so no construction reads a
label's orientation: the catalog format accepts a leading '-' on a label
and drops it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import InputError
from .rationals import is_json_int, parse_rational


class LabelMismatch(InputError):
    """An in/out split of boundary labels does not cover a piece's boundary."""


class DimensionMismatch(ValueError):
    """Pieces of different dimensions cannot interact."""


class MissingBSigma(InputError):
    """Catalog lacks a capping piece for a boundary label."""


class CatalogFormatError(InputError):
    """Malformed catalog document."""


@dataclass(frozen=True)
class VirtualPiece:
    """Invariant-level record of a compact oriented manifold piece."""

    dim: int
    chi: int
    sigma: int = 0
    boundary: tuple[str, ...] = ()
    attributes: tuple[tuple[str, Fraction], ...] = ()
    name: str = ""
    parts: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim % 2:
            raise ValueError(f"pieces have even dimension, got {self.dim}")
        if self.sigma != 0 and self.dim % 4 != 0:
            raise ValueError("signature lives in dimensions divisible by 4")
        if not self.parts:
            # anonymous pieces carry an opaque part so declared identities can
            # only resolve constructions whose constituents are all named
            object.__setattr__(self, "parts", (self.name,) if self.name else ("?",))

    def attribute(self, key: str) -> Fraction:
        for k, v in self.attributes:
            if k == key:
                return v
        raise CatalogFormatError(f"piece {self.name!r} has no attribute {key!r}")

    def has_attribute(self, key: str) -> bool:
        return any(k == key for k, _ in self.attributes)


def piece(dim, chi, sigma=0, boundary=(), name="", attributes=()) -> VirtualPiece:
    """Convenience constructor; boundary entries are label names, and a
    leading '-' on one is dropped."""
    labels = tuple(b.removeprefix("-") for b in boundary)
    attrs = tuple(sorted((k, Fraction(v)) for k, v in dict(attributes).items()))
    return VirtualPiece(dim, chi, sigma, labels, attrs, name)


@dataclass(frozen=True)
class Catalog:
    """Named pieces, boundary capping choices, and construction identities."""

    dim: int
    l: int
    pieces: tuple[VirtualPiece, ...]
    b_sigma: tuple[tuple[str, str], ...]       # label name -> piece name
    identities: tuple[tuple[tuple[str, ...], str], ...]  # part multiset -> piece name

    def __post_init__(self):
        if self.dim % 2:
            raise ValueError(f"catalogs have even dimension, got {self.dim}")
        if self.l < 1:
            raise ValueError("l must be a positive integer")
        names = Counter(p.name for p in self.pieces)
        twice = sorted(name for name, k in names.items() if k > 1)
        if twice:
            raise CatalogFormatError(f"piece names used more than once: {twice}")
        object.__setattr__(self, "_by_name", {p.name: p for p in self.pieces})
        object.__setattr__(self, "_by_parts", {})
        for label, pname in self.b_sigma:
            if pname not in names:
                raise CatalogFormatError(f"b_sigma for {label!r} names unknown piece {pname!r}")
            B = self.piece(pname)
            if len(B.boundary) != self.l or any(lbl != label for lbl in B.boundary):
                raise CatalogFormatError(
                    f"boundary of {pname!r} is not {self.l} copies of {label!r}"
                )
        for parts, pname in self.identities:
            if pname not in names:
                raise CatalogFormatError(f"identity resolves to unknown piece {pname!r}")
            key = tuple(sorted(parts))
            if key in self._by_parts:
                raise CatalogFormatError(f"two identities for the parts {list(key)}")
            self._by_parts[key] = self._by_name[pname]

    def piece(self, name: str) -> VirtualPiece:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogFormatError(f"no catalog piece {name!r}") from None

    def capping_piece(self, label_name: str) -> VirtualPiece:
        for label, pname in self.b_sigma:
            if label == label_name:
                return self.piece(pname)
        raise MissingBSigma(f"no capping piece for boundary label {label_name!r}")

    def with_b_sigma(self, label_name: str, piece_name: str) -> "Catalog":
        entries = tuple((lbl, piece_name if lbl == label_name else nm)
                        for lbl, nm in self.b_sigma)
        if label_name not in {lbl for lbl, _ in self.b_sigma}:
            entries += ((label_name, piece_name),)
        return replace(self, b_sigma=entries)

    def resolve(self, parts: tuple[str, ...]) -> VirtualPiece | None:
        """Match a glued piece's part multiset against declared identities."""
        return self._by_parts.get(tuple(sorted(parts)))


def close_up(M: VirtualPiece, in_labels, out_labels, catalog: Catalog) -> VirtualPiece:
    """Cap a cobordism-style piece into a closed manifold.

    `in_labels` and `out_labels` name the boundary labels of each side. Takes
    l parallel copies of M, caps each in-boundary component with its
    catalog piece and each out-boundary component with the reversed catalog
    piece. With no boundary this is just l disjoint copies of M. When the
    resulting part multiset matches a declared identity the catalog entry is
    returned (with its attributes); its chi is cross-checked against the
    computed value.
    """
    if M.dim != catalog.dim:
        raise DimensionMismatch(f"piece dimension {M.dim} vs catalog {catalog.dim}")
    in_names, out_names = list(in_labels), list(out_labels)
    declared = sorted(in_names + out_names)
    actual = sorted(M.boundary)
    if declared != actual:
        raise LabelMismatch(f"in/out split {declared} does not cover boundary {actual}")

    l = catalog.l
    chi = l * M.chi
    sigma = l * M.sigma
    parts = list(M.parts) * l
    for name in in_names:
        B = catalog.capping_piece(name)
        chi += B.chi
        sigma += B.sigma
        parts.extend(B.parts)
    for name in out_names:
        B = catalog.capping_piece(name)
        chi += B.chi
        sigma -= B.sigma
        parts.extend(B.parts)

    resolved = catalog.resolve(tuple(parts))
    if resolved is not None:
        if resolved.chi != chi:
            raise CatalogFormatError(
                f"identity for {resolved.name!r} has chi {resolved.chi}, computed {chi}"
            )
        return resolved
    return VirtualPiece(M.dim, chi, sigma, (), (), "", tuple(sorted(parts)))


# -- the demo catalog ------------------------------------------------------------

def dim8_catalog() -> Catalog:
    """Dimension-8 demo catalog with Pontryagin-number attributes.

    The 7-sphere bounds both the 8-disk and the complement of an open
    8-disk in the complex projective 4-space, which is what makes the
    capping choice visible to attribute-valued invariants.
    """
    d8 = piece(8, 1, boundary=("S7",), name="D8")
    s8 = piece(8, 2, name="S8", attributes={"p2": 0})
    cp4 = piece(8, 5, name="CP4", attributes={"p2": 10})
    cp4_minus = piece(8, 4, boundary=("S7",), name="CP4_minus_D8")
    return Catalog(
        dim=8,
        l=1,
        pieces=(d8, s8, cp4, cp4_minus),
        b_sigma=(("S7", "D8"),),
        identities=(
            (("D8", "D8"), "S8"),
            (("CP4_minus_D8", "D8"), "CP4"),
        ),
    )


# -- catalog file format ----------------------------------------------------------

_CATALOG_FIELDS = {"dim", "l", "pieces", "b_sigma", "identities"}
_PIECE_FIELDS = {"name", "chi", "sigma", "boundary", "attributes"}


def _is_names(x) -> bool:
    return isinstance(x, list) and all(isinstance(n, str) for n in x)


def _is_piece_entry(entry) -> bool:
    attributes = entry.get("attributes", {})
    return (isinstance(entry.get("name"), str) and is_json_int(entry.get("chi"))
            and is_json_int(entry.get("sigma", 0)) and _is_names(entry.get("boundary", []))
            and isinstance(attributes, dict)
            and all(is_json_int(v) or isinstance(v, str) for v in attributes.values()))


def catalog_from_json(text: str) -> Catalog:
    """Parse the catalog document format; unknown fields and wrong types are rejected."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long
        raise CatalogFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CatalogFormatError("top-level document must be an object")
    unknown = set(doc) - _CATALOG_FIELDS
    if unknown:
        raise CatalogFormatError(f"unknown fields: {sorted(unknown)}")
    if not is_json_int(doc.get("dim")) or not is_json_int(doc.get("l")):
        raise CatalogFormatError("'dim' and 'l' must be integers")
    entries = doc.get("pieces")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise CatalogFormatError("'pieces' must be an array of objects")
    for entry in entries:
        bad = set(entry) - _PIECE_FIELDS
        if bad:
            raise CatalogFormatError(f"unknown piece fields: {sorted(bad)}")
        if not _is_piece_entry(entry):
            raise CatalogFormatError(
                f"piece {entry.get('name')!r}: 'name' must be a string, 'chi' and 'sigma'"
                " integers, 'boundary' label names, 'attributes' integers or rational strings")
    b_sigma = doc.get("b_sigma", {})
    if not isinstance(b_sigma, dict) or not all(isinstance(v, str) for v in b_sigma.values()):
        raise CatalogFormatError("'b_sigma' must be an object from label names to piece names")
    identities = doc.get("identities", [])
    if not isinstance(identities, list) or not all(
        isinstance(item, dict) and set(item) == {"pieces", "equals"}
        and _is_names(item["pieces"]) and isinstance(item["equals"], str)
        for item in identities
    ):
        raise CatalogFormatError(
            "'identities' must be an array of {\"pieces\": [names], \"equals\": name}")
    try:
        pieces = tuple(
            piece(doc["dim"], entry["chi"], sigma=entry.get("sigma", 0),
                  boundary=tuple(entry.get("boundary", ())), name=entry["name"],
                  attributes={k: Fraction(v) if is_json_int(v) else parse_rational(v)
                              for k, v in entry.get("attributes", {}).items()})
            for entry in entries
        )
        return Catalog(
            dim=doc["dim"],
            l=doc["l"],
            pieces=pieces,
            b_sigma=tuple(b_sigma.items()),
            identities=tuple((tuple(item["pieces"]), item["equals"]) for item in identities),
        )
    except CatalogFormatError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogFormatError(f"malformed catalog: {exc}") from exc
