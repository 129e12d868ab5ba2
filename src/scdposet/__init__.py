"""Symmetric chain decomposition of the grid poset of bounded compositions."""

from .core import Composition, GridShape, rank
from .decompose import LevelProfile, VerificationReport, decompose, level_sizes, verify
from .locate import CertificateError, MembershipCertificate, certificate, locate, locate_parts
from .render import parse_ascii, render_ascii, render_svg, tableau_payload
from .starts import NotStartVectorError, StartVector, psi
from .tableau import (
    Chain,
    ChainTableau,
    Fillable,
    Fixed,
    Forbidden,
    build_tableau,
    chain_contains,
    chain_elements,
    element_at,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ChainTableau",
    "CertificateError",
    "Composition",
    "Fillable",
    "Fixed",
    "Forbidden",
    "GridShape",
    "LevelProfile",
    "MembershipCertificate",
    "NotStartVectorError",
    "StartVector",
    "VerificationReport",
    "build_tableau",
    "certificate",
    "chain_contains",
    "chain_elements",
    "decompose",
    "element_at",
    "level_sizes",
    "locate",
    "locate_parts",
    "parse_ascii",
    "psi",
    "rank",
    "render_ascii",
    "render_svg",
    "tableau_payload",
    "verify",
]
