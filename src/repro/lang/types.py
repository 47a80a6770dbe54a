"""Type representations for MiniRust.

Types mirror the fragment of Oxide/Rust that the paper's analysis relies on:

* base types (``unit``, ``u32``, ``bool``),
* tuples,
* nominal structs,
* references with a *mutability qualifier* (Oxide's ownership qualifier
  ``shrd``/``uniq``) and a *lifetime* (Oxide's provenance).

The modular analysis of Section 2.3 needs exactly two pieces of information
from a type: which data reachable from a value is mutable
(:func:`transitive_refs` with ``Mutability.MUT``), and which lifetimes tie a
function's outputs to its inputs (:meth:`Type.lifetimes`).  Both are provided
here so the information-flow core never has to look at a function body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Mutability(Enum):
    """Ownership qualifier on references: shared (``&``) or unique (``&mut``)."""

    SHARED = "shrd"
    MUT = "uniq"

    def allows(self, other: "Mutability") -> bool:
        """Whether a loan at ``self`` can be used where ``other`` is required.

        Mirrors Oxide's ``uniq <= shrd``: a unique loan can stand in for a
        shared one but not vice versa.
        """
        if self is Mutability.MUT:
            return True
        return other is Mutability.SHARED

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "mut" if self is Mutability.MUT else "shared"


class Type:
    """Base class for MiniRust types.

    Subclasses are immutable value objects; equality is structural and
    *erases lifetimes* (two reference types with different lifetime names but
    the same pointee and mutability are equal).  Lifetime relationships are
    tracked separately by the signature summaries in
    :mod:`repro.core.summaries`.
    """

    def is_copy(self) -> bool:
        """Whether values of this type are implicitly copyable (Rust ``Copy``)."""
        raise NotImplementedError

    def lifetimes(self) -> List[str]:
        """All lifetime names syntactically mentioned in this type, outermost first."""
        return []

    def contains_ref(self, mutability: Optional[Mutability] = None) -> bool:
        """Whether this type transitively contains a reference.

        If ``mutability`` is given, only references with that exact qualifier
        count.
        """
        return False

    def walk(self) -> Iterator["Type"]:
        """Yield this type and all component types, preorder."""
        yield self

    def pretty(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()


@dataclass(frozen=True)
class UnitType(Type):
    """The unit type ``()``."""

    def is_copy(self) -> bool:
        return True

    def pretty(self) -> str:
        return "()"


@dataclass(frozen=True)
class U32Type(Type):
    """32-bit unsigned integers (the paper's only numeric type)."""

    def is_copy(self) -> bool:
        return True

    def pretty(self) -> str:
        return "u32"


@dataclass(frozen=True)
class BoolType(Type):
    """Booleans."""

    def is_copy(self) -> bool:
        return True

    def pretty(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TupleType(Type):
    """Heterogeneous product types ``(T0, T1, ...)``."""

    elements: Tuple[Type, ...]

    def is_copy(self) -> bool:
        return all(t.is_copy() for t in self.elements)

    def lifetimes(self) -> List[str]:
        out: List[str] = []
        for element in self.elements:
            out.extend(element.lifetimes())
        return out

    def contains_ref(self, mutability: Optional[Mutability] = None) -> bool:
        return any(t.contains_ref(mutability) for t in self.elements)

    def walk(self) -> Iterator[Type]:
        yield self
        for element in self.elements:
            yield from element.walk()

    def pretty(self) -> str:
        if len(self.elements) == 1:
            return f"({self.elements[0].pretty()},)"
        return "(" + ", ".join(t.pretty() for t in self.elements) + ")"


@dataclass(frozen=True)
class RefType(Type):
    """A reference ``&'a T`` or ``&'a mut T``.

    ``lifetime`` is ``None`` when the program omitted it; lifetime elision is
    applied by the type checker when summarising signatures.
    """

    pointee: Type
    mutability: Mutability = Mutability.SHARED
    lifetime: Optional[str] = None

    def is_copy(self) -> bool:
        # Shared references are Copy, unique references are not (as in Rust).
        return self.mutability is Mutability.SHARED

    def lifetimes(self) -> List[str]:
        own = [self.lifetime] if self.lifetime is not None else []
        return own + self.pointee.lifetimes()

    def contains_ref(self, mutability: Optional[Mutability] = None) -> bool:
        if mutability is None or mutability is self.mutability:
            return True
        return self.pointee.contains_ref(mutability)

    def walk(self) -> Iterator[Type]:
        yield self
        yield from self.pointee.walk()

    def pretty(self) -> str:
        lt = f"'{self.lifetime} " if self.lifetime else ""
        m = "mut " if self.mutability is Mutability.MUT else ""
        return f"&{lt}{m}{self.pointee.pretty()}"

    # Structural equality must ignore lifetimes: `&'a u32 == &'b u32`.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefType):
            return NotImplemented
        return self.pointee == other.pointee and self.mutability == other.mutability

    def __hash__(self) -> int:
        return hash(("RefType", self.pointee, self.mutability))


@dataclass(frozen=True)
class StructType(Type):
    """A nominal struct type.

    ``fields`` is the ordered mapping of field name to type, captured at
    definition time.  Opaque structs (declared with no fields, used to model
    foreign types such as ``Vec`` or ``HashMap`` from other crates) have an
    empty field tuple and ``opaque=True``.
    """

    name: str
    fields: Tuple[Tuple[str, Type], ...] = ()
    opaque: bool = False

    def field_names(self) -> List[str]:
        return [name for name, _ in self.fields]

    def field_type(self, name: str) -> Optional[Type]:
        for field_name, field_ty in self.fields:
            if field_name == name:
                return field_ty
        return None

    def field_index(self, name: str) -> Optional[int]:
        for index, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return index
        return None

    def is_copy(self) -> bool:
        if self.opaque:
            return False
        return all(t.is_copy() for _, t in self.fields)

    def lifetimes(self) -> List[str]:
        out: List[str] = []
        for _, t in self.fields:
            out.extend(t.lifetimes())
        return out

    def contains_ref(self, mutability: Optional[Mutability] = None) -> bool:
        return any(t.contains_ref(mutability) for _, t in self.fields)

    def walk(self) -> Iterator[Type]:
        yield self
        for _, t in self.fields:
            yield from t.walk()

    def pretty(self) -> str:
        return self.name

    # Nominal equality: two struct types are the same type iff names match.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructType):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(("StructType", self.name))


@dataclass(frozen=True)
class FnType(Type):
    """The type of a function value (used for typing call expressions only)."""

    params: Tuple[Type, ...]
    ret: Type

    def is_copy(self) -> bool:
        return True

    def pretty(self) -> str:
        params = ", ".join(t.pretty() for t in self.params)
        return f"fn({params}) -> {self.ret.pretty()}"


# Singleton instances for the common base types.  Using module-level constants
# keeps type construction cheap and equality checks obvious at call sites.
UNIT = UnitType()
U32 = U32Type()
BOOL = BoolType()


def ref(pointee: Type, mutable: bool = False, lifetime: Optional[str] = None) -> RefType:
    """Convenience constructor for reference types."""
    mutability = Mutability.MUT if mutable else Mutability.SHARED
    return RefType(pointee, mutability, lifetime)


def tuple_of(*elements: Type) -> TupleType:
    """Convenience constructor for tuple types."""
    return TupleType(tuple(elements))


def is_base(ty: Type) -> bool:
    """True for Oxide's base types (unit, u32, bool)."""
    return isinstance(ty, (UnitType, U32Type, BoolType))


def peel_refs(ty: Type) -> Type:
    """Strip any number of outer reference layers, returning the pointee."""
    while isinstance(ty, RefType):
        ty = ty.pointee
    return ty


def ref_depth(ty: Type) -> int:
    """Number of outer reference layers on ``ty``."""
    depth = 0
    while isinstance(ty, RefType):
        depth += 1
        ty = ty.pointee
    return depth


def types_compatible(expected: Type, actual: Type) -> bool:
    """Structural compatibility used by the type checker.

    Lifetimes are erased (see :class:`RefType` equality) and a unique
    reference may be used where a shared reference of the same pointee is
    expected, mirroring Rust's ``&mut T -> &T`` coercion.
    """
    if expected == actual:
        return True
    if isinstance(expected, RefType) and isinstance(actual, RefType):
        if actual.mutability.allows(expected.mutability):
            return types_compatible(expected.pointee, actual.pointee)
    if isinstance(expected, TupleType) and isinstance(actual, TupleType):
        if len(expected.elements) != len(actual.elements):
            return False
        return all(
            types_compatible(e, a) for e, a in zip(expected.elements, actual.elements)
        )
    return False


@dataclass
class StructRegistry:
    """A table of struct definitions visible to a crate.

    The registry owns the canonical :class:`StructType` for each struct name;
    the parser initially produces "unresolved" struct types containing only a
    name, and the type checker replaces them with registry entries so field
    lookups work everywhere downstream.
    """

    structs: Dict[str, StructType] = field(default_factory=dict)

    def define(self, struct: StructType) -> None:
        self.structs[struct.name] = struct

    def lookup(self, name: str) -> Optional[StructType]:
        return self.structs.get(name)

    def resolve(self, ty: Type) -> Type:
        """Replace name-only struct types inside ``ty`` with full definitions."""
        if isinstance(ty, StructType):
            known = self.lookup(ty.name)
            if known is not None:
                return known
            # Unknown here: back to the name-only form the parser builds, so
            # a type resolved against another registry keeps no stale fields.
            return StructType(name=ty.name) if ty.fields or ty.opaque else ty
        if isinstance(ty, RefType):
            return RefType(self.resolve(ty.pointee), ty.mutability, ty.lifetime)
        if isinstance(ty, TupleType):
            return TupleType(tuple(self.resolve(t) for t in ty.elements))
        if isinstance(ty, FnType):
            return FnType(tuple(self.resolve(t) for t in ty.params), self.resolve(ty.ret))
        return ty

    def names(self) -> List[str]:
        return sorted(self.structs)


def projection_type(ty: Type, index: int) -> Optional[Type]:
    """Type of the ``index``-th field of a tuple or struct type, if any."""
    if isinstance(ty, TupleType):
        if 0 <= index < len(ty.elements):
            return ty.elements[index]
        return None
    if isinstance(ty, StructType):
        if 0 <= index < len(ty.fields):
            return ty.fields[index][1]
        return None
    return None


def num_fields(ty: Type) -> int:
    """Number of direct fields of a tuple/struct type (0 otherwise)."""
    if isinstance(ty, TupleType):
        return len(ty.elements)
    if isinstance(ty, StructType):
        return len(ty.fields)
    return 0
