"""Packet layouts: what crosses each selected boundary and how it is packed
(paper §5).

From a boundary's ``ReqComm`` set we derive a :class:`PacketLayout`:

* **columns** — per-record values (fields of the foreach element, and
  per-element temporaries created by earlier stages).  A whole-object path
  (``c``) expands to all fields of its class; a field path (``c.minval``)
  becomes one column — this is the paper's *trimmed class* ``T̄``: only the
  fields any downstream filter touches are materialized;
* **packet fields** — once-per-packet scalars and arrays;
* **reductions** — partial accumulator state crossing the cut.

Packing groups follow §5's rule: fields *first consumed by the receiving
filter* are packed **instance-wise** (interleaved records); fields first
consumed by a later filter are packed **field-wise** (one contiguous region
per field), ordered by the index of the filter that first reads them.
Ragged columns (variable-length per record, e.g. triangles per cube) are
always field-wise — interleaving them would require per-record headers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.boundaries import FilterChain
from ..analysis.reqcomm import CommAnalysis
from ..analysis.values import AccessPath, ElemSel, FieldSel, PathSet
from ..lang.typecheck import CheckedProgram
from ..lang.types import ArrayType, ClassType, PrimType, RectdomainType, Type, VarSymbol

_DTYPES = {
    "boolean": np.dtype(np.bool_),
    "byte": np.dtype(np.int8),
    "int": np.dtype(np.int32),
    "long": np.dtype(np.int64),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}


def dtype_for(t: Type) -> np.dtype:
    if isinstance(t, PrimType) and t.name in _DTYPES:
        return _DTYPES[t.name]
    raise ValueError(f"no packed dtype for type {t}")


def mangle(path_name: str) -> str:
    """``c.minval`` -> ``c__minval`` (a valid Python identifier)."""
    return path_name.replace(".", "__")


@dataclass(slots=True)
class ColumnSpec:
    """One per-record column."""

    name: str  # mangled identifier
    source: str  # dotted path name, e.g. 'c.minval' or 'tris'
    dtype: np.dtype
    ragged: bool = False
    length: int = 1  # scalars: 1; fixed-length arrays: > 1
    group: str = "instance"  # 'instance' | 'fieldwise'
    first_consumer: int = 0  # unit index that first reads it


@dataclass(slots=True)
class PacketFieldSpec:
    """Once-per-packet value (broadcast scalar or whole array)."""

    name: str
    source: str
    dtype: np.dtype
    array: bool = False


@dataclass(slots=True)
class PacketLayout:
    """Everything that crosses one selected boundary, in packing order."""

    columns: list[ColumnSpec] = field(default_factory=list)
    packet_fields: list[PacketFieldSpec] = field(default_factory=list)
    reduction_roots: list[str] = field(default_factory=list)

    def column(self, source: str) -> ColumnSpec | None:
        for col in self.columns:
            if col.source == source:
                return col
        return None

    def instance_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.group == "instance"]

    def fieldwise_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.group == "fieldwise"]

    def sorted_for_packing(self) -> list[ColumnSpec]:
        """Instance group first, then field-wise by first-consumer order —
        the §5 packing order."""
        inst = sorted(self.instance_columns(), key=lambda c: c.name)
        fw = sorted(
            self.fieldwise_columns(), key=lambda c: (c.first_consumer, c.name)
        )
        return inst + fw


def _path_dotted(path: AccessPath) -> str:
    parts = [path.root.name]
    for sel in path.selectors:
        if isinstance(sel, FieldSel):
            parts.append(sel.name)
    return ".".join(parts)


def _elem_type_after(path: AccessPath, checked: CheckedProgram) -> Type | None:
    """Resolve the value type at the end of the selector chain."""
    t: Type | None = path.root.type
    for sel in path.selectors:
        if isinstance(sel, FieldSel):
            if isinstance(t, ClassType):
                try:
                    t = checked.field_type(t.name, sel.name)
                except KeyError:
                    return None
            else:
                return None
        elif isinstance(sel, ElemSel):
            if isinstance(t, ArrayType):
                t = t.elem
            elif isinstance(t, RectdomainType):
                t = t.elem
            else:
                return None
    return t


class LayoutBuilder:
    """Derives :class:`PacketLayout` objects for the cut boundaries of a
    decomposition plan."""

    def __init__(
        self,
        chain: FilterChain,
        analysis: CommAnalysis,
        size_hints: dict[str, object] | None = None,
    ) -> None:
        self.chain = chain
        self.analysis = analysis
        self.checked = chain.checked
        self.size_hints = size_hints or {}

    # -- classification -------------------------------------------------------
    def _is_per_element(self, root: VarSymbol) -> bool:
        if root in self.chain.elem_vars:
            return True
        return root in self.chain.per_element_roots

    def _first_consumer_atom(self, path: AccessPath, after_atom: int) -> int:
        """Index of the first atom past ``after_atom`` whose Cons may read
        ``path`` (drives the §5 instance/field-wise decision)."""
        for idx in range(after_atom, len(self.chain.atoms)):
            facts = self.analysis.atom_facts[idx]
            if facts.cons.may_contain(path):
                return idx + 1  # 1-based atom index
        return len(self.chain.atoms)

    def _fixed_length(
        self, source: str, t: Type, owner_class: str | None = None
    ) -> int | None:
        """Numeric size hints fix a column's length; otherwise arrays are
        ragged.  Hints may be keyed by the dotted path, by Class.field, or
        by the bare field name."""
        parts = source.split(".")
        keys = [source]
        if owner_class is not None and len(parts) >= 2:
            keys.append(f"{owner_class}.{parts[-1]}")
        if len(parts) >= 2:
            keys.append(parts[-1])
        for key in keys:
            hint = self.size_hints.get(key)
            if isinstance(hint, (int, float)):
                return int(hint)
        return None

    def _owning_class_name(self, path: AccessPath) -> str | None:
        """Class declaring the last field selector of ``path``."""
        t = path.root.type
        owner = None
        for sel in path.selectors:
            if isinstance(sel, FieldSel):
                if isinstance(t, ClassType):
                    owner = t.name
                    try:
                        t = self.checked.field_type(t.name, sel.name)
                    except KeyError:
                        return owner
            elif isinstance(sel, ElemSel):
                if isinstance(t, ArrayType):
                    t = t.elem
                elif isinstance(t, RectdomainType):
                    t = t.elem
        return owner

    # -- main entry -----------------------------------------------------------
    def layout_for_boundary(
        self,
        boundary_index: int,
        consumer_unit_atoms: set[int],
        written_before_index: int | None = None,
    ) -> PacketLayout:
        """Layout for cut boundary ``b_{boundary_index}`` (1-based).

        ``consumer_unit_atoms`` — 1-based indices of the atoms running on
        the unit that receives this stream (decides instance-wise packing).
        ``written_before_index`` — atoms considered upstream for the
        reduction scratch rule (defaults to the boundary position; the raw
        input layout passes 0, nothing runs before the source).
        """
        if written_before_index is None:
            written_before_index = boundary_index
        reqcomm: PathSet = self.analysis.reqcomm[boundary_index - 1]
        # only ship accumulators already written upstream; pristine ones
        # are re-allocated by the consumer's init
        written = self.chain.reductions_written_before(written_before_index)
        layout = PacketLayout()
        seen: set[str] = set()
        for path in reqcomm:
            root = path.root
            if root.is_reduction:
                if root.name not in layout.reduction_roots and root in written:
                    layout.reduction_roots.append(root.name)
                continue
            if self._is_per_element(root):
                self._add_element_path(
                    layout, path, boundary_index, consumer_unit_atoms, seen
                )
            else:
                self._add_packet_path(layout, path, seen)
        layout.columns = layout.sorted_for_packing()
        return layout

    # -- helpers ----------------------------------------------------------------
    def _add_element_path(
        self,
        layout: PacketLayout,
        path: AccessPath,
        boundary_index: int,
        consumer_unit_atoms: set[int],
        seen: set[str],
    ) -> None:
        t = _elem_type_after(path, self.checked)
        source = _path_dotted(path)
        if isinstance(t, ClassType):
            # whole-object path: trim to the fields used downstream when
            # they are individually named, else carry every field
            decl = self.checked.class_decls[t.name]
            for f in decl.fields:
                sub = path.field(f.name, self.checked.field_type(t.name, f.name))
                self._add_element_path(
                    layout, sub, boundary_index, consumer_unit_atoms, seen
                )
            return
        if source in seen:
            return
        seen.add(source)
        first_atom = self._first_consumer_atom(path, boundary_index)
        group = "instance" if first_atom in consumer_unit_atoms else "fieldwise"
        if isinstance(t, PrimType):
            layout.columns.append(
                ColumnSpec(
                    name=mangle(source),
                    source=source,
                    dtype=dtype_for(t),
                    ragged=False,
                    length=1,
                    group=group,
                    first_consumer=first_atom,
                )
            )
        elif isinstance(t, ArrayType) and isinstance(t.elem, PrimType):
            owner = self._owning_class_name(path)
            fixed = self._fixed_length(source, t, owner)
            layout.columns.append(
                ColumnSpec(
                    name=mangle(source),
                    source=source,
                    dtype=dtype_for(t.elem),
                    ragged=fixed is None,
                    length=fixed or 1,
                    group="fieldwise" if fixed is None else group,
                    first_consumer=first_atom,
                )
            )
        else:
            raise ValueError(
                f"cannot lay out per-element path {source} of type {t}"
            )

    def _add_packet_path(
        self, layout: PacketLayout, path: AccessPath, seen: set[str]
    ) -> None:
        t = _elem_type_after(path, self.checked)
        source = _path_dotted(path)
        if source in seen:
            return
        if isinstance(t, ClassType):
            for f in self.checked.class_decls[t.name].fields:
                sub = path.field(f.name, self.checked.field_type(t.name, f.name))
                self._add_packet_path(layout, sub, seen)
            return
        if isinstance(t, RectdomainType):
            # the raw collection: expand its element class as columns
            for f in self.checked.class_decls[t.elem.name].fields:
                ftype = self.checked.field_type(t.elem.name, f.name)
                source_f = f"{source}.{f.name}"
                if source_f in seen:
                    continue
                seen.add(source_f)
                if isinstance(ftype, PrimType):
                    layout.columns.append(
                        ColumnSpec(
                            name=mangle(source_f),
                            source=source_f,
                            dtype=dtype_for(ftype),
                            group="instance",
                        )
                    )
                elif isinstance(ftype, ArrayType) and isinstance(
                    ftype.elem, PrimType
                ):
                    fixed = self._fixed_length(source_f, ftype, t.elem.name)
                    layout.columns.append(
                        ColumnSpec(
                            name=mangle(source_f),
                            source=source_f,
                            dtype=dtype_for(ftype.elem),
                            ragged=fixed is None,
                            length=fixed or 1,
                            group="fieldwise" if fixed is None else "instance",
                        )
                    )
            return
        seen.add(source)
        if isinstance(t, PrimType):
            layout.packet_fields.append(
                PacketFieldSpec(
                    name=mangle(source), source=source, dtype=dtype_for(t)
                )
            )
        elif isinstance(t, ArrayType) and isinstance(t.elem, PrimType):
            layout.packet_fields.append(
                PacketFieldSpec(
                    name=mangle(source),
                    source=source,
                    dtype=dtype_for(t.elem),
                    array=True,
                )
            )
        elif t is None:
            # untyped external (e.g. synthesized): carry as double scalar
            layout.packet_fields.append(
                PacketFieldSpec(
                    name=mangle(source),
                    source=source,
                    dtype=np.dtype(np.float64),
                )
            )
        else:
            raise ValueError(f"cannot lay out packet path {source} of type {t}")
