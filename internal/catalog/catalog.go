// Package catalog models logical schemas, horizontal partitioning and
// replica placement for a federation of autonomous DBMS nodes.
//
// Following the paper's setting, the *logical* schema (table and column
// definitions, and the predicates that define horizontal partitions) is
// public knowledge across the federation, while *placement* — which node
// holds which fragment, with what statistics, at what load — is private to
// each node. The global Placement type exists only for workload construction
// and for the centralized baseline optimizer, which is deliberately given
// full knowledge the QT algorithm never uses.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name string
	Kind value.Kind
}

// TableDef describes a logical table.
type TableDef struct {
	Name    string
	Columns []ColumnDef
}

// ColumnIndex returns the position of the named column, or -1.
func (t *TableDef) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnIDs returns the expr binding schema of the table exposed under the
// given alias (the table name itself when alias is empty).
func (t *TableDef) ColumnIDs(alias string) []expr.ColumnID {
	if alias == "" {
		alias = t.Name
	}
	out := make([]expr.ColumnID, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = expr.ColumnID{Table: alias, Name: c.Name}
	}
	return out
}

// Partition is one horizontal fragment of a table, defined by a predicate
// over the table's columns (the paper's `office='Myconos'` style fragments).
// A table with a single partition whose predicate is nil is unpartitioned.
type Partition struct {
	Table     string
	ID        string
	Predicate expr.Expr // not changed once the partition is in use

	analysed sync.Once
	sel      *expr.Selection
}

// Selection is the defining predicate analysed for the partition test, once
// per partition however many queries are tested against it; nil for a
// whole-table partition.
func (p *Partition) Selection() *expr.Selection {
	p.analysed.Do(func() {
		if p.Predicate != nil {
			p.sel = expr.AnalyzeSelection(expr.Conjuncts(p.Predicate))
		}
	})
	return p.sel
}

// Key returns the canonical fragment identity "table/id".
func (p *Partition) Key() string {
	return strings.ToLower(p.Table) + "/" + p.ID
}

// Schema is the public logical schema of the federation: tables and their
// partitioning scheme.
type Schema struct {
	tables     map[string]*TableDef
	partitions map[string][]*Partition
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: map[string]*TableDef{}, partitions: map[string][]*Partition{}}
}

// AddTable registers a table definition. Adding a table implicitly creates a
// single whole-table partition "p0" unless partitions are defined later.
func (s *Schema) AddTable(t *TableDef) error {
	key := strings.ToLower(t.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	seen := map[string]bool{}
	for _, c := range t.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, c.Name)
		}
		seen[lc] = true
	}
	s.tables[key] = t
	return nil
}

// MustAddTable registers a table or panics; for fixture construction.
func (s *Schema) MustAddTable(t *TableDef) {
	if err := s.AddTable(t); err != nil {
		panic(err)
	}
}

// Table resolves a table definition by name (case-insensitive).
func (s *Schema) Table(name string) (*TableDef, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all table definitions sorted by name.
func (s *Schema) Tables() []*TableDef {
	out := make([]*TableDef, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetPartitions defines the horizontal partitioning of a table. The caller
// asserts the predicates are disjoint and jointly cover the table; the
// property tests in the workload package verify this for generated schemas.
func (s *Schema) SetPartitions(table string, parts []*Partition) error {
	key := strings.ToLower(table)
	if _, ok := s.tables[key]; !ok {
		return fmt.Errorf("catalog: unknown table %q", table)
	}
	if len(parts) == 0 {
		return fmt.Errorf("catalog: table %q needs at least one partition", table)
	}
	ids := map[string]bool{}
	for _, p := range parts {
		if !strings.EqualFold(p.Table, table) {
			return fmt.Errorf("catalog: partition %q belongs to table %q, not %q", p.ID, p.Table, table)
		}
		if ids[p.ID] {
			return fmt.Errorf("catalog: duplicate partition id %q for table %q", p.ID, table)
		}
		ids[p.ID] = true
	}
	s.partitions[key] = parts
	return nil
}

// Partitions returns the partition list of a table. A table without explicit
// partitions reports a single implicit whole-table partition "p0".
func (s *Schema) Partitions(table string) []*Partition {
	key := strings.ToLower(table)
	if ps, ok := s.partitions[key]; ok {
		return ps
	}
	if t, ok := s.tables[key]; ok {
		return []*Partition{{Table: t.Name, ID: "p0"}}
	}
	return nil
}

// Partition resolves one partition by table and id.
func (s *Schema) Partition(table, id string) (*Partition, bool) {
	for _, p := range s.Partitions(table) {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// PartitionIDs returns the ids of a table's partitions in definition order.
func (s *Schema) PartitionIDs(table string) []string {
	ps := s.Partitions(table)
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

// Clone returns a copy of the schema: its own tables and partitions, sharing
// the partitions' predicates (an expression is never written).
func (s *Schema) Clone() *Schema {
	out := NewSchema()
	for _, t := range s.tables {
		cols := append([]ColumnDef(nil), t.Columns...)
		out.tables[strings.ToLower(t.Name)] = &TableDef{Name: t.Name, Columns: cols}
	}
	for k, ps := range s.partitions {
		cp := make([]*Partition, len(ps))
		for i, p := range ps {
			cp[i] = &Partition{Table: p.Table, ID: p.ID, Predicate: p.Predicate}
		}
		out.partitions[k] = cp
	}
	return out
}

// FragmentRef names one replica-independent fragment.
type FragmentRef struct {
	Table string
	Part  string
}

// Key returns the canonical "table/part" identity.
func (f FragmentRef) Key() string { return strings.ToLower(f.Table) + "/" + f.Part }

// Placement records which nodes hold which fragments. It is global knowledge
// available only to workload construction and the centralized baseline.
type Placement struct {
	byFrag map[string][]string // fragment key -> node ids (replicas)
	byNode map[string][]FragmentRef
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{byFrag: map[string][]string{}, byNode: map[string][]FragmentRef{}}
}

// Assign places a fragment replica on a node. Assigning the same pair twice
// is a no-op.
func (p *Placement) Assign(node string, f FragmentRef) {
	k := f.Key()
	for _, n := range p.byFrag[k] {
		if n == node {
			return
		}
	}
	p.byFrag[k] = append(p.byFrag[k], node)
	p.byNode[node] = append(p.byNode[node], f)
}

// Holders returns the nodes holding a replica of the fragment.
func (p *Placement) Holders(f FragmentRef) []string {
	return append([]string(nil), p.byFrag[f.Key()]...)
}

// Nodes returns all node ids mentioned by the placement, sorted.
func (p *Placement) Nodes() []string {
	out := make([]string, 0, len(p.byNode))
	for n := range p.byNode {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
