package engine

import (
	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// MemSource serves in-memory chunks as a scan source. It honors projection
// (column subsetting) but, having no row-group statistics, ignores prune
// predicates. Used for driver-side tables and tests.
type MemSource struct {
	TableSchema *columnar.Schema
	Chunks      []*columnar.Chunk
}

// NewMemSource wraps chunks sharing one schema.
func NewMemSource(schema *columnar.Schema, chunks ...*columnar.Chunk) *MemSource {
	return &MemSource{TableSchema: schema, Chunks: chunks}
}

// Schema returns the table schema.
func (m *MemSource) Schema() (*columnar.Schema, error) { return m.TableSchema, nil }

// Scan yields each chunk, projected.
func (m *MemSource) Scan(proj []string, _ []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	for _, c := range m.Chunks {
		out := c
		if proj != nil {
			p, err := c.Project(proj...)
			if err != nil {
				return err
			}
			out = p
		}
		if err := yield(out); err != nil {
			return err
		}
	}
	return nil
}
