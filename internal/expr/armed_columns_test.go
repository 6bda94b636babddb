package expr_test

import (
	"netembed/internal/expr"
	"netembed/internal/graph"
	"netembed/internal/index"
)

// The batch tests run every program through index.Columns with its range
// indexes armed. index imports expr, so expr's own test files cannot
// import index; this file, in the external test package of the same
// binary, hands them the constructor before any test runs.
func init() {
	expr.ArmedColumns = func(g *graph.Graph, attrs []string) expr.Columns {
		cols := index.NewColumns(g)
		for _, attr := range attrs {
			for _, col := range []*graph.Column{cols.EdgeColumn(attr), cols.NodeColumn(attr)} {
				if col != nil {
					cols.Range(col) // builds it; nil for a string payload
				}
			}
		}
		return cols
	}
}
