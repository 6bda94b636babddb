// Package sets provides the candidate-set representation used by the
// NETEMBED filter matrices and search inner loops.
//
// Candidate sets are Bitsets: fixed-universe packed bitmaps over the host
// nodes whose binary operations are word-parallel, so an intersection
// costs ⌈n/64⌉ machine ops regardless of cardinality. The search inner
// loops are dominated by such intersections, so the operations are
// written to be allocation-conscious: they overwrite a caller-owned
// bitset, and Bitset.AppendTo lists the members into a caller-provided
// Set, the ascending form the ordering heuristics and results read.
package sets

// Set is an ascending, duplicate-free slice of int32 element IDs: a
// candidate set listed out of its Bitset (Bitset.AppendTo, FromSet).
type Set = []int32
