package ctr

// The width ablations (ablation_test.go) sit in the external test package
// so that they can draw internal/workload's writeback streams (workload
// imports this package). These hand them the test-only references.
var (
	NewRefDelta = newRefDelta
	NewRefSplit = newRefSplit
)
