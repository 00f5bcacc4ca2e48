//go:build race

package cluster_test

// raceEnabled: allocation bounds do not hold under the race detector, which
// makes sync.Pool drop a random share of the buffers returned to it.
const raceEnabled = true
