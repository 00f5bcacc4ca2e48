package main

import (
	"runtime"

	"authmem"
)

// benchEnv is the measurement environment stamped into every BENCH_*.json
// report. Committed baselines travel between machines and containers, so
// each report records what it ran on: the toolchain, the scheduler width,
// and — critically for any scaling claim — how many CPUs actually existed.
type benchEnv struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func captureEnv() benchEnv {
	return benchEnv{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// benchKeyMaterial is the fixed, obviously-non-secret key every benchmark
// region is built with.
func benchKeyMaterial() []byte {
	k := make([]byte, authmem.KeySize)
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}
