package server

// PoolSize is the number of workers a Server runs for its queue, for tests
// that park all of them.
var PoolSize = poolSize
