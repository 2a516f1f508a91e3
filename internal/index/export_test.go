package index

// Cursors exposes the interleaved descent's window to the external test
// package, whose batch-parity sizes straddle it.
const Cursors = cursors
