package index

// LevelWiseMin exposes the serial/level-wise crossover to the external
// test package, whose batch-parity sizes straddle it.
const LevelWiseMin = levelWiseMin
