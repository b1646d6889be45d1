// Package shard is the deterministic spatial-partitioning layer under the
// million-node grid worlds (DESIGN.md §13): it splits the grid's cell
// indices into contiguous bands, one per shard, and materializes that split
// into a Plan — per-shard key lists plus the halo of foreign cells each
// shard must read at a tick boundary.
//
// Everything here is a pure function of (key count, shard count): ownership
// never draws from an RNG stream and never depends on scheduling, so the
// same world partitioned into 1, 4, or 16 shards assigns keys identically
// on every run. gridsim's synchronous sharded tick relies on that to keep
// study output byte-identical at any shard count, because ownership only
// decides which worker computes a cell, never what the cell computes.
package shard

// SplitMix64 constants (Steele, Lea & Flood, OOPSLA 2014). Gamma is
// exported so engines can derive per-(cell, step) counter keys in the same
// family as parallel.DeriveSeed without importing a second mixing scheme.
const (
	Gamma = 0x9E3779B97F4A7C15
	mul1  = 0xBF58476D1CE4E5B9
	mul2  = 0x94D049BB133111EB
)

// Mix is the SplitMix64 finalizer: a fixed bijective avalanche on 64 bits.
// Engines use it to turn a (seed, step, key) counter into an independent
// draw — the counter-mode RNG that makes a sharded tick's randomness a pure
// function of position and time instead of a shared sequential stream.
func Mix(z uint64) uint64 {
	z ^= z >> 30
	z *= mul1
	z ^= z >> 27
	z *= mul2
	z ^= z >> 31
	return z
}
