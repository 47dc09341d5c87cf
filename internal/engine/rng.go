package engine

import (
	"math/rand"

	"objalloc/internal/splitmix"
)

// TaskSeed derives a deterministic per-task seed from a base seed and a
// task index: the splitmix64 output at state base + index·Golden.
// Distinct indices yield decorrelated streams, and the derivation depends only on (base, index)
// — never on which worker runs the task or in what order — so seeded
// parallel runs reproduce exactly.
func TaskSeed(base int64, index int) int64 {
	return int64(splitmix.Mix(uint64(base) + uint64(index)*splitmix.Golden))
}

// TaskRNG returns a rand.Rand seeded with TaskSeed(base, index). Each task
// must use its own RNG: rand.Rand is not safe for concurrent use.
func TaskRNG(base int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(TaskSeed(base, index)))
}
