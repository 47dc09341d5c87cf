package chaos

import (
	"context"

	"objalloc/internal/engine"
	"objalloc/internal/splitmix"
)

// Search runs count randomized variants of the base scenario in parallel
// (workers ≤ 0 means one per core) and returns their results in variant
// order — the ordering, like each variant's seed (derived from the base
// seed by a splitmix64 stream), is independent of the parallelism, so a
// search's output is byte-reproducible at any -parallel. Scenarios that
// fail to even start (bad shape) surface as the error.
func Search(ctx context.Context, base Scenario, count, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = engine.DefaultParallelism()
	}
	return engine.Collect(ctx, count, workers, func(_ context.Context, i int) (Result, error) {
		variant := base
		variant.Seed = splitmix.Mix(base.Seed + uint64(i))
		variant.Faults.Seed = 0 // re-derive from the variant seed
		return Run(variant, nil)
	})
}
