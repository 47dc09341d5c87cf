package competitive

import (
	"context"
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/obs"
)

// CrossoverResult locates, for one cc, the cd at which the measured
// worst-case winner flips from SA to DA.
type CrossoverResult struct {
	CC float64
	// CD is the bisected crossover point; meaningful only when
	// DAEverywhere is false.
	CD float64
	// DAEverywhere reports that DA already wins at the smallest
	// admissible cd (= cc), so no crossover exists in the range.
	DAEverywhere bool
}

// CrossoverSpec configures the crossover bisection.
type CrossoverSpec struct {
	// CC is the fixed control-message cost; the bisection runs over
	// cd in (CC, CDMax].
	CC, CDMax float64
	// Iters is the number of bisection steps; fewer than 1 means 10.
	Iters int
	// Battery is the schedule battery whose worst-case ratios decide the
	// winner at each probed cd.
	Battery BatteryConfig
	// Parallelism bounds the concurrent schedule measurements inside each
	// bisection step (the steps themselves are inherently sequential);
	// zero or negative selects engine.DefaultParallelism.
	Parallelism int
	// Obs attaches the instrumentation layer: each bisection probe emits
	// one "probe" event. Probes are sequential, so emission order is the
	// bisection order for every Parallelism. Nil disables instrumentation.
	Obs *obs.Obs
}

// Normalize validates the spec and resolves its defaults in place: Iters
// below 1 becomes 10. It is the single place CrossoverSpec validation
// happens; Crossover calls it first.
func (spec *CrossoverSpec) Normalize() error {
	if spec.CDMax <= spec.CC {
		return fmt.Errorf("competitive: cdMax (%g) must exceed cc (%g)", spec.CDMax, spec.CC)
	}
	if spec.Iters < 1 {
		spec.Iters = 10
	}
	return nil
}

// Crossover bisects the measured SA/DA crossover on the cd axis for a
// fixed cc, within (cc, cdMax], using bisection over the battery's
// worst-case ratios. The paper's bounds only bracket this point inside
// [0.5−cc, 1]; the measurement pins it down for a concrete battery.
//
// The bisection itself is sequential, but each probe measures SA and DA
// over the whole battery — those 2×|battery| evaluations run on the
// engine's worker pool. Cancelling the context aborts the probe in
// flight and returns ctx.Err().
func Crossover(ctx context.Context, spec CrossoverSpec) (CrossoverResult, error) {
	if err := spec.Normalize(); err != nil {
		return CrossoverResult{}, err
	}
	cc, cdMax, iters := spec.CC, spec.CDMax, spec.Iters
	scheds := spec.Battery.Build()
	initial := spec.Battery.Initial()
	factories := []dom.Factory{dom.StaticFactory, dom.DynamicFactory}
	daWins := func(cd float64) (bool, error) {
		m := cost.SC(cc, cd)
		// One task per (factory, schedule) pair; the per-factory maxima
		// are reduced in battery order, matching the serial WorstRatio.
		ratios, err := engine.Collect(ctx, 2*len(scheds), spec.Parallelism, func(taskCtx context.Context, i int) (float64, error) {
			meas, err := RatioContext(taskCtx, m, factories[i/len(scheds)], scheds[i%len(scheds)], initial, spec.Battery.T)
			if err != nil {
				return 0, err
			}
			return meas.Ratio, nil
		})
		if err != nil {
			return false, err
		}
		sa, da := -1.0, -1.0
		for _, r := range ratios[:len(scheds)] {
			if r > sa {
				sa = r
			}
		}
		for _, r := range ratios[len(scheds):] {
			if r > da {
				da = r
			}
		}
		win := da <= sa
		if o := spec.Obs; o.Enabled() {
			o.Emit(obs.Event{Name: "probe", Attrs: []obs.Attr{
				obs.Float("cc", cc),
				obs.Float("cd", cd),
				obs.Float("sa_worst", sa),
				obs.Float("da_worst", da),
				obs.Bool("da_wins", win),
			}})
			o.Counter("crossover.probes").Inc()
		}
		return win, nil
	}

	lo, hi := cc, cdMax
	win, err := daWins(lo)
	if err != nil {
		return CrossoverResult{}, err
	}
	if win {
		return CrossoverResult{CC: cc, CD: cc, DAEverywhere: true}, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		win, err := daWins(mid)
		if err != nil {
			return CrossoverResult{}, err
		}
		if win {
			hi = mid
		} else {
			lo = mid
		}
	}
	return CrossoverResult{CC: cc, CD: (lo + hi) / 2}, nil
}
