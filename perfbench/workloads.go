package main

import (
	episim "repro"
)

// Workload inputs. Each spec is a pure function of the seed: the seed
// becomes the sweep's master seed, which fixes the synthetic population,
// the partitioner's seed and every replicate's seed. Sizes are fixed per
// workload (README.md explains each choice).

// masterSeed maps the benchmark seed onto a non-zero sweep seed (0 would
// be normalized to 1 and alias seed 1).
func masterSeed(seed uint64) uint64 { return seed + 1 }

// engineDenseSpec is BenchmarkSimulate30DaysRR's input as a one-cell
// sweep: 20,000 persons, 5,000 locations, RR over 8 ranks, 30 days, the
// dense kernel, one replicate, one worker.
func engineDenseSpec(seed uint64) *episim.SweepSpec {
	return &episim.SweepSpec{
		Populations:       []episim.SweepPopulation{{Name: "bench", People: 20000, Locations: 5000}},
		Placements:        []episim.SweepPlacement{{Strategy: "RR", Ranks: 8}},
		Replicates:        1,
		Days:              30,
		Seed:              masterSeed(seed),
		InitialInfections: 20,
		AggBufferSize:     64,
		Kernel:            "dense",
		Workers:           1,
	}
}

// sweepColdSpec is a first-time fork sweep: WY at 1:25, GP-splitLoc over
// 16 ranks, four intervention branches forked at day 12 of 28, two
// replicates, the auto kernel, one worker.
func sweepColdSpec(seed uint64) *episim.SweepSpec {
	return &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{State: "WY", Scale: 25}},
		Placements:  []episim.SweepPlacement{{Strategy: "GP", SplitLoc: true, Ranks: 16}},
		Models:      []episim.SweepModel{{Name: "ili-subcritical", Transmissibility: 2e-6}},
		Scenarios:   []episim.SweepScenario{{Name: "baseline"}},
		Interventions: []episim.SweepIntervention{
			{Name: "none"},
			{Name: "school-closure", Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "school", Day: 13, Days: 16}}}},
			{Name: "vaccinate-30", Schedule: episim.InterventionSchedule{
				Vaccinations: []episim.InterventionVaccination{{Day: 13, Fraction: 0.3}}}},
			{Name: "quarantine", Schedule: episim.InterventionSchedule{
				Quarantines: []episim.InterventionQuarantine{{State: "symptomatic", Day: 13, Days: 16}}}},
		},
		ForkDay:           12,
		Replicates:        2,
		Days:              28,
		Seed:              masterSeed(seed),
		InitialInfections: 200,
		Kernel:            "auto",
		Workers:           1,
	}
}

// reactiveSchoolClosure is scenarios/school-closure.txt: close schools
// for two weeks once symptomatic prevalence crosses 0.5%.
const reactiveSchoolClosure = `when prevalence(symptomatic) > 0.005 and day >= 3 {
    close school for 14
}
`

// svcForkSpec is the interactive what-if sweep: a 400-person town, GP
// over 4 ranks, two base scenarios × six intervention branches forked at
// day 30 of 40, two replicates — 12 cells, each restored from a
// checkpoint once the service's cache is warm.
func svcForkSpec(seed uint64) *episim.SweepSpec {
	return &episim.SweepSpec{
		Populations: []episim.SweepPopulation{{Name: "town", People: 400, Locations: 40}},
		Placements:  []episim.SweepPlacement{{Strategy: "GP", Ranks: 4}},
		Models:      []episim.SweepModel{{Name: "ili-fast", Transmissibility: 1e-4}},
		Scenarios: []episim.SweepScenario{
			{Name: "none"},
			{Name: "school-closure", Text: reactiveSchoolClosure},
		},
		Interventions: []episim.SweepIntervention{
			{Name: "none"},
			{Name: "school-closure", Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "school", Day: 31, Days: 10}}}},
			{Name: "vaccinate-30", Schedule: episim.InterventionSchedule{
				Vaccinations: []episim.InterventionVaccination{{Day: 31, Fraction: 0.3}}}},
			{Name: "quarantine", Schedule: episim.InterventionSchedule{
				Quarantines: []episim.InterventionQuarantine{{State: "symptomatic", Day: 31, Days: 10}}}},
			{Name: "work-closure-5", Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "work", Day: 31, Days: 5}}}},
			{Name: "work-closure-10", Schedule: episim.InterventionSchedule{
				Closures: []episim.InterventionClosure{{LocType: "work", Day: 31, Days: 10}}}},
		},
		ForkDay:           30,
		Replicates:        2,
		Days:              40,
		Seed:              masterSeed(seed),
		InitialInfections: 3,
		Kernel:            "auto",
	}
}

// nominalPersonDays is the work a sweep delivers: persons × days ×
// replicates × cells, counting the full horizon of forked cells.
func nominalPersonDays(spec *episim.SweepSpec, persons int) float64 {
	s := *spec
	s.Normalize()
	return float64(persons) * float64(s.Days) * float64(s.Replicates) * float64(len(s.Cells()))
}
