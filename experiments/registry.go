package experiments

// Experiment is one lazily-runnable registry entry: the short identifier
// (what `rvx -only` matches) paired with the thunk that regenerates its
// table. Keeping the registry lazy is what makes rvx's -only filter
// actually skip work instead of discarding tables already computed.
type Experiment struct {
	ID  string
	Run func() *Table
}

// Registry returns every experiment E1-E19 in order, unexecuted. full
// enables the heavier variants (the ring-4 symmetric UniversalRV case in
// E7, the h=12 build in E9, and E17's full sweep grid).
func Registry(full bool) []Experiment {
	return []Experiment{
		{"E1", E1},
		{"E2", E2},
		{"E3", E3},
		{"E4", E4},
		{"E5", E5},
		{"E6", E6},
		{"E7", func() *Table { return E7(full) }},
		{"E8", E8},
		{"E9", func() *Table { return E9(full) }},
		{"E10", E10},
		{"E11", E11},
		{"E12", E12},
		{"E13", E13},
		{"E14", E14},
		{"E15", E15},
		{"E16", E16},
		{"E17", func() *Table { return E17(full) }},
		{"E18", E18},
		{"E19", E19},
	}
}
