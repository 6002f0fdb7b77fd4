package sweep

// Grid declares a parameter sweep: the cartesian product of every non-empty
// axis, expanded in row-major order (Algorithms outermost, Scenarios
// innermost). An empty axis contributes a single zero value, so a Grid only
// names the dimensions it actually varies — a driver that sweeps message
// sizes for two transports sets just MsgBytes and Transports.
type Grid struct {
	Algorithms []string `json:"algorithms,omitempty"`
	// Workloads names internal/workload presets ("fsdp-inc", ...) for
	// application-level sweeps. Empty means no workload axis, exactly as
	// before the axis existed.
	Workloads  []string `json:"workloads,omitempty"`
	Nodes      []int    `json:"nodes,omitempty"`
	MsgBytes   []int    `json:"msg_bytes,omitempty"`
	Transports []string `json:"transports,omitempty"`
	Threads    []int    `json:"threads,omitempty"`
	ChunkSizes []int    `json:"chunk_sizes,omitempty"`
	// Scenarios names internal/scenario presets to run each point under
	// ("quiet", "flap-spine", ...). Empty means the quiet fabric, exactly
	// as before the axis existed.
	Scenarios []string `json:"scenarios,omitempty"`
	// Seed is the base seed; each expanded point derives its own with
	// PointSeed(Seed, index). Zero is a valid base.
	Seed uint64 `json:"seed,omitempty"`
}

func orStr(axis []string) []string {
	if len(axis) == 0 {
		return []string{""}
	}
	return axis
}

func orInt(axis []int) []int {
	if len(axis) == 0 {
		return []int{0}
	}
	return axis
}

// Points returns the number of specs Expand will produce.
func (g Grid) Points() int {
	n := 1
	for _, k := range []int{
		len(orStr(g.Algorithms)), len(orStr(g.Workloads)),
		len(orInt(g.Nodes)), len(orInt(g.MsgBytes)), len(orStr(g.Transports)),
		len(orInt(g.Threads)), len(orInt(g.ChunkSizes)), len(orStr(g.Scenarios)),
	} {
		n *= k
	}
	return n
}

// Expand materializes the grid as one Spec per point, in deterministic
// row-major order with per-point seeds derived from the grid index.
func (g Grid) Expand() []Spec {
	specs := make([]Spec, 0, g.Points())
	idx := 0
	for _, alg := range orStr(g.Algorithms) {
		for _, wl := range orStr(g.Workloads) {
			for _, nodes := range orInt(g.Nodes) {
				for _, msg := range orInt(g.MsgBytes) {
					for _, tr := range orStr(g.Transports) {
						for _, th := range orInt(g.Threads) {
							for _, cs := range orInt(g.ChunkSizes) {
								for _, sc := range orStr(g.Scenarios) {
									specs = append(specs, Spec{
										Algorithm: alg, Workload: wl,
										Nodes: nodes, MsgBytes: msg, Transport: tr,
										Threads: th, ChunkSize: cs,
										Scenario: sc,
										Seed:     PointSeed(g.Seed, idx),
										Index:    idx,
									})
									idx++
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}

// Concat joins several expanded spec lists into one sweep, reindexing the
// points so indices stay unique (seeds are left as derived by each grid —
// give grids distinct base seeds when independence matters). Drivers use it
// to compose sweeps whose axes are linked and so not a pure product, e.g.
// Figure 5's "CPU at 1 thread vs DPA at 16 threads".
func Concat(lists ...[]Spec) []Spec {
	var out []Spec
	for _, l := range lists {
		for _, s := range l {
			s.Index = len(out)
			out = append(out, s)
		}
	}
	return out
}
