// Package bench holds the summary statistics and table rendering shared
// by the harness exhibits and the performance ledger (benchmark/): grid
// cell enumeration, warmup trimming, trimmed and geometric means, and
// ratio-table rendering. It sits below the harness in the import graph
// (no simulator dependencies).
package bench

// Cross enumerates the cross product of dimension sizes in row-major
// order: Cross(2, 3) yields [0 0], [0 1], [0 2], [1 0], ... — the
// deterministic cell ordering every grid sweep uses. An empty or
// zero-sized dimension yields no cells.
func Cross(dims ...int) [][]int {
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return nil
		}
		total *= d
	}
	out := make([][]int, 0, total)
	idx := make([]int, len(dims))
	for {
		out = append(out, append([]int(nil), idx...))
		i := len(dims) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < dims[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}
