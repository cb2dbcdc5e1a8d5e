package harness

import "seer/internal/core"

// extVariants returns the extension configurations measured against the
// stock scheduler.
func extVariants() []Variant {
	stock := core.DefaultOptions()

	obj := stock
	obj.ObjLocks = true

	sampled := stock
	sampled.SampleShift = 2 // profile 1 event in 4

	both := obj
	both.SampleShift = 2

	oracle := stock
	oracle.PreciseOracle = true

	return []Variant{
		{"stock", stock},
		{"+obj-locks", obj},
		{"+sampling/4", sampled},
		{"+both", both},
		{"oracle-input", oracle},
	}
}

// extensions measures the future-work extensions the paper's §6
// sketches — object-granular locks and sampled statistics — against the
// stock scheduler. Workloads that pass object identifiers (kmeans does)
// exercise the stripe locks; all workloads exercise sampling.
func extensions(opt Options, a Args) (Output, error) {
	return variantSweep("ext", opt, a, extVariants(), seriesStyle{
		title: "\nExtensions (§6 future work): speedup vs stock Seer\n",
		label: "  %-12[2]s",
	})
}
