// Package bench is the harness that regenerates the paper's evaluation:
// Table 2 and Figures 2, 3, 6, 7, 8 and 9 (see DESIGN.md §3 for the
// experiment index). It builds every backend over the SOSD-style datasets,
// measures lookup latency and build time, and replays instrumented access
// traces through the cache simulator for the miss-count figures.
//
// The backend set is not wired here: the harness enumerates the
// declarative registry of internal/index (DESIGN.md §7) and probes
// capability interfaces (Tracer) where a figure needs them, so
// adding a backend to the registry adds it to Table 2, Fig. 7 and the
// conformance suite with no harness change.
package bench
