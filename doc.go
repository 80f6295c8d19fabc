// Package repro is a from-scratch Go reproduction of "Shift-Table: A
// Low-latency Learned Index for Range Queries using Model Correction"
// (Hadian & Heinis, EDBT 2021).
//
// The repository implements the Shift-Table correction layer
// (internal/core), the learned-index and algorithmic baselines the paper
// evaluates against (internal/rmi, internal/radixspline, internal/pgm,
// internal/btree, internal/art, internal/fasttree, internal/rbs,
// internal/search), the SOSD-style dataset suite (internal/dataset), a
// cache-hierarchy simulator used to reproduce the paper's cache-miss
// measurements (internal/memsim), and a benchmark harness that regenerates
// every table and figure in the paper's evaluation (internal/bench).
//
// Beyond the paper, the query layer has a batched engine (DESIGN.md §5):
// core.Table.FindBatch runs a staged pipeline — one
// cdfmodel.PredictBatch call per chunk, drift-entry gathers with the
// packed-width switch hoisted out of the inner loop, and one lockstep,
// branch-free window search whose independent cache misses overlap
// instead of serialising. Batch results are bit-identical to the scalar
// path (property tested), and existence checks and range bounds are read
// off the batch ranks; see examples/batch for usage and `figures -fig
// batch` for the throughput sweep.
//
// Construction mirrors it (DESIGN.md §8): one build pipeline behind
// core.Build and core.Table.BuildNext streams the keys — with a monotone
// model each partition's keys are one run, so every worker walks its
// shard of the keys, predicting a chunk at a time, verifies the keys and
// writes each partition's entry as soon as its run ends, straight into
// the packed layer at a guessed width, rewritten in a second pass only
// when the narrowest width that fits is another. Nothing besides
// the layer is allocated per key or per partition. Range mode stores
// M+1 lower bounds: a lookup in partition k reads lo[k] and lo[k+1],
// adjacent entries, and its window ends where partition k+1's begins.
// Models whose predictions fall over the keys (a non-monotone cubic, or
// one that mis-declares Monotone) build through per-partition
// accumulators instead, and a range table whose partitions fell does
// not trust its windows: Find validates its answers. Partition counts are swept from the model when an analysis
// asks for them, not stored. Compaction's rebuild chain reuses the
// predecessor's scratch pool through BuildNext. Every worker count is
// property-tested bit-identical to the accumulator; BenchmarkBuild
// times them.
//
// Every backend — the Shift-Table and the whole competitor set —
// implements the unified index abstraction of internal/index (DESIGN.md
// §7): one core Index contract (Find/Len/Name/SizeBytes) plus optional
// capability interfaces (BatchFinder, Tracer, CostEstimator),
// registered in a declarative registry the bench harness, the cmd
// front-ends and one cross-backend conformance suite enumerate.
// On top of it, internal/router is a range-partitioned hybrid index: the
// paper's §3.7 cost model, generalised to the CostEstimator capability,
// picks the cheapest backend per key-space shard (a bare interpolation
// over smooth regions, model+Shift-Table over drift-heavy ones, a
// B+tree or radix spline where even corrected windows stay wide). See
// examples/multibackend for usage and `figures -fig router` for the
// hybrid-vs-homogeneous sweep.
//
// The updatable index (internal/concurrent, DESIGN.md §6) realises the
// paper's future-work direction over an immutable base
// (internal/updatable): reads — scalar, batched, and scans — load an
// immutable snapshot through an atomic pointer and never block, writes
// serialise onto bounded immutable write generations, and a
// background compactor rebuilds the base Shift-Table off to the side,
// publishing it with a single pointer swap that replays mid-rebuild
// writes. See examples/concurrent for usage.
//
// Every index persists as a verified snapshot (internal/snapshot,
// DESIGN.md §9): a versioned, checksummed, atomically-renamed container
// holding keys, model identity and layer — and for the updatable index
// its pending write generations — so a serving restart warm-loads
// instead of rebuilding from raw keys.
// Backends implement the index.Persister capability; loaders never trust
// a header field they have not bounded, and nothing is served until the
// trailing checksum verifies. See examples/persist for the walkthrough,
// `shifttool -save/-load` for the CLI path, and BenchmarkWarmStart for
// cold build vs warm load vs mapped open.
//
// Snapshot layout v2 makes warm start zero-copy (internal/mapped,
// DESIGN.md §12): sections are page-aligned and individually CRC'd, so
// the key and drift arrays are viewed in place over a refcounted
// mmap region instead of decoded — the open parses a fixed-size footer
// and table of contents and is O(sections), not O(keys): BenchmarkWarmStart
// at 10M keys opens mapped 241x faster than the heap load on a 2-vCPU
// Xeon (0.81 ms vs 195 ms). Every full is written in this layout and
// only this layout is served: a full an earlier build wrote is refused
// with snapshot.ErrLegacy, and `shifttool -load OLD -save NEW` migrates
// it offline (internal/migrate, DESIGN.md §13). A nommap build tag and
// non-unix ports fall back to heap reads behind the same API, and
// replicas map their fetch-verified artifacts with a path registry that
// defers spool GC while a mapping is live. /statusz reports the mapped
// bytes and the process's page-fault counts. See
// `shifttool -load -mmap`. internal/mapped also makes the heap arrays a
// built table's lookups read (the key run, the compactor's merged run,
// the packed layer and the nommap read buffer) through MakeHuge, which
// advises their 2 MiB-aligned interiors for transparent huge pages
// (DESIGN.md §8); mapped files stay on the page cache's 4 KiB pages.
//
// Snapshots replicate (internal/replica, DESIGN.md §10): a primary
// publishes versioned fulls and generation deltas into a manifest-rooted
// store (local directory or HTTP), and replicas fetch with retry,
// backoff and per-attempt timeouts, verify every byte — CRC-32C, model
// fingerprint, key count — off the serving path, and atomically swap.
// On persistent failure a replica keeps serving its last-good version
// and reports staleness; after a crash it warm-restarts from re-verified
// local state without the network. The injected-fault matrix and the
// kill/restart torture harness live in internal/replica's tests. See
// cmd/shiftrepl for the publish/fetch/serve CLI.
//
// Replicas are fronted by a networked serving tier (internal/serve,
// DESIGN.md §11): a hardened HTTP/JSON server (timeouts, bounded
// headers, graceful signal-driven drain) with per-request admission
// control, and a flat-combining request coalescer that merges
// concurrently-arriving point lookups into FindBatchTagged waves of up
// to 256 — one snapshot load and one staged pipeline pass per wave,
// bit-identical to the scalar path (property tested under concurrent
// version installs). Every response carries the snapshot version tag
// that produced it, and the primary writes a scan-derived oracle for a
// version before publishing it, so a load generator can verify every
// answer end to end. See cmd/shiftserver for the server, cmd/shiftload
// for the verifying open-loop load generator, and cmd/shiftbench for
// the end-to-end lookup benchmark.
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results. Root-level benchmarks in
// bench_test.go regenerate each table and figure; the cmd/ binaries produce
// the same series as CSV.
package repro
