package migrate

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingDoesNotImportMigrate pins that the serving binaries and
// packages never link this package: it walks their non-test imports
// inside the module (go/build over the source tree, no network) and
// fails if repro/internal/migrate is reachable from any of them.
func TestServingDoesNotImportMigrate(t *testing.T) {
	const module, self = "repro", "repro/internal/migrate"
	root := filepath.Join("..", "..")
	reached := map[string]bool{}
	for _, start := range []string{
		"repro/cmd/shiftserver",
		"repro/cmd/shiftrepl",
		"repro/internal/serve",
		"repro/internal/replica",
		"repro/internal/fleet",
	} {
		via := map[string]string{start: ""}
		queue := []string{start}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module+"/")), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if _, done := via[imp]; done || !strings.HasPrefix(imp, module+"/") {
					continue
				}
				via[imp] = path
				if imp == self {
					chain := imp
					for p := path; p != ""; p = via[p] {
						chain = p + " → " + chain
					}
					t.Fatalf("%s reaches %s: %s", start, self, chain)
				}
				queue = append(queue, imp)
			}
		}
		for p := range via {
			reached[p] = true
		}
	}
	// The walk must see the serving side of the format, or it proves
	// nothing.
	if !reached["repro/internal/snapshot"] {
		t.Fatalf("the walk never reached repro/internal/snapshot (%d packages)", len(reached))
	}
}
