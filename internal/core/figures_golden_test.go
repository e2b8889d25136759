package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The goldens under testdata/figures pin every registry figure at
// tinyScale; regenerate with -update-figure-goldens only for an
// intentional, reviewed output change.
var updateFigureGoldens = flag.Bool("update-figure-goldens", false,
	"rewrite testdata/figures/*.golden from the current figure output")

// TestQueryDisabledByteIdentical pins every registry figure byte for
// byte. With Config.Queries unset (the default — tinyScale sets no query
// specs) the pre-query figures render exactly as they did before the
// query subsystem landed: attaching derived-data queries reshapes
// repository needs and the overlay, so the layer must be provably inert
// when unused — the same contract TestObsDisabledByteIdentical enforces
// for observability. The query, virtual-serving and disk-recovery
// figures are pinned too, so refactors of the layers they exercise must
// keep their output exact.
func TestQueryDisabledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	registry := Figures()
	goldens, err := filepath.Glob(filepath.Join("testdata", "figures", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !*updateFigureGoldens && len(goldens) == 0 {
		t.Fatal("no figure goldens; run with -update-figure-goldens first")
	}
	covered := make(map[string]bool)
	for _, path := range goldens {
		covered[figureIDFromGolden(path)] = true
	}
	for id, fn := range registry {
		if !*updateFigureGoldens && !covered[id] {
			t.Errorf("figure %s has no golden; run with -update-figure-goldens", id)
			continue
		}
		id, fn := id, fn
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := fn(tinyScale())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := fig.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "figures", id+".golden")
			if *updateFigureGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("figure %s output drifted from its golden:\n--- golden ---\n%s\n--- got ---\n%s",
					id, want, buf.Bytes())
			}
		})
	}
}

// figureIDFromGolden maps testdata/figures/<id>.golden back to the id.
func figureIDFromGolden(path string) string {
	base := filepath.Base(path)
	return base[:len(base)-len(".golden")]
}
