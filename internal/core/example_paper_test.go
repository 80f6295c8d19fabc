package core

// This file pins the paper's two fully-worked examples:
//
//   - Fig. 5: a 100-key index in [0, 999] with the model Fθ(x) = x/1000
//     (prediction [x/10]) and a full-size (M = N) range-mode layer.
//   - Table 1: the same index with a compact M = 30 midpoint layer.
//
// The paper shows only a fragment of the key array; the dataset below is
// constructed to agree with every shown position: keys 0,1,2,3 at indexes
// 0-3, key 5 at index 4, keys 752,769,770,771,782,785,820,830 at indexes
// 34-41, and key 999 at index 99 (filler regions are chosen to keep the
// shown partitions' contents exact).

import (
	"testing"

	"repro/internal/kv"
)

// paperModel is the paper's worked-example model Fθ(x) = x/1000 over
// N = 100 records: prediction [N·Fθ(x)] = [x/10].
type paperModel struct{ n int }

func (m paperModel) Predict(k uint64) int {
	p := int(k / 10)
	if p >= m.n {
		p = m.n - 1
	}
	return p
}
func (m paperModel) Monotone() bool { return true }
func (m paperModel) SizeBytes() int { return 8 }
func (m paperModel) Name() string   { return "paper-x/1000" }

// paperKeys builds the 100-key dataset of Fig. 5 / Table 1.
func paperKeys() []uint64 {
	keys := make([]uint64, 100)
	// Indexes 0-4: the figure's leading records 0,1,2,3,5.
	copy(keys, []uint64{0, 1, 2, 3, 5})
	// Indexes 5-33: filler strictly between 5 and 752, spaced so that
	// partitions 1 ([10,19]) and 77 ([770,779]) keep the paper's contents.
	// 29 keys: 21, 42, 63, ... (step 21) reach 630 < 734.
	for i := 5; i < 34; i++ {
		keys[i] = uint64(21 * (i - 4))
	}
	// Indexes 34-41: the records shown in Table 1.
	copy(keys[34:], []uint64{752, 769, 770, 771, 782, 785, 820, 830})
	// Indexes 42-99: filler in (830, 999], ending exactly at 999. Start at
	// 840 so no filler key predicts into partition 24 (preds 80-83), whose
	// contents Table 1 fixes as {820, 830}.
	for i := 42; i < 100; i++ {
		keys[i] = uint64(840 + 2*(i-42))
	}
	keys[99] = 999
	return keys
}

func TestPaperFig5RangeLayer(t *testing.T) {
	keys := paperKeys()
	if !kv.IsSorted(keys) {
		t.Fatal("paper dataset must be sorted")
	}
	tab, err := Build(keys, paperModel{100}, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5: prediction for query 771 is k = 77 with correction
	// Δ77 = −41, C77 = 2, so local search covers indexes [36, 37].
	if lo, hi := tab.Window(771); lo != 36 || hi != 37 {
		t.Errorf("Window(771) = [%d,%d], want [36,37] (paper Fig. 5)", lo, hi)
	}
	if got := tab.Find(771); got != 37 {
		t.Errorf("Find(771) = %d, want 37", got)
	}
	if got := tab.Find(782); got != 38 {
		t.Errorf("Find(782) = %d, want 38", got)
	}
	// §3.1: queries 778 and 781 are non-indexed and straddle partition
	// boundaries; both must resolve to index 38 (the record 782).
	if got := tab.Find(778); got != 38 {
		t.Errorf("Find(778) = %d, want 38 (just-after-window case)", got)
	}
	if got := tab.Find(781); got != 38 {
		t.Errorf("Find(781) = %d, want 38", got)
	}
}

func TestPaperFig5EmptyPartition(t *testing.T) {
	keys := paperKeys()
	tab, err := Build(keys, paperModel{100}, Config{Mode: ModeRange})
	if err != nil {
		t.Fatal(err)
	}
	// §3.1: query 15 predicts partition 1, which is empty (no key lies in
	// [10, 19]); the result must be the first record of the next non-empty
	// partition — key 21 at index 1 of our filler (the paper's dataset
	// fragment differs here, but the semantics are identical).
	if got := tab.Find(15); got != kv.LowerBound(keys, 15) {
		t.Errorf("Find(15) = %d, want %d via empty-partition backfill", got, kv.LowerBound(keys, 15))
	}
	// Every query in the empty partition's key range resolves correctly.
	for q := uint64(10); q <= 19; q++ {
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Errorf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestPaperTable1CompactLayer(t *testing.T) {
	keys := paperKeys()
	tab, err := Build(keys, paperModel{100}, Config{Mode: ModeMidpoint, M: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tab.M() != 30 {
		t.Fatalf("M = %d, want 30", tab.M())
	}
	// Table 1's partition mapping uses [0.03x] on raw keys; our layer
	// derives partitions from the quantised prediction ([pred·M/N], see
	// partitionOf), which assigns key 769 (pred 76) to partition 22 rather
	// than the paper's 23. Every other shown key agrees, and 769's
	// corrected prediction becomes exact (error 0) instead of the paper's
	// error 1.
	wantCorrected := map[uint64]int{
		752: 34, // paper: 34, error 0
		769: 35, // paper: 36, error 1 — see note above
		770: 37, // paper: 37
		771: 37, // paper: 37
		782: 38, // paper: 38
		785: 38, // paper: 38
		820: 40, // paper: 40
		830: 41, // paper: 41
	}
	for q, want := range wantCorrected {
		lo, _ := tab.Window(q)
		if lo != want {
			t.Errorf("corrected prediction for %d = %d, want %d (paper Table 1)", q, lo, want)
		}
	}
	// The midpoint shifts for the three shown partitions: Δ̄22 = −41,
	// Δ̄23 = −40, Δ̄24 = −42 (Table 1; partition 22's content differs by
	// the quantisation note above but its mean is unchanged at −41).
	for _, c := range []struct{ part, want int }{{22, -41}, {23, -40}, {24, -42}} {
		if got := tab.drift.get(c.part); got != c.want {
			t.Errorf("midpoint shift of partition %d = %d, want %d", c.part, got, c.want)
		}
	}
	// Regardless of the exact shifts, lookups are exact.
	for q := range wantCorrected {
		if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
			t.Errorf("Find(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestPaperFig5AllQueriesCorrect(t *testing.T) {
	keys := paperKeys()
	for _, cfg := range []Config{
		{Mode: ModeRange},
		{Mode: ModeRange, M: 30},
		{Mode: ModeMidpoint},
		{Mode: ModeMidpoint, M: 30},
	} {
		tab, err := Build(keys, paperModel{100}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for q := uint64(0); q <= 1005; q++ {
			if got, want := tab.Find(q), kv.LowerBound(keys, q); got != want {
				t.Fatalf("cfg %v/%d: Find(%d) = %d, want %d", cfg.Mode, cfg.M, q, got, want)
			}
		}
	}
}
