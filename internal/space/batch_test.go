package space

import "testing"

func batchTestSpace() *Space {
	return New(
		DiscreteInts("a", 0, 1, 2, 3),
		DiscreteInts("b", 10, 20),
		Continuous("c", 0, 1),
	)
}

func TestBatchRoundTrip(t *testing.T) {
	sp := batchTestSpace()
	configs := []Config{
		{0, 1, 0.25},
		{3, 0, 0.75},
		{2, 1, 0.5},
	}
	b, err := NewBatch(sp, configs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i, want := range configs {
		if got := b.Config(i); !got.Equal(want) {
			t.Fatalf("Config(%d) = %v, want %v", i, got, want)
		}
	}
	for d := 0; d < sp.NumParams(); d++ {
		col := b.Col(d)
		for i, c := range configs {
			if col[i] != c[d] {
				t.Fatalf("Col(%d)[%d] = %v, want %v", d, i, col[i], c[d])
			}
		}
	}
}

func TestBatchSliceSharesColumnsAndOffsets(t *testing.T) {
	sp := batchTestSpace()
	configs := []Config{{0, 0, 0.1}, {1, 1, 0.2}, {2, 0, 0.3}, {3, 1, 0.4}}
	b, err := NewBatch(sp, configs)
	if err != nil {
		t.Fatal(err)
	}
	v := b.Slice(1, 3)
	if v.Len() != 2 {
		t.Fatalf("slice Len=%d", v.Len())
	}
	if !v.Config(0).Equal(configs[1]) || !v.Config(1).Equal(configs[2]) {
		t.Fatalf("slice rows wrong: %v %v", v.Config(0), v.Config(1))
	}
	// A slice of a slice accumulates offsets.
	vv := v.Slice(1, 2)
	if !vv.Config(0).Equal(configs[2]) {
		t.Fatalf("nested slice row=%v", vv.Config(0))
	}
	// Views alias the parent's storage rather than copying.
	if &v.Col(0)[0] != &b.Col(0)[1] {
		t.Fatal("slice copied column data")
	}
}

func TestBatchArityMismatch(t *testing.T) {
	sp := batchTestSpace()
	if _, err := NewBatch(sp, []Config{{0, 0}}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestBatchSliceBounds(t *testing.T) {
	sp := batchTestSpace()
	b, err := NewBatch(sp, []Config{{0, 0, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{-1, 0}, {0, 2}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Slice(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			b.Slice(bad[0], bad[1])
		}()
	}
}

func TestBatchEmpty(t *testing.T) {
	sp := batchTestSpace()
	b, err := NewBatch(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d", b.Len())
	}
}
