package experiments

import (
	"reflect"
	"testing"
)

// TestTable1SeedStableAcrossParallelism is the seed-stability guard
// for the parallelized repetition loops: the same Config must produce
// bit-identical results whether repetitions run serially or
// concurrently — per-rep seed streams plus rep-order reduction leave
// no scheduling dependence.
func TestTable1SeedStableAcrossParallelism(t *testing.T) {
	serial, err := Table1(Config{Repetitions: 3, Seed: 99, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1(Config{Repetitions: 3, Seed: 99, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Table1 results depend on parallelism:\n -j1: %+v\n -j4: %+v", serial, parallel)
	}
}
