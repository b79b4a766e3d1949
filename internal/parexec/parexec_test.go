package parexec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64, 200} {
		got, err := Map(workers, items, func(i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(nil) = %v, %v", got, err)
	}
}

func TestMapDeterministicError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 3, 8} {
		_, err := Map(workers, items, func(i, item int) (int, error) {
			if item%2 == 1 {
				return 0, fmt.Errorf("item %d failed", item)
			}
			return item, nil
		})
		if err == nil || err.Error() != "item 1 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-indexed failure", workers, err)
		}
	}
}

func TestMapRunsAllItemsDespiteFailure(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(4, make([]int, 50), func(i, item int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d items, want 50", ran.Load())
	}
}

func TestGroupSingleFlight(t *testing.T) {
	var g Group[string, int]
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	const callers = 32
	results := make([]int, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			v, err := g.Do("key", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[c] = v
		}(c)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want exactly 1", n)
	}
	for c, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", c, v)
		}
	}
}

func TestGroupMemoizesErrors(t *testing.T) {
	var g Group[int, string]
	var computes int
	fail := func() (string, error) {
		computes++
		return "", errors.New("deterministic failure")
	}
	_, err1 := g.Do(7, fail)
	_, err2 := g.Do(7, fail)
	if err1 == nil || err2 == nil || err1 != err2 {
		t.Fatalf("errors not memoized: %v vs %v", err1, err2)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("Workers(3)")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("Workers must default to at least 1")
	}
}
