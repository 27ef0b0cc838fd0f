package ssd

import (
	"container/list"
	"math/rand"
	"runtime"
	"testing"

	"srcsim/internal/nvme"
	"srcsim/internal/sim"
)

// refLRU is an eager reference LRU over container/list: the behaviour
// the lazily preloaded CMT must reproduce exactly.
type refLRU struct {
	capacity     int
	ll           *list.List // front = most recent
	idx          map[uint64]*list.Element
	hits, misses uint64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(), idx: map[uint64]*list.Element{}}
}

func (r *refLRU) access(key uint64) bool {
	if e, ok := r.idx[key]; ok {
		r.hits++
		r.ll.MoveToFront(e)
		return true
	}
	r.misses++
	if r.ll.Len() >= r.capacity {
		delete(r.idx, r.ll.Remove(r.ll.Back()).(uint64))
	}
	r.idx[key] = r.ll.PushFront(key)
	return false
}

func (r *refLRU) preload(n uint64) {
	for key := uint64(0); key < n && key < uint64(r.capacity); key++ {
		r.access(key)
	}
	r.hits, r.misses = 0, 0
}

// TestLRUPreloadMatchesEager drives the CMT and the reference LRU with
// the same random access streams after a preload of 0, below, at and
// beyond capacity, with keys inside and outside the preloaded segment
// and an occasional second preload, and requires identical hits,
// misses and Len after every step.
func TestLRUPreloadMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		capacity := 1 + rng.Intn(48)
		if trial%10 == 0 {
			capacity = 1
		}
		var n uint64
		switch trial % 4 {
		case 1:
			n = uint64(rng.Intn(capacity))
		case 2:
			n = uint64(capacity)
		case 3:
			n = uint64(capacity + 1 + rng.Intn(2*capacity))
		}
		keySpace := 2*capacity + int(n) + 1
		c, ref := newLRUCache(capacity), newRefLRU(capacity)
		c.preload(n)
		ref.preload(n)
		for step := 0; step < 300; step++ {
			if step == 150 && trial%3 == 0 {
				n2 := uint64(rng.Intn(2 * capacity))
				c.preload(n2)
				ref.preload(n2)
			}
			key := uint64(rng.Intn(keySpace))
			if got, want := c.Access(key), ref.access(key); got != want {
				t.Fatalf("trial %d (cap %d, preload %d) step %d key %d: hit %v, want %v",
					trial, capacity, n, step, key, got, want)
			}
			if c.Len() != ref.ll.Len() || c.Hits != ref.hits || c.Misses != ref.misses {
				t.Fatalf("trial %d (cap %d, preload %d) step %d: len/hits/misses %d/%d/%d, want %d/%d/%d",
					trial, capacity, n, step, c.Len(), c.Hits, c.Misses,
					ref.ll.Len(), ref.hits, ref.misses)
			}
		}
	}
}

// TestDeviceSetupAllocation bounds what building and preconditioning a
// target-array SSD-A (4 channels x 4 dies) allocates: setup must cost
// the state a run touches, not the device's capacity.
func TestDeviceSetupAllocation(t *testing.T) {
	cfg := ConfigA()
	cfg.Channels, cfg.DiesPerChannel = 4, 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dev, err := New(sim.NewEngine(), cfg, nvme.NewSSQ(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	dev.Precondition(2 << 30)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ssd.New + Precondition(2 GiB) allocated %d bytes, want < 1 MiB", got)
	}
	if dev.cmt.Len() == 0 {
		t.Fatal("precondition installed no CMT entries")
	}
}
