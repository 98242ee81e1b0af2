package runtime

import (
	"runtime"
	"sync"
	"testing"
)

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.cells) }

func TestRingSerialFIFO(t *testing.T) {
	r := NewRing(8)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	for i := int64(0); i < 8; i++ {
		if !r.Push(i) {
			t.Fatalf("Push(%d) reported full", i)
		}
	}
	if r.Push(99) {
		t.Fatal("Push succeeded on a full ring")
	}
	for i := int64(0); i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop succeeded on an empty ring")
	}
	if !r.Empty() {
		t.Fatal("drained ring not Empty")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 2}, {1, 2}, {3, 4}, {8, 8}, {1000, 1024}} {
		if got := NewRing(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestRingMPSC pushes a known multiset from several producers while one
// consumer drains, and checks nothing is lost, duplicated or corrupted.
func TestRingMPSC(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := int64(p*perProducer + i)
				for !r.Push(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	seen := make([]bool, producers*perProducer)
	got := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		v, ok := r.Pop()
		if ok {
			if v < 0 || v >= int64(len(seen)) {
				t.Errorf("popped out-of-range value %d", v)
				return
			}
			if seen[v] {
				t.Errorf("value %d popped twice", v)
				return
			}
			seen[v] = true
			got++
			if got == len(seen) {
				break
			}
			continue
		}
		select {
		case <-done:
			// Producers finished; drain whatever is left, then stop.
			for {
				v, ok := r.Pop()
				if !ok {
					if got != len(seen) {
						t.Fatalf("drained %d of %d values", got, len(seen))
					}
					return
				}
				if seen[v] {
					t.Fatalf("value %d popped twice", v)
				}
				seen[v] = true
				got++
			}
		default:
			runtime.Gosched()
		}
	}
	if r.Pushed() != uint64(producers*perProducer) {
		t.Errorf("Pushed = %d, want %d", r.Pushed(), producers*perProducer)
	}
}

// TestRingPerProducerFIFO checks that each producer's own elements come out
// in the order that producer pushed them (the property the deterministic
// merge stage depends on).
func TestRingPerProducerFIFO(t *testing.T) {
	const producers = 3
	const perProducer = 3000
	r := NewRing(32)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// value = producer*2^32 + sequence
				v := int64(p)<<32 | int64(i)
				for !r.Push(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	next := make([]int64, producers)
	got := 0
	for got < producers*perProducer {
		v, ok := r.Pop()
		if !ok {
			select {
			case <-done:
				if r.Empty() && got < producers*perProducer {
					t.Fatalf("ring drained at %d of %d", got, producers*perProducer)
				}
			default:
			}
			runtime.Gosched()
			continue
		}
		p, seq := v>>32, v&0xffffffff
		if seq != next[p] {
			t.Fatalf("producer %d: popped seq %d, want %d", p, seq, next[p])
		}
		next[p]++
		got++
	}
}
