package runtime

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.vals) }

// Push enqueues x as a run of one, reporting false when the ring is full:
// the shape of every single-element offer.
func (r *Ring) Push(x int64) bool { return r.PushBatch([]int64{x}) == 1 }

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

// Ring op codes of FuzzRing: an op byte is k<<2 | code.
const (
	opPushBatch = iota
	opPush
	opPopInto
	opPop
)

func ringOp(code, k int) byte { return byte(k<<2 | code) }

// FuzzRing decodes op bytes into PushBatch(k)/Push/PopInto(k)/Pop on a
// ring of capacity 2–16 and checks every result against a slice queue:
// the values and their FIFO order, then Backlog, Empty and Pushed after
// each op. k runs from 0 to capacity+2, so claims are cut short by a full
// ring and pops by an empty one.
func FuzzRing(f *testing.F) {
	for _, seed := range []struct {
		capacity int
		ops      []byte
	}{
		// Partial pops mid-run: one run of 7 popped as 2+3+1+1.
		{8, []byte{ringOp(opPushBatch, 7), ringOp(opPopInto, 2), ringOp(opPop, 0), ringOp(opPopInto, 2), ringOp(opPop, 0), ringOp(opPopInto, 5)}},
		// Runs that wrap the array: every 3-run after the first straddles
		// the end of a 4-slot ring.
		{4, []byte{ringOp(opPushBatch, 3), ringOp(opPopInto, 3), ringOp(opPushBatch, 3), ringOp(opPopInto, 1), ringOp(opPushBatch, 2), ringOp(opPopInto, 6)}},
		// Stale headers from earlier laps: a full-ring run leaves head[0] at
		// exactly the cursor of the next lap, which must read as empty.
		{2, []byte{ringOp(opPushBatch, 2), ringOp(opPush, 0), ringOp(opPopInto, 4), ringOp(opPop, 0), ringOp(opPopInto, 3), ringOp(opPush, 0), ringOp(opPop, 0), ringOp(opPop, 0)}},
		{16, []byte{ringOp(opPushBatch, 18), ringOp(opPopInto, 9), ringOp(opPushBatch, 12), ringOp(opPopInto, 0), ringOp(opPopInto, 18), ringOp(opPopInto, 18)}},
		{5, []byte{ringOp(opPush, 0), ringOp(opPushBatch, 6), ringOp(opPop, 0), ringOp(opPushBatch, 1), ringOp(opPopInto, 4), ringOp(opPushBatch, 8)}},
	} {
		f.Add(byte(seed.capacity-2), seed.ops)
	}
	f.Fuzz(func(t *testing.T, capacity byte, ops []byte) {
		r := NewRing(2 + int(capacity)%15)
		c := r.Cap()
		var model []int64
		buf := make([]int64, c+2)
		next, pushed := int64(0), uint64(0)
		for step, b := range ops {
			k := int(b>>2) % (c + 3)
			switch b & 3 {
			case opPushBatch:
				xs := make([]int64, k)
				for i := range xs {
					xs[i] = next + int64(i)
				}
				got := r.PushBatch(xs)
				if want := min(k, c-len(model)); got != want {
					t.Fatalf("step %d: PushBatch(%d) took %d, want %d", step, k, got, want)
				}
				model = append(model, xs[:got]...)
				next += int64(got)
				pushed += uint64(got)
			case opPush:
				ok := r.Push(next)
				if want := len(model) < c; ok != want {
					t.Fatalf("step %d: Push = %v with %d of %d queued", step, ok, len(model), c)
				}
				if ok {
					model = append(model, next)
					next++
					pushed++
				}
			case opPopInto:
				got := r.PopInto(buf[:k])
				want := min(k, len(model))
				if got != want || !slices.Equal(buf[:got], model[:want]) {
					t.Fatalf("step %d: PopInto(%d) = %v, want %v", step, k, buf[:got], model[:want])
				}
				model = model[want:]
			case opPop:
				v, ok := r.Pop()
				if ok != (len(model) > 0) || ok && v != model[0] {
					t.Fatalf("step %d: Pop = (%d, %v) with queue %v", step, v, ok, model)
				}
				if ok {
					model = model[1:]
				}
			}
			if r.Backlog() != uint64(len(model)) || r.Empty() != (len(model) == 0) || r.Pushed() != pushed {
				t.Fatalf("step %d: Backlog %d Empty %v Pushed %d, want %d %v %d",
					step, r.Backlog(), r.Empty(), r.Pushed(), len(model), len(model) == 0, pushed)
			}
		}
	})
}

// TestRingUnpublishedRunBlocks claims a run by hand without publishing it:
// PopInto must stop at it even though a later run is already published,
// and both runs must come out in order once the first is published.
func TestRingUnpublishedRunBlocks(t *testing.T) {
	for _, tc := range []struct {
		name              string
		before, held, run int // elements pushed and popped first; the unpublished run; the published run after it
	}{
		{"fresh ring", 0, 3, 4},
		{"held run wraps", 6, 4, 2},
		{"later run wraps", 3, 2, 5},
		{"second lap", 13, 1, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(8)
			buf := make([]int64, 8)
			for i := 0; i < tc.before; i++ {
				if !r.Push(-1) || r.PopInto(buf[:1]) != 1 {
					t.Fatal("warm-up push/pop failed")
				}
			}
			pos := r.enq.Add(uint64(tc.held)) - uint64(tc.held)
			later := make([]int64, tc.run)
			for i := range later {
				later[i] = int64(tc.held + i)
			}
			if got := r.PushBatch(later); got != tc.run {
				t.Fatalf("PushBatch took %d of %d", got, tc.run)
			}
			if got := r.PopInto(buf); got != 0 {
				t.Fatalf("PopInto passed an unpublished run: got %v", buf[:got])
			}
			if b := r.Backlog(); b != uint64(tc.held+tc.run) {
				t.Fatalf("Backlog = %d, want %d", b, tc.held+tc.run)
			}
			for i := 0; i < tc.held; i++ {
				r.vals[(pos+uint64(i))&r.mask] = int64(i)
			}
			r.head[pos&r.mask].Store(pos + uint64(tc.held))
			got := r.PopInto(buf)
			for i, v := range buf[:got] {
				if v != int64(i) {
					t.Fatalf("after publishing: popped %v, want 0..%d", buf[:got], tc.held+tc.run-1)
				}
			}
			if got != tc.held+tc.run || !r.Empty() {
				t.Fatalf("after publishing: popped %d of %d, Empty %v", got, tc.held+tc.run, r.Empty())
			}
		})
	}
}

// TestRingMixedProducersPopInto runs Push and PushBatch producers against
// one PopInto popper whose buffer size varies call to call, and checks that
// every element arrives exactly once and in its producer's order.
func TestRingMixedProducersPopInto(t *testing.T) {
	const producers = 4
	const perProducer = 20000
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			batch := make([]int64, 0, 13)
			for i := 0; i < perProducer; {
				if p%2 == 0 {
					for !r.Push(int64(p)<<32 | int64(i)) {
						runtime.Gosched()
					}
					i++
					continue
				}
				batch = batch[:0]
				for j := 0; j < 1+i%13 && i+j < perProducer; j++ {
					batch = append(batch, int64(p)<<32|int64(i+j))
				}
				for xs := batch; len(xs) > 0; {
					n := r.PushBatch(xs)
					if n == 0 {
						runtime.Gosched()
					}
					xs = xs[n:]
				}
				i += len(batch)
			}
		}(p)
	}
	next := make([]int64, producers)
	buf := make([]int64, 100)
	sizes := []int{1, 3, 7, 16, 64, 100}
	for call, got := 0, 0; got < producers*perProducer; call++ {
		n := r.PopInto(buf[:sizes[call%len(sizes)]])
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range buf[:n] {
			p, seq := v>>32, v&0xffffffff
			if p < 0 || p >= producers || seq != next[p] {
				t.Fatalf("popped producer %d seq %d, want seq %d", p, seq, next[p])
			}
			next[p]++
		}
		got += n
	}
	wg.Wait()
	if !r.Empty() || r.Pushed() != producers*perProducer {
		t.Fatalf("Empty %v, Pushed %d, want true, %d", r.Empty(), r.Pushed(), producers*perProducer)
	}
}

// TestRingAllocsZero pins the ring's four data-path calls at zero
// allocations.
func TestRingAllocsZero(t *testing.T) {
	r := NewRing(64)
	xs := make([]int64, 16)
	buf := make([]int64, 16)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Push", func() { r.Push(1); r.PopInto(buf) }},
		{"PushBatch", func() { r.PushBatch(xs); r.PopInto(buf) }},
		{"Pop", func() { r.Push(1); r.Pop() }},
		{"PopInto", func() { r.PushBatch(xs); r.PopInto(buf) }},
	} {
		if a := testing.AllocsPerRun(100, tc.fn); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, a)
		}
	}
}

// BenchmarkRingPushPopChunk is the perfbench ladder's ring rung: a
// 4096-slot ring fed and drained in 1,024-element chunks on one goroutine.
func BenchmarkRingPushPopChunk(b *testing.B) {
	const chunk = 1024
	r := NewRing(4096)
	xs := make([]int64, chunk)
	for i := range xs {
		xs[i] = int64(i)
	}
	buf := make([]int64, chunk)
	b.SetBytes(chunk * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.PopInto(buf[:r.PushBatch(xs)]) != chunk {
			b.Fatal("chunk did not pass the ring")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/elem")
}
